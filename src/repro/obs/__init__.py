"""Zero-dependency observability: tracing, metrics, profiling and alerts.

The telemetry plane of the pipeline, deliberately decoupled from what it
observes:

* :mod:`repro.obs.trace` — nestable spans with wall/CPU timings, counters
  and attributes, emitted as structured JSON events to append-only
  ``events.jsonl`` sinks.  Off by default; a disabled tracer costs one
  no-op context manager per span (overhead gated in
  ``benchmarks/test_bench_obs.py``).
* :mod:`repro.obs.metrics` — a registry of counters, gauges and mergeable
  fixed-edge histograms.
* :mod:`repro.obs.profile` — per-span self-time aggregation over an event
  log (``spectrends profile report``).
* :mod:`repro.obs.watch` — live rendering of a running campaign store
  (``spectrends campaign watch``).
* :mod:`repro.obs.alerts` — threshold/drift rules and failure
  classification against the paper's anomaly taxonomy.

Event emission is bit-effect-free on results: instrumentation observes the
data plane, it never participates in it (sharded == unsharded identity is
pinned with tracing enabled).

``profile`` and ``watch`` import the campaign layer lazily, so this package
stays importable from inside :mod:`repro.campaign` without a cycle.
"""

from .metrics import Counter, Gauge, MetricsRegistry, StreamingHistogram
from .trace import JsonlSink, Span, Tracer, configure_tracing, get_tracer

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "StreamingHistogram",
    "JsonlSink",
    "Span",
    "Tracer",
    "configure_tracing",
    "get_tracer",
]
