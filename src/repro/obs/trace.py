"""Nestable tracing spans with structured JSON event emission.

A :class:`Tracer` hands out spans::

    with tracer.span("campaign.shard", index=3) as span:
        span.set("units", 128)
        span.incr("cache_hits")

Each closed span becomes one JSON line in every attached sink — an
append-only ``events.jsonl`` that ``spectrends profile report`` aggregates
and ``spectrends campaign watch`` tails.  Spans carry wall time
(``perf_counter``) and process CPU time (``process_time``), a span id, the
parent span id (tracked per-thread) and a monotone sequence number, so the
span tree can be rebuilt offline.

The disabled path is the hot one: ``tracer.span(...)`` on a disabled tracer
returns a shared no-op span without allocating, so instrumented code costs
one method call and one ``with`` block per span when tracing is off
(gated in ``benchmarks/test_bench_obs.py``).

The module-level tracer (:func:`get_tracer`) starts disabled unless
``REPRO_TRACE=1`` or ``REPRO_PROFILE=1`` is set in the environment;
:func:`configure_tracing` reconfigures it at runtime.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any

from ..io.jsonl import dumps_line

__all__ = [
    "Span",
    "NullSpan",
    "Tracer",
    "JsonlSink",
    "configure_tracing",
    "get_tracer",
    "tracing_env_enabled",
]


class _NullSpan:
    """Shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        return None

    def incr(self, key: str, amount: float = 1.0) -> None:
        return None


NullSpan = _NullSpan()


class Span:
    """One timed unit of work; emits an event record when it closes."""

    __slots__ = (
        "tracer",
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "depth",
        "seq",
        "started_at",
        "_wall_start",
        "_cpu_start",
        "wall_s",
        "cpu_s",
        "status",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: dict[str, Any],
        span_id: int,
        parent_id: int | None,
        depth: int,
        seq: int,
    ):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.seq = seq
        self.started_at = time.time()
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        self.wall_s: float | None = None
        self.cpu_s: float | None = None
        self.status = "ok"

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def incr(self, key: str, amount: float = 1.0) -> None:
        self.attrs[key] = self.attrs.get(key, 0) + amount

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = time.perf_counter() - self._wall_start
        self.cpu_s = time.process_time() - self._cpu_start
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._close_span(self)

    def to_record(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "event": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "seq": self.seq,
            "ts": self.started_at,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "status": self.status,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class JsonlSink:
    """Append-only JSON-lines sink, atomic across threads *and* processes.

    Each event is serialised to one complete ``...\\n`` line and handed to
    the kernel as a **single** ``os.write`` on an ``O_APPEND`` descriptor —
    POSIX applies the append offset atomically per write, so events from
    concurrent campaign workers sharing one ``events.jsonl`` land whole and
    never interleave within a line.  (A buffered text handle, the previous
    implementation, was only safe within one process: its flushes could
    split a line across multiple ``write(2)`` calls.)
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fd: int | None = None

    def emit(self, record: dict[str, Any]) -> None:
        data = dumps_line(record).encode("utf-8")
        with self._lock:
            if self._fd is None:
                self._fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            os.write(self._fd, data)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


class _SpanStack(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []


class Tracer:
    """Span factory fanning closed spans out to attached sinks."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._sinks: list[JsonlSink] = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._seq = 0
        self._local = _SpanStack()

    # -- sink management -------------------------------------------------
    def add_sink(self, sink: JsonlSink) -> JsonlSink:
        with self._lock:
            self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: JsonlSink) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)
        sink.close()

    @property
    def sinks(self) -> tuple[JsonlSink, ...]:
        with self._lock:
            return tuple(self._sinks)

    # -- span / event creation -------------------------------------------
    def span(self, name: str, /, **attrs: Any):
        if not self.enabled:
            return NullSpan
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            seq = self._seq
            self._seq += 1
        stack = self._local.stack
        parent_id = stack[-1] if stack else None
        span = Span(self, name, attrs, span_id, parent_id, len(stack), seq)
        stack.append(span_id)
        return span

    def _close_span(self, span: Span) -> None:
        stack = self._local.stack
        if stack and stack[-1] == span.span_id:
            stack.pop()
        elif span.span_id in stack:  # out-of-order exit; drop through it
            del stack[stack.index(span.span_id) :]
        self._emit(span.to_record())

    def event(self, name: str, /, **fields: Any) -> None:
        """Emit a free-standing (non-span) event record."""
        if not self.enabled:
            return
        with self._lock:
            seq = self._seq
            self._seq += 1
        record = {"event": name, "ts": time.time(), "seq": seq}
        record.update(fields)
        self._emit(record)

    def _emit(self, record: dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(record)


def tracing_env_enabled(environ: dict[str, str] | None = None) -> bool:
    """Whether ``REPRO_TRACE``/``REPRO_PROFILE`` ask for tracing."""
    env = os.environ if environ is None else environ
    for key in ("REPRO_TRACE", "REPRO_PROFILE"):
        if env.get(key, "").strip().lower() in {"1", "true", "yes", "on"}:
            return True
    return False


_global_tracer: Tracer | None = None
_global_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer (created on first use, env-configured)."""
    global _global_tracer
    if _global_tracer is None:
        with _global_lock:
            if _global_tracer is None:
                tracer = Tracer(enabled=tracing_env_enabled())
                trace_file = os.environ.get("REPRO_TRACE_FILE", "").strip()
                if tracer.enabled and trace_file:
                    tracer.add_sink(JsonlSink(trace_file))
                _global_tracer = tracer
    return _global_tracer


def configure_tracing(
    enabled: bool | None = None,
    path: str | Path | None = None,
) -> Tracer:
    """Reconfigure the global tracer; returns it.

    ``enabled=None`` leaves the enabled flag alone; ``path`` attaches one
    more :class:`JsonlSink`.
    """
    tracer = get_tracer()
    if enabled is not None:
        tracer.enabled = enabled
    if path is not None:
        tracer.add_sink(JsonlSink(path))
    return tracer
