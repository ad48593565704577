"""Per-layer tracing from outside the program.

The traced run wraps the public functions each layer calls into, at the
name its caller looks up (``repro.campaign.runner.parse_result_text``, not
``repro.parser.resultfile.parse_result_text``), so nothing under ``src/``
changes.  Each wrapper records a span -- name, start, end, parent, op id --
into an in-memory list, plus call and row counts where the layer's work is
countable.  Spans are turned into per-layer self time (duration minus the
time child spans cover) only after the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable

from stats import self_times

_NOW = time.perf_counter


class Recorder:
    """In-memory span and count store; records only while an op is open."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent, op]
        self.counts: Counter[tuple[int, str]] = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[Callable[[], None]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _NOW(), 0.0, parent, self._op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _NOW()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self._op is not None:
            self.counts[(self._op, name)] += amount

    def begin_op(self, op: int) -> int:
        """Open the root span of one op; every layer span nests under it."""
        self._op = op
        return self.open("op")

    def end_op(self, root: int) -> None:
        self.close(root)
        self._op = None

    # -- wrapping --------------------------------------------------------- #
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Callable[["Recorder", tuple, dict, Any], None] | None = None,
        on_error: Callable[["Recorder", BaseException], None] | None = None,
        skip: Callable[[tuple], bool] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module or a class; class attributes keep their
        descriptor kind (plain function, ``classmethod``, ``staticmethod``).
        ``skip(args)`` passes a call through unrecorded (e.g. the base-class
        half of a subclass call already recorded by the subclass wrapper).
        """
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        original = raw.__func__ if kind is not None else raw
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if recorder._op is None or (skip is not None and skip(args)):
                return original(*args, **kwargs)
            index = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                recorder.close(index)
                recorder.count(name)
                if on_error is not None:
                    on_error(recorder, exc)
                raise
            recorder.close(index)
            recorder.count(name)
            if on_result is not None:
                on_result(recorder, args, kwargs, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._restore.append(lambda: setattr(owner, attr, raw))

    def wrap_generator(self, owner: type, attr: str, name: str) -> None:
        """Wrap a generator method so every ``next()`` is one span."""
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            generator = original(*args, **kwargs)
            if recorder._op is None:
                return generator
            return _timed(generator)

        def _timed(generator):
            while True:
                index = recorder.open(name)
                try:
                    item = next(generator)
                except StopIteration:
                    recorder.close(index)
                    return
                recorder.close(index)
                recorder.count(name)
                yield item

        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results ---------------------------------------------------------- #
    def op_layers(self) -> dict[int, dict[str, float]]:
        """Self seconds per span name per op (the root span is ``op``)."""
        selfs = self_times([(span[1], span[2], span[3]) for span in self.spans])
        per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, selfs):
            per_op[span[4]][span[0]] += own
        return per_op

    def op_counts(self) -> dict[int, dict[str, float]]:
        per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (op, name), value in self.counts.items():
            per_op[op][name] += value
        return per_op


def _is_result_cache(args: tuple) -> bool:
    from repro.campaign.cache import ResultCache

    return bool(args) and isinstance(args[0], ResultCache)


def _count_cache_hit(recorder: Recorder, args: tuple, kwargs: dict, row: Any) -> None:
    if row is not None:
        recorder.count("cache.hit")


def _count_batch_runs(recorder: Recorder, args: tuple, kwargs: dict, results: Any) -> None:
    recorder.count("simulator.runs", len(results))


def _count_flushed_bytes(recorder: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    arrays = kwargs.get("arrays", args[3] if len(args) > 3 else None)
    if arrays:
        recorder.count("artifacts.bytes", sum(array.nbytes for array in arrays.values()))


def _count_reduced_values(recorder: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    frame = args[1]
    values = 0
    for name in frame.columns:
        column = frame[name]
        if column.kind in ("float", "int"):
            mask = column.mask
            values += len(column) if mask is None else int(len(mask) - mask.sum())
    recorder.count("reduce.values", values)


def _count_invalid(recorder: Recorder, args: tuple, kwargs: dict, report: Any) -> None:
    if not report.is_valid:
        recorder.count("parser.rejected")


def _count_parse_error(recorder: Recorder, exc: BaseException) -> None:
    recorder.count("parser.rejected")


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics are taken from."""
    from repro.campaign.aggregate import FrameAccumulator
    from repro.campaign.cache import ResultCache
    from repro.campaign.reduce import FrameReducer
    from repro.campaign.spec import CampaignSpec
    from repro.frame import Frame
    from repro.session.artifacts import ArtifactStore
    from repro.simulator.batch import BatchDirector

    wrap = recorder.wrap
    # campaign.spec: unit keying, one span per expanded unit.
    recorder.wrap_generator(CampaignSpec, "iter_units", "spec.key")
    wrap("repro.campaign.spec", "unit_key", "spec.key")
    wrap("repro.campaign.spec", "entry_digest", "spec.entry_digest")
    # campaign.runner + simulator.batch.
    wrap("repro.campaign.runner", "dispatch_simulations", "runner.dispatch")
    wrap(BatchDirector, "run_batch", "simulator.kernel", on_result=_count_batch_runs)
    # reportgen / parser round trip of campaign units.
    wrap("repro.campaign.runner", "render_report", "reportgen.render")
    wrap("repro.campaign.runner", "parse_result_text", "parser.parse")
    wrap("repro.campaign.runner", "validate_run", "parser.validate")
    wrap("repro.reportgen.records", "derive_record", "reportgen.derive")
    # campaign.cache: per-unit result files.
    wrap(ResultCache, "get", "cache.get", on_result=_count_cache_hit)
    wrap(ResultCache, "put", "cache.put")
    # campaign.aggregate: row assembly into the shard frame.
    wrap("repro.campaign.sharding", "annotate_row", "aggregate.assemble")
    wrap(FrameAccumulator, "add_row", "aggregate.assemble")
    wrap(FrameAccumulator, "to_frame", "aggregate.assemble")
    # campaign.reduce (+ obs.sketch).
    wrap(FrameReducer, "update", "reduce.update", on_result=_count_reduced_values)
    # session.artifacts + session.columnar: shard artifacts.  The result
    # cache subclasses ArtifactStore; its calls are already cache spans.
    wrap("repro.campaign.sharding", "frame_to_arrays", "artifacts.flush")
    wrap(ArtifactStore, "put", "artifacts.flush", _count_flushed_bytes, skip=_is_result_cache)
    wrap(ArtifactStore, "sidecar_digest", "artifacts.checksum")
    wrap(ArtifactStore, "get", "artifacts.load", skip=_is_result_cache)
    wrap(ArtifactStore, "get_arrays", "artifacts.load")
    wrap("repro.campaign.sharding", "frame_from_arrays", "artifacts.load")
    # campaign.store + io.jsonl: ledgers.
    wrap("repro.campaign.store", "append_jsonl", "store.append")
    wrap("repro.campaign.store", "read_jsonl", "store.read")
    # campaign.sharding: the streaming pass itself, as the benchmark calls it.
    wrap("repro.campaign", "stream_campaign", "sharding.stream")
    # parser (files): the paper pipeline's corpus parse.
    wrap("repro.parser.corpus", "parse_result_file", "parser.file", on_error=_count_parse_error)
    wrap("repro.parser.corpus", "validate_run", "parser.validate_file", _count_invalid)
    # frame, core, plotting.
    wrap(Frame, "from_records", "frame.build")
    wrap("repro.core.dataset", "derive_columns", "frame.build")
    wrap("repro.core.filters", "apply_paper_filters", "core.filters")
    wrap("repro.core.report", "apply_paper_filters", "core.filters")
    wrap("repro.core.report", "build_report", "core.report")
    wrap("repro.core.figures", "all_figures", "core.figures")


#: Per-layer metrics of the single-process workloads (the service layers come
#: from ``workloads.ServiceMixed.service_layers``).
#: ``(metric, numerator span-or-count, denominator)``; a numerator that is a
#: span name sums that name's self time, in microseconds unless the metric
#: says ``_ms``.  Denominators: ``units``, ``shards``, ``op`` (per op),
#: ``wall`` (share of the op's wall time) or a count name.
LAYER_METRICS: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("spec.key_us_per_unit", ("spec.key", "spec.entry_digest"), "units"),
    ("spec.entry_digests_per_unit", ("#spec.entry_digest",), "units"),
    ("runner.dispatch_us_per_unit", ("runner.dispatch",), "units"),
    ("simulator.kernel_us_per_unit", ("simulator.kernel",), "units"),
    ("simulator.runs_per_batch", ("#simulator.runs",), "#simulator.kernel"),
    ("reportgen.render_us_per_unit", ("reportgen.render",), "units"),
    ("parser.parse_us_per_unit", ("parser.parse",), "units"),
    ("parser.validate_us_per_unit", ("parser.validate",), "units"),
    ("reportgen.derive_us_per_unit", ("reportgen.derive",), "units"),
    ("cache.put_us_per_unit", ("cache.put",), "units"),
    ("cache.get_us_per_probe", ("cache.get",), "#cache.get"),
    ("cache.hit_ratio", ("#cache.hit",), "#cache.get"),
    ("cache.files_per_unit", ("#cache.put",), "units"),
    ("aggregate.assemble_us_per_unit", ("aggregate.assemble",), "units"),
    ("reduce.update_us_per_unit", ("reduce.update",), "units"),
    ("reduce.values_per_unit", ("#reduce.values",), "units"),
    ("artifacts.flush_us_per_shard", ("artifacts.flush",), "shards"),
    ("artifacts.bytes_per_unit", ("#artifacts.bytes",), "units"),
    ("artifacts.checksum_us_per_shard", ("artifacts.checksum",), "shards"),
    ("artifacts.load_us_per_shard", ("artifacts.load",), "shards"),
    ("store.append_us_per_shard", ("store.append",), "shards"),
    ("store.ledger_reads_per_shard", ("#store.read",), "shards"),
    ("sharding.self_us_per_unit", ("sharding.stream",), "units"),
    ("sharding.reloaded_share", ("#sharding.reloaded",), "shards"),
    ("sharding.unaccounted_share", ("sharding.stream",), "wall"),
    ("parser.file_us", ("parser.file",), "#parser.file"),
    ("parser.validate_file_us", ("parser.validate_file",), "#parser.validate_file"),
    ("parser.rejected", ("#parser.rejected",), "op"),
    ("frame.build_ms", ("frame.build",), "op"),
    ("core.filters_ms", ("core.filters",), "op"),
    ("core.report_ms", ("core.report",), "op"),
    ("core.figures_ms", ("core.figures",), "op"),
    ("session.self_ms", ("op",), "op"),
)

#: Metrics that are exact counts, reported from the first traced op.
COUNT_METRICS = frozenset(
    name for name, numerator, _ in LAYER_METRICS if numerator[0].startswith("#")
)


def layer_values(
    selfs: dict[str, float],
    counts: dict[str, float],
    sizes: dict[str, float],
) -> dict[str, float]:
    """Per-layer metric values of one traced op.

    ``sizes`` gives the op's ``units``, ``shards`` and ``wall``.
    A metric whose denominator is zero (its layer did not run) reads 0.
    """
    values: dict[str, float] = {}
    for metric, numerator, denominator in LAYER_METRICS:
        if numerator[0].startswith("#"):
            top = sum(counts.get(name[1:], 0.0) for name in numerator)
        else:
            scale = 1e3 if metric.endswith("_ms") else 1e6
            top = sum(selfs.get(name, 0.0) for name in numerator) * scale
        if denominator == "op":
            bottom = 1.0
        elif denominator == "wall":
            bottom = sizes["wall"] * 1e6
        elif denominator.startswith("#"):
            bottom = counts.get(denominator[1:], 0.0)
        else:
            bottom = sizes.get(denominator, 0.0)
        values[metric] = top / bottom if bottom else 0.0
    return values
