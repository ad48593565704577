"""Shard-by-shard campaign execution: the one path that writes campaign rows.

Every campaign run goes through the same shard step (:class:`ShardStep`):
reload a recorded complete shard, else adopt a flushed-but-unrecorded
artifact, else execute the shard's missing units and flush its rows to a
columnar ``.npz`` artifact in the campaign store's ``shards/`` (the only copy
of those rows: the unit cache's ``results/index.jsonl`` points into it).
Three loops drive that step:

* :func:`stream_campaign` consumes the expansion lazily through
  :func:`iter_shards` (the full unit list never exists in memory) and lets
  each shard's frame go before the next shard starts, so sweep size is
  O(shard) in memory,
* :func:`execute_shard` runs one shard for a worker process,
* the resident :func:`~repro.campaign.runner.run_campaign` concatenates the
  shard frames into one in-memory campaign frame,

and the :class:`CampaignStore` shard manifest records each flush, so a killed
campaign resumes at shard granularity: complete shards reload their
artifact (zero per-unit cache probing), only incomplete shards re-execute.

A shard's units are simulated in the process that runs its step.
:class:`WorkerPool` is the one process pool for campaign work: its workers
run shards through :func:`run_shard` (a lease claim in the shard ledger,
:mod:`repro.campaign.leases`, around :func:`execute_shard`).
``stream_campaign(workers=N)`` starts one for a run, and its serial pass
doubles as the *reclaimer*: it reloads completed shard artifacts in shard
order and re-executes whatever a crashed worker left unfinished, so a
SIGKILL'd worker costs at most one shard of repeated work.  The service
scheduler keeps one pool for its life; :func:`run_worker` runs
:func:`run_shard` as a standalone ``spectrends campaign worker``.

Equivalence contract
--------------------
Sharding changes *when* rows leave memory, never *what* they are.  Unit
keys and cached rows do not depend on the shard size, and shard
concatenation reproduces the campaign frame of any other shard size (the
resident one included) bit-for-bit.  The aggregate is taken in a finalize
pass that reads each numeric column back from the verified shard
artifacts, one column at a time, and reduces the same values the
concatenated frame holds with the function
:func:`~repro.campaign.reduce.reduce_frame` applies to that frame — so the
streamed aggregate is bit-identical to reducing the frame in one pass by
construction (all pinned by the sharding tests and
``benchmarks/test_bench_shard.py``).  Worker pools keep the contract
because aggregation never happens in workers: they only populate shard
artifacts (deterministic, content-addressed), and the coordinator reads
those artifacts in shard-index order exactly like a serial run — so an
N-worker run is bit-identical to the 1-worker run too.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from queue import Empty
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

import numpy as np

from ..errors import ArtifactError, CampaignError, InjectedFault
from ..faults.plan import fault_point, install_fault_plan
from ..faults.retry import RetryPolicy
from ..frame import Frame, concat
from ..frame.mmapio import NpzMap
from ..market.catalog import Catalog
from ..obs.trace import get_tracer
from ..session.artifacts import ArtifactStore, digest_json
from ..session.columnar import frame_from_arrays, frame_to_arrays, numeric_slots
from ..session.policy import ExecutionPolicy
from .aggregate import annotate_row, assemble_frame
from .cache import ResultCache
from .leases import DEFAULT_LEASE_TTL, LeaseHeartbeat, LeaseLedger
from .reduce import (
    DEFAULT_QUANTILES,
    FrameReducer,
    column_summary,
    frame_quantiles,
    quantile_label,
    valid_values,
)
from .spec import CampaignSpec, CampaignUnit
from .store import CampaignStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..frame.plan import LazyFrame

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "Shard",
    "ShardOutcome",
    "StreamingCampaignResult",
    "iter_shards",
    "scan_shards",
    "stream_campaign",
    "resume_streaming",
    "execute_shard",
    "ShardStep",
    "ShardTask",
    "ShardTaskResult",
    "WorkerPool",
    "run_shard",
    "run_worker",
    # Row annotation, still looked up here by the per-layer trace
    # (perfbench/tracing.py); shard frames are built by assemble_frame.
    "annotate_row",
]

#: Default units per shard: large enough to keep the batch kernel saturated
#: and the per-shard bookkeeping negligible, small enough that a resident
#: shard (units + rows + frame) stays in the tens of megabytes.
DEFAULT_SHARD_SIZE = 1024

#: Labels of the quantiles shard artifacts and events record: one label list
#: per artifact or event, one value list per column.
_QUANTILE_LABELS = [quantile_label(q) for q in DEFAULT_QUANTILES]


# --------------------------------------------------------------------------- #
# Shard planning
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Shard:
    """One contiguous window of a campaign expansion."""

    index: int
    start: int
    units: tuple[CampaignUnit, ...]

    @property
    def stop(self) -> int:
        return self.start + len(self.units)

    @property
    def n_units(self) -> int:
        return len(self.units)

    def keys_digest(self) -> str:
        """Short content digest of the shard's unit keys, in order.

        Folded into the shard manifest so ``resume`` detects a store whose
        spec snapshot no longer matches the recorded shards (e.g. a catalog
        change between runs) instead of trusting stale artifacts.
        """
        return digest_json([unit.key for unit in self.units])[:16]

    def artifact_key(self) -> str:
        """Content-hash key of the shard's columnar frame artifact."""
        return digest_json(
            {
                "shard": self.index,
                "start": self.start,
                "keys": [unit.key for unit in self.units],
            }
        )


def iter_shards(
    spec: CampaignSpec,
    catalog: Catalog | None = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> Iterator[Shard]:
    """Lazily partition a spec's expansion into fixed-size shards.

    Only one shard's units are resident at a time; memory is O(shard_size)
    plus the duplicate-detection key set (64 hex chars per unit).
    """
    if shard_size < 1:
        raise CampaignError(f"shard_size must be >= 1, got {shard_size}")
    window: list[CampaignUnit] = []
    index = 0
    start = 0
    for unit in spec.iter_units(catalog):
        window.append(unit)
        if len(window) == shard_size:
            yield Shard(index=index, start=start, units=tuple(window))
            index += 1
            start += len(window)
            window.clear()
    if window:
        yield Shard(index=index, start=start, units=tuple(window))


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardOutcome:
    """Bookkeeping of one executed (or reloaded) shard."""

    index: int
    start: int
    n_units: int
    n_rows: int
    cache_hits: int
    simulated: int
    failures: tuple[tuple[str, str], ...]  # (unit_id, error)
    artifact_key: str
    reloaded: bool  # served wholesale from the artifact
    # Telemetry (observability only — never read back by the data plane):
    # simulation-kernel seconds, frame-assembly seconds, flushed array bytes.
    kernel_s: float = 0.0
    assembly_s: float = 0.0
    flush_bytes: int = 0
    #: Units of this shard excluded as quarantined poison units — they are
    #: accounted as resolved (not pending), which is what lets a degraded
    #: campaign converge instead of re-executing its poison forever.
    quarantined: int = 0
    #: SHA-256 of the artifact's ``.npz`` sidecar this pass flushed or
    #: verified (``None`` for stores that predate checksums).
    checksum: str | None = None
    #: The shard's exact quantiles as its event carries them
    #: (``{column: [p50, p90, p99]}``), or ``None`` when the reloaded
    #: artifact's payload already holds them.
    quantiles: dict[str, list[float | None]] | None = None

    @property
    def is_complete(self) -> bool:
        return self.n_rows + self.quarantined == self.n_units


@dataclass(frozen=True)
class StreamingCampaignResult:
    """Outcome of one :func:`stream_campaign` invocation.

    Unlike :class:`~repro.campaign.runner.CampaignResult` there is no
    resident campaign frame — rows live in the store's per-shard ``.npz``
    artifacts, and :attr:`aggregate` carries the streamed column summary
    (count / sum / mean / min / max / var and exact p50 / p90 / p99 per
    numeric column).
    :meth:`iter_frames` re-streams the rows shard by shard;
    :meth:`frame` materialises them all (only do that at sizes where the
    resident runner would have been fine too).
    """

    total_units: int
    shard_size: int
    cache_hits: int
    simulated: int
    failures: tuple[tuple[str, str], ...]  # (unit_id, error)
    shards: tuple[ShardOutcome, ...]
    aggregate: Frame
    store_directory: str
    #: Worker processes the run fanned out across (1 = serial streaming).
    #: Purely bookkeeping — results are bit-identical for any worker count.
    n_workers: int = 1
    #: Poison units excluded via ``quarantine.jsonl``: ``(unit_id, error)``.
    quarantined: tuple[tuple[str, str], ...] = ()

    @property
    def completed(self) -> int:
        return sum(shard.n_rows for shard in self.shards)

    @property
    def total_shards(self) -> int:
        return len(self.shards)

    @property
    def is_complete(self) -> bool:
        return self.completed == self.total_units

    @property
    def status(self) -> str:
        """``complete``, ``degraded`` (all but quarantined), or ``partial``."""
        if self.is_complete:
            return "complete"
        if self.quarantined and (
            self.completed + len(self.quarantined) >= self.total_units
        ):
            return "degraded"
        return "partial"

    def describe(self) -> str:
        lines = [
            f"{self.total_units} units in {self.total_shards} shards "
            f"(shard_size={self.shard_size}): {self.cache_hits} cached, "
            f"{self.simulated} simulated, {len(self.failures)} failed "
            f"({self.completed} rows in {self.store_directory})"
        ]
        if self.quarantined:
            lines.append(
                f"  status {self.status}: {len(self.quarantined)} "
                "unit(s) quarantined"
            )
            for unit_id, error in self.quarantined:
                lines.append(f"  quarantined {unit_id}: {error}")
        for unit_id, error in self.failures:
            lines.append(f"  failed {unit_id}: {error}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    def _shard_store(self) -> ArtifactStore:
        return CampaignStore(self.store_directory).shard_store

    def iter_frames(self) -> Iterator[Frame]:
        """Yield each shard's frame from its artifact, one at a time."""
        store = self._shard_store()
        for shard in self.shards:
            if shard.n_rows == 0:
                continue
            frame = _load_shard_frame(store, shard.artifact_key)
            if frame is None:
                raise CampaignError(
                    f"shard {shard.index} artifact is missing from "
                    f"{self.store_directory}; re-run the campaign"
                )
            yield frame

    def frame(self) -> Frame:
        """The full campaign frame, concatenated from the shard artifacts.

        Materialises every row — O(plan) memory, exactly what streaming
        avoids — so reserve this for sweep sizes the resident runner could
        also hold.  The result is bit-identical to the resident
        :attr:`CampaignResult.frame` of the same spec.
        """
        return concat(list(self.iter_frames()))

    def lazy_frame(self):
        """A lazy scan over the shard artifacts; see :func:`scan_shards`.

        Post-campaign analysis (Table-1 summaries, figure inputs) filters
        and aggregates through the plan optimizer without materialising
        the campaign: predicates push into each shard's ``.npz`` load, so
        only matching row ranges of the needed columns are ever read.
        ``collect()`` output is bit-identical to running the same chain
        eagerly on :meth:`frame`.
        """
        return scan_shards(self.store_directory)

    def write_csv(self, path: str | os.PathLike) -> int:
        """Stream the campaign rows to a CSV file, one shard at a time.

        Returns the number of rows written.  Memory stays O(shard); the
        shard schemas must agree (same spec ⇒ same columns).
        """
        from ..frame.csvio import frame_to_csv_text

        directory = os.path.dirname(os.fspath(path))
        if directory:
            os.makedirs(directory, exist_ok=True)
        path = Path(path)
        header: list[str] | None = None
        rows = 0
        with path.open("w", encoding="utf-8", newline="") as handle:
            for frame in self.iter_frames():
                text = frame_to_csv_text(frame)
                if header is None:
                    header = frame.columns
                    handle.write(text)
                else:
                    if frame.columns != header:
                        raise CampaignError(
                            "shard schemas differ; use frame() to "
                            "concatenate with union-of-columns semantics"
                        )
                    handle.write(text.split("\n", 1)[1])
                rows += len(frame)
        return rows


# --------------------------------------------------------------------------- #
# Streaming execution
# --------------------------------------------------------------------------- #
def _campaign_summaries(
    store: CampaignStore,
    outcomes: list[ShardOutcome],
    reducer: FrameReducer,
    reflush: Callable[[int], ShardOutcome],
) -> dict[str, dict[str, Any]]:
    """The campaign's :func:`~repro.campaign.reduce.column_summary` per column.

    The finalize half of the aggregate: each column is read back from the
    shard sidecars on its own (``pread`` of its stacked-member row and
    mask row) into one float64 array of its valid values, in shard order,
    so resident memory is one float64 per row plus one shard's mask —
    never the whole frame — and the array is the one a resident frame's
    column yields.  A sidecar this pass flushed is read only once its bytes
    match the checksum the flush recorded; a torn one is re-flushed by
    ``reflush`` first, which re-simulates its rows (the torn artifact was
    their only copy).  Reloaded and recovered shards were verified against
    their checksum earlier in this pass and are not hashed again.
    """
    shard_store = store.shard_store
    sidecars: list[tuple[NpzMap, dict[str, tuple[str, int, int]], int]] = []
    for outcome in outcomes:
        if outcome.n_rows == 0:
            continue
        key = outcome.artifact_key
        if (
            not outcome.reloaded
            and outcome.checksum is not None
            and shard_store.sidecar_digest(key) != outcome.checksum
        ):
            outcome = reflush(outcome.index)
            if shard_store.sidecar_digest(key) != outcome.checksum:
                raise CampaignError(
                    f"shard {outcome.index} artifact failed verification again "
                    f"after a re-flush in {store.directory}"
                )
        slots = numeric_slots(shard_store.get(key)["columns"])
        sidecars.append((NpzMap(shard_store.sidecar_path(key)), slots, outcome.n_rows))
    gathered = np.empty(sum(n_rows for _, _, n_rows in sidecars))
    summaries: dict[str, dict[str, Any]] = {}
    for name in reducer.columns:
        filled = 0
        for sidecar, slots, n_rows in sidecars:
            if name not in slots:
                continue
            member, row, mask_row = slots[name]
            values = valid_values(
                sidecar.read_rows(member, row, 0, n_rows),
                sidecar.read_rows("masks", mask_row, 0, n_rows),
            )
            gathered[filled : filled + len(values)] = values
            filled += len(values)
        summaries[name] = column_summary(gathered[:filled], reducer.quantiles)
    return summaries


def _event_quantiles(
    quantiles: Mapping[str, Mapping[str, Any]],
) -> dict[str, list[float | None]]:
    """``{column: [p50, p90, p99]}``: each column's values in label order."""
    return {
        name: [values[label] for label in _QUANTILE_LABELS] for name, values in quantiles.items()
    }


def _load_shard(store: ArtifactStore, key: str) -> tuple[Frame, dict[str, Any]] | None:
    """One shard's frame and artifact payload; ``None`` on a miss."""
    fault_point("artifact.read", ctx=key)
    payload = store.get(key)
    if payload is None:
        return None
    arrays = store.get_arrays(key)
    if arrays is None:
        return None
    return frame_from_arrays(payload["columns"], arrays), payload


def _load_shard_frame(store: ArtifactStore, key: str) -> Frame | None:
    """Rebuild one shard frame from its artifact; ``None`` on a miss."""
    loaded = _load_shard(store, key)
    return None if loaded is None else loaded[0]


def _reload_quantiles(
    frame: Frame, payload: Mapping[str, Any]
) -> dict[str, list[float | None]] | None:
    """What a reloaded shard's event carries: ``None`` if its payload has them.

    Artifacts hold their shard's quantiles since they were first recorded
    in the payload; one written before then has its quantiles taken again.
    """
    if "quantiles" in payload:
        return None
    return _event_quantiles(frame_quantiles(frame))


def scan_shards(store_dir: str | os.PathLike) -> "LazyFrame":
    """A lazy plan over every completed shard artifact under ``store_dir``.

    Reads the shard ledger (not the artifacts), builds one pushdown-capable
    ``.npz`` scan per non-empty shard in shard-index order, and concatenates
    them lazily — so ``scan_shards(d).filter(col("power_100") > 100).collect()``
    streams each shard's sidecar chunk-wise, reading only the predicate and
    output columns, and never holds more than one chunk plus the survivors.
    Collecting with no plan steps is bit-identical to
    :meth:`StreamingCampaignResult.frame`.
    """
    from ..frame.plan import LazyFrame, concat_lazy, scan_npz

    store = CampaignStore(store_dir)
    store.load_spec()  # a missing/foreign directory errors, not an empty plan
    shard_store = store.shard_store
    scans: list[LazyFrame] = []
    entries = store.shard_entries()
    for index in sorted(entries):
        entry = entries[index]
        if entry.get("n_rows", 0) == 0:
            continue
        artifact_key = entry.get("artifact")
        payload = shard_store.get(artifact_key) if isinstance(artifact_key, str) else None
        if payload is None:
            raise CampaignError(
                f"shard {index} artifact is missing from {os.fspath(store_dir)}; "
                "re-run the campaign"
            )
        sidecar = shard_store.sidecar_path(artifact_key)
        if not sidecar.exists():
            raise CampaignError(
                f"shard {index} columnar sidecar is missing from "
                f"{os.fspath(store_dir)}; re-run the campaign"
            )
        scans.append(scan_npz(sidecar, payload["columns"], label=f"shard{index}"))
    return concat_lazy(scans)


def _tear_sidecar(store: ArtifactStore, key: str, fraction: float) -> None:
    """Truncate an artifact's ``.npz`` sidecar (partial-write fault)."""
    sidecar = store.sidecar_path(key)
    if sidecar.exists():
        data = sidecar.read_bytes()
        sidecar.write_bytes(data[: max(1, int(len(data) * fraction))])


#: Error prefix of a unit that simulated but failed validation.  Validation is
#: a pure function of the unit's plan, options and seed, so such a failure
#: repeats bit for bit and is never retried.
_VALIDATION_ERROR = "validation: "


def _execute_pending(
    pending: list[CampaignUnit],
    shard: Shard,
    store: CampaignStore,
    batch: bool,
    catalog: Catalog | None,
    retry: RetryPolicy | None,
    rows_by_key: dict[str, Mapping[str, Any]],
) -> tuple[list[tuple[str, str]], int]:
    """Run the shard's missing units with per-unit retry rounds.

    Successful rows land in ``rows_by_key`` (the shard's artifact, flushed
    by the caller, is where they are stored); every attempt (retries
    included) is appended to the ledger in one batch.
    Returns the surviving failures (``(unit_id, error)``) and the number of
    units quarantined *by this call* — units that still failed after
    ``retry.max_attempts`` rounds, or failed validation (deterministic, so
    quarantined on that attempt), which are recorded in
    ``quarantine.jsonl`` and excluded from future passes.  With
    ``retry=None`` this is exactly the historical single-round behaviour.
    """
    from .runner import dispatch_simulations

    by_key = {unit.key: unit for unit in shard.units}
    ledger: list[tuple[CampaignUnit, str | None]] = []
    errors: dict[str, str] = {}
    attempts: dict[str, int] = {}
    to_run = list(pending)
    round_no = 0
    retry_budget = retry.shard_retry_budget if retry is not None else 0
    while to_run:
        outcomes = dispatch_simulations(to_run, batch, catalog)
        failed_units: list[CampaignUnit] = []
        for key, row, error in outcomes:
            unit = by_key[key]
            attempts[key] = attempts.get(key, 0) + 1
            if error is None:
                rows_by_key[key] = row
                errors.pop(key, None)
            else:
                errors[key] = error
                if not error.startswith(_VALIDATION_ERROR):
                    failed_units.append(unit)
            ledger.append((unit, error))
        round_no += 1
        if retry is None or not failed_units or round_no >= retry.max_attempts:
            break
        if retry_budget is not None:
            if retry_budget <= 0:
                break
            failed_units = failed_units[: retry_budget]
            retry_budget -= len(failed_units)
        delay = retry.delay(round_no, salt=f"shard{shard.index}")
        if delay > 0:
            time.sleep(delay)
        to_run = failed_units
    store.record_many(ledger)

    failures: list[tuple[str, str]] = []
    n_quarantined = 0
    for key, error in errors.items():
        unit = by_key[key]
        failures.append((unit.unit_id, error))
        if retry is not None and (
            attempts[key] >= retry.max_attempts or error.startswith(_VALIDATION_ERROR)
        ):
            store.record_quarantine(unit, error, attempts[key])
            n_quarantined += 1
    return failures, n_quarantined


def _flush_shard(
    shard: Shard,
    store: CampaignStore,
    batch: bool,
    catalog: Catalog | None,
    budget: int | None,
    retry: RetryPolicy | None = None,
    quarantined: set[str] | None = None,
) -> tuple[ShardOutcome, Frame]:
    """Execute one shard's missing units and persist its frame artifact.

    ``budget`` bounds the number of *new* simulations (``None`` = no bound);
    the caller decrements it by the returned outcome's ``simulated`` and
    ``failures``.  ``retry`` enables per-unit retry rounds with quarantine
    on exhaustion; ``quarantined`` is the live set of poison-unit keys —
    members are skipped outright, and keys this flush quarantines are added
    to it so later shards in the same pass see them immediately.
    """
    tracer = get_tracer()
    with tracer.span("campaign.shard", index=shard.index, units=shard.n_units) as span:
        cache = store.cache
        cache.sync()  # rows other processes indexed since the last shard
        rows_by_key: dict[str, Mapping[str, Any]] = {}
        pending: list[CampaignUnit] = []
        n_quarantined = 0
        for unit in shard.units:
            if quarantined is not None and unit.key in quarantined:
                n_quarantined += 1
                continue
            row = cache.get(unit.key)
            if row is not None:
                rows_by_key[unit.key] = row
            else:
                pending.append(unit)
        cache_hits = len(rows_by_key)

        if budget is not None:
            pending = pending[:budget]
        # A capped pass that spent its budget before this shard has nothing
        # to store: it writes no artifact and no record, so the shard stays
        # pending rather than turning partial.
        stored = bool(pending or rows_by_key or n_quarantined)

        failures: list[tuple[str, str]] = []
        kernel_s = 0.0
        if pending:
            kernel_start = time.perf_counter()
            failures, newly_quarantined = _execute_pending(
                pending, shard, store, batch, catalog, retry, rows_by_key
            )
            kernel_s = time.perf_counter() - kernel_start
            n_quarantined += newly_quarantined
            if quarantined is not None and newly_quarantined:
                quarantined.update(store.quarantine_keys())

        assembly_start = time.perf_counter()
        keys = [unit.key for unit in shard.units if unit.key in rows_by_key]
        # Simulated rows are views into their chunk's column block and are
        # gathered column by column; cache hits are plain rows.
        frame = assemble_frame(shard.units, rows_by_key)
        assembly_s = time.perf_counter() - assembly_start

        artifact_key = shard.artifact_key()
        checksum = None
        flush_bytes = 0
        quantiles = None
        if stored:
            # Taken before the arrays are built: its sort block and the
            # arrays are never resident together.
            quantiles = _event_quantiles(frame_quantiles(frame))
            meta, arrays = frame_to_arrays(frame)
            fault_rule = fault_point("shard.flush", ctx=f"shard{shard.index}")
            shard_store = store.shard_store
            # The shard's exact quantiles are stored once, here: a reload's
            # event names the artifact instead of repeating them.
            payload = {
                "columns": meta,
                "n_rows": len(frame),
                "quantile_labels": _QUANTILE_LABELS,
                "quantiles": quantiles,
            }
            shard_store.put(artifact_key, payload, arrays=arrays)
            # Checksum of the *intended* bytes, taken before any injected
            # truncation below — so a torn flush records a checksum its
            # artifact cannot match, which is exactly how the reload path and
            # the unit cache catch it.
            checksum = shard_store.sidecar_digest(artifact_key)
            if keys:
                cache.put(shard_store, artifact_key, checksum, keys)
            if fault_rule is not None and fault_rule.kind == "partial_write":
                _tear_sidecar(shard_store, artifact_key, fault_rule.fraction)
            flush_bytes = int(sum(array.nbytes for array in arrays.values()))
        span.set("cache_hits", cache_hits)
        span.set("simulated", len(pending) - len(failures))
        span.set("kernel_s", kernel_s)
        span.set("assembly_s", assembly_s)
        span.set("flush_bytes", flush_bytes)
        outcome = ShardOutcome(
            index=shard.index,
            start=shard.start,
            n_units=shard.n_units,
            n_rows=len(frame),
            cache_hits=cache_hits,
            simulated=len(pending) - len(failures),
            failures=tuple(failures),
            artifact_key=artifact_key,
            reloaded=False,
            kernel_s=kernel_s,
            assembly_s=assembly_s,
            flush_bytes=flush_bytes,
            quarantined=n_quarantined,
            checksum=checksum,
            quantiles=quantiles,
        )
    if not stored:
        return outcome, frame
    entry: dict[str, Any] = {
        "index": shard.index,
        "start": shard.start,
        "count": shard.n_units,
        "n_rows": len(frame),
        "failed": len(failures),
        "keys_digest": shard.keys_digest(),
        "artifact": artifact_key,
        "status": "complete" if outcome.is_complete else "partial",
    }
    if checksum is not None:
        entry["checksum"] = checksum
    if n_quarantined:
        entry["quarantined"] = n_quarantined
    store.record_shard(entry)
    return outcome, frame


def _reload_shard(
    shard: Shard,
    store: CampaignStore,
    entry: dict[str, Any],
    quarantined_keys: set[str],
) -> tuple[ShardOutcome, Frame] | None:
    """Serve a recorded complete shard from its artifact, if still valid."""
    if entry.get("status") != "complete":
        return None
    if entry.get("keys_digest") != shard.keys_digest():
        return None  # spec/catalog drifted under the store
    artifact_key = entry.get("artifact")
    if not isinstance(artifact_key, str):
        return None
    # Completeness is judged against the *live* quarantine set, not the
    # count the record froze in: deleting ``quarantine.jsonl`` un-poisons
    # the units, the row count stops adding up, and the shard re-executes
    # exactly the units it skipped (the rest are unit-cache hits).
    quarantined = (
        sum(1 for unit in shard.units if unit.key in quarantined_keys)
        if quarantined_keys
        else 0
    )
    checksum = entry.get("checksum")
    try:
        if isinstance(checksum, str):
            # Verify content before trusting: a torn/bit-rotted artifact's
            # shard re-simulates (it held the only copy of its rows), never
            # adopted.
            if store.shard_store.sidecar_digest(artifact_key) != checksum:
                return None
        loaded = _load_shard(store.shard_store, artifact_key)
    except (ArtifactError, CampaignError, InjectedFault):
        return None  # corrupt artifact: re-execute the shard
    if loaded is None or len(loaded[0]) + quarantined != shard.n_units:
        return None
    frame, payload = loaded
    outcome = ShardOutcome(
        index=shard.index,
        start=shard.start,
        n_units=shard.n_units,
        n_rows=len(frame),
        cache_hits=len(frame),
        simulated=0,
        failures=(),
        artifact_key=artifact_key,
        reloaded=True,
        quarantined=quarantined,
        checksum=checksum if isinstance(checksum, str) else None,
        quantiles=_reload_quantiles(frame, payload),
    )
    return outcome, frame


def _recover_shard(
    shard: Shard, store: CampaignStore
) -> tuple[ShardOutcome, Frame] | None:
    """Adopt a flushed-but-unrecorded shard artifact: reload, don't re-run.

    ``_flush_shard`` writes the ``.npz`` artifact *before* appending the
    shard's result record, so a worker killed in that window leaves a
    complete artifact the ledger doesn't know about.  The artifact key is a
    content hash over the shard's unit keys, so a full-length frame found
    under ``shard.artifact_key()`` **is** this shard's result — appending
    the missing complete record recovers it without re-executing a single
    unit.  (Partial artifacts fail the length check and re-execute through
    the normal path; their missing units still hit the unit cache.)
    """
    artifact_key = shard.artifact_key()
    try:
        loaded = _load_shard(store.shard_store, artifact_key)
    except (ArtifactError, CampaignError, InjectedFault):
        return None
    if loaded is None or len(loaded[0]) != shard.n_units:
        return None
    frame, payload = loaded
    entry: dict[str, Any] = {
        "index": shard.index,
        "start": shard.start,
        "count": shard.n_units,
        "n_rows": len(frame),
        "failed": 0,
        "keys_digest": shard.keys_digest(),
        "artifact": artifact_key,
        "status": "complete",
        "recovered": True,
    }
    # The artifact just round-tripped through a full parse, so its current
    # bytes are trustworthy — checksum them for every later reload.
    checksum = store.shard_store.sidecar_digest(artifact_key)
    if checksum is not None:
        entry["checksum"] = checksum
    store.record_shard(entry)
    outcome = ShardOutcome(
        index=shard.index,
        start=shard.start,
        n_units=shard.n_units,
        n_rows=len(frame),
        cache_hits=shard.n_units,
        simulated=0,
        failures=(),
        artifact_key=artifact_key,
        reloaded=True,
        checksum=checksum,
        quantiles=_reload_quantiles(frame, payload),
    )
    return outcome, frame


@dataclass
class ShardStep:
    """The one step every campaign loop takes per shard.

    A call brings one shard to "complete artifact + result record" where it
    can: serve the recorded complete shard from its artifact, else adopt a
    flushed-but-unrecorded artifact, else execute the shard's missing units
    and flush it through :func:`_flush_shard`.  It returns the shard's
    outcome and frame.  ``recorded`` is the shard ledger as the caller read
    it; ``quarantined`` the live poison-unit set, grown by each flush that
    quarantines.  ``budget`` bounds new simulation *attempts* across calls
    (``None`` = no bound; failures count): each flush spends it, and once it
    is spent later shards are flushed from their unit-cache hits alone, so
    a capped pass still reports every shard.
    """

    store: CampaignStore
    batch: bool
    catalog: Catalog | None
    budget: int | None = None
    retry: RetryPolicy | None = None
    quarantined: set[str] = field(default_factory=set)
    recorded: dict[int, dict[str, Any]] = field(default_factory=dict)

    def __call__(self, shard: Shard) -> tuple[ShardOutcome, Frame]:
        entry = self.recorded.get(shard.index)
        served = _reload_shard(shard, self.store, entry or {}, self.quarantined)
        if served is None and not _shard_recorded_complete(shard, entry):
            # A killed worker may have flushed this shard's artifact without
            # landing its result record: adopt it instead of re-executing.
            served = _recover_shard(shard, self.store)
        if served is not None:
            return served
        outcome, frame = _flush_shard(
            shard,
            self.store,
            self.batch,
            self.catalog,
            self.budget,
            retry=self.retry,
            quarantined=self.quarantined,
        )
        if self.budget is not None:
            self.budget -= outcome.simulated + len(outcome.failures)
        return outcome, frame


def _shard_recorded_complete(shard: Shard, entry: dict[str, Any] | None) -> bool:
    """Whether the ledger already holds a matching complete result record."""
    return (
        entry is not None
        and entry.get("status") == "complete"
        and entry.get("keys_digest") == shard.keys_digest()
    )


# --------------------------------------------------------------------------- #
# Worker processes
# --------------------------------------------------------------------------- #
def execute_shard(
    store: CampaignStore,
    shard: Shard,
    batch: bool = True,
    catalog: Catalog | None = None,
    retry: RetryPolicy | None = None,
) -> ShardOutcome:
    """Bring one shard to "complete artifact + result record", idempotently.

    The single-shard primitive behind every worker process
    (:func:`run_shard`): one :class:`ShardStep` over the store's current
    ledger and quarantine set.  The resulting artifact is content-addressed
    by the shard's unit keys, so *who* executed it (and interleaved with
    what) can never change the bytes a later reload sees — which is what
    keeps pooled runs and scheduler-interleaved jobs bit-identical to their
    clean serial runs.
    """
    step = ShardStep(
        store,
        batch,
        catalog,
        retry=retry,
        quarantined=store.quarantine_keys(),
        recorded=store.shard_entries(),
    )
    outcome, _ = step(shard)
    return outcome


#: How long a coordinator waits for results per round, and how long a shard
#: a live peer holds waits before it is offered again (or swept again).
_POLL_S = 0.05

#: How often an idle pool worker checks that its parent is still alive.
_PARENT_POLL_S = 1.0


def run_shard(
    ledger: LeaseLedger,
    shard: Shard,
    batch: bool = True,
    catalog: Catalog | None = None,
    retry: RetryPolicy | None = None,
) -> ShardOutcome | None:
    """Claim ``shard`` and bring it to a complete artifact + result record.

    Returns ``None`` if a live peer holds the lease and the ledger does not
    record the shard complete (read only when the claim fails).  A
    :class:`~repro.campaign.leases.LeaseHeartbeat` renews the lease while
    :func:`execute_shard` runs, so a slow worker keeps its claim and a hung
    one loses it at the TTL; any exception releases the lease.
    """
    store = ledger.store
    if ledger.try_claim(shard.index) is None and not _shard_recorded_complete(
        shard, store.shard_entries().get(shard.index)
    ):
        return None
    try:
        with LeaseHeartbeat(ledger, shard.index):
            return execute_shard(store, shard, batch=batch, catalog=catalog, retry=retry)
    except BaseException:
        ledger.release(shard.index)
        raise


@dataclass(frozen=True)
class ShardTask:
    """One shard dispatch, pickled to a pool worker."""

    job_id: str
    store_dir: str
    results_dir: str | None
    shard: Shard
    batch: bool = True
    catalog: Catalog | None = None
    retry: RetryPolicy | None = None


@dataclass(frozen=True)
class ShardTaskResult:
    """What a pool worker reports back for one dispatched shard."""

    worker: str
    job_id: str
    index: int
    status: str  # "ok" | "held" | "error"
    error: str | None = None
    n_rows: int = 0
    simulated: int = 0
    cache_hits: int = 0
    reloaded: bool = False
    wall_s: float = 0.0


def _pool_worker_main(worker_id: str, task_queue: Any, result_queue: Any) -> None:
    """Loop of one pool worker process: take a shard task, run it, report.

    An exception is reported as ``error`` and the worker stays alive, so
    one poisoned store cannot shrink the pool.  Each task's store is built
    afresh; only the unit cache lives across tasks, one per results root,
    so a root's index is loaded once per worker.
    """
    # A fork inherits its parent's SIGTERM handler (the service's spawns a
    # stop thread in the parent's object graph): restore the default so an
    # orchestrator's kill actually kills the worker.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = os.getppid()
    cache: ResultCache | None = None
    while True:
        try:
            task = task_queue.get(timeout=_PARENT_POLL_S)
        except Empty:
            if os.getppid() != parent:
                # The parent died without stopping the pool (SIGKILL, OOM):
                # ``daemon=True`` only reaps workers on a clean exit, and no
                # task or result reader will ever come back.
                result_queue.cancel_join_thread()
                return
            continue
        except KeyboardInterrupt:
            # A foreground ^C signals the whole process group; idle workers
            # exit quietly and the coordinator drains the rest.
            return
        if task is None:
            return
        start = time.perf_counter()
        result = ShardTaskResult(worker_id, task.job_id, task.shard.index, "held")
        try:
            store = CampaignStore(task.store_dir, results_dir=task.results_dir)
            cache = store.use_cache(cache)
            ledger = LeaseLedger(store, worker_id)
            outcome = run_shard(ledger, task.shard, task.batch, task.catalog, task.retry)
            if outcome is not None:
                result = replace(
                    result,
                    status="ok",
                    n_rows=outcome.n_rows,
                    simulated=outcome.simulated,
                    cache_hits=outcome.cache_hits,
                    reloaded=outcome.reloaded,
                )
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # report, stay alive for the next task
            result = replace(result, status="error", error=f"{type(exc).__name__}: {exc}")
        result_queue.put(replace(result, wall_s=time.perf_counter() - start))


@dataclass
class _PoolWorker:
    """Parent-side handle on one worker process and its private task queue."""

    worker_id: str
    process: Any
    task_queue: Any
    current: ShardTask | None = None


class WorkerPool:
    """A fixed-size pool of shard-executing processes a coordinator feeds.

    Each worker has its **own** task queue with at most one task in
    flight, so the coordinator always knows which shard a worker holds —
    when a worker dies (crash, OOM, SIGKILL) its in-flight shard is
    identifiable and requeueable.  A shared result queue carries
    completions back.  Workers start by the platform's default method; where
    that is fork (Linux), they inherit the parent's installed fault plan.
    """

    def __init__(self, size: int):
        if size < 1:
            raise CampaignError(f"worker pool size must be >= 1, got {size}")
        self.size = size
        self._ctx = multiprocessing.get_context()
        self.result_queue = self._ctx.Queue()
        self._workers: dict[str, _PoolWorker] = {}
        self._spawned = 0

    def start(self) -> list[_PoolWorker]:
        return [self.spawn() for _ in range(self.size)]

    def spawn(self) -> _PoolWorker:
        worker_id = f"pool{self._spawned}"
        self._spawned += 1
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(worker_id, task_queue, self.result_queue),
            name=f"campaign-{worker_id}",
            daemon=True,
        )
        process.start()
        worker = _PoolWorker(worker_id, process, task_queue)
        self._workers[worker_id] = worker
        return worker

    def busy(self) -> bool:
        """Whether any worker has a task in flight."""
        return any(worker.current is not None for worker in self._workers.values())

    def idle_workers(self) -> list[_PoolWorker]:
        return [
            worker
            for worker in self._workers.values()
            if worker.current is None and worker.process.is_alive()
        ]

    def dispatch(self, worker: _PoolWorker, task: ShardTask) -> None:
        worker.current = task
        worker.task_queue.put(task)

    def finish(self, worker_id: str) -> ShardTask | None:
        """Mark a worker idle; returns the task it held (``None`` if reaped)."""
        worker = self._workers.get(worker_id)
        if worker is None:
            return None
        task, worker.current = worker.current, None
        return task

    def reap_dead(self) -> list[tuple[str, ShardTask | None]]:
        """Remove dead workers; returns ``(worker_id, lost_task)`` pairs."""
        dead = [
            worker
            for worker in self._workers.values()
            if not worker.process.is_alive()
        ]
        for worker in dead:
            del self._workers[worker.worker_id]
        return [(worker.worker_id, worker.current) for worker in dead]

    def describe(self) -> list[dict[str, Any]]:
        return [
            {
                "worker": worker.worker_id,
                "pid": worker.process.pid,
                "alive": worker.process.is_alive(),
                "busy": worker.current is not None,
                "job": worker.current.job_id if worker.current else None,
                "shard": worker.current.shard.index if worker.current else None,
            }
            for worker in self._workers.values()
        ]

    def shutdown(self, timeout: float = 30.0) -> None:
        """Sentinel every worker, join with a deadline, escalate leftovers."""
        for worker in self._workers.values():
            try:
                worker.task_queue.put(None)
            except (OSError, ValueError):  # queue already torn down
                pass
        deadline = time.monotonic() + timeout
        for worker in self._workers.values():
            worker.process.join(timeout=max(deadline - time.monotonic(), 0.1))
        for worker in self._workers.values():
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - last resort
                worker.process.kill()
                worker.process.join(timeout=2.0)
        self._workers.clear()


def populate_shards(
    store: CampaignStore,
    spec: CampaignSpec,
    shard_size: int,
    workers: int,
    batch: bool,
    catalog: Catalog | None,
    retry: RetryPolicy | None,
) -> dict[int, ShardTaskResult]:
    """Run the shards ``store`` does not record complete on a fresh pool.

    Shards are expanded lazily and handed out one per idle worker.  A shard
    a live peer holds is offered again a poll interval later, until a
    worker finds it recorded complete or claims it.  Dead workers are not
    respawned and dispatch stops once none is alive: what they held, like a
    shard that failed, is left to the caller's serial pass.  Returns the
    workers' ``ok`` results by shard index: what the pool did in this call.
    """
    recorded = store.shard_entries()
    todo = (
        shard
        for shard in iter_shards(spec, catalog, shard_size=shard_size)
        if not _shard_recorded_complete(shard, recorded.get(shard.index))
    )
    held: list[Shard] = []  # shards a live peer held, to offer again
    done: dict[int, ShardTaskResult] = {}
    results_dir = str(store.results_dir)
    pool = WorkerPool(workers)
    store.record_event("pool_start", workers=workers)
    started = pool.start()
    try:
        while True:
            pool.reap_dead()
            for worker in pool.idle_workers():
                shard = held.pop(0) if held else next(todo, None)
                if shard is None:
                    break
                pool.dispatch(
                    worker,
                    ShardTask("", str(store.directory), results_dir, shard, batch, catalog, retry),
                )
            if not pool.busy():
                break  # nothing left to hand out, or no worker alive
            try:
                result = pool.result_queue.get(timeout=_POLL_S)
            except Empty:
                continue
            task = pool.finish(result.worker)
            if result.status == "ok":
                done[result.index] = result
            elif result.status == "held" and task is not None:
                held.append(task.shard)
                time.sleep(_POLL_S)  # a live peer holds it: offer it again later
    finally:
        pool.shutdown()
        store.record_event(
            "pool_join",
            workers=workers,
            exitcodes=[worker.process.exitcode for worker in started],
        )
    return done


# --------------------------------------------------------------------------- #
# Standalone worker: ``spectrends campaign worker``
# --------------------------------------------------------------------------- #
def run_worker(
    store_dir: str | os.PathLike,
    worker_id: str,
    batch: bool = True,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    retry: RetryPolicy | None = None,
    handle_sigterm: bool = False,
) -> int:
    """Claim-and-execute loop of one campaign worker; returns shards flushed.

    Sweeps the shard layout of an initialised streaming store and runs
    every shard without a complete result record through :func:`run_shard`,
    appending a ``worker_shard`` event per flush.  Each shard is attempted
    at most once per worker (a later serial pass owns retries); the loop
    ends once no live peer holds a pending shard, re-sweeping every poll
    interval until then — a dead holder's lease invalidates at once, which
    bounds a SIGKILL'd worker's loss to one shard.  ``handle_sigterm=True``
    turns SIGTERM into a graceful stop: the in-flight shard finishes and
    records its result, then the loop exits with a ``worker_sigterm`` event.
    """
    store = CampaignStore(store_dir)
    spec = store.load_spec()
    shard_size = store.stored_shard_size()
    if shard_size is None:
        raise CampaignError(
            f"{store.directory} has no shard layout; initialise it with a "
            "streaming run before attaching workers"
        )

    stopping = threading.Event()
    previous_handler: Any = None
    if handle_sigterm:
        previous_handler = signal.signal(
            signal.SIGTERM, lambda signum, frame: stopping.set()
        )

    ledger = LeaseLedger(store, worker_id, ttl=lease_ttl)
    attempted: set[int] = set()
    executed = 0
    store.record_event("worker_start", worker=worker_id, pid=os.getpid())
    try:
        with get_tracer().span("campaign.worker", worker=worker_id):
            while not stopping.is_set():
                recorded = store.shard_entries()
                waiting = False
                for shard in iter_shards(spec, shard_size=shard_size):
                    if stopping.is_set():
                        break
                    if shard.index in attempted or _shard_recorded_complete(
                        shard, recorded.get(shard.index)
                    ):
                        continue
                    outcome = run_shard(ledger, shard, batch, retry=retry)
                    if outcome is None:
                        waiting = True  # a live peer holds it; revisit next sweep
                        continue
                    attempted.add(shard.index)
                    if outcome.reloaded:
                        continue  # a peer completed it, or its artifact was adopted
                    executed += 1
                    store.record_event(
                        "worker_shard",
                        worker=worker_id,
                        index=outcome.index,
                        n_rows=outcome.n_rows,
                        cache_hits=outcome.cache_hits,
                        simulated=outcome.simulated,
                        failed=len(outcome.failures),
                        quarantined=outcome.quarantined,
                    )
                if not waiting:
                    break
                time.sleep(_POLL_S)
    finally:
        if handle_sigterm:
            signal.signal(signal.SIGTERM, previous_handler)
    if stopping.is_set():
        # Graceful SIGTERM: the in-flight shard completed above (its result
        # record supersedes the lease), so exiting here leaves no torn state.
        store.record_event(
            "worker_sigterm", worker=worker_id, shards=executed, pid=os.getpid()
        )
    store.record_event("worker_done", worker=worker_id, shards=executed)
    return executed


@contextmanager
def _policy_faults(policy: ExecutionPolicy | None) -> Iterator[None]:
    """Install ``policy.faults`` for the block, then restore the previous plan."""
    if policy is None or policy.faults is None:
        yield
        return
    previous = install_fault_plan(policy.faults)
    try:
        yield
    finally:
        install_fault_plan(previous)


def stream_campaign(
    spec: CampaignSpec,
    store_dir: str | os.PathLike,
    catalog: Catalog | None = None,
    shard_size: int | None = None,
    max_units: int | None = None,
    max_shards: int | None = None,
    batch: bool | None = None,
    policy: ExecutionPolicy | None = None,
    progress: Callable[[ShardOutcome, int], None] | None = None,
    workers: int | None = None,
    results_dir: str | os.PathLike | None = None,
    retry: RetryPolicy | None = None,
) -> StreamingCampaignResult:
    """Execute a campaign shard by shard with bounded resident memory.

    The expansion is consumed lazily, each shard's rows are flushed to a
    columnar artifact before the next shard starts, and the aggregate is
    reduced one column at a time in a finalize pass — peak memory is
    O(shard_size), not O(plan).  Re-invoking over the same store resumes
    at shard granularity: complete shards reload their artifact wholesale,
    partial shards re-execute only their missing units (per-unit cache hits
    keep repeats cheap).

    ``max_units`` bounds new simulation *attempts* across the whole run
    (failures count, as in :func:`~repro.campaign.runner.run_campaign`);
    once spent, later shards are still visited cache-only so the result
    stays a full progress report.  ``max_shards`` stops after that many
    shards entirely (smoke runs; also how tests emulate a killed campaign).
    ``progress`` is invoked after every shard with its outcome and the
    total shard count (the CLI's streaming status line).  A ``policy``
    supplies ``batch``/``shard_size``/``retry``/``workers`` defaults;
    explicit arguments win.  Units are always simulated in-process: a run
    fans out only through ``workers``.

    ``workers=N`` (N > 1) first runs every shard not recorded complete on a
    :class:`WorkerPool` of N forked processes (which
    inherit ``policy.faults`` and apply ``retry``); the serial pass below
    then reloads every worker-completed artifact in shard order and
    re-executes anything a crashed worker left behind, so the result
    (frames *and* aggregate) is bit-identical to the serial streamed run
    for any worker count.  Shards a worker completed in this call report
    as reloaded, but the result and ``campaign_complete`` count their units
    as the worker did (simulated or cache hits), as the service counts its
    jobs.  Worker pools execute whole shards concurrently, so they are
    incompatible with the ``max_units``/``max_shards`` caps.
    ``results_dir`` redirects the unit-result cache (the campaign service
    points several job stores at one shared cache for cross-client dedup).

    ``retry`` (or ``policy.retry``) enables per-unit retry rounds with
    capped exponential backoff and poison-unit quarantine: a unit that
    fails ``max_attempts`` rounds, or fails validation (which repeats
    exactly), is recorded in the store's ``quarantine.jsonl``, excluded
    from every later pass, and the result's
    :attr:`~StreamingCampaignResult.status` reports ``degraded`` instead of
    blocking completion.  ``policy.faults`` installs a
    :class:`~repro.faults.FaultPlan` for the duration of the run (chaos
    testing; the previous plan is restored on exit).
    """
    if policy is not None:
        if batch is None:
            batch = policy.use_batch_kernel
        if shard_size is None:
            shard_size = policy.effective_shard_size
        if retry is None:
            retry = policy.retry
        if workers is None and max_units is None and max_shards is None:
            # Policy-driven fan-out only when no caps are in play: capped
            # runs (smoke tests, budgeted resumes) stay serial rather than
            # erroring, since the caps are per-run, not per-worker.
            workers = policy.campaign_workers
    if batch is None:
        batch = True
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE
    if shard_size < 1:
        raise CampaignError(f"shard_size must be >= 1, got {shard_size}")
    n_workers = 1 if workers is None else int(workers)
    if n_workers < 1:
        raise CampaignError(f"workers must be >= 1, got {workers}")
    if n_workers > 1 and (max_units is not None or max_shards is not None):
        raise CampaignError(
            "workers > 1 executes whole shards concurrently and cannot "
            "honour max_units/max_shards caps; run those serially"
        )
    with _policy_faults(policy):
        store = CampaignStore(store_dir, results_dir=results_dir)
        store.initialize_streaming(spec, shard_size)

        pooled: dict[int, ShardTaskResult] = {}
        if n_workers > 1:
            # The pool populates shard artifacts; aggregation happens only in
            # the serial pass below, which keeps bit-identity trivially.
            pooled = populate_shards(store, spec, shard_size, n_workers, batch, catalog, retry)

        total_units = spec.n_units
        n_shards = -(-total_units // shard_size)
        step = ShardStep(
            store,
            batch,
            catalog,
            budget=max_units,
            retry=retry,
            quarantined=store.quarantine_keys(),
            recorded=store.shard_entries(),
        )
        reducer = FrameReducer()
        outcomes: list[ShardOutcome] = []
        failures: list[tuple[str, str]] = []
        cache_hits = 0
        simulated = 0

        # Always-on telemetry: one compact event per shard into the store's
        # events.jsonl (this is what ``campaign watch`` tails), independent of
        # the opt-in span tracer.  Purely observational — nothing below reads
        # these back, so results stay bit-identical with or without them.
        store.record_event(
            "campaign_start",
            name=spec.name,
            n_units=total_units,
            n_shards=n_shards,
            shard_size=shard_size,
            workers=n_workers,
        )

        def reflush(index: int) -> ShardOutcome:
            # Only torn artifacts come back here, so re-keying the expansion up
            # to the shard is a fault-path cost.  The torn artifact held the
            # only copy of its rows, so they are re-simulated (no budget).
            shard = next(islice(iter_shards(spec, catalog, shard_size=shard_size), index, None))
            outcome, _ = _flush_shard(
                shard,
                store,
                batch,
                catalog,
                None,
                retry=retry,
                quarantined=step.quarantined,
            )
            return outcome

        tracer = get_tracer()
        with tracer.span("campaign.stream", name=spec.name, n_shards=n_shards):
            for shard in iter_shards(spec, catalog, shard_size=shard_size):
                if max_shards is not None and shard.index >= max_shards:
                    break
                shard_start = time.perf_counter()
                outcome, frame = step(shard)
                outcomes.append(outcome)
                failures.extend(outcome.failures)
                worker = pooled.get(shard.index) if outcome.reloaded else None
                if worker is not None:
                    # The pool ran this shard in this call: count its units
                    # as the worker did, not as the reload that serves them.
                    cache_hits += worker.cache_hits
                    simulated += worker.simulated
                else:
                    cache_hits += outcome.cache_hits
                    simulated += outcome.simulated
                reducer.update(frame)
                del frame  # the whole point: nothing accumulates
                wall_s = time.perf_counter() - shard_start
                # Events carry quantiles compactly: one label list per event,
                # one value list per column (``campaign watch`` also reads the
                # older ``{column: {label: value}}`` form).  A reload whose
                # artifact payload holds them names the artifact instead.
                if outcome.quantiles is None:
                    telemetry: dict[str, Any] = {"artifact": outcome.artifact_key}
                else:
                    telemetry = {
                        "quantile_labels": _QUANTILE_LABELS,
                        "quantiles": outcome.quantiles,
                    }
                store.record_event(
                    "shard_flush",
                    index=outcome.index,
                    units=outcome.n_units,
                    n_rows=outcome.n_rows,
                    cache_hits=outcome.cache_hits,
                    simulated=outcome.simulated,
                    failed=len(outcome.failures),
                    quarantined=outcome.quarantined,
                    reloaded=outcome.reloaded,
                    wall_s=wall_s,
                    kernel_s=outcome.kernel_s,
                    assembly_s=outcome.assembly_s,
                    flush_bytes=outcome.flush_bytes,
                    units_per_s=(outcome.n_units / wall_s) if wall_s > 0 else None,
                    rows_total=reducer.n_rows,
                    n_shards=n_shards,
                    **telemetry,
                )
                if progress is not None:
                    progress(outcome, n_shards)
            summaries = _campaign_summaries(store, outcomes, reducer, reflush)

        # Latest quarantine record per key: what the result reports as excluded.
        quarantine_records: dict[str, tuple[str, str]] = {}
        for entry in store.quarantine_entries():
            key = entry.get("key")
            if isinstance(key, str):
                quarantine_records[key] = (
                    str(entry.get("unit_id", key[:16])),
                    str(entry.get("error", "unknown error")),
                )
        # A one-shard pass's campaign quantiles are its shard's, which its
        # shard_flush event (or the artifact it names) already holds;
        # ``campaign watch`` reads them there.
        repeated = {}
        if len(outcomes) != 1:
            repeated = {
                "quantile_labels": _QUANTILE_LABELS,
                "quantiles": _event_quantiles(
                    {name: summary for name, summary in summaries.items() if summary["count"]}
                ),
            }
        store.record_event(
            "campaign_complete",
            name=spec.name,
            shards=len(outcomes),
            n_shards=n_shards,
            cache_hits=cache_hits,
            simulated=simulated,
            failed=len(failures),
            quarantined=len(quarantine_records),
            rows_total=reducer.n_rows,
            **repeated,
        )
    return StreamingCampaignResult(
        total_units=total_units,
        shard_size=shard_size,
        cache_hits=cache_hits,
        simulated=simulated,
        failures=tuple(failures),
        shards=tuple(outcomes),
        aggregate=reducer.to_frame(summaries),
        store_directory=str(store.directory),
        n_workers=n_workers,
        quarantined=tuple(quarantine_records.values()),
    )


def resume_streaming(
    store_dir: str | os.PathLike,
    catalog: Catalog | None = None,
    shard_size: int | None = None,
    max_units: int | None = None,
    max_shards: int | None = None,
    batch: bool | None = None,
    policy: ExecutionPolicy | None = None,
    progress: Callable[[ShardOutcome, int], None] | None = None,
    workers: int | None = None,
    retry: RetryPolicy | None = None,
) -> StreamingCampaignResult:
    """Continue an interrupted campaign, streamed or resident, from its store.

    The shard layout is an explicit ``shard_size``, else the one the store
    recorded, else the policy's, else :data:`DEFAULT_SHARD_SIZE` (a store
    written by an older resident run records none), so by default a resume
    partitions the expansion exactly as the interrupted run did — the
    precondition for shard-granular skipping.  ``workers=N`` resumes with a
    worker pool; completed shards reload, pending ones are claimed.
    """
    store = CampaignStore(store_dir)
    spec = store.load_spec()
    if shard_size is None:
        shard_size = store.stored_shard_size()
    return stream_campaign(
        spec,
        store_dir,
        catalog=catalog,
        shard_size=shard_size,
        max_units=max_units,
        max_shards=max_shards,
        batch=batch,
        policy=policy,
        progress=progress,
        workers=workers,
        retry=retry,
    )
