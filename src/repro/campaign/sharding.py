"""Sharded, streaming campaign execution: sweep size O(shard) in memory.

:func:`run_campaign` materialises every expanded unit and every result row
at once, which caps sweep size by RAM.  This module is the bounded-memory
path through the same data plane:

* :func:`iter_shards` partitions a spec's expansion into fixed-size
  :class:`Shard`\\ s **lazily** — it drives
  :meth:`CampaignSpec.iter_units`, so at no point does the full unit list
  exist in memory,
* :func:`stream_campaign` executes one shard at a time through the existing
  batch kernel, flushes the shard's rows to a columnar ``.npz`` artifact in
  the campaign store's ``shards/`` (the only copy of those rows: the unit
  cache's ``results/index.jsonl`` points into it) and folds them into
  :class:`~repro.campaign.reduce` online reducers before the next shard
  starts,
* the :class:`CampaignStore` shard manifest records each flush, so a killed
  campaign resumes at shard granularity: complete shards reload their
  artifact (zero per-unit cache probing), only incomplete shards re-execute,
* :func:`run_worker` + ``stream_campaign(workers=N)`` fan shards out across
  a pool of worker processes that coordinate purely through lease records
  in the shard ledger (:mod:`repro.campaign.leases`): each worker claims
  pending shards, flushes them through the same ``_flush_shard`` path, and
  the coordinator's finalize pass doubles as the *reclaimer* — it reloads
  completed shard artifacts in shard order and re-executes whatever a
  crashed worker left unfinished, so a SIGKILL'd worker costs at most one
  shard of repeated work.

Equivalence contract
--------------------
Sharding changes *when* rows leave memory, never *what* they are.  Unit
keys, cached rows and the per-shard frames are exactly what the unsharded
runner produces, shard concatenation reproduces the unsharded campaign
frame bit-for-bit, and the sequential reducers make the streamed aggregate
bit-identical to reducing that frame in one pass (all pinned by the
sharding tests and ``benchmarks/test_bench_shard.py``).  Aggregate
quantiles are exact: a finalize pass reads each numeric column back from
the verified shard artifacts, one column at a time, and takes its
quantiles over the same values the unsharded frame holds.  Worker pools
keep the contract because aggregation never happens in workers: they only
populate shard artifacts (deterministic, content-addressed), and the
coordinator folds those artifacts in shard-index order exactly like a
serial run — so an N-worker run is bit-identical to the 1-worker run and
to the unsharded reduction.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

import numpy as np

from ..errors import ArtifactError, CampaignError, InjectedFault
from ..faults.plan import fault_point, install_fault_plan
from ..faults.retry import RetryPolicy
from ..frame import Frame, concat
from ..frame.mmapio import NpzMap
from ..market.catalog import Catalog
from ..obs.trace import get_tracer
from ..parallel import ParallelConfig
from ..session.artifacts import ArtifactStore, digest_json
from ..session.columnar import frame_from_arrays, frame_to_arrays, numeric_slots
from ..session.policy import ExecutionPolicy
from .aggregate import annotate_row, assemble_frame
from .leases import DEFAULT_LEASE_TTL, LeaseHeartbeat, LeaseLedger
from .reduce import FrameReducer, Quantiles, column_quantiles, quantile_label, valid_values
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
    "run_worker",
    "execute_shard",
    # Row annotation, still looked up here by the per-layer trace
    # (perfbench/tracing.py); shard frames are built by assemble_frame.
    "annotate_row",
]

#: Default units per shard: large enough to keep the batch kernel saturated
#: and the per-shard bookkeeping negligible, small enough that a resident
#: shard (units + rows + frame) stays in the tens of megabytes.
DEFAULT_SHARD_SIZE = 1024


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
    unsharded runner would have been fine too).
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
        avoids — so reserve this for sweep sizes the unsharded runner could
        also hold.  The result is bit-identical to the unsharded
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
def _campaign_quantiles(
    store: CampaignStore,
    outcomes: list[ShardOutcome],
    reducer: FrameReducer,
    reflush: Callable[[int], ShardOutcome],
) -> dict[str, Quantiles]:
    """Exact campaign-level quantiles of every reduced column.

    The finalize half of the aggregate: each column is read back from the
    shard sidecars on its own (``pread`` of its stacked-member row and
    mask row), so resident memory is one float64 per row plus one shard's
    mask — never the whole frame.  A sidecar this pass flushed is read only
    once its bytes match the checksum the flush recorded; a torn one is
    re-flushed by ``reflush`` first, which re-simulates its rows (the torn
    artifact was their only copy).  Reloaded and recovered shards were
    verified against their checksum earlier in this pass and are not
    hashed again.  Columns without a single valid value get no entry.
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
    quantiles: dict[str, Quantiles] = {}
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
        if filled:
            quantiles[name] = column_quantiles(gathered[:filled], reducer.quantiles)
    return quantiles


def _event_quantiles(quantiles: dict[str, Quantiles]) -> dict[str, list[float | None]]:
    """``{column: [p50, p90, p99]}``: values in the reducer's quantile order."""
    return {name: list(values.values()) for name, values in quantiles.items()}


def _load_shard_frame(store: ArtifactStore, key: str) -> Frame | None:
    """Rebuild one shard frame from its artifact; ``None`` on a miss."""
    fault_point("artifact.read", ctx=key)
    payload = store.get(key)
    if payload is None:
        return None
    arrays = store.get_arrays(key)
    if arrays is None:
        return None
    return frame_from_arrays(payload["columns"], arrays)


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


def _execute_pending(
    pending: list[CampaignUnit],
    shard: Shard,
    store: CampaignStore,
    config: ParallelConfig,
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
    ``retry.max_attempts`` rounds, which are recorded in
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
        outcomes = dispatch_simulations(to_run, config, batch, catalog)
        failed_units: list[CampaignUnit] = []
        for key, row, error in outcomes:
            unit = by_key[key]
            attempts[key] = attempts.get(key, 0) + 1
            if error is None:
                rows_by_key[key] = row
                errors.pop(key, None)
            else:
                errors[key] = error
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
        if retry is not None and attempts.get(key, 0) >= retry.max_attempts:
            store.record_quarantine(unit, error, attempts[key])
            n_quarantined += 1
    return failures, n_quarantined


def _flush_shard(
    shard: Shard,
    store: CampaignStore,
    config: ParallelConfig,
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

        failures: list[tuple[str, str]] = []
        kernel_s = 0.0
        if pending:
            kernel_start = time.perf_counter()
            failures, newly_quarantined = _execute_pending(
                pending, shard, store, config, batch, catalog, retry, rows_by_key
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
        meta, arrays = frame_to_arrays(frame)
        fault_rule = fault_point("shard.flush", ctx=f"shard{shard.index}")
        shard_store = store.shard_store
        shard_store.put(artifact_key, {"columns": meta, "n_rows": len(frame)}, arrays=arrays)
        # Checksum of the *intended* bytes, taken before any injected
        # truncation below — so a torn flush records a checksum its artifact
        # cannot match, which is exactly how the reload path and the unit
        # cache catch it.
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
        )
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
    quarantined_keys: set[str] | None = None,
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
    live = store.quarantine_keys() if quarantined_keys is None else quarantined_keys
    quarantined = (
        sum(1 for unit in shard.units if unit.key in live) if live else 0
    )
    checksum = entry.get("checksum")
    try:
        if isinstance(checksum, str):
            # Verify content before trusting: a torn/bit-rotted artifact's
            # shard re-simulates (it held the only copy of its rows), never
            # adopted.
            if store.shard_store.sidecar_digest(artifact_key) != checksum:
                return None
        frame = _load_shard_frame(store.shard_store, artifact_key)
    except (ArtifactError, CampaignError, InjectedFault):
        return None  # corrupt artifact: re-execute the shard
    if frame is None or len(frame) + quarantined != shard.n_units:
        return None
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
        frame = _load_shard_frame(store.shard_store, artifact_key)
    except (ArtifactError, CampaignError, InjectedFault):
        return None
    if frame is None or len(frame) != shard.n_units:
        return None
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
    )
    return outcome, frame


# --------------------------------------------------------------------------- #
# Multi-worker execution
# --------------------------------------------------------------------------- #
def _shard_recorded_complete(shard: Shard, entry: dict[str, Any] | None) -> bool:
    """Whether the ledger already holds a matching complete result record."""
    return (
        entry is not None
        and entry.get("status") == "complete"
        and entry.get("keys_digest") == shard.keys_digest()
    )


def execute_shard(
    store: CampaignStore,
    shard: Shard,
    batch: bool = True,
    catalog: Catalog | None = None,
    retry: RetryPolicy | None = None,
) -> ShardOutcome:
    """Bring one shard to "complete artifact + result record", idempotently.

    The single-shard primitive behind the service scheduler's pool workers:
    each dispatched :class:`Shard` goes through exactly the probes the
    worker sweep loop uses — serve a recorded complete result, adopt a
    flushed-but-unrecorded artifact, else execute and flush through the
    same serial :func:`_flush_shard` path every other runner shares.  The
    resulting artifact is content-addressed by the shard's unit keys, so
    *who* executed it (and interleaved with what) can never change the
    bytes a later reload sees — which is what keeps scheduler-interleaved
    jobs bit-identical to their clean serial runs.
    """
    entry = store.shard_entries().get(shard.index)
    if _shard_recorded_complete(shard, entry):
        reloaded = _reload_shard(shard, store, entry)
        if reloaded is not None:
            outcome, _ = reloaded
            return outcome
    recovered = _recover_shard(shard, store)
    if recovered is not None:
        outcome, _ = recovered
        return outcome
    outcome, _ = _flush_shard(
        shard,
        store,
        ParallelConfig(backend="serial"),
        batch,
        catalog,
        None,
        retry=retry,
        quarantined=store.quarantine_keys(),
    )
    return outcome


def run_worker(
    store_dir: str | os.PathLike,
    worker_id: str,
    parallel: ParallelConfig | None = None,
    catalog: Catalog | None = None,
    batch: bool | None = None,
    policy: ExecutionPolicy | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: float = 0.05,
    max_sweeps: int | None = None,
    retry: RetryPolicy | None = None,
    handle_sigterm: bool = False,
) -> int:
    """Claim-and-execute loop of one campaign worker; returns shards flushed.

    The worker repeatedly sweeps the shard layout of an initialised
    streaming store (``initialize_streaming`` must have run), and for each
    shard that has no complete result record: first probes for a
    flushed-but-unrecorded artifact to adopt (:func:`_recover_shard`), then
    tries to claim the shard through the lease ledger and execute it via
    the same ``_flush_shard`` path a serial run uses.  Coordination is
    entirely through ``shards.jsonl`` — workers never talk to each other —
    so any number of ``spectrends campaign worker`` processes (or the pool
    ``stream_campaign(workers=N)`` spawns) can share one store.

    Termination: the loop ends once every shard is either complete or was
    already attempted by *this* worker (a failing shard is attempted at
    most once per worker; the coordinator's finalize pass owns retries).
    While pending shards are held by other live workers, the loop polls —
    if such a holder dies, its lease invalidates (dead pid) and the shard
    is reclaimed on the next sweep, which is what bounds a SIGKILL'd
    worker's loss to one shard.  ``max_sweeps`` bounds the polling for
    tests; ``None`` waits as long as a live foreign claim exists.

    While a claimed shard flushes, a :class:`~repro.campaign.leases
    .LeaseHeartbeat` renews the lease from a background thread — a slow
    shard keeps its claim indefinitely, while a *hung* worker (alive pid,
    no heartbeats) lets its deadline lapse and the shard becomes
    reclaimable.  ``handle_sigterm=True`` converts SIGTERM into a graceful
    stop: the in-flight shard finishes and records its result, then the
    loop exits cleanly with a ``worker_sigterm`` event (the CLI's
    ``campaign worker`` enables this).
    """
    store = CampaignStore(store_dir)
    spec = store.load_spec()
    shard_size = store.stored_shard_size()
    if shard_size is None:
        raise CampaignError(
            f"{store.directory} has no shard layout; initialise it with a "
            "streaming run before attaching workers"
        )
    if policy is not None:
        parallel = policy.parallel_config() if parallel is None else parallel
        if batch is None:
            batch = policy.use_batch_kernel
        if retry is None:
            retry = policy.retry
    if batch is None:
        batch = True
    config = parallel or ParallelConfig(backend="serial")
    if config.backend != "serial":
        config = replace(config, serial_threshold=0)

    stopping = threading.Event()
    previous_handler: Any = None
    if handle_sigterm:
        previous_handler = signal.signal(
            signal.SIGTERM, lambda signum, frame: stopping.set()
        )

    ledger = LeaseLedger(store, worker_id, ttl=lease_ttl)
    attempted: set[int] = set()
    executed = 0
    sweeps = 0
    store.record_event("worker_start", worker=worker_id, pid=os.getpid())
    tracer = get_tracer()
    try:
        with tracer.span("campaign.worker", worker=worker_id):
            while not stopping.is_set():
                sweeps += 1
                recorded = store.shard_entries()
                quarantined = store.quarantine_keys()
                waiting = False
                progressed = False
                for shard in iter_shards(spec, catalog, shard_size=shard_size):
                    if stopping.is_set():
                        break
                    if _shard_recorded_complete(shard, recorded.get(shard.index)):
                        continue
                    if shard.index in attempted:
                        continue
                    if _recover_shard(shard, store) is not None:
                        progressed = True
                        continue
                    lease = ledger.try_claim(shard.index)
                    if lease is None:
                        waiting = True  # a live peer holds it; revisit next sweep
                        continue
                    attempted.add(shard.index)
                    try:
                        # Renew the lease while the flush runs: slow-but-alive
                        # keeps the claim; hung (no heartbeats) loses it at TTL.
                        with LeaseHeartbeat(ledger, shard.index):
                            outcome, frame = _flush_shard(
                                shard,
                                store,
                                config,
                                batch,
                                catalog,
                                None,
                                retry=retry,
                                quarantined=quarantined,
                            )
                    except BaseException:
                        ledger.release(shard.index)  # hand it back, then die loudly
                        raise
                    del frame
                    executed += 1
                    progressed = True
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
                if stopping.is_set() or not waiting:
                    break
                if not progressed:
                    if max_sweeps is not None and sweeps >= max_sweeps:
                        break
                    time.sleep(poll_interval)
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


def _worker_entry(
    store_dir: str,
    worker_id: str,
    batch: bool,
    lease_ttl: float,
    catalog: Catalog | None,
) -> None:
    """Module-level :class:`multiprocessing.Process` target for the pool."""
    run_worker(
        store_dir,
        worker_id,
        catalog=catalog,
        batch=batch,
        lease_ttl=lease_ttl,
        handle_sigterm=True,
    )


def _run_worker_pool(
    store: CampaignStore,
    n_workers: int,
    batch: bool,
    lease_ttl: float,
    catalog: Catalog | None,
) -> None:
    """Fan shards out across ``n_workers`` processes and wait for them.

    Workers that die (crash, OOM-kill, SIGKILL) are *not* respawned — the
    caller's finalize pass reclaims whatever they left behind, so a partial
    pool still converges; the exit codes land in the event log for
    ``campaign watch`` and post-mortems.
    """
    import multiprocessing

    store.record_event("pool_start", workers=n_workers)
    processes = [
        multiprocessing.Process(
            target=_worker_entry,
            args=(str(store.directory), f"w{index}", batch, lease_ttl, catalog),
            name=f"campaign-worker-{index}",
        )
        for index in range(n_workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
    store.record_event(
        "pool_join",
        workers=n_workers,
        exitcodes=[process.exitcode for process in processes],
    )


def stream_campaign(
    spec: CampaignSpec,
    store_dir: str | os.PathLike,
    parallel: ParallelConfig | None = None,
    catalog: Catalog | None = None,
    shard_size: int | None = None,
    max_units: int | None = None,
    max_shards: int | None = None,
    batch: bool | None = None,
    policy: ExecutionPolicy | None = None,
    progress: Callable[[ShardOutcome, int], None] | None = None,
    workers: int | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    results_dir: str | os.PathLike | None = None,
    retry: RetryPolicy | None = None,
) -> StreamingCampaignResult:
    """Execute a campaign shard by shard with bounded resident memory.

    The expansion is consumed lazily, each shard's rows are flushed to a
    columnar artifact before the next shard starts, and aggregates are
    folded through online reducers — peak memory is O(shard_size), not
    O(plan).  Re-invoking over the same store resumes at shard granularity:
    complete shards reload their artifact wholesale, partial shards
    re-execute only their missing units (per-unit cache hits keep repeats
    cheap).

    ``max_units`` bounds new simulation *attempts* across the whole run
    (failures count — matching :func:`~repro.campaign.runner.execute_units`);
    once spent, later shards are still visited cache-only so the result
    stays a full progress report.  ``max_shards`` stops after that many
    shards entirely (smoke runs; also how tests emulate a killed campaign).
    ``progress`` is invoked after every shard with its outcome and the
    total shard count (the CLI's streaming status line).  A ``policy``
    supplies ``parallel``/``batch``/``shard_size``/``workers`` defaults;
    explicit arguments win.

    ``workers=N`` (N > 1) fans shards out across a pool of N worker
    processes coordinating through lease records in the shard ledger; the
    serial pass below then runs as the coordinator/reclaimer — it reloads
    every worker-completed artifact in shard order and re-executes anything
    a crashed worker left behind, so the result (frames *and* aggregate) is
    bit-identical to the serial streamed run for any worker count.  Worker
    pools execute whole shards concurrently, so they are incompatible with
    the ``max_units``/``max_shards`` caps.  ``results_dir`` redirects the
    unit-result cache (the campaign service points several job stores at
    one shared cache for cross-client dedup).

    ``retry`` (or ``policy.retry``) enables per-unit retry rounds with
    capped exponential backoff and poison-unit quarantine: a unit that
    fails ``max_attempts`` rounds is recorded in the store's
    ``quarantine.jsonl``, excluded from every later pass, and the result's
    :attr:`~StreamingCampaignResult.status` reports ``degraded`` instead of
    blocking completion.  ``policy.faults`` installs a
    :class:`~repro.faults.FaultPlan` for the duration of the run (chaos
    testing; the previous plan is restored on exit).
    """

    def _run() -> StreamingCampaignResult:
        return _stream_campaign(
            spec,
            store_dir,
            parallel=parallel,
            catalog=catalog,
            shard_size=shard_size,
            max_units=max_units,
            max_shards=max_shards,
            batch=batch,
            policy=policy,
            progress=progress,
            workers=workers,
            lease_ttl=lease_ttl,
            results_dir=results_dir,
            retry=retry,
        )

    if policy is not None and policy.faults is not None:
        previous = install_fault_plan(policy.faults)
        try:
            return _run()
        finally:
            install_fault_plan(previous)
    return _run()


def _stream_campaign(
    spec: CampaignSpec,
    store_dir: str | os.PathLike,
    parallel: ParallelConfig | None = None,
    catalog: Catalog | None = None,
    shard_size: int | None = None,
    max_units: int | None = None,
    max_shards: int | None = None,
    batch: bool | None = None,
    policy: ExecutionPolicy | None = None,
    progress: Callable[[ShardOutcome, int], None] | None = None,
    workers: int | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    results_dir: str | os.PathLike | None = None,
    retry: RetryPolicy | None = None,
) -> StreamingCampaignResult:
    """The streaming pass behind :func:`stream_campaign` (fault scope set)."""
    if policy is not None:
        parallel = policy.parallel_config() if parallel is None else parallel
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

    store = CampaignStore(store_dir, results_dir=results_dir)
    store.initialize_streaming(spec, shard_size)

    if n_workers > 1:
        # The pool populates shard artifacts; aggregation happens only in
        # the serial pass below, which keeps bit-identity trivially.
        _run_worker_pool(store, n_workers, batch, lease_ttl, catalog)

    config = parallel or ParallelConfig(backend="serial")
    if config.backend != "serial":
        # A campaign unit is a whole benchmark simulation; see execute_units
        # for why the executor's cheap-work serial threshold must not apply.
        config = replace(config, serial_threshold=0)

    total_units = spec.n_units
    n_shards = -(-total_units // shard_size)
    recorded = store.shard_entries()
    quarantined_keys = store.quarantine_keys()
    reducer = FrameReducer()
    outcomes: list[ShardOutcome] = []
    failures: list[tuple[str, str]] = []
    cache_hits = 0
    simulated = 0
    budget = max_units

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
            shard, store, config, batch, catalog, None, retry=retry, quarantined=quarantined_keys
        )
        return outcome

    # Events carry quantiles compactly: one label list per event, one value
    # list per column (``campaign watch`` also reads the older
    # ``{column: {label: value}}`` form).
    quantile_labels = [quantile_label(q) for q in reducer.quantiles]

    tracer = get_tracer()
    with tracer.span("campaign.stream", name=spec.name, n_shards=n_shards):
        for shard in iter_shards(spec, catalog, shard_size=shard_size):
            if max_shards is not None and shard.index >= max_shards:
                break
            shard_start = time.perf_counter()
            reloaded = _reload_shard(
                shard, store, recorded.get(shard.index, {}), quarantined_keys
            )
            if reloaded is None and not _shard_recorded_complete(
                shard, recorded.get(shard.index)
            ):
                # Reclaimer half of the worker protocol: a killed worker may
                # have flushed this shard's artifact without landing its
                # result record — adopt it instead of re-executing.
                reloaded = _recover_shard(shard, store)
            if reloaded is not None:
                outcome, frame = reloaded
            else:
                outcome, frame = _flush_shard(
                    shard,
                    store,
                    config,
                    batch,
                    catalog,
                    budget,
                    retry=retry,
                    quarantined=quarantined_keys,
                )
                if budget is not None:
                    # Attempts spend the budget, successful or not, mirroring
                    # the unsharded runner's pending[:max_units] semantics.
                    budget -= outcome.simulated + len(outcome.failures)
            outcomes.append(outcome)
            failures.extend(outcome.failures)
            cache_hits += outcome.cache_hits
            simulated += outcome.simulated
            reducer.update(frame)
            del frame  # the whole point: nothing accumulates
            wall_s = time.perf_counter() - shard_start
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
                quantile_labels=quantile_labels,
                quantiles=_event_quantiles(reducer.last_quantiles),
            )
            if progress is not None:
                progress(outcome, n_shards)
        quantiles = _campaign_quantiles(store, outcomes, reducer, reflush)

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
    # shard_flush event already carries; ``campaign watch`` reads them there.
    repeated = {}
    if len(outcomes) != 1:
        repeated = {"quantile_labels": quantile_labels, "quantiles": _event_quantiles(quantiles)}
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
        aggregate=reducer.to_frame(quantiles),
        store_directory=str(store.directory),
        n_workers=n_workers,
        quarantined=tuple(quarantine_records.values()),
    )


def resume_streaming(
    store_dir: str | os.PathLike,
    parallel: ParallelConfig | None = None,
    catalog: Catalog | None = None,
    shard_size: int | None = None,
    max_units: int | None = None,
    max_shards: int | None = None,
    batch: bool | None = None,
    policy: ExecutionPolicy | None = None,
    progress: Callable[[ShardOutcome, int], None] | None = None,
    workers: int | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    retry: RetryPolicy | None = None,
) -> StreamingCampaignResult:
    """Continue an interrupted sharded campaign from its on-disk snapshot.

    The shard layout is read back from the store (falling back to
    ``shard_size``/policy for stores that predate it), so a resume
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
        parallel=parallel,
        catalog=catalog,
        shard_size=shard_size,
        max_units=max_units,
        max_shards=max_shards,
        batch=batch,
        policy=policy,
        progress=progress,
        workers=workers,
        lease_ttl=lease_ttl,
        retry=retry,
    )
