"""Unit simulation for campaign shards, and the resident campaign runner.

:func:`dispatch_simulations` runs one batch of units through the kernel for
the shard step (:class:`~repro.campaign.sharding.ShardStep`), the one code
path that writes campaign rows.  :func:`run_campaign` and
:func:`resume_campaign` drive that step shard by shard and return the whole
campaign frame in memory (:class:`CampaignResult`).

The workers are module-level functions of one picklable payload tuple, so
the process back-end of :mod:`repro.parallel` can ship them to a pool.  A
worker simulates its units and derives their rows as one column block
(:func:`repro.reportgen.records.derive_block`) straight from the kernel's
``(runs x levels)`` matrices, checked by the production validator's column
predicates (:func:`repro.parser.validation.primary_issues`).  No per-unit
result, record or row object is built: each outcome's row is a read-only
:class:`~repro.parser.fields.BlockRow` view, and the shard frame is
gathered column by column (:func:`repro.campaign.aggregate.assemble_frame`).
Derivation reproduces, field for field, what rendering the SPEC-report text
and parsing it back would give, so campaign rows are bit-for-bit the schema
:func:`repro.core.dataset` produces.  Two routes stay here as the references
the tests hold the column path to, and no campaign runs them: the per-unit
object route (:func:`_roundtrip_result`: ``derive_record`` +
``validate_run``) and the text route (:func:`_text_roundtrip_result`:
render, parse back, validate).  Worker failures are captured per unit and
recorded in the store ledger; one bad scenario never aborts the campaign.

Execution strategy: by default each worker simulates its units through the
vectorized :class:`~repro.simulator.batch.BatchDirector`, grouped by shared
:class:`SimulationOptions` (results are bit-for-bit what the scalar path
would produce, so cache keys and cached rows are strategy independent); on
the serial back-end one kernel call covers a whole options group.
``batch=False`` forces the scalar per-unit director, and a chunk whose
batch simulation fails falls back to it so errors stay attributed to
individual units.  Scalar results enter the same block derivation.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from ..errors import ReproError
from ..faults.plan import fault_point
from ..frame import Frame, concat
from ..market.catalog import Catalog, default_catalog
from ..parallel import ParallelConfig, parallel_map
from ..parser.fields import RecordBlock, RunRecord
from ..parser.resultfile import parse_result_text
from ..parser.validation import primary_issues, validate_run
from ..reportgen import records
from ..reportgen.textreport import render_report
from ..session.policy import ExecutionPolicy
from ..simulator.batch import BatchDirector
from ..simulator.director import RunDirector
from ..simulator.result import RunMatrices, RunResult
from .aggregate import annotate_row
from .sharding import ShardStep, campaign_config, iter_shards
from .spec import CampaignSpec, CampaignUnit
from .store import CampaignStore

__all__ = [
    "CampaignResult",
    "dispatch_simulations",
    "run_campaign",
    "resume_campaign",
]


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one :func:`run_campaign` invocation."""

    frame: Frame
    total_units: int
    cache_hits: int
    simulated: int
    failures: tuple[tuple[str, str], ...]  # (unit_id, error)
    store_directory: str

    @property
    def completed(self) -> int:
        return len(self.frame)

    def describe(self) -> str:
        lines = [
            f"{self.total_units} units: {self.cache_hits} cached, "
            f"{self.simulated} simulated, {len(self.failures)} failed "
            f"({self.completed} rows in {self.store_directory})"
        ]
        for unit_id, error in self.failures:
            lines.append(f"  failed {unit_id}: {error}")
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Worker (module-level: the process back-end pickles it by reference)
# --------------------------------------------------------------------------- #
#: ``(key, row, error)`` of one unit.
Outcome = tuple[str, Optional[Mapping[str, Any]], Optional[str]]


def _error_text(exc: Exception) -> str:
    """How a unit's failure reads in the ledger and the result."""
    if isinstance(exc, ReproError):
        return f"{type(exc).__name__}: {exc}"
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


def _roundtrip_result(key: str, plan, result) -> Outcome:
    """One simulated run's outcome through the per-unit record route.

    The reference :func:`_block_outcomes` must match outcome for outcome.
    """
    return _checked_row(key, lambda: records.derive_record(result))


def _text_roundtrip_result(key: str, plan, result) -> Outcome:
    """The same row through the report text: render, parse back, validate.

    The reference :func:`_roundtrip_result` and the column path must match
    outcome for outcome.
    """
    return _checked_row(
        key,
        lambda: parse_result_text(render_report(result), file_name=plan.file_name).record,
    )


def _checked_row(key: str, make_record: Callable[[], RunRecord]) -> Outcome:
    """``(key, row, error)`` of one unit: its validated record, or why not."""
    try:
        # Inside the try: a raise-kind fault becomes a per-unit error row,
        # like a real failure.
        fault_point("unit.execute", ctx=key)
        record = make_record()
        report = validate_run(record)
        if not report.is_valid:
            return key, None, f"validation: {report.primary_issue}"
        return key, record.to_dict(), None
    except Exception as exc:
        return key, None, _error_text(exc)


#: Where a unit's row comes from: ``(block, index)``, or its error text.
_Source = Union[tuple[RecordBlock, int], str]


def _block_outcomes(units: Sequence[tuple[str, _Source]]) -> list[Outcome]:
    """``(key, row, error)`` per unit, in order.

    A unit whose simulation failed keeps its error.  Every other unit
    passes its ``unit.execute`` fault point (once, in unit order, before
    its row is taken), then gets its block's derivation error, its primary
    validation issue, or its row: a view into the block.
    """
    issues: dict[int, list] = {}
    outcomes: list[Outcome] = []
    for key, source in units:
        if isinstance(source, str):
            outcomes.append((key, None, source))
            continue
        block, index = source
        try:
            fault_point("unit.execute", ctx=key)
        except Exception as exc:
            outcomes.append((key, None, _error_text(exc)))
            continue
        error = block.errors[index]
        if error is not None:
            outcomes.append((key, None, _error_text(error)))
            continue
        block_issues = issues.get(id(block))
        if block_issues is None:
            block_issues = issues[id(block)] = primary_issues(block.columns)
        issue = block_issues[index]
        if issue is not None:
            outcomes.append((key, None, f"validation: {issue}"))
        else:
            outcomes.append((key, block.row(index), None))
    return outcomes


def _simulate_units(payload: tuple) -> list[Outcome]:
    """Simulate units one by one through the scalar director.

    The payload is ``(units, catalog)`` with ``units`` a tuple of ``(key,
    plan, options, seed)``; outcomes keep that order.  ``catalog`` travels
    inside the payload only for non-default catalogs; ``None`` keeps
    payloads small for the common case.  The results of each load ladder
    are derived as one block.
    """
    units, catalog = payload
    results: list[RunResult | str] = []
    for _, plan, options, seed in units:
        try:
            director = RunDirector(
                catalog=catalog or default_catalog(), options=options, corpus_seed=seed
            )
            results.append(director.run(plan))
        except Exception as exc:
            results.append(_error_text(exc))
    ladders: dict[tuple[float, ...], list[int]] = {}
    for position, result in enumerate(results):
        if not isinstance(result, str):
            targets = tuple(level.target_load for level in result.levels)
            ladders.setdefault(targets, []).append(position)
    sources: list[_Source] = list(results)
    for positions in ladders.values():
        block = records.derive_block(RunMatrices.from_results([results[at] for at in positions]))
        for index, position in enumerate(positions):
            sources[position] = (block, index)
    return _block_outcomes([(unit[0], source) for unit, source in zip(units, sources)])


def _simulate_chunk(payload: tuple) -> list[Outcome]:
    """Simulate one same-options chunk of units through the batch kernel.

    The payload is ``(units, options, catalog)`` with ``units`` a tuple of
    ``(key, plan, seed)``.  If the vectorized simulation of the chunk fails
    for any reason the chunk is re-run unit by unit through the scalar
    worker, so a single bad scenario is reported against its own key instead
    of poisoning its neighbours.
    """
    units, options, catalog = payload
    try:
        director = BatchDirector(catalog=catalog or default_catalog(), options=options)
        windows = director.run_windows(
            [plan for _, plan, _ in units], seeds=[seed for _, _, seed in units]
        )
        for window in windows:
            window.check_levels()
    except Exception:
        return _simulate_units(
            (tuple((key, plan, options, seed) for key, plan, seed in units), catalog)
        )
    sources: list[_Source] = []
    for window in windows:
        block = records.derive_block(window)
        sources.extend((block, index) for index in range(len(window)))
    return _block_outcomes([(key, source) for (key, _, _), source in zip(units, sources)])


def _chunk_payloads(
    units: list[CampaignUnit], chunk_size: int | None, catalog: Catalog | None
) -> list[tuple]:
    """Group units by shared options, then split into worker-sized chunks.

    ``chunk_size=None`` keeps each options group whole.
    """
    groups: dict = {}
    for unit in units:
        groups.setdefault(unit.options, []).append(unit)
    payloads = []
    for options, group in groups.items():
        step = chunk_size or len(group)
        for start in range(0, len(group), step):
            chunk = group[start : start + step]
            payloads.append(
                (tuple((u.key, u.plan, u.seed) for u in chunk), options, catalog)
            )
    return payloads


def dispatch_simulations(
    units: list[CampaignUnit],
    config: ParallelConfig,
    batch: bool,
    catalog: Catalog | None,
) -> list[Outcome]:
    """Run one batch of units through the selected kernel.

    Returns ``(key, row, error)`` per unit: batch outcomes in options-group
    order, scalar ones in unit order.  A row is a read-only mapping, a
    :class:`~repro.parser.fields.BlockRow` into its chunk's column block.
    The single dispatch point of every shard flush, resident, streamed or
    scheduled alike.
    """
    from ..obs.trace import get_tracer

    with get_tracer().span(
        "campaign.dispatch", units=len(units), batch=batch, backend=config.backend
    ):
        # One payload per worker chunk (the outer map must not re-chunk it);
        # a serial run vectorizes each options group in one kernel call.
        chunk_size = None if config.backend == "serial" else config.chunk_size
        if batch:
            worker = _simulate_chunk
            payloads = _chunk_payloads(units, chunk_size, catalog)
        else:
            worker = _simulate_units
            step = chunk_size or len(units) or 1
            payloads = [
                (
                    tuple((u.key, u.plan, u.options, u.seed) for u in units[start : start + step]),
                    catalog,
                )
                for start in range(0, len(units), step)
            ]
        return [
            outcome
            for chunk in parallel_map(worker, payloads, config=replace(config, chunk_size=1))
            for outcome in chunk
        ]


def _annotation_order(frame: Frame, unit: CampaignUnit) -> Frame:
    """``frame`` with its ``campaign_*`` columns in the order ``unit`` gives them.

    A reloaded shard keeps the column order of the spec it was flushed
    with: ``base`` order in memory, sorted in the ``spec.json`` snapshot.
    """
    wanted = [name for name in annotate_row({}, unit) if name in frame]
    slots = set(wanted)
    ordered = iter(wanted)
    return frame.select([next(ordered) if name in slots else name for name in frame.columns])


def _run_resident(
    spec: CampaignSpec,
    store: CampaignStore,
    parallel: ParallelConfig | None,
    catalog: Catalog | None,
    max_units: int | None,
    batch: bool,
    policy: ExecutionPolicy | None,
) -> CampaignResult:
    """Run ``spec`` into ``store`` shard by shard and concatenate the frames.

    Each shard goes through the same :class:`~repro.campaign.sharding
    .ShardStep` a streamed run takes, and is persisted before the next one
    starts.  A store without a layout gets shards of ``chunk_size x
    workers`` units, one dispatch's worth: a campaign killed mid-run loses
    at most the shard in flight.  The store records that layout, and later
    runs and resumes reuse it.
    """
    if policy is not None:
        parallel = policy.parallel_config()
        batch = policy.use_batch_kernel
    config = campaign_config(parallel)
    shard_size = store.stored_shard_size() or config.chunk_size * config.effective_workers
    store.initialize_streaming(spec, shard_size)
    step = ShardStep(store, config, batch, catalog, budget=max_units)
    frames: list[Frame] = []
    failures: list[tuple[str, str]] = []
    cache_hits = simulated = 0
    for shard in iter_shards(spec, catalog, shard_size=shard_size):
        outcome, frame = step(shard)
        if len(frame):
            frames.append(frame)
        failures.extend(outcome.failures)
        cache_hits += outcome.cache_hits
        simulated += outcome.simulated
    return CampaignResult(
        # Every unit of a spec annotates the same axes; the last shard's
        # first unit stands for all of them.
        frame=_annotation_order(concat(frames), shard.units[0]),
        total_units=spec.n_units,
        cache_hits=cache_hits,
        simulated=simulated,
        failures=tuple(failures),
        store_directory=str(store.directory),
    )


def run_campaign(
    spec: CampaignSpec,
    store_dir: str | os.PathLike,
    parallel: ParallelConfig | None = None,
    catalog: Catalog | None = None,
    max_units: int | None = None,
    batch: bool = True,
    policy: ExecutionPolicy | None = None,
) -> CampaignResult:
    """Expand ``spec``, execute missing units, return the campaign frame.

    Completed units are content-hash cache hits and are never re-simulated;
    invoking this twice over the same store performs zero new simulations
    the second time.  ``max_units`` bounds the number of new simulation
    attempts (smoke runs; also how the tests emulate an interrupted
    campaign): remaining units stay pending for the next run.
    ``batch=False`` opts out of the vectorized kernel; a ``policy``
    overrides both ``parallel`` and ``batch``.
    """
    return _run_resident(
        spec, CampaignStore(store_dir), parallel, catalog, max_units, batch, policy
    )


def resume_campaign(
    store_dir: str | os.PathLike,
    parallel: ParallelConfig | None = None,
    catalog: Catalog | None = None,
    max_units: int | None = None,
    batch: bool = True,
    policy: ExecutionPolicy | None = None,
) -> CampaignResult:
    """Continue an interrupted campaign from its on-disk spec snapshot."""
    store = CampaignStore(store_dir)
    return _run_resident(
        store.load_spec(), store, parallel, catalog, max_units, batch, policy
    )
