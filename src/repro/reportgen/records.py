"""Parse-bypass record derivation: :class:`RunRecord` straight from a result.

The conventional pipeline for a synthetic corpus is *render → parse*: every
:class:`~repro.simulator.result.RunResult` becomes a ~60-line plain-text
report (:func:`~repro.reportgen.textreport.render_report`) which the parser
immediately re-extracts with regexes.  When the corpus is synthetic and the
results are already in memory, that round trip is pure overhead —
:func:`derive_record` produces the identical :class:`RunRecord` directly.

**Bit-identity is the contract**, pinned by ``tests/test_record_derive.py``:
every field goes through exactly the formatting round trip the text path
applies (``float(f"{x:.1f}")`` where the report prints one decimal, the
anomaly-mangled core counts, the same CPU classification), so
``derive_record(result)`` equals ``parse_result_text(render_report(result))``
field for field, for clean and defective plans alike.  The text path stays
the only route for external corpora and remains covered by the parser tests.

Campaigns derive many runs at once: :func:`derive_block` turns the batch
kernel's :class:`~repro.simulator.result.RunMatrices` into one
:class:`~repro.parser.fields.RecordBlock` of typed columns, equal to
``derive_record`` of every run bit for bit.  Plan-derived fields are
computed once per distinct plan; the measured ones are array expressions
with a vectorized decimal round trip (:func:`round_trip_array`).
``derive_record`` stays the per-run reference (``tests/test_campaign_rows.py``
and ``tests/test_campaign_columns.py`` hold the block form to it and to the
text route) and the corpus funnel's route.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import ParseError, SimulationError
from ..market.anomalies import AnomalyKind
from ..market.catalog import Catalog, default_catalog
from ..market.fleet import SystemPlan, sample_fleet
from ..parallel import ParallelConfig, parallel_map
from ..parser.corpus import CorpusParseReport, RejectedFile
from ..parser.cpuinfo import classify_cpu
from ..parser.fields import (
    LOAD_LEVELS,
    RECORD_COLUMNS,
    FieldColumn,
    RecordBlock,
    RunRecord,
    level_field,
)
from ..parser.resultfile import _classify_os
from ..parser.validation import validate_run
from ..simulator.director import RunDirector, SimulationOptions
from ..powermodel.cpu import CPUSpec
from ..simulator.result import RunMatrices, RunResult
from ..units import parse_month_date
from .textreport import (
    _cpu_display_name,
    _cpu_vendor_name,
    _hardware_availability,
)

__all__ = ["derive_block", "derive_record", "derive_corpus_report", "round_trip_array"]


def _round_trip(value: float, decimals: int) -> float:
    """The value a rendered-then-parsed number comes back as."""
    return float(f"{value:.{decimals}f}")


#: Past this magnitude ``10 * x`` goes to the scalar format (``k`` must stay
#: far inside the range of exactly representable integers).
_EXACT_SCALED = 2.0**50


def round_trip_array(values: np.ndarray, decimals: int) -> np.ndarray:
    """``float(f"{x:.{decimals}f}")`` of every element, bit for bit.

    ``decimals`` is 0 or 1, the precisions the report prints.  ``.0f`` is
    :func:`numpy.rint` (both round half to even).  ``.1f`` is ``k / 10``
    with ``k = rint(10 * x)``: exact, since ``k`` and 10 are exact and the
    division rounds once, unless rounding ``10 * x`` to a float moved it
    across a half-integer, which only happens within an ulp of one.
    Those elements, huge ones and non-finite ones take the scalar format.
    """
    if decimals == 0:
        return np.rint(values)
    if decimals != 1:
        raise ValueError(f"decimals must be 0 or 1, got {decimals}")
    scaled = values * 10.0
    rounded = np.rint(scaled) / 10.0
    magnitude = np.abs(scaled)
    with np.errstate(invalid="ignore"):
        doubtful = ~(magnitude < _EXACT_SCALED) | (
            np.abs(scaled - np.floor(scaled) - 0.5) <= 4.0 * np.spacing(magnitude)
        )
    for index in np.flatnonzero(doubtful).tolist():
        rounded.flat[index] = _round_trip(float(values.flat[index]), 1)
    return rounded


class _Described(NamedTuple):
    """What the report's system and CPU sections read of a result."""

    plan: SystemPlan
    cpu: CPUSpec


def _plan_record(plan: SystemPlan, cpu: CPUSpec) -> RunRecord:
    """A record holding every field the plan and its CPU fix.

    That is all but the ids and the measured results: load levels, active
    idle, the overall score and acceptance.
    """
    described = _Described(plan, cpu)
    record = RunRecord()

    # Dates ----------------------------------------------------------------
    record.test_year, record.test_month = plan.test_date.year, plan.test_date.month
    record.publication_year = plan.publication_date.year
    record.publication_month = plan.publication_date.month
    record.sw_avail_year, record.sw_avail_month = plan.sw_avail.year, plan.sw_avail.month
    try:
        hw = parse_month_date(_hardware_availability(described))
    except ParseError:
        hw = None  # year-only (ambiguous) availability
    if hw is not None:
        record.hw_avail_year, record.hw_avail_month = hw.year, hw.month
        record.hw_avail_decimal = hw.decimal_year

    # System ---------------------------------------------------------------
    record.system_vendor = plan.system_vendor
    record.system_model = plan.system_model
    if plan.anomaly != AnomalyKind.MISSING_NODE_COUNT:
        record.nodes = plan.nodes
    record.sockets_per_node = plan.sockets
    record.memory_gb = _round_trip(plan.memory_gb, 0)
    record.psu_rating_w = _round_trip(plan.psu_rating_w, 0)

    # The "CPU(s) Enabled" / "Hardware Threads" lines carry the plan's core
    # math after anomaly mangling; mirror the renderer's core arithmetic so
    # the derived counts equal the numbers it would print.
    cores_total = cpu.cores * plan.sockets * plan.nodes
    cores_per_chip = cpu.cores
    if plan.anomaly == AnomalyKind.INCONSISTENT_CORE_THREAD:
        cores_per_chip = max(cpu.cores - 2, 1)
    if plan.anomaly == AnomalyKind.IMPLAUSIBLE_CORE_COUNT:
        cores_total *= 10_000
    record.cores_total = cores_total
    record.total_chips = plan.sockets * plan.nodes
    record.cores_per_chip = cores_per_chip
    record.threads_total = cores_total * cpu.threads_per_core
    record.threads_per_core = cpu.threads_per_core

    # CPU ------------------------------------------------------------------
    record.cpu_name = _cpu_display_name(described)
    record.cpu_frequency_mhz = _round_trip(cpu.base_frequency_mhz, 0)
    record.cpu_vendor = _cpu_vendor_name(described)
    info = classify_cpu(record.cpu_name)
    if record.cpu_vendor is None or info.vendor != "Other":
        record.cpu_vendor = info.vendor
    record.cpu_family = info.family
    record.cpu_class = info.cpu_class

    # Software -------------------------------------------------------------
    record.os_name = plan.os_name
    record.os_family = _classify_os(plan.os_name)
    record.jvm = plan.jvm_name
    return record


def derive_record(result: RunResult) -> RunRecord:
    """The :class:`RunRecord` the text round trip would produce, directly.

    Mirrors :func:`render_report` + ``parse_result_text`` exactly, including
    injected anomalies and the per-field precision the report format prints.
    """
    plan = result.plan
    record = _plan_record(plan, result.cpu)
    record.file_name, record.run_id = plan.file_name, plan.run_id

    # Results --------------------------------------------------------------
    for level in result.load_levels:
        percent = int(f"{level.target_load * 100:.0f}")
        if percent not in LOAD_LEVELS:
            continue
        record.set_level(
            "actual_load", percent, _round_trip(level.actual_load * 100, 1) / 100.0
        )
        record.set_level("ssj_ops", percent, _round_trip(level.ssj_ops, 0))
        record.set_level("power", percent, _round_trip(level.average_power_w, 1))
    record.power_idle = _round_trip(result.active_idle.average_power_w, 1)
    record.overall_ssj_ops_per_watt = _round_trip(result.overall_efficiency, 0)
    record.accepted = not (
        plan.anomaly == AnomalyKind.NOT_ACCEPTED or not result.accepted
    )
    return record


#: The record fields :func:`_plan_record` sets, in record column order.
_PLAN_FIELDS = tuple(
    name
    for name in RECORD_COLUMNS[: RECORD_COLUMNS.index("overall_ssj_ops_per_watt")]
    if name not in ("run_id", "file_name")
)


def derive_block(matrices: RunMatrices) -> RecordBlock:
    """The records :func:`derive_record` gives for every run, as one column block.

    Equal to ``[derive_record(r) for r in matrices.results()]`` field for
    field and bit for bit; a run whose derivation raises carries that
    exception in ``errors``.  Plan-derived fields are computed once per
    distinct plan and CPU (ids aside); the measured ones are array
    expressions over the matrices, with the report's decimal round trip
    (:func:`round_trip_array`).
    """
    plans = matrices.plans
    n_rows = len(plans)
    signatures: dict[tuple, int] = {}
    table: list[RunRecord | Exception] = []
    not_accepted: list[bool] = []  # per signature: the plan's anomaly rejects it
    codes = np.empty(n_rows, dtype=np.intp)
    for row, (plan, configuration) in enumerate(zip(plans, matrices.configurations)):
        cpu = configuration.cpu
        # Everything _plan_record reads.  The repr keeps apart numbers that
        # compare equal but print differently (0.0 and -0.0, 1 and True).
        hw, sw, tested, published = (
            plan.hw_avail,
            plan.sw_avail,
            plan.test_date,
            plan.publication_date,
        )
        signature = (
            id(cpu),
            hw.year,
            hw.month,
            sw.year,
            sw.month,
            tested.year,
            tested.month,
            published.year,
            published.month,
            plan.anomaly,
            plan.system_vendor,
            plan.system_model,
            plan.os_name,
            plan.jvm_name,
            repr((plan.nodes, plan.sockets, plan.memory_gb, plan.psu_rating_w)),
        )
        code = signatures.get(signature)
        if code is None:
            code = signatures[signature] = len(table)
            not_accepted.append(plan.anomaly == AnomalyKind.NOT_ACCEPTED)
            try:
                table.append(_plan_record(plan, cpu))
            except Exception as exc:  # the run's error, as derive_record raises it
                table.append(exc)
        codes[row] = code

    blank = RunRecord()
    records = [entry if isinstance(entry, RunRecord) else blank for entry in table]
    columns: dict[str, FieldColumn] = {
        "run_id": FieldColumn.of([plan.run_id for plan in plans]),
        "file_name": FieldColumn.of([plan.file_name for plan in plans]),
    }
    for name in _PLAN_FIELDS:
        columns[name] = FieldColumn.of([getattr(record, name) for record in records]).take(codes)

    # Overall ssj_ops/W: sums in RunResult.levels order (measured levels,
    # then idle), one column at a time, as the scalar sum adds them.
    total_ops = np.zeros(n_rows)
    total_power = np.zeros(n_rows)
    for column in range(len(matrices.targets)):
        total_ops = total_ops + matrices.ssj_ops[:, column]
        total_power = total_power + matrices.power[:, column]
    total_ops = total_ops + matrices.idle_ops
    total_power = total_power + matrices.idle_power
    powerless = total_power <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        overall = np.rint(total_ops / total_power)
    rejected = np.array(not_accepted, dtype=bool)[codes] | ~np.array(matrices.accepted, dtype=bool)
    present = np.zeros(n_rows, dtype=bool)
    columns["overall_ssj_ops_per_watt"] = FieldColumn(overall, present, "float")
    columns["power_idle"] = FieldColumn(round_trip_array(matrices.idle_power, 1), present, "float")
    columns["accepted"] = FieldColumn(~rejected, present, "bool")

    # Load levels: derive_record sets them highest target first.
    absent = FieldColumn.absent(n_rows)
    levels: dict[str, FieldColumn] = {}
    order = sorted(range(len(matrices.targets)), key=lambda column: -matrices.targets[column])
    for column in order:
        percent = int(f"{matrices.targets[column] * 100:.0f}")
        if percent not in LOAD_LEVELS:
            continue
        actual = round_trip_array(matrices.actual_load[:, column] * 100, 1) / 100.0
        levels[level_field("actual_load", percent)] = FieldColumn(actual, present, "float")
        ops = round_trip_array(matrices.ssj_ops[:, column], 0)
        levels[level_field("ssj_ops", percent)] = FieldColumn(ops, present, "float")
        power = round_trip_array(matrices.power[:, column], 1)
        levels[level_field("power", percent)] = FieldColumn(power, present, "float")
    for name in RECORD_COLUMNS[len(columns) :]:
        columns[name] = levels.get(name, absent)

    errors: list[Exception | None] = [None] * n_rows
    for row in np.flatnonzero(powerless).tolist():
        errors[row] = SimulationError("total power must be positive")
    for code, entry in enumerate(table):
        if not isinstance(entry, RunRecord):
            for row in np.flatnonzero(codes == code).tolist():
                errors[row] = entry
    return RecordBlock(columns, errors)


def _derive_outcome(
    file_name: str, result: RunResult
) -> tuple[str, RunRecord | None, str | None]:
    """Derive + validate one simulated result; returns (file, record, rejection)."""
    record = derive_record(result)
    report = validate_run(record)
    if not report.is_valid:
        return file_name, None, str(report.primary_issue)
    return file_name, record, None


# Module-level worker so the process-pool backend can pickle it.
def _derive_plan(
    args: tuple[SystemPlan, int, SimulationOptions, Catalog | None],
) -> tuple[str, RunRecord | None, str | None]:
    """Simulate + derive + validate one plan; returns (file, record, rejection)."""
    plan, seed, options, catalog = args
    director = RunDirector(
        catalog=catalog or default_catalog(), options=options, corpus_seed=seed
    )
    return _derive_outcome(plan.file_name, director.run(plan))


def derive_corpus_report(
    directory,
    total_parsed_runs: int = 960,
    seed: int = 2024,
    options: SimulationOptions | None = None,
    catalog: Catalog | None = None,
    parallel: ParallelConfig | None = None,
    batch: bool = False,
) -> CorpusParseReport:
    """The parse funnel of a synthetic corpus, without materialising it.

    Samples the same fleet :func:`~repro.reportgen.writer.generate_corpus_files`
    would write, simulates every plan, and derives + validates records
    directly — no report text is rendered, no file is written or parsed.
    The returned report matches ``parse_directory`` over the rendered corpus
    record for record and rejection for rejection (plans are processed in
    file-name order, exactly the order a directory scan visits them).

    ``batch=True`` simulates the whole fleet through the vectorized
    :class:`~repro.simulator.batch.BatchDirector` in-process (bit-for-bit
    identical to the scalar director, pinned by the batch equivalence
    suite); otherwise plans run per-unit through ``parallel``.

    ``directory`` only labels the report (where the corpus *would* live);
    ``catalog=None`` uses the default catalog without shipping it to workers.
    """
    options = options or SimulationOptions()
    fleet = sample_fleet(total_parsed_runs, seed, catalog=catalog)
    plans = sorted(fleet.systems, key=lambda plan: plan.file_name)
    if batch:
        from ..simulator.batch import BatchDirector

        director = BatchDirector(
            catalog=catalog or default_catalog(), options=options, corpus_seed=seed
        )
        outcomes = [
            _derive_outcome(plan.file_name, result)
            for plan, result in zip(plans, director.run_batch(plans))
        ]
    else:
        work = [(plan, seed, options, catalog) for plan in plans]
        outcomes = parallel_map(
            _derive_plan, work, config=parallel or ParallelConfig(backend="serial")
        )
    records: list[RunRecord] = []
    rejected: list[RejectedFile] = []
    for name, record, reason in outcomes:
        if record is not None:
            records.append(record)
        else:
            rejected.append(RejectedFile(name, reason or "unknown"))
    return CorpusParseReport(
        records=tuple(records), rejected=tuple(rejected), directory=str(directory)
    )
