"""Consistency checks on parsed runs (the paper's Section II filters).

The paper removes 57 of 1017 downloaded results before analysis.  The same
checks are implemented here; each produces a :class:`ValidationIssue` so the
dataset funnel can be reported with per-reason counts.

:func:`validate_run` checks one record; :func:`primary_issues` applies the
same checks as column predicates to a whole
:class:`~repro.parser.fields.RecordBlock` and gives each record its
``primary_issue``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .fields import FieldColumn, RunRecord, level_field

__all__ = [
    "MAX_PLAUSIBLE_CORES",
    "ValidationIssue",
    "ValidationReport",
    "primary_issues",
    "validate_run",
]

#: Hardware availability dates outside this window are implausible: the
#: benchmark targets servers sold between the early 2000s and "shortly after
#: the present" (reports are sometimes submitted before general availability).
_PLAUSIBLE_YEARS = (2004, 2026)

#: No x86 server sold in the covered period had more than this many cores in
#: a single submission (1024 already allows 16-node blade chassis).  The
#: fleet sampler sizes multi-node plans against the same limit.
MAX_PLAUSIBLE_CORES = 4096
_MAX_PLAUSIBLE_THREADS_PER_CORE = 8


class ValidationIssue(str, enum.Enum):
    """One reason a run is excluded before analysis."""

    NOT_ACCEPTED = "not_accepted"
    AMBIGUOUS_DATE = "ambiguous_date"
    IMPLAUSIBLE_DATE = "implausible_date"
    AMBIGUOUS_CPU = "ambiguous_cpu"
    MISSING_NODE_COUNT = "missing_node_count"
    INCONSISTENT_CORE_THREAD = "inconsistent_core_thread"
    IMPLAUSIBLE_CORE_COUNT = "implausible_core_count"
    MISSING_MEASUREMENTS = "missing_measurements"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating one run."""

    run_id: str
    issues: tuple[ValidationIssue, ...] = ()

    @property
    def is_valid(self) -> bool:
        return not self.issues

    @property
    def primary_issue(self) -> ValidationIssue | None:
        """The first (most severe) issue — used for the funnel counts."""
        return self.issues[0] if self.issues else None


def _date_issues(record: RunRecord) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    if record.hw_avail_year is None or record.hw_avail_month is None:
        issues.append(ValidationIssue.AMBIGUOUS_DATE)
        return issues
    if not _PLAUSIBLE_YEARS[0] <= record.hw_avail_year <= _PLAUSIBLE_YEARS[1]:
        issues.append(ValidationIssue.IMPLAUSIBLE_DATE)
    return issues


def _core_thread_issues(record: RunRecord) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    cores = record.cores_total
    chips = record.total_chips
    per_chip = record.cores_per_chip
    threads = record.threads_total
    per_core = record.threads_per_core

    if cores is not None and (cores < 1 or cores > MAX_PLAUSIBLE_CORES):
        issues.append(ValidationIssue.IMPLAUSIBLE_CORE_COUNT)
        return issues
    if per_core is not None and not 1 <= per_core <= _MAX_PLAUSIBLE_THREADS_PER_CORE:
        issues.append(ValidationIssue.IMPLAUSIBLE_CORE_COUNT)
        return issues

    if cores is not None and chips is not None and per_chip is not None:
        if cores != chips * per_chip:
            issues.append(ValidationIssue.INCONSISTENT_CORE_THREAD)
            return issues
    if cores is not None and threads is not None and per_core is not None:
        if threads != cores * per_core:
            issues.append(ValidationIssue.INCONSISTENT_CORE_THREAD)
            return issues
    if (
        record.nodes is not None
        and record.sockets_per_node is not None
        and chips is not None
        and chips != record.nodes * record.sockets_per_node
    ):
        issues.append(ValidationIssue.INCONSISTENT_CORE_THREAD)
    return issues


def _measurement_issues(record: RunRecord) -> list[ValidationIssue]:
    full_power = record.get_level("power", 100)
    full_ops = record.get_level("ssj_ops", 100)
    if full_power is None or full_ops is None or record.power_idle is None:
        return [ValidationIssue.MISSING_MEASUREMENTS]
    return []


def validate_run(record: RunRecord) -> ValidationReport:
    """Run every consistency check on a parsed record.

    The issue order matches the paper's filter order (acceptance, dates, CPU
    name, node count, core/thread counts, measurements) so that
    ``primary_issue`` reproduces the per-reason counts of Section II.
    """
    issues: list[ValidationIssue] = []
    if not record.accepted:
        issues.append(ValidationIssue.NOT_ACCEPTED)
    issues.extend(_date_issues(record))
    if record.cpu_class == "unknown" or record.cpu_name is None:
        issues.append(ValidationIssue.AMBIGUOUS_CPU)
    if record.nodes is None:
        issues.append(ValidationIssue.MISSING_NODE_COUNT)
    issues.extend(_core_thread_issues(record))
    issues.extend(_measurement_issues(record))
    return ValidationReport(run_id=record.run_id, issues=tuple(issues))


def _operand(column: FieldColumn) -> np.ndarray:
    """A column's values for arithmetic and comparisons (missing rows: 0).

    Typed numbers stay NumPy arrays while products of two of them cannot
    overflow int64; anything else becomes Python objects, so every
    operation is the one :func:`validate_run` performs.
    """
    n_rows = len(column)
    if column.kind is None:
        return np.zeros(n_rows, dtype=np.int64)
    if column.kind in ("float", "bool"):
        return column.values
    if column.kind == "int":
        values = column.values
        if not n_rows or (values.max() < 2**31 and values.min() > -(2**31)):
            return values
    objects = np.empty(n_rows, dtype=object)
    objects[:] = column.python(np.arange(n_rows))
    objects[column.missing] = 0
    return objects


def _is_true(column: FieldColumn) -> np.ndarray:
    """Each record's value taken as a condition (``None`` is false)."""
    if column.kind == "bool":
        return column.values & ~column.missing
    return np.array([bool(value) for value in column.python(np.arange(len(column)))], dtype=bool)


def _equals(column: FieldColumn, text: str) -> np.ndarray:
    """``value == text`` per record."""
    if column.kind is None:
        return np.zeros(len(column), dtype=bool)
    if column.kind == "str":
        return np.array(column.values == text, dtype=bool)
    return np.array(
        [value == text for value in column.python(np.arange(len(column)))], dtype=bool
    )


#: Issue codes of :func:`primary_issues`, in :func:`validate_run` order.
_ISSUE_ORDER = (
    ValidationIssue.NOT_ACCEPTED,
    ValidationIssue.AMBIGUOUS_DATE,
    ValidationIssue.IMPLAUSIBLE_DATE,
    ValidationIssue.AMBIGUOUS_CPU,
    ValidationIssue.MISSING_NODE_COUNT,
    ValidationIssue.IMPLAUSIBLE_CORE_COUNT,
    ValidationIssue.INCONSISTENT_CORE_THREAD,
    ValidationIssue.MISSING_MEASUREMENTS,
)


def primary_issues(columns: Mapping[str, FieldColumn]) -> list[ValidationIssue | None]:
    """``validate_run(record).primary_issue`` of every record of a column block.

    ``columns`` maps record field names to :class:`FieldColumn`\\ s (a
    :class:`~repro.parser.fields.RecordBlock`'s ``columns``).  Each check
    of :func:`validate_run` becomes a boolean array; a record's primary
    issue is its first true check in that order.
    """
    present = {name: ~column.missing for name, column in columns.items()}
    value = {name: _operand(columns[name]) for name in _NUMERIC_FIELDS}

    year = value["hw_avail_year"]
    dated = present["hw_avail_year"] & present["hw_avail_month"]

    cores, per_core = value["cores_total"], value["threads_per_core"]
    chips, per_chip = value["total_chips"], value["cores_per_chip"]
    implausible = present["cores_total"] & ((cores < 1) | (cores > MAX_PLAUSIBLE_CORES))
    implausible |= present["threads_per_core"] & ~(
        (per_core >= 1) & (per_core <= _MAX_PLAUSIBLE_THREADS_PER_CORE)
    )
    counted = present["cores_total"] & present["total_chips"] & present["cores_per_chip"]
    inconsistent = counted & (cores != chips * per_chip)
    threaded = present["cores_total"] & present["threads_total"] & present["threads_per_core"]
    inconsistent |= threaded & (value["threads_total"] != cores * per_core)
    socketed = present["nodes"] & present["sockets_per_node"] & present["total_chips"]
    inconsistent |= socketed & (chips != value["nodes"] * value["sockets_per_node"])

    checks = (
        ~_is_true(columns["accepted"]),
        ~dated,
        dated & ~((year >= _PLAUSIBLE_YEARS[0]) & (year <= _PLAUSIBLE_YEARS[1])),
        _equals(columns["cpu_class"], "unknown") | ~present["cpu_name"],
        ~present["nodes"],
        implausible,
        inconsistent,
        ~(
            present[level_field("power", 100)]
            & present[level_field("ssj_ops", 100)]
            & present["power_idle"]
        ),
    )
    codes = np.zeros(len(columns["accepted"]), dtype=np.intp)
    for code, check in reversed(list(enumerate(checks, start=1))):
        codes[np.asarray(check, dtype=bool)] = code
    issues = (None, *_ISSUE_ORDER)
    return [issues[code] for code in codes.tolist()]


#: The numeric fields the checks compute with.
_NUMERIC_FIELDS = (
    "hw_avail_year",
    "nodes",
    "sockets_per_node",
    "total_chips",
    "cores_total",
    "cores_per_chip",
    "threads_total",
    "threads_per_core",
)
