"""Consistency checks on parsed runs (the paper's Section II filters).

The paper removes 57 of 1017 downloaded results before analysis.  The same
checks are implemented here; each produces a :class:`ValidationIssue` so the
dataset funnel can be reported with per-reason counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .fields import RunRecord

__all__ = ["MAX_PLAUSIBLE_CORES", "ValidationIssue", "ValidationReport", "validate_run"]

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
