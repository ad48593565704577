"""Canonical field names of a parsed run record.

A *run record* is a flat dictionary (one per result file) whose keys are
stable column names used throughout :mod:`repro.core`.  Keeping the names in
one place avoids the scattered string literals that plague ad-hoc analysis
scripts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any

__all__ = ["LOAD_LEVELS", "level_field", "RunRecord"]

#: The graduated target loads, in percent, highest first (idle handled
#: separately as ``power_idle``).
LOAD_LEVELS: tuple[int, ...] = (100, 90, 80, 70, 60, 50, 40, 30, 20, 10)

#: ``(kind, level) -> column name`` of every per-level quantity, in the
#: column order of :meth:`RunRecord.to_dict`.
_LEVEL_FIELDS: dict[tuple[str, int], str] = {
    (kind, level): f"{kind}_{level:03d}"
    for kind in ("ssj_ops", "power", "actual_load")
    for level in LOAD_LEVELS
}


def level_field(kind: str, level: int) -> str:
    """Column name for a per-level quantity.

    ``level_field("power", 70)`` → ``"power_070"``; zero-padding keeps the
    columns lexicographically ordered.  ``level`` must be an integer:
    ``70.0`` hashes like ``70`` but is rejected.
    """
    try:
        return _LEVEL_FIELDS[kind, operator.index(level)]
    except (KeyError, TypeError):
        pass
    if kind not in ("power", "ssj_ops", "actual_load"):
        raise ValueError(f"unknown per-level field kind {kind!r}")
    raise ValueError(f"unknown load level {level!r}")


@dataclass
class RunRecord:
    """One parsed run in canonical flat form.

    ``to_dict`` produces the row used to build the analysis
    :class:`repro.frame.Frame`; missing values stay ``None``.
    """

    run_id: str = ""
    file_name: str = ""
    # Dates -----------------------------------------------------------------
    hw_avail_year: int | None = None
    hw_avail_month: int | None = None
    hw_avail_decimal: float | None = None
    sw_avail_year: int | None = None
    sw_avail_month: int | None = None
    test_year: int | None = None
    test_month: int | None = None
    publication_year: int | None = None
    publication_month: int | None = None
    # System ------------------------------------------------------------------
    system_vendor: str | None = None
    system_model: str | None = None
    nodes: int | None = None
    sockets_per_node: int | None = None
    total_chips: int | None = None
    cores_total: int | None = None
    cores_per_chip: int | None = None
    threads_total: int | None = None
    threads_per_core: int | None = None
    memory_gb: float | None = None
    psu_rating_w: float | None = None
    # CPU ------------------------------------------------------------------
    cpu_name: str | None = None
    cpu_vendor: str | None = None
    cpu_family: str | None = None
    cpu_class: str | None = None  # "server", "desktop", "non_x86", "unknown"
    cpu_frequency_mhz: float | None = None
    # Software ---------------------------------------------------------------
    os_name: str | None = None
    os_family: str | None = None  # "Windows", "Linux", "Other"
    jvm: str | None = None
    # Results ------------------------------------------------------------------
    overall_ssj_ops_per_watt: float | None = None
    power_idle: float | None = None
    accepted: bool = True
    # Per-level quantities are stored in this mapping and flattened by to_dict.
    per_level: dict[str, float] = field(default_factory=dict)

    def set_level(self, kind: str, level: int, value: float) -> None:
        self.per_level[level_field(kind, level)] = value

    def get_level(self, kind: str, level: int) -> float | None:
        return self.per_level.get(level_field(kind, level))

    def to_dict(self) -> dict[str, Any]:
        """Flatten into one row (per-level keys merged in)."""
        # All fields are scalars (and ``per_level`` is popped), so a shallow
        # instance-dict copy replaces ``dataclasses.asdict``'s recursive
        # deep-copy walk — same keys, same field order, ~10x cheaper on the
        # dataset assembly path.
        row = dict(self.__dict__)
        per_level = row.pop("per_level")
        # Guarantee every per-level column exists, even if a level was absent
        # from the report, so frames built from many records stay rectangular.
        for key in _LEVEL_FIELDS.values():
            row[key] = per_level.get(key)
        return row
