"""Canonical field names of a parsed run record.

A *run record* is a flat dictionary (one per result file) whose keys are
stable column names used throughout :mod:`repro.core`.  Keeping the names in
one place avoids the scattered string literals that plague ad-hoc analysis
scripts.

Many records can also travel as one :class:`RecordBlock`: a typed
:class:`FieldColumn` per field, in :meth:`RunRecord.to_dict` order, which
campaign shards are assembled from column by column.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import Any, Iterator, Sequence

import numpy as np

__all__ = [
    "KIND_DTYPES",
    "KIND_FILLS",
    "LOAD_LEVELS",
    "RECORD_COLUMNS",
    "level_field",
    "BlockRow",
    "FieldColumn",
    "RecordBlock",
    "RunRecord",
]

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


#: The columns of :meth:`RunRecord.to_dict`, in order.
RECORD_COLUMNS: tuple[str, ...] = (
    *(item.name for item in fields(RunRecord) if item.name != "per_level"),
    *_LEVEL_FIELDS.values(),
)

#: The column kind of each Python type a typed column can hold.
_KIND_OF_TYPE = {float: "float", int: "int", bool: "bool", str: "str"}
#: Per column kind: the array dtype, and the value a missing row holds
#: (what :meth:`repro.frame.Column.from_values` stores there).
KIND_DTYPES = {"float": np.float64, "int": np.int64, "bool": np.bool_, "str": object}
KIND_FILLS = {"float": np.nan, "int": 0, "bool": False, "str": None}


@dataclass(eq=False)
class FieldColumn:
    """One field of many records: typed values, and where a record holds ``None``.

    ``kind`` names the one Python type every non-``None`` value has:
    ``"float"``, ``"int"``, ``"bool"`` or ``"str"``, whose values sit in a
    float64, int64, bool or object array, with NaN, 0, False or ``None``
    in the ``missing`` rows.  It is ``None`` when every value is ``None``,
    and ``"mixed"`` when the values have several types (or one other type):
    ``objects`` then holds the values themselves and ``values`` is unused.
    """

    values: np.ndarray | None
    missing: np.ndarray
    kind: str | None
    objects: list | None = None

    def __len__(self) -> int:
        return len(self.missing)

    @classmethod
    def of(cls, values: Sequence[Any]) -> "FieldColumn":
        """The column of ``values``, one per record."""
        missing = np.array([value is None for value in values], dtype=bool)
        types = {type(value) for value in values}
        types.discard(type(None))
        if not types:
            return cls.absent(len(values))
        kind = _KIND_OF_TYPE.get(types.pop()) if len(types) == 1 else None
        if kind is not None:
            fill = KIND_FILLS[kind]
            try:
                typed = np.array(
                    [fill if value is None else value for value in values],
                    dtype=KIND_DTYPES[kind],
                )
            except OverflowError:  # an int past int64
                pass
            else:
                return cls(typed, missing, kind)
        return cls(None, missing, "mixed", list(values))

    @classmethod
    def absent(cls, n_rows: int) -> "FieldColumn":
        """A column of ``n_rows`` records that all hold ``None``."""
        return cls(np.full(n_rows, np.nan), np.ones(n_rows, dtype=bool), None)

    def take(self, rows: np.ndarray) -> "FieldColumn":
        """The records at ``rows`` (an index array), in that order."""
        if self.kind == "mixed":
            objects = self.objects
            return type(self)(None, self.missing[rows], "mixed", [objects[i] for i in rows])
        return type(self)(self.values[rows], self.missing[rows], self.kind)

    def value(self, row: int) -> Any:
        """Record ``row``'s value, as :meth:`RunRecord.to_dict` gives it."""
        if self.kind == "mixed":
            return self.objects[row]
        if self.missing[row]:
            return None
        value = self.values[row]
        return value if self.kind == "str" else value.item()

    def python(self, rows: np.ndarray) -> list:
        """The values of the records at ``rows``, as Python objects."""
        if self.kind == "mixed":
            objects = self.objects
            return [objects[i] for i in rows]
        values = self.values[rows].tolist()
        for at in np.flatnonzero(self.missing[rows]).tolist():
            values[at] = None
        return values


class RecordBlock:
    """Many run records as :class:`FieldColumn`\\ s, in :data:`RECORD_COLUMNS` order.

    ``errors[i]`` is the exception deriving record ``i`` raised, or ``None``;
    an errored record's columns hold nothing meaningful.
    """

    __slots__ = ("columns", "errors")

    #: Every block holds the record columns, so rows share one name tuple.
    names = RECORD_COLUMNS

    def __init__(
        self, columns: dict[str, FieldColumn], errors: Sequence[BaseException | None]
    ):
        if tuple(columns) != RECORD_COLUMNS:
            raise ValueError("a record block holds exactly the record columns, in order")
        self.columns = columns
        self.errors = list(errors)

    def row(self, index: int) -> "BlockRow":
        return BlockRow(self, index)


class BlockRow(Mapping):
    """Read-only view of one record of a :class:`RecordBlock`.

    ``dict(view)`` equals the record's :meth:`RunRecord.to_dict`: the same
    keys in the same order, the same Python values.
    """

    __slots__ = ("block", "index")

    def __init__(self, block: RecordBlock, index: int):
        self.block = block
        self.index = index

    def __getitem__(self, name: str) -> Any:
        return self.block.columns[name].value(self.index)

    def __iter__(self) -> Iterator[str]:
        return iter(RECORD_COLUMNS)

    def __len__(self) -> int:
        return len(RECORD_COLUMNS)
