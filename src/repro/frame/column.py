"""Typed, missing-value-aware columns.

A :class:`Column` wraps a NumPy array together with a boolean validity mask.
Four logical kinds are supported:

``"float"``
    64-bit floating point.  Missing entries are stored as ``NaN`` *and*
    flagged in the mask so that ``NaN`` produced by computation can be
    distinguished from genuinely absent data when needed.
``"int"``
    64-bit signed integers.  Missing entries keep a sentinel of 0 in the
    backing array and are flagged in the mask.
``"bool"``
    Booleans with the same sentinel convention as ``"int"``.
``"str"``
    Python strings held in an object array; missing entries are ``None``.

Columns are immutable from the caller's perspective — every operation
returns a new column — which keeps Frame semantics simple and makes the
structures safe to share between threads in the parallel helpers.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..errors import ColumnError

__all__ = ["Column"]

_KINDS = ("float", "int", "bool", "str")


def _infer_kind(values: Sequence[Any]) -> str:
    """Infer the logical kind of a sequence of Python values.

    A single string (or other non-numeric object) forces ``"str"`` for the
    whole column, so the scan stops at the first one instead of classifying
    the remaining values for nothing.  Only the first value of each type is
    classified: a column holds a handful of types however long it is.
    """
    has_float = False
    has_int = False
    has_bool = False
    seen: set[type] = set()
    for value in values:
        kind = type(value)
        if kind in seen:
            continue
        seen.add(kind)
        if kind is type(None):
            continue
        if issubclass(kind, (bool, np.bool_)):
            has_bool = True
        elif issubclass(kind, (int, np.integer)):
            has_int = True
        elif issubclass(kind, (float, np.floating)):
            has_float = True
        else:
            return "str"
    if has_float:
        return "float"
    if has_int:
        return "int"
    if has_bool:
        return "bool"
    return "float"


def _is_missing(value: Any) -> bool:
    if value is None:
        return True
    if isinstance(value, float) and np.isnan(value):
        return True
    if isinstance(value, np.floating) and np.isnan(float(value)):
        return True
    return False


class Column:
    """A 1-D typed column with an explicit missing-value mask.

    Columns are value-immutable by contract: every frame operation builds
    new columns rather than writing into existing ones.  ``_codes_memo``
    rides on that contract — it caches the key factorization
    (:func:`repro.frame.codes.group_codes`) the first time a column is used
    as a grouping key, so repeated group-bys over the same frame skip the
    ``np.unique`` pass entirely.
    """

    __slots__ = ("_values", "_mask", "_kind", "_codes_memo")

    def __init__(self, values: np.ndarray, mask: np.ndarray, kind: str):
        if kind not in _KINDS:
            raise ColumnError(f"unknown column kind {kind!r}")
        if values.ndim != 1 or mask.ndim != 1 or len(values) != len(mask):
            raise ColumnError("values and mask must be 1-D arrays of equal length")
        self._values = values
        self._mask = mask.astype(bool, copy=False)
        self._kind = kind
        self._codes_memo: "tuple | None" = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_values(cls, values: Iterable[Any], kind: str | None = None) -> "Column":
        """Build a column from arbitrary Python values.

        ``None`` and ``NaN`` entries become missing values.  When ``kind`` is
        not given it is inferred from the data.
        """
        if isinstance(values, Column):
            return values if kind is None else values.astype(kind)
        if isinstance(values, np.ndarray):
            # A typed NumPy array already knows its kind: skip the per-value
            # Python inference scan entirely.  With an explicit matching
            # ``kind`` the conversion is likewise pure array work; a
            # *mismatched* kind falls through to the per-value loop, whose
            # element-wise coercion semantics (truncation, overflow errors)
            # are the documented behaviour.
            if kind is None:
                return cls.from_numpy(values)
            # Unsigned arrays stay on the per-value loop: int(value) raises
            # OverflowError past int64 range where astype would wrap.
            natural = {"f": "float", "i": "int", "b": "bool"}.get(values.dtype.kind)
            if natural == kind:
                return cls.from_numpy(values)
        items = list(values)
        if kind is None:
            kind = _infer_kind(items)
            if kind == "float":
                return cls._inferred_floats(items)
            if kind == "int":
                return cls._inferred_ints(items)
        n = len(items)
        mask = np.zeros(n, dtype=bool)
        if kind == "str":
            data = np.empty(n, dtype=object)
            for i, value in enumerate(items):
                if _is_missing(value):
                    data[i] = None
                    mask[i] = True
                else:
                    data[i] = str(value)
        elif kind == "float":
            data = np.empty(n, dtype=np.float64)
            for i, value in enumerate(items):
                if _is_missing(value):
                    data[i] = np.nan
                    mask[i] = True
                else:
                    data[i] = float(value)
        elif kind == "int":
            data = np.zeros(n, dtype=np.int64)
            for i, value in enumerate(items):
                if _is_missing(value):
                    mask[i] = True
                else:
                    data[i] = int(value)
        else:  # bool
            data = np.zeros(n, dtype=bool)
            for i, value in enumerate(items):
                if _is_missing(value):
                    mask[i] = True
                else:
                    data[i] = bool(value)
        return cls(data, mask, kind)

    @classmethod
    def _inferred_floats(cls, items: list) -> "Column":
        """``from_values`` of values inferred ``"float"``, in one conversion.

        Such values are ``None``, bools, integers and floats, Python or
        NumPy.  NumPy reads ``None`` as NaN, and only NaN inputs convert to
        NaN otherwise, so NaN marks exactly the entries the per-value loop
        treats as missing.  They are rewritten to the one NaN that loop
        stores: a ``-nan`` input keeps its sign bit through the conversion.
        """
        data = np.array(items, dtype=np.float64)
        mask = np.isnan(data)
        if mask.any():
            data[mask] = np.nan
        return cls(data, mask, "float")

    @classmethod
    def _inferred_ints(cls, items: list) -> "Column":
        """``from_values`` of values inferred ``"int"``, in one conversion.

        Such values are ``None``, bools and integers, Python or NumPy.
        ``int()`` first, as the per-value loop does: NumPy may wrap an
        out-of-range NumPy scalar where a Python int raises OverflowError.
        """
        mask = np.array([value is None for value in items], dtype=bool)
        data = np.array(
            [0 if value is None else int(value) for value in items], dtype=np.int64
        )
        return cls(data, mask, "int")

    @classmethod
    def from_numpy(cls, array: np.ndarray) -> "Column":
        """Build a column from a NumPy array, inferring the kind from dtype."""
        array = np.asarray(array)
        if array.dtype.kind == "f":
            mask = np.isnan(array)
            return cls(array.astype(np.float64), mask, "float")
        if array.dtype.kind in "iu":
            return cls(array.astype(np.int64), np.zeros(len(array), dtype=bool), "int")
        if array.dtype.kind == "b":
            return cls(array.astype(bool), np.zeros(len(array), dtype=bool), "bool")
        # Fall back to the generic constructor for object / unicode arrays.
        return cls.from_values(array.tolist())

    @classmethod
    def full(cls, length: int, value: Any, kind: str | None = None) -> "Column":
        """A column of ``length`` copies of ``value``."""
        return cls.from_values([value] * length, kind=kind)

    @classmethod
    def empty(cls, kind: str) -> "Column":
        return cls.from_values([], kind=kind)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> str:
        """Logical kind: ``"float"``, ``"int"``, ``"bool"`` or ``"str"``."""
        return self._kind

    @property
    def nbytes(self) -> int:
        """Bytes this column addresses (resident heap + mapped file bytes).

        Numeric kinds report the NumPy buffer sizes.  String columns hold
        Python objects, so the object array's pointer buffer is counted plus
        the UTF-8 payload of each distinct string (interned duplicates are
        counted once, mirroring how CPython actually stores them).  For
        mmap-backed columns this is the *addressable* total; see
        :attr:`resident_nbytes` / :attr:`mapped_nbytes` for the honest
        split between heap allocations and reclaimable file mappings.
        """
        return self.resident_nbytes + self.mapped_nbytes

    @property
    def is_mapped(self) -> bool:
        """True when any backing buffer is a memory-mapped file view."""
        return isinstance(self._values, np.memmap) or isinstance(self._mask, np.memmap)

    @property
    def mapped_nbytes(self) -> int:
        """Bytes backed by memory-mapped files (reclaimable, not heap RSS).

        Pages of these buffers fault in on access and can be dropped by
        the OS under pressure, so counting them as resident would overstate
        an out-of-core frame's footprint by orders of magnitude.  Validity
        masks are included when they too are mapped.
        """
        total = 0
        if isinstance(self._values, np.memmap):
            total += self._values.nbytes
        if isinstance(self._mask, np.memmap):
            total += self._mask.nbytes
        return total

    @property
    def resident_nbytes(self) -> int:
        """Heap bytes this column actually holds (torcharrow-style deep).

        Equals :meth:`memory_usage` with ``deep=True``: heap-allocated
        buffers plus the deduplicated UTF-8 payload of string columns.
        Memory-mapped buffers are excluded — they live in the page cache,
        not this process's heap (see :attr:`mapped_nbytes`).
        """
        return self.memory_usage(deep=True)

    def memory_usage(self, deep: bool = False) -> int:
        """Resident bytes: backing buffers, plus string payload when ``deep``.

        ``deep=False`` counts the heap-allocated NumPy buffers only (for a
        string column that is the pointer buffer).  ``deep=True`` adds the
        UTF-8 payload of each distinct string, the honest per-column cost.
        Mapped buffers are never counted here — report them via
        :attr:`mapped_nbytes` instead of pretending the file is heap.
        """
        total = 0
        if not isinstance(self._values, np.memmap):
            total += self._values.nbytes
        if not isinstance(self._mask, np.memmap):
            total += self._mask.nbytes
        if deep and self._kind == "str":
            seen: set[int] = set()
            for value in self._values:
                if value is None or id(value) in seen:
                    continue
                seen.add(id(value))
                total += len(value.encode("utf-8", errors="replace"))
        return total

    @property
    def values(self) -> np.ndarray:
        """The backing NumPy array (do not mutate)."""
        return self._values

    @property
    def mask(self) -> np.ndarray:
        """Boolean array, ``True`` where the value is missing."""
        return self._mask

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            if self._mask[index]:
                return None
            value = self._values[index]
            if self._kind == "float":
                return float(value)
            if self._kind == "int":
                return int(value)
            if self._kind == "bool":
                return bool(value)
            return value
        if isinstance(index, slice):
            return Column(self._values[index], self._mask[index], self._kind)
        index = np.asarray(index)
        return self.take(index)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        preview = ", ".join(repr(v) for v in self.to_list()[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return f"Column(kind={self._kind!r}, n={len(self)}, [{preview}{suffix}])"

    def __eq__(self, other: Any):
        return self._compare(other, "eq")

    def __ne__(self, other: Any):
        return self._compare(other, "ne")

    def __lt__(self, other: Any):
        return self._compare(other, "lt")

    def __le__(self, other: Any):
        return self._compare(other, "le")

    def __gt__(self, other: Any):
        return self._compare(other, "gt")

    def __ge__(self, other: Any):
        return self._compare(other, "ge")

    def __hash__(self):  # Columns are not hashable (they are mutable containers).
        raise TypeError("Column objects are unhashable")

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def to_list(self) -> list:
        """Convert to a list of Python values with ``None`` for missing."""
        return [self[i] for i in range(len(self))]

    def to_numpy(self, missing: Any = None) -> np.ndarray:
        """Return a NumPy array; missing values become ``missing``.

        For float columns the default keeps missing values as ``NaN``.
        """
        if self._kind == "float":
            out = self._values.copy()
            if missing is not None:
                out[self._mask] = missing
            return out
        if missing is None and self._kind in ("int", "bool") and not self._mask.any():
            return self._values.copy()
        out = np.array(self.to_list(), dtype=object)
        if missing is not None:
            out[self._mask] = missing
        return out

    def astype(self, kind: str) -> "Column":
        """Convert the column to another kind, preserving missing values."""
        if kind == self._kind:
            return self
        if kind not in _KINDS:
            raise ColumnError(f"unknown column kind {kind!r}")
        converted: list[Any] = []
        for value in self.to_list():
            if value is None:
                converted.append(None)
            elif kind == "str":
                converted.append(str(value))
            elif kind == "float":
                converted.append(float(value))
            elif kind == "int":
                converted.append(int(float(value)))
            else:
                converted.append(bool(value))
        return Column.from_values(converted, kind=kind)

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def take(self, indices: np.ndarray) -> "Column":
        """Select rows by integer position."""
        indices = np.asarray(indices)
        if indices.dtype.kind == "b":
            return self.filter(indices)
        return Column(self._values[indices], self._mask[indices], self._kind)

    def filter(self, mask: np.ndarray) -> "Column":
        """Select rows where ``mask`` is ``True``."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != len(self):
            raise ColumnError(
                f"filter mask length {len(mask)} != column length {len(self)}"
            )
        return Column(self._values[mask], self._mask[mask], self._kind)

    # ------------------------------------------------------------------ #
    # Missing-value handling
    # ------------------------------------------------------------------ #
    def isna(self) -> np.ndarray:
        """Boolean array flagging missing entries."""
        return self._mask.copy()

    def notna(self) -> np.ndarray:
        return ~self._mask

    def count(self) -> int:
        """Number of non-missing entries."""
        return int((~self._mask).sum())

    def fillna(self, value: Any) -> "Column":
        """Replace missing entries with ``value``."""
        if not self._mask.any():
            return self
        items = self.to_list()
        filled = [value if item is None else item for item in items]
        return Column.from_values(filled, kind=None if value is None else self._kind)

    def dropna(self) -> "Column":
        return self.filter(~self._mask)

    # ------------------------------------------------------------------ #
    # Vectorised comparisons / membership
    # ------------------------------------------------------------------ #
    def _compare(self, other: Any, op: str) -> np.ndarray:
        """Element-wise comparison returning a boolean mask.

        Missing entries always compare ``False`` so filters silently drop
        them, matching the semantics of the pandas code the paper uses.
        """
        if isinstance(other, Column):
            other_values = other._values
            other_missing = other._mask
        else:
            other_values = other
            other_missing = None
        if self._kind == "str":
            left = self._values.astype(object)
            if isinstance(other_values, np.ndarray):
                right = other_values.astype(object)
            else:
                right = other_values
            with np.errstate(all="ignore"):
                if op == "eq":
                    result = left == right
                elif op == "ne":
                    result = left != right
                else:
                    comparisons = {
                        "lt": np.less, "le": np.less_equal,
                        "gt": np.greater, "ge": np.greater_equal,
                    }
                    result = comparisons[op](left, right)
            result = np.asarray(result, dtype=bool)
        else:
            comparisons: dict[str, Callable] = {
                "eq": np.equal, "ne": np.not_equal,
                "lt": np.less, "le": np.less_equal,
                "gt": np.greater, "ge": np.greater_equal,
            }
            with np.errstate(invalid="ignore"):
                result = comparisons[op](self._values, other_values)
            result = np.asarray(result, dtype=bool)
        result &= ~self._mask
        if other_missing is not None:
            result &= ~other_missing
        return result

    def isin(self, values: Iterable[Any]) -> np.ndarray:
        """Boolean mask of rows whose value is a member of ``values``."""
        lookup = set(values)
        out = np.zeros(len(self), dtype=bool)
        for i, value in enumerate(self.to_list()):
            if value is not None and value in lookup:
                out[i] = True
        return out

    def str_contains(self, needle: str, case: bool = False) -> np.ndarray:
        """Substring match for string columns (missing entries are ``False``)."""
        if self._kind != "str":
            raise ColumnError("str_contains requires a string column")
        needle_cmp = needle if case else needle.lower()
        out = np.zeros(len(self), dtype=bool)
        for i, value in enumerate(self._values):
            if value is None:
                continue
            haystack = value if case else value.lower()
            out[i] = needle_cmp in haystack
        return out

    # ------------------------------------------------------------------ #
    # Arithmetic (numeric kinds only)
    # ------------------------------------------------------------------ #
    def _binary(self, other: Any, func: Callable) -> "Column":
        if self._kind not in ("float", "int", "bool"):
            raise ColumnError("arithmetic requires a numeric column")
        left = self._values.astype(np.float64)
        left = left.copy()
        left[self._mask] = np.nan
        if isinstance(other, Column):
            right = other._values.astype(np.float64).copy()
            right[other._mask] = np.nan
        else:
            right = other
        with np.errstate(divide="ignore", invalid="ignore"):
            result = func(left, right)
        return Column.from_numpy(np.asarray(result, dtype=np.float64))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __radd__(self, other):
        return self._binary(other, lambda a, b: np.add(b, a))

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: np.subtract(b, a))

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __rmul__(self, other):
        return self._binary(other, lambda a, b: np.multiply(b, a))

    def __truediv__(self, other):
        return self._binary(other, np.divide)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: np.divide(b, a))

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def _numeric_valid(self) -> np.ndarray:
        if self._kind not in ("float", "int", "bool"):
            raise ColumnError(f"numeric reduction on {self._kind!r} column")
        values = self._values.astype(np.float64)[~self._mask]
        if self._kind == "float":
            values = values[~np.isnan(values)]
        return values

    def sum(self) -> float:
        values = self._numeric_valid()
        return float(values.sum()) if len(values) else 0.0

    def mean(self) -> float:
        values = self._numeric_valid()
        return float(values.mean()) if len(values) else float("nan")

    def std(self, ddof: int = 1) -> float:
        values = self._numeric_valid()
        if len(values) <= ddof:
            return float("nan")
        return float(values.std(ddof=ddof))

    def min(self):
        values = self._numeric_valid() if self._kind != "str" else [
            v for v in self._values if v is not None
        ]
        if len(values) == 0:
            return None
        return min(values) if self._kind == "str" else float(np.min(values))

    def max(self):
        values = self._numeric_valid() if self._kind != "str" else [
            v for v in self._values if v is not None
        ]
        if len(values) == 0:
            return None
        return max(values) if self._kind == "str" else float(np.max(values))

    def median(self) -> float:
        values = self._numeric_valid()
        return float(np.median(values)) if len(values) else float("nan")

    def quantile(self, q: float) -> float:
        values = self._numeric_valid()
        return float(np.quantile(values, q)) if len(values) else float("nan")

    # ------------------------------------------------------------------ #
    # Grouping helpers
    # ------------------------------------------------------------------ #
    def unique(self) -> list:
        """Unique non-missing values, in order of first appearance."""
        seen: dict[Any, None] = {}
        for value in self.to_list():
            if value is not None and value not in seen:
                seen[value] = None
        return list(seen)

    def value_counts(self) -> dict:
        """Mapping of value → occurrence count (missing values excluded)."""
        counts: dict[Any, int] = {}
        for value in self.to_list():
            if value is None:
                continue
            counts[value] = counts.get(value, 0) + 1
        return counts

    def sort_indices(self, descending: bool = False) -> np.ndarray:
        """Indices that would sort this column (missing values last)."""
        if self._kind == "str":
            keyed = [
                (value is None, value if value is not None else "")
                for value in self._values
            ]
            order = sorted(range(len(self)), key=lambda i: keyed[i],
                           reverse=descending)
            if descending:
                # Keep missing values last even in descending order.
                order = [i for i in order if not self._mask[i]] + [
                    i for i in order if self._mask[i]
                ]
            return np.asarray(order, dtype=np.int64)
        values = self._values.astype(np.float64).copy()
        values[self._mask] = np.inf if not descending else -np.inf
        order = np.argsort(values, kind="stable")
        if descending:
            order = order[::-1]
            missing = self._mask[order]
            order = np.concatenate([order[~missing], order[missing]])
        return order.astype(np.int64)

    def map(self, func: Callable[[Any], Any], kind: str | None = None) -> "Column":
        """Apply ``func`` element-wise (missing values stay missing)."""
        out = [None if value is None else func(value) for value in self.to_list()]
        return Column.from_values(out, kind=kind)

    def equals(self, other: "Column") -> bool:
        """Exact equality including positions of missing values."""
        if not isinstance(other, Column) or len(self) != len(other):
            return False
        return self.to_list() == other.to_list()
