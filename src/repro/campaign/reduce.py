"""Online reducers: campaign aggregates without the full result set resident.

The sharded streaming runner flushes each shard's rows to disk before the
next shard starts, so nothing downstream may ever require every row at once.
:class:`OnlineMoments` maintains count / sum / mean / min / max / variance of
a value stream in O(1) state via Welford's recurrence, and
:class:`FrameReducer` applies one such accumulator per numeric column of the
campaign frame, shard by shard.

Determinism contract
--------------------
``update`` consumes values *sequentially in row order*.  Because one scalar
Welford step is performed per value, the sequence of floating-point
operations is a function of the value stream alone — where the shard
boundaries fall cannot change it.  A sharded campaign therefore produces
aggregates **bit-identical** to reducing the unsharded frame in one call
(pinned by the sharding tests), which is what lets the streaming path
replace the materialised frame without changing a single reported number.

:meth:`OnlineMoments.merge` additionally combines two independent
accumulators through the parallel (Chan et al.) update.  Merging is the
right tool when shards are reduced on different workers; it is numerically
stable but *not* bit-identical to the sequential order, so the campaign
data plane reduces sequentially and reserves ``merge`` for explicitly
parallel consumers.

Quantiles
---------
Quantiles are exact and never streamed.  :func:`frame_quantiles` takes the
quantiles of every numeric column of one frame in a single vectorized pass
(what each ``shard_flush`` event reports), and :func:`column_quantiles`
takes them over one column's values of the whole campaign (what the
aggregate reports; the streaming runner reads those values back from the
shard artifacts one column at a time).  Both use NumPy's linear rule on the
finite, unmasked values, so they equal ``np.quantile`` of those values bit
for bit — and since the value set does not depend on shard boundaries,
neither can the quantiles.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..errors import StatsError
from ..frame import Frame

__all__ = [
    "DEFAULT_QUANTILES",
    "OnlineMoments",
    "FrameReducer",
    "column_quantiles",
    "frame_quantiles",
    "quantile_label",
    "reduce_frame",
    "valid_values",
]

#: Column kinds the reducer aggregates (strings and booleans are identity
#: columns, not measurements).
_NUMERIC_KINDS = ("float", "int")

#: The percentile summary the campaign aggregate and ``campaign watch``
#: report by default: median, tail, far tail.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)

#: Per-column quantile values keyed by label: ``{"p50": 1.0, ...}``; a
#: column without a single valid value reports ``None``.
Quantiles = dict[str, "float | None"]


def quantile_label(q: float) -> str:
    """Column/field label of one quantile (``0.5`` → ``"p50"``)."""
    return f"p{q * 100:g}".replace(".", "_")


def valid_values(values: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """The finite, unmasked entries of one numeric column, as float64.

    These are the values quantiles are taken over: masked entries, NaN and
    ±inf carry no order statistics.
    """
    values = np.asarray(values, dtype=np.float64)
    keep = np.isfinite(values)
    if mask is not None:
        keep &= ~mask
    return values[keep]


def _interpolate(
    ordered: np.ndarray, counts: np.ndarray, quantiles: Sequence[float]
) -> np.ndarray:
    """Linear-interpolation quantiles of each row of an ascending block.

    Row ``i`` holds its ``counts[i]`` values first, in ascending order, then
    NaN padding (read only by empty rows, which thus yield NaN).  The
    arithmetic is NumPy's ``method="linear"`` step for step — virtual index
    ``q * (n - 1)`` and a lerp that anchors on the upper neighbour past the
    midpoint — so the result is bit-equal to ``np.quantile`` of each row's
    values.  Returns a ``(rows, len(quantiles))`` array.
    """
    if ordered.shape[1] == 0:
        return np.full((len(counts), len(quantiles)), np.nan)
    last = np.maximum(counts - 1, 0)[:, None]
    position = np.asarray(quantiles, dtype=np.float64)[None, :] * last
    low = np.floor(position)
    fraction = position - low
    low = low.astype(np.intp)
    high = np.minimum(low + 1, last)
    rows = np.arange(len(counts))[:, None]
    below = ordered[rows, low]
    above = ordered[rows, high]
    diff = above - below
    return np.where(fraction >= 0.5, above - diff * (1.0 - fraction), below + diff * fraction)


def _labelled(row: np.ndarray, quantiles: Sequence[float]) -> Quantiles:
    return {
        quantile_label(q): (None if value != value else float(value))
        for q, value in zip(quantiles, row.tolist())
    }


def column_quantiles(
    values: np.ndarray, quantiles: Sequence[float] = DEFAULT_QUANTILES
) -> Quantiles:
    """Exact quantiles of one column's valid values (see :func:`valid_values`).

    Sorts ``values`` in place; the caller hands over the array it gathered.
    """
    values.sort()
    table = _interpolate(values[None, :], np.array([len(values)]), quantiles)
    return _labelled(table[0], quantiles)


def frame_quantiles(
    frame: Frame, quantiles: Sequence[float] = DEFAULT_QUANTILES
) -> dict[str, Quantiles]:
    """Exact quantiles of every numeric column of ``frame``, in one pass.

    The numeric columns are stacked into one float64 block whose invalid
    entries are set to NaN, so a single row-wise sort (NaN sorts last)
    lines every column's valid values up for :func:`_interpolate` — one
    sort instead of one ``np.quantile`` call per column.  Columns without a
    single valid value get no entry.
    """
    names = [name for name in frame.columns if frame[name].kind in _NUMERIC_KINDS]
    if not names or not quantiles:
        return {}
    block = np.empty((len(names), len(frame)))
    invalid = np.empty(block.shape, dtype=bool)
    for row, name in enumerate(names):
        column = frame[name]
        block[row] = column.values
        invalid[row] = column.mask
    invalid |= ~np.isfinite(block)
    block[invalid] = np.nan
    block.sort(axis=1)
    counts = len(frame) - np.count_nonzero(invalid, axis=1)
    table = _interpolate(block, counts, quantiles)
    return {
        name: _labelled(row, quantiles)
        for name, row, count in zip(names, table, counts)
        if count
    }


class OnlineMoments:
    """Streaming count / sum / mean / min / max / variance of one value stream.

    State is five scalars (Welford's algorithm), so a reducer's memory cost
    is independent of how many values it has seen.
    """

    __slots__ = ("count", "total", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<OnlineMoments n={self.count} mean={self.mean!r} "
            f"min={self.minimum!r} max={self.maximum!r}>"
        )

    # ------------------------------------------------------------------ #
    def push(self, value: float) -> None:
        """Fold one value into the accumulator (Welford's recurrence)."""
        value = float(value)
        self.count += 1
        self.total += value
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def update(self, values: Iterable[Any], mask: np.ndarray | None = None) -> None:
        """Fold a batch of values, skipping entries flagged by ``mask``.

        Values are consumed strictly in order, one Welford step each — see
        the module docstring for why this (and not a vectorized pass) is
        what makes sharded aggregates bit-identical to unsharded ones.
        """
        if isinstance(values, np.ndarray):
            values = values.tolist()
        if mask is None:
            for value in values:
                if value is not None:
                    self.push(value)
        else:
            for value, missing in zip(values, mask.tolist()):
                if not missing and value is not None:
                    self.push(value)

    def merge(self, other: "OnlineMoments") -> "OnlineMoments":
        """Combined accumulator of two independent streams (Chan et al.).

        Returns a new accumulator; neither input is modified.  Use for
        shards reduced on separate workers — the result is numerically
        stable but depends on the merge tree, unlike sequential ``update``.
        """
        merged = OnlineMoments()
        if self.count == 0:
            other._copy_into(merged)
            return merged
        if other.count == 0:
            self._copy_into(merged)
            return merged
        n = self.count + other.count
        delta = other.mean - self.mean
        merged.count = n
        merged.total = self.total + other.total
        merged.mean = self.mean + delta * (other.count / n)
        merged._m2 = self._m2 + other._m2 + delta * delta * (self.count * other.count / n)
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged

    def _copy_into(self, target: "OnlineMoments") -> None:
        target.count = self.count
        target.total = self.total
        target.mean = self.mean
        target._m2 = self._m2
        target.minimum = self.minimum
        target.maximum = self.maximum

    # ------------------------------------------------------------------ #
    @property
    def variance(self) -> float | None:
        """Population variance (ddof=0); ``None`` before the first value."""
        if self.count == 0:
            return None
        return self._m2 / self.count

    def as_row(self) -> dict[str, Any]:
        """The accumulator as one summary-frame row."""
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": None if empty else self.total,
            "mean": None if empty else self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "var": self.variance,
        }


class FrameReducer:
    """One :class:`OnlineMoments` per numeric column, fed frame by frame.

    Columns are keyed by name in first-seen order; a column absent from a
    later frame (schema drift across shards) simply receives no values from
    it, mirroring the union-of-columns semantics of frame assembly.

    Each ``update`` also records the exact quantiles of the frame it folded
    (:attr:`last_quantiles`, what shard events report).  Quantiles of the
    whole stream cannot be folded from those, so :meth:`to_frame` takes
    them from the caller — :func:`reduce_frame` for a resident frame, the
    streaming runner's finalize pass for a sharded campaign.  Pass
    ``quantiles=()`` to drop the quantile columns entirely.
    """

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        self.quantiles = tuple(float(q) for q in quantiles)
        for q in self.quantiles:
            if not 0.0 < q < 1.0:
                raise StatsError(f"quantile must be in (0, 1), got {q}")
        self._reducers: dict[str, OnlineMoments] = {}
        self.n_rows = 0
        #: Exact quantiles of the most recent frame, per numeric column.
        self.last_quantiles: dict[str, Quantiles] = {}

    def __len__(self) -> int:
        return len(self._reducers)

    @property
    def columns(self) -> list[str]:
        return list(self._reducers)

    def __getitem__(self, name: str) -> OnlineMoments:
        return self._reducers[name]

    def update(self, frame: Frame) -> None:
        """Fold every numeric column of ``frame`` into its reducer."""
        self.n_rows += len(frame)
        for name in frame.columns:
            column = frame[name]
            if column.kind not in _NUMERIC_KINDS:
                continue
            reducer = self._reducers.get(name)
            if reducer is None:
                reducer = self._reducers[name] = OnlineMoments()
            reducer.update(column.values, column.mask)
        if self.quantiles:
            self.last_quantiles = frame_quantiles(frame, self.quantiles)

    def to_frame(self, quantiles: Mapping[str, Quantiles] | None = None) -> Frame:
        """The aggregate summary: one row per reduced column.

        ``quantiles`` supplies each column's quantiles over the whole
        stream (``column -> {"p50": ..., ...}``); a column it does not
        cover reports ``None``, like an empty accumulator.
        """
        rows: dict[str, list] = {
            "column": [],
            "count": [],
            "sum": [],
            "mean": [],
            "min": [],
            "max": [],
            "var": [],
        }
        labels = [quantile_label(q) for q in self.quantiles]
        for label in labels:
            rows[label] = []
        quantiles = quantiles or {}
        for name, reducer in self._reducers.items():
            rows["column"].append(name)
            for field, value in reducer.as_row().items():
                rows[field].append(value)
            values = quantiles.get(name, {})
            for label in labels:
                rows[label].append(values.get(label))
        return Frame.from_dict(rows)


def reduce_frame(frame: Frame, quantiles: Sequence[float] = DEFAULT_QUANTILES) -> Frame:
    """Aggregate summary of a fully materialised frame.

    This is the unsharded counterpart of streaming a :class:`FrameReducer`
    over shards: feeding the whole frame in one ``update`` performs the
    exact same sequence of Welford steps, and the frame's own exact
    quantiles are the campaign's, so the two are bit-identical.
    """
    reducer = FrameReducer(quantiles)
    reducer.update(frame)
    return reducer.to_frame(reducer.last_quantiles)
