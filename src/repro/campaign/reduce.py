"""Campaign aggregates, reduced from each column's gathered values.

The sharded streaming runner flushes each shard's rows to disk before the
next shard starts, so nothing downstream may ever require every row at once.
The aggregate -- count / sum / mean / min / max / var and exact quantiles of
every numeric column -- is therefore taken in a finalize pass: each column is
read back from the shard artifacts on its own, into one float64 array of its
valid values, and :func:`column_summary` reduces that array with NumPy.
:func:`reduce_frame` runs the same function over a resident frame's columns.

Value set
---------
Every statistic is taken over a column's *valid* values (:func:`valid_values`):
finite and unmasked.  Masked entries, NaN and ±inf are not counted and carry
no sum, moment or order statistic.

Determinism contract
--------------------
The finalize gathers a column's valid values shard by shard, in shard-index
order, so its array is the resident frame's valid values bit for bit,
whatever the shard size, the worker count or the scheduler's interleaving.
Both paths call one function on equal arrays, so a sharded, pooled or
service campaign reports an aggregate bit-identical to :func:`reduce_frame`
over the concatenated frame *by construction*, not by fold order (pinned by
the sharding, service and property tests).

:class:`FrameReducer` folds, shard by shard, only what is exact and
independent of shard boundaries: each column's valid-value count.
:class:`OnlineMoments`, the Welford recurrence, stays as a streaming
accumulator for consumers without a finalize; the tests use it as the
tolerance oracle for :func:`column_summary`'s sums and moments.

Quantiles
---------
Quantiles are exact and never streamed.  :func:`frame_quantiles` takes the
quantiles of every numeric column of one frame in a single vectorized pass
(what each shard artifact and ``shard_flush`` event records), and
:func:`column_quantiles` takes them over one column's values of the whole
campaign (what the aggregate reports).  Both use NumPy's linear rule on the
valid values, so they equal ``np.quantile`` of those values bit for bit --
and since the value set does not depend on shard boundaries, neither can the
quantiles.
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
    "column_summary",
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

#: Fields of one column's summary, before its quantile labels.
_SUMMARY_FIELDS = ("count", "sum", "mean", "min", "max", "var")

#: Per-column quantile values keyed by label: ``{"p50": 1.0, ...}``; a
#: column without a single valid value reports ``None``.
Quantiles = dict[str, "float | None"]


def quantile_label(q: float) -> str:
    """Column/field label of one quantile (``0.5`` → ``"p50"``)."""
    return f"p{q * 100:g}".replace(".", "_")


def valid_values(values: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """The finite, unmasked entries of one numeric column, as float64.

    These are the values every statistic is taken over: masked entries, NaN
    and ±inf are not counted.
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


def column_summary(
    values: np.ndarray, quantiles: Sequence[float] = DEFAULT_QUANTILES
) -> dict[str, Any]:
    """Count, sum, mean, min, max, var and exact quantiles of one column.

    ``values`` are the column's valid values (see :func:`valid_values`); they
    are sorted in place, since the caller hands over the array it gathered.
    Every statistic is a NumPy reduction over the sorted array: its pairwise
    sum, ``mean = sum / count``, the population variance from a second pass
    over the deviations, the first and last values, and the quantiles of
    :func:`column_quantiles`.  Equal arrays give equal summaries, bit for
    bit.  A column without a single valid value has count 0 and ``None``
    everywhere else.
    """
    labelled = column_quantiles(values, quantiles)
    count = len(values)
    if not count:
        return {"count": 0, **dict.fromkeys(_SUMMARY_FIELDS[1:]), **labelled}
    total = values.sum()
    mean = total / count
    deviations = values - mean
    deviations *= deviations
    return {
        "count": count,
        "sum": float(total),
        "mean": float(mean),
        "min": float(values[0]),
        "max": float(values[-1]),
        "var": float(deviations.sum() / count),
        **labelled,
    }


def _numeric_block(frame: Frame) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``frame``'s numeric columns stacked into one float64 block.

    Returns the column names, the ``(columns, rows)`` block and where its
    entries are invalid (masked, NaN or ±inf).
    """
    names = [name for name in frame.columns if frame[name].kind in _NUMERIC_KINDS]
    block = np.empty((len(names), len(frame)))
    invalid = np.empty(block.shape, dtype=bool)
    for row, name in enumerate(names):
        column = frame[name]
        block[row] = column.values
        invalid[row] = column.mask
    invalid |= ~np.isfinite(block)
    return names, block, invalid


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
    if not quantiles:
        return {}
    names, block, invalid = _numeric_block(frame)
    if not names:
        return {}
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

    State is five scalars (Welford's algorithm), so an accumulator's memory
    cost is independent of how many values it has seen.  Its floats depend on
    the order values arrive in, which is why the campaign aggregate uses
    :func:`column_summary` instead; the tests hold that summary's sums and
    moments to this accumulator within a relative tolerance.
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

        Values are consumed strictly in order, one Welford step each, so
        cutting a stream into batches never changes a float.
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
    """Per-column valid-value counts of a frame stream, and its summary frame.

    Columns are keyed by name in first-seen order; a column absent from a
    later frame (schema drift across shards) simply receives no values from
    it, mirroring the union-of-columns semantics of frame assembly.
    ``update`` counts each numeric column's valid values in one vectorized
    pass over the frame.

    Sums, moments, extremes and quantiles of the whole stream are not
    folded: :meth:`to_frame` takes each column's :func:`column_summary` from
    the caller — :func:`reduce_frame` for a resident frame, the streaming
    runner's finalize pass for a sharded campaign.  :attr:`last_quantiles`
    are the latest frame's own.  Pass ``quantiles=()`` to drop the quantile
    columns entirely.
    """

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        self.quantiles = tuple(float(q) for q in quantiles)
        for q in self.quantiles:
            if not 0.0 < q < 1.0:
                raise StatsError(f"quantile must be in (0, 1), got {q}")
        #: Column -> how many valid values it has held so far.
        self._counts: dict[str, int] = {}
        self.n_rows = 0
        self._last: Frame | None = None
        self._last_quantiles: dict[str, Quantiles] | None = None

    @property
    def columns(self) -> list[str]:
        return list(self._counts)

    def update(self, frame: Frame) -> None:
        """Count the valid values of every numeric column of ``frame``."""
        self.n_rows += len(frame)
        if self.quantiles:
            self._last, self._last_quantiles = frame, None
        names, _, invalid = _numeric_block(frame)
        counts = len(frame) - np.count_nonzero(invalid, axis=1)
        for name, count in zip(names, counts.tolist()):
            self._counts[name] = self._counts.get(name, 0) + count

    @property
    def last_quantiles(self) -> dict[str, Quantiles]:
        """Exact quantiles of the most recent frame, per numeric column."""
        if self._last_quantiles is None:
            self._last_quantiles = (
                frame_quantiles(self._last, self.quantiles) if self._last is not None else {}
            )
            self._last = None
        return self._last_quantiles

    def to_frame(self, summaries: Mapping[str, Mapping[str, Any]] | None = None) -> Frame:
        """The aggregate summary: one row per reduced column.

        ``summaries`` maps a column to its :func:`column_summary` over the
        whole stream.  A field it does not give reads ``None``, except the
        count, which the reducer keeps itself.
        """
        fields = [*_SUMMARY_FIELDS, *(quantile_label(q) for q in self.quantiles)]
        rows: dict[str, list] = {"column": list(self._counts)}
        for field in fields:
            rows[field] = []
        summaries = summaries or {}
        for name, count in self._counts.items():
            summary = {"count": count, **summaries.get(name, {})}
            for field in fields:
                rows[field].append(summary.get(field))
        return Frame.from_dict(rows)


def reduce_frame(frame: Frame, quantiles: Sequence[float] = DEFAULT_QUANTILES) -> Frame:
    """Aggregate summary of a fully materialised frame.

    The unsharded counterpart of a streamed campaign: each column's summary
    is :func:`column_summary` of its valid values — the function a streamed
    campaign's finalize calls on the same values gathered from the shard
    artifacts, so the two are bit-identical.
    """
    reducer = FrameReducer(quantiles)
    reducer.update(frame)
    return reducer.to_frame(
        {
            name: column_summary(
                valid_values(frame[name].values, frame[name].mask), reducer.quantiles
            )
            for name in reducer.columns
        }
    )
