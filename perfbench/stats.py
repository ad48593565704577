"""The benchmark's own arithmetic: quantiles, tail percentiles, throughput,
span self time and on-disk footprint.

Everything here is a pure function of its arguments (the disk walk reads a
directory tree) so ``perfbench/selftest.py`` can pin it without running a
workload.
"""

from __future__ import annotations

import math
import os
import statistics
from typing import Iterable, Sequence

#: Candidate tail percentiles, highest first.  A timing is reported with the
#: highest of these that still has at least ``TAIL_MIN_BEYOND`` samples
#: strictly above it, so a tail figure never rests on a handful of samples.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` (0 < p <= 100) of ``values``."""
    ordered = sorted(values)
    rank = max(math.ceil(percentile / 100.0 * len(ordered)), 1)
    return float(ordered[rank - 1])


def tail_percentile(
    values: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND
) -> tuple[float, float] | None:
    """The highest ladder percentile with ``min_beyond`` samples above it.

    Returns ``(percentile, value)``, or ``None`` when even the median has
    fewer than ``min_beyond`` samples strictly greater than it.
    """
    for percentile in TAIL_LADDER:
        value = nearest_rank(values, percentile)
        if sum(1 for sample in values if sample > value) >= min_beyond:
            return percentile, value
    return None


def units_per_s(units: Iterable[int], walls: Iterable[float]) -> float:
    """Units completed divided by the summed wall time of the ops."""
    total_wall = sum(walls)
    return sum(units) / total_wall if total_wall > 0 else 0.0


def covered_length(
    start: float, end: float, intervals: Iterable[tuple[float, float]]
) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    covered = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        covered += b - max(a, cursor)
        cursor = b
    return covered


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` holds ``(start, end, parent)`` with ``parent`` the index of the
    enclosing span or ``-1``.  Children that overlap each other are counted
    once (their union), and a child is clipped to its parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered_length(start, end, children.get(index, ()))
        for index, (start, end, _) in enumerate(spans)
    ]


def allocated_bytes(root: str | os.PathLike) -> int:
    """Bytes the file system allocated under ``root`` (``st_blocks``, like ``du``).

    Counts regular files and directories, the root included, without
    following symbolic links.
    """
    total = os.lstat(root).st_blocks * 512
    for directory, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            total += os.lstat(os.path.join(directory, name)).st_blocks * 512
    return total
