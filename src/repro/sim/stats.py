"""Statistics helpers shared by the analysis and benchmark layers.

Includes the geometric mean (the paper reports geomean slowdowns),
percentiles and a fixed-bin histogram used for the Fig. 7
detection-latency density plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values.

    Raises ValueError on an empty sequence or non-positive entries, since
    a silent 0/NaN would corrupt slowdown summaries.
    """
    total = 0.0
    count = 0
    for v in values:
        if v <= 0:
            raise ValueError(f"geomean requires positive values, got {v}")
        total += math.log(v)
        count += 1
    if count == 0:
        raise ValueError("geomean of empty sequence")
    return math.exp(total / count)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return data[lo]
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


@dataclass
class HistogramBin:
    """One histogram bin: [lo, hi) with its sample count."""

    lo: float
    hi: float
    count: int


class Histogram:
    """Fixed-width histogram over [lo, hi]; out-of-range values clamp to
    the edge bins (detection-latency tails stay visible)."""

    def __init__(self, lo: float, hi: float, bins: int):
        if hi <= lo:
            raise ValueError(f"hi {hi} must exceed lo {lo}")
        if bins <= 0:
            raise ValueError("bins must be positive")
        self.lo = lo
        self.hi = hi
        self.counts = [0] * bins
        self.total = 0
        self._width = (hi - lo) / bins

    def add(self, value: float) -> None:
        idx = int((value - self.lo) / self._width)
        idx = max(0, min(len(self.counts) - 1, idx))
        self.counts[idx] += 1
        self.total += 1

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    def bins(self) -> list[HistogramBin]:
        return [
            HistogramBin(self.lo + i * self._width,
                         self.lo + (i + 1) * self._width, c)
            for i, c in enumerate(self.counts)
        ]

    def density(self) -> list[float]:
        """Per-bin probability density (integrates to ~1)."""
        if self.total == 0:
            return [0.0] * len(self.counts)
        return [c / (self.total * self._width) for c in self.counts]
