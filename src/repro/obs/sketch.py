"""Order-independent, constant-memory column summaries for campaign reports.

Everything here is pure python and bit-stable: no numpy, no platform-
dependent math, no wall clock, no global state.  The campaign
aggregator folds records through these instead of buffering value
lists, and its reports must still diff byte-for-byte across machines
and re-runs -- and across record *order*, since a live ``report
--follow`` sees records in completion order while a post-hoc report
reads the finalized, index-sorted file.

Primitives
----------
* :class:`ExactSum` -- Shewchuk compensated summation; the returned sum
  is the correctly-rounded exact sum, so it is independent of insertion
  order.
* :class:`MetricSketch` -- one numeric column of one campaign group:
  exactly-rounded mean plus exact min/max.
* :func:`quantile_sorted` -- the linear-interpolation quantile rule of
  :func:`repro.metrics.collector.percentile`, on a sorted sequence.
"""

from __future__ import annotations

import math


class ExactSum:
    """Streaming exactly-rounded float summation (Shewchuk partials).

    ``value()`` equals ``math.fsum`` of everything added so far, which
    depends only on the multiset of addends -- never on their order.
    The partials list stays tiny (a handful of non-overlapping floats),
    so memory is effectively O(1).
    """

    __slots__ = ("_partials",)

    def __init__(self):
        self._partials: list[float] = []

    def add(self, value: float) -> None:
        x = float(value)
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        for p in other._partials:
            self.add(p)

    def value(self) -> float:
        """The correctly-rounded sum of everything added so far."""
        return math.fsum(self._partials)


def quantile_sorted(ordered, q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sequence.

    Same interpolation rule as
    :func:`repro.metrics.collector.percentile` (``q`` in [0, 100]), so
    the two agree bit-for-bit on shared inputs.  Returns 0.0 when
    empty.
    """
    if not ordered:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


class MetricSketch:
    """Combined per-column streaming summary used by campaign groups.

    Tracks an exactly-rounded (order-independent) mean and exact
    min/max -- everything ``aggregate`` needs for one numeric column of
    one group, in constant memory.
    """

    __slots__ = ("count", "min", "max", "_sum")

    def __init__(self):
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self._sum = ExactSum()

    def add(self, value: float) -> None:
        x = float(value)
        self.count += 1
        self._sum.add(x)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._sum.value() / self.count if self.count else 0.0

    def stats(self) -> dict:
        """The group-report dict: mean/min/max."""
        return {"mean": self.mean, "min": self.min, "max": self.max}
