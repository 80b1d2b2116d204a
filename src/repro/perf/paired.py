"""Paired host-time comparison of two runs on one shared host.

A best-of-N wall time on a shared machine compares two samples taken at
different moments, so a few milliseconds of another process's work decide
the verdict.  Here the two sides run in pairs, back to back, alternating
which goes first, and the verdict is the median of the per-pair ratios:
host load that lasts longer than one pair slows both sides of it alike,
and a burst that hits one run moves one ratio, not the median.  This is
the in-process form of what ``tools/paired_bench.py`` does across
revisions.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Tuple

__all__ = ["PairedTimes", "time_pairs"]


@dataclass(frozen=True)
class PairedTimes:
    """Wall seconds of two sides, one entry per pair."""

    first: Tuple[float, ...]
    second: Tuple[float, ...]

    @property
    def ratios(self) -> Tuple[float, ...]:
        """Per pair: the second side's time over the first's."""
        return tuple(b / a for a, b in zip(self.first, self.second))

    @property
    def median_ratio(self) -> float:
        return statistics.median(self.ratios)

    @property
    def wins(self) -> int:
        """Pairs in which the second side was faster."""
        return sum(b < a for a, b in zip(self.first, self.second))

    @property
    def balance(self) -> float:
        """The median ratio or its inverse, whichever is at most 1: 1.0 when
        both sides cost the same, 0.5 when either costs twice the other."""
        ratio = self.median_ratio
        return min(ratio, 1.0 / ratio)


def time_pairs(
    first: Callable[[], object], second: Callable[[], object], pairs: int
) -> PairedTimes:
    """Time ``pairs`` alternating pairs of calls of ``first`` and ``second``.

    Pair *i* runs ``first`` then ``second`` for even *i* and the other way
    round for odd *i*, so neither side always runs on a warmer host.  The
    cyclic garbage of earlier calls is collected before each timed call,
    so no call pays for a collection of what another call left behind.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    a, b = [], []
    for i in range(pairs):
        order = ((first, a), (second, b)) if i % 2 == 0 else ((second, b), (first, a))
        for run, out in order:
            gc.collect()
            start = time.perf_counter()
            run()
            out.append(time.perf_counter() - start)
    return PairedTimes(tuple(a), tuple(b))
