"""Instrumentation: counters, time-weighted statistics, and tallies.

The experiment harness relies on these to report not just end-to-end times
but the *explanations* the paper gives for its curves — message counts,
bus-collision counts, kernel co-location (virtual-cluster) load, and DSM
traffic — so every subsystem exposes a :class:`StatSet`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, Optional

__all__ = [
    "Counter", "TimeWeighted", "Tally", "StatSet", "LazyStat",
]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def increment(self, by: int = 1) -> None:
        self.value += by

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Tally:
    """Sample statistics over observed values (waits, sizes, latencies)."""

    __slots__ = ("name", "count", "total", "min", "max", "_sumsq")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._sumsq = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self._sumsq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        m = self.mean
        return max(0.0, self._sumsq / self.count - m * m)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tally({self.name} n={self.count} mean={self.mean:.6g})"


class TimeWeighted:
    """Time-weighted average of a piecewise-constant quantity.

    Used for run-queue length and bus utilisation: call :meth:`set` whenever
    the level changes, then read :meth:`average` at the end of the run.
    """

    __slots__ = ("name", "_level", "_last_time", "_area", "_start")

    def __init__(self, name: str, start_time: float = 0.0, level: float = 0.0):
        self.name = name
        self._level = level
        self._last_time = start_time
        self._start = start_time
        self._area = 0.0

    @property
    def level(self) -> float:
        return self._level

    def set(self, level: float, now: float) -> None:
        if now < self._last_time:
            raise ValueError("time went backwards")
        self._area += self._level * (now - self._last_time)
        self._level = level
        self._last_time = now

    def set_with(
        self, level: float, other: "TimeWeighted", other_level: float, now: float
    ) -> None:
        """``self.set(level, now)`` then ``other.set(other_level, now)`` in
        one call, for two levels that always change together (a CPU's run
        queue and its busy flag).  Same arithmetic, bit for bit."""
        if now < self._last_time or now < other._last_time:
            raise ValueError("time went backwards")
        self._area += self._level * (now - self._last_time)
        self._level = level
        self._last_time = now
        other._area += other._level * (now - other._last_time)
        other._level = other_level
        other._last_time = now

    def adjust(self, delta: float, now: float) -> None:
        self.set(self._level + delta, now)

    def average(self, now: float) -> float:
        span = now - self._start
        if span <= 0:
            return self._level
        return (self._area + self._level * (now - self._last_time)) / span


class StatSet:
    """A named bag of counters/tallies with lazy creation."""

    def __init__(self, name: str = "stats"):
        self.name = name
        self.counters: Dict[str, Counter] = {}
        self.tallies: Dict[str, Tally] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def tally(self, name: str) -> Tally:
        t = self.tallies.get(name)
        if t is None:
            t = self.tallies[name] = Tally(name)
        return t

    def snapshot(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, c in self.counters.items():
            out[name] = c.value
        for name, t in self.tallies.items():
            out[f"{name}.count"] = t.count
            out[f"{name}.mean"] = t.mean
            out[f"{name}.total"] = t.total
            if t.count:  # empty tallies hold the inf/-inf sentinels
                out[f"{name}.min"] = t.min
                out[f"{name}.max"] = t.max
        return out


class LazyStat:
    """Class attribute naming one hot counter (or tally) of a ``StatSet``.

    ``obj.<attr>`` looks ``name`` up in the instance's stat set on first
    access and caches the result in the instance ``__dict__``; being a
    non-data descriptor, every later access is a plain attribute read.  The
    lookup happens exactly where a ``stats.counter(name)`` call would have,
    so the key enters the set at the same moment and in the same order, and
    a stat that is never touched never appears in ``snapshot()``.  ``stats``
    is a dotted path from the instance (``"machine.stats"``).
    """

    def __init__(self, name: str, kind: str = "counter", stats: str = "stats"):
        self.name = name
        self._lookup = attrgetter(f"{stats}.{kind}")
        self.attr = ""

    def __set_name__(self, owner: type, attr: str) -> None:
        self.attr = attr

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        if obj is None:
            return self
        stat = obj.__dict__[self.attr] = self._lookup(obj)(self.name)
        return stat
