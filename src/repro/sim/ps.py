"""An egalitarian processor-sharing queue in virtual time.

Every resident job receives an equal share of one server.  With ``n`` jobs
each is served at ``speed / share(n)``, where ``share(n) = n * tax`` while
``n > 1`` and ``n`` otherwise: ``tax`` is a time-sharing inefficiency that
a dedicated server does not pay.  The OS model's CPU passes speed 1.0 and
its context-switch tax; the traffic layer's servers pass their rate and
tax 1.0.

The queue keeps a virtual clock ``V`` that advances by
``dt * speed / share(n)``: the service each resident job received over
``dt``.  A job admitted with ``size`` finishes when ``V`` reaches its
*tag* ``V + size``, a constant computed once.  Tags sit in a min-heap of
``[tag, seq, job]`` entries, ``seq`` from the simulator's sequence
counter, so an arrival or a departure is O(log n).  A removed job's entry
stays in the heap with its job set to ``None`` and is dropped when it
reaches the head.  ``V`` is never reset, so an idle period leaves tags
and their round-off as they were.

One owner-held :class:`~repro.sim.core.Timer` covers the next departure;
every admission and removal moves it in place.  A firing removes the head
and every other job whose tag is within ``_EPS`` of ``V``, re-arms the
timer, then hands those jobs to ``done(job, last)`` in admission order.
``last`` is true for a lone completion, which is the firing's last act:
its owner may succeed an event through
:meth:`~repro.sim.core.Simulator._succeed_last`.

A job is any hashable object with a ``size``: seconds of service at
speed 1.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Dict, List

from .core import Simulator, Timer

__all__ = ["PSQueue"]

#: jobs whose tags lie within this much virtual time of ``V`` finish together
_EPS = 1e-12

_by_seq = itemgetter(1)


class PSQueue:
    """A processor-sharing server with virtual-time departures."""

    __slots__ = ("sim", "speed", "tax", "done", "jobs", "_heap", "_v", "_last",
                 "timer", "up", "busy_area", "load_area")

    def __init__(self, sim: Simulator, done: Callable[[Any, bool], None],
                 speed: float = 1.0, tax: float = 1.0, name: str = "ps"):
        self.sim = sim
        self.speed = speed
        self.tax = tax
        #: called as done(job, last) for each finished job
        self.done = done
        #: resident job -> its heap entry, in admission order
        self.jobs: Dict[Any, list] = {}
        self._heap: List[list] = []
        self._v = 0.0
        self._last = sim.now
        self.timer = Timer(sim, self._on_timer, name)
        #: False between crash and restart: no departures fire
        self.up = True
        #: integrals over time of "at least one job" and of the job count
        self.busy_area = 0.0
        self.load_area = 0.0

    def _advance(self, now: float) -> None:
        n = len(self.jobs)
        if n:
            dt = now - self._last
            self._v += dt * self.speed / (n * self.tax if n > 1 else n)
            self.busy_area += dt
            self.load_area += dt * n
        self._last = now

    def _arm(self) -> None:
        """Point the timer at the next live tag, or clear it when nothing
        is left to depart or the queue is down."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
        if not heap or not self.up:
            self.timer.clear()
            return
        n = len(self.jobs)
        delay = (heap[0][0] - self._v) * (n * self.tax if n > 1 else n) / self.speed
        self.timer.set(delay if delay > 0.0 else 0.0)

    # -- membership ------------------------------------------------------
    def admit(self, job: Any, now: float) -> None:
        """Start serving ``job`` (``job.size`` seconds of work) at ``now``."""
        # _advance and _arm, inlined: admission is the hot path.
        jobs = self.jobs
        n = len(jobs)
        v = self._v
        if n:
            dt = now - self._last
            v += dt * self.speed / (n * self.tax if n > 1 else n)
            self._v = v
            self.busy_area += dt
            self.load_area += dt * n
        self._last = now
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        jobs[job] = entry = [v + job.size, seq, job]
        heap = self._heap
        heappush(heap, entry)
        if self.up:
            while heap[0][2] is None:
                heappop(heap)
            n += 1
            delay = (heap[0][0] - v) * (n * self.tax if n > 1 else n) / self.speed
            self.timer.set(delay if delay > 0.0 else 0.0)

    def remove(self, job: Any, now: float) -> bool:
        """Withdraw a resident job unfinished; False if it is not resident."""
        if job not in self.jobs:
            return False
        self._advance(now)
        self.jobs.pop(job)[2] = None
        self._arm()
        return True

    def crash(self, now: float) -> List[Any]:
        """Stop serving: returns the resident jobs, in admission order."""
        self._advance(now)
        self.up = False
        self.timer.clear()
        lost = list(self.jobs)
        self.jobs.clear()
        self._heap.clear()
        return lost

    def restart(self, now: float) -> None:
        self._advance(now)
        self.up = True

    # -- readings ----------------------------------------------------------
    def busy(self, now: float) -> float:
        """Time with at least one job resident, up to ``now``."""
        return self.busy_area + (now - self._last if self.jobs else 0.0)

    def load(self, now: float) -> float:
        """Integral of the resident job count up to ``now``."""
        return self.load_area + len(self.jobs) * (now - self._last)

    def work_left(self, now: float) -> float:
        """Total unfinished work resident (read-only)."""
        n = len(self.jobs)
        if not n:
            return 0.0
        v = self._v + (now - self._last) * self.speed / (n * self.tax if n > 1 else n)
        return sum(entry[0] for entry in self.jobs.values()) - n * v

    # -- departures ----------------------------------------------------------
    def _on_timer(self, _timer: Timer) -> None:
        now = self.sim.now
        jobs = self.jobs
        n = len(jobs)
        dt = now - self._last
        v = self._v + dt * self.speed / (n * self.tax if n > 1 else n)
        self._v = v
        self.busy_area += dt
        self.load_area += dt * n
        self._last = now
        heap = self._heap
        while heap[0][2] is None:
            heappop(heap)
        entry = heappop(heap)
        del jobs[entry[2]]
        batch = None
        due = v + _EPS
        while heap:
            head = heap[0]
            if head[2] is None:
                heappop(heap)
            elif head[0] <= due:
                heappop(heap)
                del jobs[head[2]]
                if batch is None:
                    batch = [entry]
                batch.append(head)
            else:
                n = len(jobs)
                delay = (head[0] - v) * (n * self.tax if n > 1 else n) / self.speed
                self.timer.set(delay if delay > 0.0 else 0.0)
                break
        done = self.done
        if batch is None:
            done(entry[2], True)
            return
        batch.sort(key=_by_seq)
        for entry in batch:
            done(entry[2], False)
