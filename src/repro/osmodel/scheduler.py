"""Processor-sharing CPU model.

The paper constructs a *virtual cluster* by "starting two or more DSE
kernels on one machine", and observes that "the machine load increases in
proportion to this number", causing the performance decrease beyond six
processors.  We model each physical machine's CPU as an egalitarian
processor-sharing server: ``n`` concurrently executing compute bursts each
progress at rate ``1/n`` (times a context-switch inefficiency when time-
sharing is active), which makes co-located DSE kernels slow each other down
exactly in proportion to their number.

The implementation keeps exact PS semantics event-by-event: on every
arrival/departure the remaining demands are advanced analytically and the
next completion re-scheduled, so no per-timeslice events are generated.

The shortest remaining demand is cached (``_shortest``) instead of being
recomputed with ``min()`` over all jobs on every arrival — the recompute
was the whole simulation's hottest line under churn (O(n) per arrival,
O(n^2) per burst wave).  The cache is *bit-identical* to the recompute:
IEEE-754 subtraction by one shared ``progressed`` value is monotone, so
the minimum job stays minimal and its new remaining equals the cached
``_shortest - progressed`` exactly (both clamp at 0.0 the same way);
arrivals take ``min(_shortest, demand)``; only departures — rare timer
fires — rescan the survivors.  See ``docs/performance.md``.

Most bursts run alone on an idle CPU (one DSE kernel per machine), so the
run-queue length picks a *solo-burst path*: an arrival on an idle CPU
records the job and arms its timer directly, and a timer that finds one
job due finishes it without the general path's advance, rescan and
re-arm.  It is bit-identical to the general path, which it only shortcuts: with one
job the rate is exactly 1.0, so the delay ``x / 1.0 == x`` and the progress
``dt * 1.0 == dt``; the one job's remaining *is* ``_shortest`` and is
clamped at 0.0 the same way; and the run-queue and busy integrals get the
same updates at the same times.  The completion event stays separate from
the timer, so it keeps its place in the order of events at one instant.
A second arrival finds the solo job in ``_jobs`` and takes the general
path unchanged.

On either path, a timer that finishes exactly one burst succeeds its
completion event as its last act through
:meth:`~repro.sim.core.Simulator._succeed_last`: when nothing else is due
at that instant, the event is processed in place, with no heap slot,
exactly where the queue would have dispatched it next.  Several bursts
finishing together are succeeded in insertion order through the queue.

The general path keeps the same arithmetic in few Python calls: an
arrival advances the resident jobs inline, a departure makes one pass
over the jobs (subtract, clamp, collect the finished ones, take the
survivors' minimum), and both end in one ``_rearm``, which updates the
run-queue and busy integrals with one ``TimeWeighted.set_with`` and sets
the CPU's one :class:`~repro.sim.core.Timer` in place: exactly a cancel +
``sim.timeout`` in heap slots, sequence numbers and cancel counts.
"""

from __future__ import annotations

from typing import Dict

from ..sim.core import Event, Simulator, Timer
from ..sim.monitor import LazyStat, StatSet, TimeWeighted

__all__ = ["ProcessorSharingCPU"]

_EPS = 1e-12
_INF = float("inf")


class _Job:
    __slots__ = ("event", "remaining")

    def __init__(self, event: Event, demand: float):
        self.event = event
        self.remaining = demand


class ProcessorSharingCPU:
    """One machine's CPU, shared by all its UNIX processes."""

    _c_bursts = LazyStat("bursts")
    _c_completed = LazyStat("completed")
    _t_demand = LazyStat("demand", kind="tally")

    def __init__(
        self,
        sim: Simulator,
        context_switch: float = 0.0,
        timeslice: float = 0.010,
        name: str = "cpu",
    ):
        if timeslice <= 0:
            raise ValueError("timeslice must be positive")
        if context_switch < 0:
            raise ValueError("context_switch must be non-negative")
        self.sim = sim
        self.context_switch = context_switch
        self.timeslice = timeslice
        self.name = name
        #: per-job slowdown while time-sharing (see rate()), computed once
        self._tax = 1.0 + context_switch / timeslice
        self._burst_name = f"{name}.burst"
        self._jobs: Dict[int, _Job] = {}
        self._next_job_id = 0
        self._last = sim.now
        self._epoch = 0
        #: the one completion timer; the armed epoch rides in its value
        self._timer = Timer(sim, self._on_timer, f"{name}.timer")
        #: cached min(job.remaining) — bit-identical to a full rescan (see
        #: module docstring); inf when idle
        self._shortest = _INF
        self.stats = StatSet(name)
        self.run_queue = TimeWeighted(f"{name}.runq", start_time=sim.now)
        self.busy = TimeWeighted(f"{name}.busy", start_time=sim.now)

    # -- public ------------------------------------------------------------
    @property
    def load(self) -> int:
        """Number of compute bursts currently sharing the CPU."""
        return len(self._jobs)

    def rate(self, n: int) -> float:
        """Per-job progress rate with ``n`` sharers.

        With one job the CPU is dedicated.  With several, each gets a
        ``1/n`` share further degraded by the context-switch tax paid once
        per timeslice: a quantum of useful work ``q`` costs ``q + cs``.
        """
        if n <= 0:
            return 0.0
        if n == 1:
            return 1.0
        return 1.0 / (n * self._tax)

    def execute(self, demand_seconds: float) -> Event:
        """Submit a compute burst; the returned event triggers on completion."""
        if demand_seconds < 0:
            raise ValueError(f"negative compute demand: {demand_seconds}")
        sim = self.sim
        event = Event(sim, self._burst_name)
        self._c_bursts.increment()
        self._t_demand.observe(demand_seconds)
        if demand_seconds == 0:
            event.succeed()
            return event
        jobs = self._jobs
        job_id = self._next_job_id
        self._next_job_id = job_id + 1
        if not jobs:
            # Solo burst (an idle CPU holds no timer): the general path
            # below, with rate(1) == 1.0 and _shortest == inf.
            now = sim.now
            self._last = now
            jobs[job_id] = _Job(event, demand_seconds)
            self._shortest = demand_seconds
            self.run_queue.set_with(1, self.busy, 1.0, now)
            self._epoch = epoch = self._epoch + 1
            self._timer.set(demand_seconds, epoch)
            return event
        # General path: advance every resident job to now (the same
        # subtraction and clamp for each job and for the cached minimum),
        # admit the new job and re-arm the one timer for the new minimum.
        # Same subtraction, same bits: the minimum stays the minimum.
        now = sim.now
        n = len(jobs)
        dt = now - self._last
        self._last = now
        shortest = self._shortest
        if dt > 0:
            progressed = dt * self.rate(n)
            for job in jobs.values():
                remaining = job.remaining - progressed
                if remaining < 0:
                    remaining = 0.0
                job.remaining = remaining
            shortest -= progressed
            if shortest < 0:
                shortest = 0.0
        jobs[job_id] = _Job(event, demand_seconds)
        if demand_seconds < shortest:
            shortest = demand_seconds
        self._rearm(shortest, now)
        return event

    # -- internals ------------------------------------------------------------
    def _rearm(self, shortest: float, now: float) -> None:
        """Record the run queue after an arrival or departure and re-arm
        the timer for ``shortest`` at the new rate (none when idle)."""
        self._shortest = shortest
        n = len(self._jobs)
        self.run_queue.set_with(n, self.busy, 1.0 if n else 0.0, now)
        self._epoch = epoch = self._epoch + 1
        # The superseded timer never reaches the event queue's dispatch:
        # with hundreds of co-located kernels, arrival and departure rates
        # make stale completion timers the dominant event source otherwise.
        # Timer.set moves a pending timer exactly as cancel + sim.timeout
        # would in heap slots, sequence numbers and events_cancelled.  The
        # epoch guard stays as a second line of defence (a timer firing in
        # the same timestep cannot be cancelled).  An idle CPU holds no
        # timer: only a departure empties the CPU, and it runs in the
        # timer's own firing, so nothing is left to clear.
        if n:
            self._timer.set(shortest / self.rate(n), epoch)

    def _on_timer(self, event: Event) -> None:
        if event._value != self._epoch:
            return  # superseded by a later arrival/departure
        jobs = self._jobs
        if len(jobs) == 1:
            now = self.sim.now
            # The solo job's remaining is _shortest and now >= _last, so
            # this is the general path's subtraction (the clamp cannot
            # change the test).  A solo job not yet due takes the general
            # path.  An idle CPU holds no timer, and the next arrival resets
            # _last, so neither needs the general path's epoch bump or _last.
            if self._shortest - (now - self._last) <= _EPS:
                job = jobs.popitem()[1]
                self._c_completed.increment()
                self._shortest = _INF
                self.run_queue.set_with(0, self.busy, 0.0, now)
                self.sim._succeed_last(job.event)
                return
        # One pass does the arrival path's subtraction and clamp, picks out
        # the finished jobs in insertion order and rescans the survivors'
        # minimum (departures are the one place the cached minimum must be
        # rescanned).  A timer only fires while jobs run and time never
        # runs backwards, so dt >= 0, and for dt == 0 the progress is 0.0,
        # which subtracts to the same bits an arrival would have left alone.
        now = self.sim.now
        progressed = (now - self._last) * self.rate(len(jobs))
        self._last = now
        finished = []
        shortest = _INF
        for jid, job in jobs.items():
            remaining = job.remaining - progressed
            if remaining < 0:
                remaining = 0.0
            job.remaining = remaining
            if remaining <= _EPS:
                finished.append(jid)
            elif remaining < shortest:
                shortest = remaining
        events = [jobs.pop(jid).event for jid in finished]
        if events:
            self._c_completed.increment(len(events))
        self._rearm(shortest, now)
        if len(events) == 1:
            self.sim._succeed_last(events[0])
            return
        for event in events:
            event.succeed()

    def utilization(self) -> float:
        return self.busy.average(self.sim.now)

    def average_run_queue(self) -> float:
        return self.run_queue.average(self.sim.now)
