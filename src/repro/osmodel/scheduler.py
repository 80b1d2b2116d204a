"""Processor-sharing CPU model.

The paper constructs a *virtual cluster* by "starting two or more DSE
kernels on one machine", and observes that "the machine load increases in
proportion to this number", causing the performance decrease beyond six
processors.  We model each physical machine's CPU as an egalitarian
processor-sharing server: ``n`` concurrently executing compute bursts each
progress at rate ``1/n`` (times a context-switch inefficiency when time-
sharing is active), which makes co-located DSE kernels slow each other down
exactly in proportion to their number.

The CPU is a thin user of :class:`repro.sim.ps.PSQueue`, the virtual-time
PS queue the traffic layer's servers use too: speed 1.0, and a tax of
``1 + context_switch / timeslice`` while bursts share the CPU (a quantum of
useful work ``q`` costs ``q + cs``).  Each burst is the queue's job and the
event its process waits on; a lone completion is succeeded in place as the
timer's last act (:meth:`~repro.sim.core.Simulator._succeed_last`).
"""

from __future__ import annotations

from ..sim.core import Event, Simulator
from ..sim.monitor import LazyStat, StatSet
from ..sim.ps import PSQueue

__all__ = ["ProcessorSharingCPU"]


class _Burst(Event):
    """One compute burst: the event its process waits on and the queue's job."""

    __slots__ = ("size",)


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
        self._burst_name = f"{name}.burst"
        self._queue = PSQueue(sim, self._finish, tax=1.0 + context_switch / timeslice,
                              name=f"{name}.timer")
        self._start = sim.now
        self.stats = StatSet(name)

    @property
    def load(self) -> int:
        """Number of compute bursts currently sharing the CPU."""
        return len(self._queue.jobs)

    def execute(self, demand_seconds: float) -> Event:
        """Submit a compute burst; the returned event triggers on completion."""
        if demand_seconds < 0:
            raise ValueError(f"negative compute demand: {demand_seconds}")
        sim = self.sim
        burst = _Burst(sim, self._burst_name)
        self._c_bursts.increment()
        self._t_demand.observe(demand_seconds)
        if demand_seconds == 0:
            burst.succeed()
            return burst
        burst.size = demand_seconds
        self._queue.admit(burst, sim.now)
        return burst

    def _finish(self, burst: _Burst, last: bool) -> None:
        self._c_completed.increment()
        if last:
            self.sim._succeed_last(burst)
        else:
            burst.succeed()

    def _average(self, integral, level) -> float:
        now = self.sim.now
        span = now - self._start
        return integral(now) / span if span > 0 else level

    def utilization(self) -> float:
        return self._average(self._queue.busy, float(self.load > 0))

    def average_run_queue(self) -> float:
        return self._average(self._queue.load, self.load)
