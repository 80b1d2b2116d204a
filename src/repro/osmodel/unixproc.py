"""UNIX process model.

A :class:`UnixProcess` is one schedulable entity on a machine — in the
re-organised DSE, the parallel application, the parallel API library and
the DSE-kernel library are all linked into *one* of these.  The class
provides the costed primitives everything above is written with:

* ``compute(work)`` / ``compute_seconds(s)`` — burn CPU (processor-shared
  with the machine's other processes, which is how co-located DSE kernels
  slow each other down);
* ``syscall(name)`` — charge one system call;
* ``burst(s)`` / ``syscall_burst(cost)`` — submit one CPU burst (the latter
  counted as a syscall) and return its completion event, for hot callers
  (the socket layer, one per call) that yield it without a nested generator;
* ``sleep(s)`` — idle without consuming CPU;
* ``raise_signal`` / signal handler table — SIGIO-style async notification.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, TYPE_CHECKING

from ..errors import OSModelError
from ..hardware.cpu import Work
from ..sim.core import Event, Process
from ..sim.monitor import LazyStat
from .signals import SignalTable
from .syscall import syscall_cost

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

__all__ = ["UnixProcess"]


class UnixProcess:
    """One UNIX process on one simulated machine."""

    _c_syscalls = LazyStat("syscalls", stats="machine.stats")

    def __init__(self, machine: "Machine", pid: int, name: str):
        self.machine = machine
        self.pid = pid
        self.name = name
        self.signals = SignalTable()
        self.sim_process: Optional[Process] = None
        self.exited = False
        self.exit_value: Any = None
        #: accumulated CPU seconds requested by this process (diagnostics)
        self.cpu_seconds = 0.0
        self._syscall_base = machine.platform.os_costs.syscall

    # -- identity -----------------------------------------------------------
    @property
    def sim(self):
        return self.machine.sim

    @property
    def platform(self):
        return self.machine.platform

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<UnixProcess pid={self.pid} {self.name!r} on {self.machine.hostname}>"

    # -- costed primitives ------------------------------------------------
    def compute(self, work: Work) -> Generator[Event, Any, None]:
        """Execute ``work`` on this machine's (shared) CPU."""
        burst = self.burst(self.platform.cpu.seconds_for(work))
        if burst is not None:
            yield burst

    def compute_seconds(self, seconds: float) -> Generator[Event, Any, None]:
        burst = self.burst(seconds)
        if burst is not None:
            yield burst

    def syscall(self, name: str) -> Generator[Event, Any, None]:
        """Enter the kernel: burns the platform's cost for syscall ``name``."""
        burst = self.syscall_burst(syscall_cost(self._syscall_base, name))
        if burst is not None:
            yield burst

    def syscall_burst(self, cost: float) -> Optional[Event]:
        """Count one syscall and submit its ``cost``; ``None`` when free."""
        self._c_syscalls.increment()
        return self.burst(cost)

    def burst(self, seconds: float) -> Optional[Event]:
        """Submit ``seconds`` of CPU demand; ``None`` when there is none."""
        if seconds < 0:
            raise OSModelError(f"negative compute time: {seconds}")
        if seconds == 0:
            return None
        self.cpu_seconds += seconds
        return self.machine.cpu.execute(seconds)

    def sleep(self, seconds: float) -> Generator[Event, Any, None]:
        if seconds < 0:
            raise OSModelError(f"negative sleep: {seconds}")
        yield self.sim.timeout(seconds)

    # -- signals ----------------------------------------------------------
    def raise_signal(self, signo: int) -> bool:
        """Deliver a signal synchronously (handler runs inline).

        Charges the platform's signal-delivery plus context-switch cost to
        this machine's CPU as an asynchronous burst — the CPU time is
        consumed even though the handler callback itself runs instantly at
        the simulation level.
        """
        if self.exited:
            raise OSModelError(f"signal {signo} to exited pid {self.pid}")
        costs = self.platform.os_costs
        self.machine.cpu.execute(costs.signal_delivery + costs.context_switch)
        self.machine.stats.counter("signals_delivered").increment()
        return self.signals.deliver(signo)

    # -- lifecycle -----------------------------------------------------------
    def mark_exited(self, value: Any) -> None:
        self.exited = True
        self.exit_value = value
        self.machine.stats.counter("process_exits").increment()
