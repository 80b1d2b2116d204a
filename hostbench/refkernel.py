"""Fixed pure-Python reference kernel used to normalise host CPU time.

The kernel has two halves, timed separately:

* *compute*: calls, attribute and dict access, integer and float
  arithmetic on a few objects that stay in the core's own caches;
* *memory*: a chase through a ring of ``RING_NODES`` integers in a fixed
  scattered order (a full-period linear congruential permutation), far larger than the core's L2 cache, so it slows down
  with the shared cache and memory traffic the way the simulator's large
  heaps do.  The ring is one list of untracked ints, so it adds nothing
  to the cyclic GC's work in the measured program.

It never imports ``repro`` and always runs with the cyclic GC paused, so
the program's heap cannot change its time.  :class:`SpeedProbe` times it
just before, during (from a ``SIGPROF`` handler) and just after a
measured region, in the same process; the region's CPU seconds times
:meth:`SpeedProbe.scale` are its CPU seconds on a machine running at the
nominal speed (``R0 / R``).  That removes most of the drift identical
work shows from one process to the next on a shared machine.
"""

from __future__ import annotations

import gc
import signal
import time
from typing import Any, Tuple

#: integers in the chase ring, a power of two (about 10 MB of heap)
RING_NODES = 1 << 18
#: nominal CPU seconds per compute round and per pointer-chase step
COMPUTE_R0 = 4.0e-5
CHASE_R0 = 5.0e-7
#: share of the compute half in the speed estimate.  Over 16 fresh-process
#: passes of each workload, CPU seconds over the weighted slowdown spread
#: least at 0.75 (quartile spread 3.3-9.3%, against 5.0-12.8% at 0.5).
COMPUTE_WEIGHT = 0.75
#: CPU seconds between in-region samples, and the work of one sample
#: (about 1 ms, so sampling costs about 5% of the region)
SAMPLE_INTERVAL = 0.02
SAMPLE_ROUNDS = 12
SAMPLE_STEPS = 1200


class _Cell:
    __slots__ = ("value", "weight")

    def __init__(self, value: int, weight: float) -> None:
        self.value = value
        self.weight = weight

    def step(self, k: int) -> int:
        self.value = (self.value * 1103515245 + k) & 0x7FFFFFFF
        self.weight = self.weight * 0.5 + (self.value & 0xFF) * 0.001
        return self.value


def _compute(rounds: int) -> int:
    cells = [_Cell(i, 1.0) for i in range(64)]
    table = {}
    acc = 0
    for r in range(rounds):
        for cell in cells:
            v = cell.step(r)
            key = v & 1023
            table[key] = table.get(key, 0) + 1
            acc ^= v
        if len(table) > 512:
            table.clear()
    return acc + len(table)


class SpeedProbe:
    """Accumulates kernel timings and turns them into a speed scale.

    :meth:`measure` takes whole kernel runs between measured regions;
    while :meth:`start_sampling` is in force a ``SIGPROF`` handler takes a
    short run every ``SAMPLE_INTERVAL`` CPU seconds inside the region.
    The in-region runs' own CPU time is reported by :meth:`sampling_cost`,
    so the caller can take it out of the region's time.
    """

    def __init__(self) -> None:
        # i -> (a*i + c) mod 2^k visits every node once per cycle when c is
        # odd and a = 1 (mod 4) (Hull-Dobell).
        mask = RING_NODES - 1
        self._ring = [(2_654_435_761 * i + 40_503) & mask for i in range(RING_NODES)]
        self._cursor = 0
        self.reset()

    def reset(self) -> None:
        self._compute_s = 0.0
        self._rounds = 0
        self._chase_s = 0.0
        self._steps = 0
        self._in_region = 0.0

    def _run(self, rounds: int, steps: int) -> float:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.thread_time()
            _compute(rounds)
            t1 = time.thread_time()
            ring, node = self._ring, self._cursor
            for _ in range(steps):
                node = ring[node]
            self._cursor = node
            t2 = time.thread_time()
        finally:
            if was_enabled:
                gc.enable()
        self._compute_s += t1 - t0
        self._rounds += rounds
        self._chase_s += t2 - t1
        self._steps += steps
        return t2 - t0

    def measure(self, reps: int = 3) -> None:
        """Take ``reps`` whole kernel runs now."""
        for _ in range(reps):
            self._run(16 * SAMPLE_ROUNDS, 16 * SAMPLE_STEPS)

    def _on_signal(self, signum: int, frame: Any) -> None:
        self._in_region += self._run(SAMPLE_ROUNDS, SAMPLE_STEPS)

    def start_sampling(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def sampling_cost(self) -> float:
        """CPU seconds the in-region runs took since :meth:`reset`."""
        return self._in_region

    def slowdowns(self) -> Tuple[float, float]:
        """Measured over nominal time per unit, for each half."""
        return (self._compute_s / self._rounds / COMPUTE_R0,
                self._chase_s / self._steps / CHASE_R0)

    def scale(self) -> float:
        """``R0 / R``: nominal over measured kernel time, the halves
        weighted ``COMPUTE_WEIGHT`` and ``1 - COMPUTE_WEIGHT``."""
        compute, chase = self.slowdowns()
        return 1.0 / (COMPUTE_WEIGHT * compute + (1.0 - COMPUTE_WEIGHT) * chase)
