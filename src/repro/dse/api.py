"""Parallel Application Programming Interface library (paper Figure 3).

A :class:`ParallelAPI` is what application code programs against — one
instance per DSE process.  Application bodies are generator functions::

    def worker(api):
        addr = yield from api.gm_alloc(1024)
        yield from api.gm_write(addr, values)
        yield from api.barrier("step")
        data = yield from api.gm_read(addr, 1024)
        return float(data.sum())

All methods that may suspend (touch memory, synchronise, compute) are
generators and must be driven with ``yield from``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

import numpy as np

from ..errors import DSEError
from ..hardware.cpu import Work
from ..sim.core import Event
from .messages import WORD_BYTES
from .procman import RemoteProcHandle

__all__ = ["ParallelAPI"]


class ParallelAPI:
    """The per-process handle onto DSE services."""

    def __init__(self, kernel, rank: int):
        self.kernel = kernel
        self.rank = rank
        #: cross-layer span recorder (root spans are minted here, at the API
        #: boundary, and the context travels inside every derived message)
        self.obs = kernel.obs
        #: race detector for fork-join happens-before edges (None when off)
        from ..sanitize import NULL_SANITIZER

        self._san_race = getattr(kernel.cluster, "sanitizer", NULL_SANITIZER).race

    def _root(self, name: str):
        """Open a root span for one API call (None when tracing is off)."""
        return self.obs.begin(
            self.kernel.sim.now, name, "api",
            self.kernel.obs_pid, self.kernel.obs_tid, None,
        )

    def _end(self, span) -> None:
        self.obs.end(span, self.kernel.sim.now)

    # -- identity ----------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of DSE kernels (processors) in the cluster."""
        return self.kernel.cluster_size

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.kernel.sim.now

    @property
    def hostname(self) -> str:
        return self.kernel.machine.hostname

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ParallelAPI rank={self.rank}/{self.size} on k{self.kernel.kernel_id}>"

    # -- computation -----------------------------------------------------------
    def compute(self, work: Work) -> Generator[Event, Any, None]:
        """Charge abstract operation counts to this node's CPU."""
        yield from self.kernel.unix_process.compute(work)

    def compute_seconds(self, seconds: float) -> Generator[Event, Any, None]:
        yield from self.kernel.unix_process.compute_seconds(seconds)

    # -- global memory ------------------------------------------------------
    def gm_alloc(self, nwords: int) -> Generator[Event, Any, int]:
        """Allocate ``nwords`` words of global memory; returns the address."""
        if not self.obs.enabled:
            return (yield from self.kernel.gmem.alloc(nwords))
        span = self._root("api.gm_alloc")
        addr = yield from self.kernel.gmem.alloc(nwords, trace=span.ctx)
        self._end(span)
        return addr

    def gm_read(self, addr: int, nwords: int) -> Generator[Event, Any, np.ndarray]:
        """Read ``nwords`` float64 words from global memory."""
        if not self.obs.enabled:
            # The hottest API call: hand back gmem's generator, no wrapper.
            return self.kernel.gmem.read(addr, nwords, accessor=self.rank)
        return self._traced_gm_read(addr, nwords)

    def _traced_gm_read(self, addr: int, nwords: int) -> Generator[Event, Any, np.ndarray]:
        span = self._root("api.gm_read")
        data = yield from self.kernel.gmem.read(
            addr, nwords, trace=span.ctx, accessor=self.rank
        )
        self._end(span)
        return data

    def gm_write(self, addr: int, values: Sequence[float]) -> Generator[Event, Any, None]:
        """Write float64 words into global memory."""
        if not self.obs.enabled:
            return self.kernel.gmem.write(addr, values, accessor=self.rank)
        return self._traced_gm_write(addr, values)

    def _traced_gm_write(self, addr: int, values: Sequence[float]) -> Generator[Event, Any, None]:
        span = self._root("api.gm_write")
        yield from self.kernel.gmem.write(
            addr, values, trace=span.ctx, accessor=self.rank
        )
        self._end(span)

    def gm_read_scalar(self, addr: int) -> Generator[Event, Any, float]:
        data = yield from self.kernel.gmem.read(addr, 1, accessor=self.rank)
        return float(data[0])

    def gm_write_scalar(self, addr: int, value: float) -> Generator[Event, Any, None]:
        yield from self.kernel.gmem.write(addr, [value], accessor=self.rank)

    @staticmethod
    def words_for_bytes(nbytes: int) -> int:
        """Words needed to hold ``nbytes`` bytes."""
        return -(-nbytes // WORD_BYTES)

    def home_base(self, kernel_id: int) -> int:
        """First global address homed at ``kernel_id``.

        Applications use this to *place* data: writing a partition at
        ``home_base(r) + offset`` makes rank r's accesses local, exactly as
        the paper's Figure 1 distributes the Global Memory across PEs.
        """
        if not (0 <= kernel_id < self.size):
            raise DSEError(f"kernel id {kernel_id} out of range")
        return kernel_id * self.kernel.gmem.slice_words

    @property
    def slice_words(self) -> int:
        """Words of global memory homed at each kernel."""
        return self.kernel.gmem.slice_words

    # -- synchronisation ---------------------------------------------------
    def lock(self, name: str) -> Generator[Event, Any, None]:
        if not self.obs.enabled:
            yield from self.kernel.sync.acquire(name, accessor=self.rank)
            return
        span = self._root("api.lock")
        yield from self.kernel.sync.acquire(name, trace=span.ctx, accessor=self.rank)
        self._end(span)

    def unlock(self, name: str) -> Generator[Event, Any, None]:
        # Releasing a lock is a synchronisation point: combined writes must
        # reach their homes before another process can acquire the lock and
        # read them.
        if not self.obs.enabled:
            yield from self.kernel.gmem.flush()
            yield from self.kernel.sync.release(name, accessor=self.rank)
            return
        span = self._root("api.unlock")
        yield from self.kernel.gmem.flush(trace=span.ctx)
        yield from self.kernel.sync.release(name, trace=span.ctx, accessor=self.rank)
        self._end(span)

    def barrier(
        self, name: str, parties: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        """Wait until ``parties`` processes (default: all ranks) arrive."""
        # A barrier is a synchronisation point: flush combined writes before
        # entering so they are visible to everyone on the other side.
        if not self.obs.enabled:
            yield from self.kernel.gmem.flush()
            yield from self.kernel.sync.barrier(
                name, parties or self.size, accessor=self.rank
            )
            return
        span = self._root("api.barrier")
        yield from self.kernel.gmem.flush(trace=span.ctx)
        yield from self.kernel.sync.barrier(
            name, parties or self.size, trace=span.ctx, accessor=self.rank
        )
        self._end(span)

    # -- parallel process management -------------------------------------------
    def spawn_workers(
        self,
        entry: Callable,
        ranks: Optional[Sequence[int]] = None,
        args_of: Optional[Callable[[int], tuple]] = None,
    ) -> Generator[Event, Any, List[RemoteProcHandle]]:
        """Invoke ``entry`` as a DSE process on each rank's kernel.

        By default spawns every rank except this one; rank *r* runs on
        kernel *r* (the cluster's placement may redirect — see SSI).
        """
        if ranks is None:
            ranks = [r for r in range(self.size) if r != self.rank]
        handles = []
        for rank in ranks:
            target = self.kernel.cluster.placement(rank)
            args = args_of(rank) if args_of else ()
            if self._san_race is not None:
                # Fork edge: everything the parent did so far happens-before
                # everything the child will do.
                self._san_race.on_spawn(self.rank, rank)
            handle = yield from self.kernel.procman.invoke(target, entry, rank, args)
            handles.append(handle)
        return handles

    def wait_workers(
        self, handles: List[RemoteProcHandle]
    ) -> Generator[Event, Any, Dict[int, Any]]:
        """Collect return values of spawned workers: {rank: value}."""
        results = yield from self.kernel.procman.wait_all(handles)
        if self._san_race is not None:
            # Join edge: everything a completed child did happens-before
            # everything the parent does from here on.
            for handle in handles:
                self._san_race.on_join(self.rank, handle.rank)
        return results

    # -- resilience ----------------------------------------------------------
    def checkpoint(self, state: Any = None) -> Generator[Event, Any, None]:
        """Take part in a coordinated checkpoint (resilience subsystem).

        All ranks must call this at the same program point — it is a barrier
        (twice: enter and commit), making the cut consistent.  ``state`` is
        this rank's private restart state (e.g. ``{"sweep": 3}``); it is
        saved to stable storage together with a snapshot of this kernel's
        home slice of global memory.  After a crash the resilient runner
        re-invokes every rank with the committed ``state`` and the restored
        global memory.  A no-op (no events, no messages) when both
        resilience and replay recording are disabled, so workloads can call
        it unconditionally.

        With replay recording on (``ClusterConfig(replay=...)``) the same
        call also feeds the record/replay debugger's checkpoint ring: when
        resilience is active the recorder piggybacks on its snapshots (no
        extra barriers); otherwise the recorder runs the two-phase barrier
        protocol itself (see :mod:`repro.replay`).
        """
        res = self.kernel._res
        if res is not None:
            # The recorder (if any) piggybacks inside res.checkpoint.
            yield from res.checkpoint(self, state)
            return
        rec = self.kernel._replay
        if rec is None:
            return
        yield from rec.checkpoint(self, state)

    # -- misc ----------------------------------------------------------------
    def sleep(self, seconds: float) -> Generator[Event, Any, None]:
        yield from self.kernel.unix_process.sleep(seconds)
