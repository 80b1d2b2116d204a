"""Processor-sharing servers and the elastic virtual cluster.

Each backend node is a :class:`PSServer`: an egalitarian processor-
sharing queue (every resident job receives ``rate / n`` service), the
model the PS request-cloning report builds on and the same discipline
the OS layer's CPU scheduler implements for real guest processes.

The implementation is the classic *virtual time* construction, chosen
so a million-request run stays tractable on the event engine:

* the server's virtual clock ``V`` advances at ``rate / n(t)``;
* a job admitted at ``V0`` with ``size`` seconds of work departs when
  ``V`` reaches ``V0 + size`` — a constant, computed once;
* departures are a min-heap on that finish virtual time with lazy
  deletion (cancelled clones stay in the heap, dead), and one
  :class:`~repro.sim.core.Timer` per server, held for the server's whole
  lifetime, covers the next departure.  Every arrival, removal and
  departure sets it with :meth:`~repro.sim.core.Timer.set` (which moves a
  pending firing in place), and it is cleared when the server empties or
  goes down.

So one request costs O(log n) heap work and one departure event per
completed clone, independent of how many jobs share the server, and no
timer object is allocated per event.

:class:`VirtualCluster` holds the server pool and makes it *elastic*:
``grow``/``shrink`` add capacity or drain it away (a shrinking server
finishes its residents, accepts nothing new, then parks), and ``crash``
/ ``restart`` model node failures for the resilience story.  Servers
register themselves as SSI service endpoints in a
:class:`repro.ssi.endpoints.ServiceDirectory`, so placement-aware
callers resolve the same live view the dispatcher uses.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional

from ..errors import ConfigurationError
from ..sim.core import Simulator, Timer
from ..ssi.endpoints import ServiceDirectory

__all__ = ["Clone", "PSServer", "VirtualCluster"]


class Clone:
    """One copy of a request resident on one server."""

    __slots__ = ("request", "size", "server", "vfinish", "alive")

    def __init__(self, request: Any, size: float):
        self.request = request
        self.size = size
        self.server: Optional["PSServer"] = None
        self.vfinish = 0.0
        #: False once completed, cancelled, or lost to a crash
        self.alive = True


class PSServer:
    """An egalitarian processor-sharing queue with virtual-time departures."""

    __slots__ = (
        "sim", "server_id", "rate", "jobs", "_heap", "_vtime", "_vlast",
        "_timer", "on_complete", "up", "draining",
        "busy_area", "completed",
    )

    def __init__(self, sim: Simulator, server_id: int, rate: float = 1.0):
        if rate <= 0:
            raise ConfigurationError(f"server rate must be > 0, got {rate}")
        self.sim = sim
        self.server_id = server_id
        self.rate = rate
        #: live clones resident on this server, in admission order
        self.jobs: Dict[Clone, Clone] = {}
        #: min-heap of [vfinish, seq, clone] with lazy deletion
        self._heap: List[list] = []
        self._vtime = 0.0
        self._vlast = sim.now
        self._timer = Timer(sim, self._on_depart, "trf.depart")
        #: called as on_complete(clone, now) when a clone finishes
        self.on_complete: Optional[Callable[[Clone, float], None]] = None
        self.up = True
        self.draining = False
        #: integral of "has at least one job" over time (utilisation)
        self.busy_area = 0.0
        self.completed = 0

    # -- virtual clock ---------------------------------------------------
    # ``admit`` and ``_on_depart`` inline this same advance on the hot path.
    def _advance(self, now: float) -> None:
        n = len(self.jobs)
        if n:
            dt = now - self._vlast
            self._vtime += dt * self.rate / n
            self.busy_area += dt
        self._vlast = now

    def work_left(self, now: float) -> float:
        """Total unfinished work resident on the server (read-only)."""
        n = len(self.jobs)
        if not n:
            return 0.0
        v = self._vtime + (now - self._vlast) * self.rate / n
        return sum(c.vfinish for c in self.jobs.values()) - n * v

    @property
    def queue_len(self) -> int:
        return len(self.jobs)

    # -- membership ------------------------------------------------------
    def admit(self, clone: Clone, now: float) -> None:
        jobs = self.jobs
        n = len(jobs)
        if n:
            dt = now - self._vlast
            self._vtime += dt * self.rate / n
            self.busy_area += dt
        self._vlast = now
        clone.server = self
        clone.vfinish = vfinish = self._vtime + clone.size
        jobs[clone] = clone
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(self._heap, [vfinish, seq, clone])
        self._set_timer()

    def remove(self, clone: Clone, now: float) -> None:
        """Cancel a resident clone (sibling won the race, or reassigned)."""
        if not clone.alive or clone.server is not self:
            return
        self._advance(now)
        clone.alive = False
        clone.server = None
        del self.jobs[clone]
        self._set_timer()

    # -- departures ------------------------------------------------------
    def _set_timer(self) -> None:
        """Point the departure timer at the heap's next live clone, or
        clear it when nothing is left to depart or the server is down."""
        heap = self._heap
        while heap and not heap[0][2].alive:
            heappop(heap)
        if not heap or not self.up:
            self._timer.clear()
            return
        delay = (heap[0][0] - self._vtime) * len(self.jobs) / self.rate
        if delay < 0.0:
            delay = 0.0
        self._timer.set(delay)

    def _on_depart(self, _event) -> None:
        now = self.sim.now
        jobs = self.jobs
        n = len(jobs)
        if n:
            dt = now - self._vlast
            self._vtime += dt * self.rate / n
            self.busy_area += dt
        self._vlast = now
        heap = self._heap
        while heap and not heap[0][2].alive:
            heappop(heap)
        if not heap:  # pragma: no cover - cancelled between arm and fire
            return
        clone = heappop(heap)[2]
        clone.alive = False
        clone.server = None
        del jobs[clone]
        self.completed += 1
        self._set_timer()
        # Callback last: it may cancel sibling clones on other servers.
        if self.on_complete is not None:
            self.on_complete(clone, now)

    # -- failures --------------------------------------------------------
    def crash(self, now: float) -> List[Clone]:
        """Take the server down; returns the clones lost with it."""
        self._advance(now)
        self.up = False
        self._timer.clear()
        # Admission order: reassignment draws must not follow heap addresses.
        lost = list(self.jobs.values())
        for clone in lost:
            clone.alive = False
            clone.server = None
        self.jobs.clear()
        self._heap.clear()
        return lost

    def restart(self, now: float) -> None:
        self._advance(now)
        self.up = True
        self.draining = False


class VirtualCluster:
    """An elastic pool of PS servers behind one SSI service name."""

    def __init__(
        self,
        sim: Simulator,
        n_servers: int,
        rate: float = 1.0,
        service_name: str = "svc",
        directory: Optional[ServiceDirectory] = None,
        stats=None,
        max_servers: Optional[int] = None,
        on_complete: Optional[Callable[[Clone, float], None]] = None,
    ):
        if n_servers < 1:
            raise ConfigurationError(f"need at least one server, got {n_servers}")
        self.sim = sim
        self.rate = rate
        self.service_name = service_name
        self.directory = directory if directory is not None else ServiceDirectory()
        self.stats = stats
        self.max_servers = max_servers
        #: given to every server this cluster creates
        self.on_complete = on_complete
        self.servers: List[PSServer] = []
        #: ids of servers accepting new work, ascending
        self.active: List[int] = []
        #: deactivated servers still finishing resident jobs
        self.draining: List[int] = []
        for _ in range(n_servers):
            self._add_server()

    # -- pool management -------------------------------------------------
    def _add_server(self) -> PSServer:
        server = PSServer(self.sim, len(self.servers), self.rate)
        server.on_complete = self.on_complete
        self.servers.append(server)
        self.active.append(server.server_id)
        self.directory.register(self.service_name, server.server_id, self.sim.now)
        if self.stats is not None:
            self.stats.counter("servers_added").increment()
        return server

    @property
    def n_active(self) -> int:
        return len(self.active)

    def active_servers(self) -> List[PSServer]:
        return [self.servers[i] for i in self.active]

    def grow(self, k: int) -> int:
        """Activate ``k`` more servers (un-park drained ones first)."""
        added = 0
        for _ in range(k):
            if self.max_servers is not None and self.n_active >= self.max_servers:
                break
            parked = [
                s.server_id for s in self.servers
                if s.up and not s.jobs and s.draining
                and s.server_id not in self.active
            ]
            if parked:
                sid = parked[0]
                self.servers[sid].draining = False
                self.draining = [i for i in self.draining if i != sid]
                self.active.append(sid)
                self.active.sort()
                self.directory.register(self.service_name, sid, self.sim.now)
                if self.stats is not None:
                    self.stats.counter("servers_added").increment()
            else:
                self._add_server()
            added += 1
        return added

    def shrink(self, k: int) -> int:
        """Deactivate the ``k`` highest-id active servers (never the last).

        A deactivated server stops receiving work immediately and drains
        its resident jobs to completion — requests are never killed by a
        scale-down decision.
        """
        removed = 0
        for _ in range(k):
            if len(self.active) <= 1:
                break
            sid = self.active.pop()  # highest id (list is ascending)
            server = self.servers[sid]
            server.draining = True
            self.draining.append(sid)
            self.directory.deregister(self.service_name, sid, self.sim.now)
            if self.stats is not None:
                self.stats.counter("servers_removed").increment()
            removed += 1
        return removed

    # -- failures --------------------------------------------------------
    def crash(self, server_id: int) -> List[Clone]:
        """Crash one server; returns the clones that were lost on it."""
        server = self.servers[server_id]
        if not server.up:
            return []
        lost = server.crash(self.sim.now)
        if server_id in self.active:
            self.active.remove(server_id)
            self.directory.deregister(self.service_name, server_id, self.sim.now)
        self.draining = [i for i in self.draining if i != server_id]
        if self.stats is not None:
            self.stats.counter("server_crashes").increment()
        return lost

    def restart(self, server_id: int) -> None:
        server = self.servers[server_id]
        if server.up:
            return
        server.restart(self.sim.now)
        self.active.append(server_id)
        self.active.sort()
        self.directory.register(self.service_name, server_id, self.sim.now)
        if self.stats is not None:
            self.stats.counter("server_restarts").increment()

    # -- observability ---------------------------------------------------
    def total_queue(self) -> int:
        return sum(s.queue_len for s in self.servers)

    def utilisation(self, now: float, start: float = 0.0) -> float:
        """Mean busy fraction across all servers over [start, now]."""
        span = now - start
        if span <= 0:
            return 0.0
        areas = []
        for server in self.servers:
            busy = server.busy_area
            if server.jobs:  # account the open busy interval
                busy += now - server._vlast
            areas.append(busy / span)
        return sum(areas) / len(areas) if areas else 0.0
