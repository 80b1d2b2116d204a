"""Processor-sharing servers and the elastic virtual cluster.

Each backend node is a :class:`PSServer`: an egalitarian processor-
sharing queue (every resident job receives ``rate / n`` service), the
model the PS request-cloning report builds on.  It is the virtual-time
queue :class:`repro.sim.ps.PSQueue`, which the OS layer's CPU uses too,
at speed ``rate`` and no time-sharing tax: one request costs O(log n)
heap work and one departure event per completed clone, independent of
how many jobs share the server, and each server holds one departure
timer for its whole lifetime.

:class:`VirtualCluster` holds the server pool and makes it *elastic*:
``grow``/``shrink`` add capacity or drain it away (a shrinking server
finishes its residents, accepts nothing new, then parks), and ``crash``
/ ``restart`` model node failures for the resilience story.  Servers
register themselves as SSI service endpoints in a
:class:`repro.ssi.endpoints.ServiceDirectory`, so placement-aware
callers resolve the same live view the dispatcher uses.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..errors import ConfigurationError
from ..sim.core import Simulator
from ..sim.ps import PSQueue
from ..ssi.endpoints import ServiceDirectory

__all__ = ["Clone", "PSServer", "VirtualCluster"]


class Clone:
    """One copy of a request, dispatched to ``server``."""

    __slots__ = ("request", "size", "server", "alive")

    def __init__(self, request: Any, size: float, server: Optional["PSServer"] = None):
        self.request = request
        self.size = size
        self.server = server
        #: False once completed, cancelled, or lost to a crash
        self.alive = True


class PSServer(PSQueue):
    """A PS queue of :class:`Clone` jobs, with an id and a drain flag."""

    __slots__ = ("server_id", "on_complete", "draining")

    def __init__(self, sim: Simulator, server_id: int, rate: float = 1.0):
        if rate <= 0:
            raise ConfigurationError(f"server rate must be > 0, got {rate}")
        PSQueue.__init__(self, sim, self._finish, speed=rate, name="trf.depart")
        self.server_id = server_id
        #: called as on_complete(clone, now) when a clone finishes
        self.on_complete: Optional[Callable[[Clone, float], None]] = None
        self.draining = False

    @property
    def rate(self) -> float:
        return self.speed

    @property
    def queue_len(self) -> int:
        return len(self.jobs)

    def _finish(self, clone: Clone, _last: bool) -> None:
        clone.alive = False
        clone.server = None
        # Last: it may cancel sibling clones on other servers.
        if self.on_complete is not None:
            self.on_complete(clone, self.sim.now)

    def remove(self, clone: Clone, now: float) -> bool:
        """Cancel a resident clone (sibling won the race, or reassigned)."""
        if not PSQueue.remove(self, clone, now):
            return False
        clone.alive = False
        clone.server = None
        return True

    def crash(self, now: float) -> List[Clone]:
        """Take the server down; returns the clones lost with it, in
        admission order (reassignment draws must not follow heap order)."""
        lost = PSQueue.crash(self, now)
        for clone in lost:
            clone.alive = False
            clone.server = None
        return lost

    def restart(self, now: float) -> None:
        PSQueue.restart(self, now)
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
            areas.append(server.busy(now) / span)
        return sum(areas) / len(areas) if areas else 0.0
