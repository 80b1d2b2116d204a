"""Resilience manager: fault injection, failure detection, recovery glue.

One :class:`ResilienceManager` per cluster (built by
:class:`repro.dse.cluster.Cluster` *before* the kernels so every hook site
can cache the reference — the established ``is not None`` gating pattern).
It owns:

* **membership views** — one :class:`repro.resilience.membership.Membership`
  per kernel.  The monitor (kernel 0) drives ALIVE → SUSPECT → DEAD from
  heartbeat silence; declarations are broadcast as ``RES_DEAD`` messages
  and each kernel's handler updates its local view and aborts local work
  aimed at the corpse.
* **heartbeats** — a per-kernel agent sends ``RES_HEARTBEAT`` to the
  monitor only when nothing else reached the monitor within a period
  (piggybacking: busy kernels cost no extra messages).  The monitor's
  ``last_heard`` table is fed by an arrival hook on its DSE socket, so
  requests *and* responses both count as liveness evidence.
* **fault injection** — :meth:`crash_kernel` tears a kernel down for real:
  guests and handler coroutines are killed, the service loop's UNIX
  process exits, the DSE port unbinds (inbound datagrams then drop exactly
  like packets to a dead host), and the global-memory slice is lost.
  :meth:`restart_kernel` reboots it with a fresh incarnation.
* **recovery** — coordinated checkpoints at barriers
  (:meth:`checkpoint`, driven by ``ParallelAPI.checkpoint``), two-phase
  rollback RPCs (:meth:`rollback`), lease-based lock revocation, and
  barrier reconfiguration after deaths.

Everything is deterministic per seed: agents and the monitor are periodic
simulation processes, and no wall-clock or unseeded randomness exists
anywhere in the subsystem.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, TYPE_CHECKING

import numpy as np

from ..errors import ResilienceError
from ..sim.core import Event
from ..sim.monitor import StatSet
from .checkpoint import CheckpointStore, checkpoint_cut
from .config import ResilienceConfig
from .membership import ALIVE, DEAD, SUSPECT, Membership

if TYPE_CHECKING:  # pragma: no cover
    from ..dse.cluster import Cluster
    from ..dse.kernel import DSEKernel

__all__ = ["ResilienceManager"]


class ResilienceManager:
    """Cluster-wide resilience state and protocols (see module docs)."""

    #: the monitor / barrier coordinator; not crashable (see docs/resilience.md)
    monitor_id = 0

    def __init__(self, cluster: "Cluster", config: ResilienceConfig):
        # Built before machines/kernels exist: only sizes may be touched here.
        self.cluster = cluster
        self.config = config
        self.sim = cluster.sim
        self.world = cluster.config.n_processors
        #: per-kernel membership views (kernel id -> Membership)
        self.views: Dict[int, Membership] = {
            k: Membership(self.world) for k in range(self.world)
        }
        self.store = CheckpointStore(self.world)
        self.stats = StatSet("resilience")
        #: armed by the resilient runner; succeeds on the next death
        self.failure_event: Optional[Event] = None
        #: death declarations as (time, kernel_id), in order
        self.failures: List[tuple] = []
        #: crash injection times for detect-latency accounting
        self._crash_times: Dict[int, float] = {}
        #: per-rank next checkpoint version (reset after rollback)
        self._ckpt_next: Dict[int, int] = {}
        #: heartbeat agent processes per kernel
        self._agents: Dict[int, Any] = {}

    # -- queries --------------------------------------------------------------
    def usable(self, kernel_id: int) -> bool:
        """Monitor's view: may this kernel be targeted / shut down?"""
        return self.views[self.monitor_id].usable(kernel_id)

    @property
    def membership(self) -> Membership:
        """The monitor's (authoritative) membership view."""
        return self.views[self.monitor_id]

    # -- wiring ---------------------------------------------------------------
    def wire(self) -> None:
        """Install services, heartbeat agents, and the monitor.

        Called by the cluster once kernels and routes exist."""
        from ..dse.messages import MsgType

        for kernel in self.cluster.kernels:
            kernel.register_service(MsgType.RES_HEARTBEAT, self._make_heartbeat_handler(kernel))
            kernel.register_service(MsgType.RES_JOIN, self._make_join_handler(kernel))
            kernel.register_service(MsgType.RES_DEAD, self._make_dead_handler(kernel))
            kernel.register_service(
                MsgType.RES_ROLLBACK_REQ, self._make_rollback_handler(kernel)
            )
        monitor = self.cluster.kernels[self.monitor_id]
        # Liveness evidence: anything arriving at the monitor's DSE port —
        # requests and responses alike — refreshes the sender's last_heard.
        monitor.exchange.socket.on_arrival(self._on_monitor_arrival)
        view = self.views[self.monitor_id]
        for kernel in self.cluster.kernels:
            if kernel.kernel_id != self.monitor_id:
                self._agents[kernel.kernel_id] = self.sim.process(
                    self._agent(kernel), name=f"res-agent:k{kernel.kernel_id}"
                )
        self.sim.process(self._monitor(monitor, view), name="res-monitor")

    def _on_monitor_arrival(self, packet) -> None:
        from ..dse.messages import DSEMessage

        payload = packet.payload
        if not isinstance(payload, DSEMessage):  # pragma: no cover - foreign traffic
            return
        src = payload.src_kernel
        view = self.views[self.monitor_id]
        if view.state.get(src) == DEAD:
            # A zombie (e.g. partitioned past the grace, then healed): only
            # an explicit RES_JOIN readmits it.
            return
        if view.heard_from(src, self.sim.now):
            self.stats.counter("suspicions_cleared").increment()
            if self.cluster.obs.enabled:
                self.cluster.obs.instant(
                    self.sim.now, f"res.suspicion_cleared:k{src}", "res", 0, 0
                )

    # -- heartbeats ------------------------------------------------------------
    def _agent(self, kernel: "DSEKernel") -> Generator[Event, Any, None]:
        """Per-kernel heartbeat agent (piggybacking; see module docs)."""
        from ..dse.messages import DSEMessage, MsgType

        period = self.config.heartbeat_period
        monitor = self.cluster.kernels[self.monitor_id]
        while True:
            yield self.sim.timeout(period)
            # Exiting when the *monitor* shuts down matters on error paths: a
            # restarted kernel the monitor still believes dead is skipped by
            # shutdown_from, and its agent must not spin the drained cluster.
            if kernel._shutdown or not kernel.alive or monitor._shutdown:
                return
            exchange = kernel.exchange
            if self.sim.now - exchange.last_sent_to_monitor < period:
                continue  # recent real traffic already proved liveness
            msg = DSEMessage(
                msg_type=MsgType.RES_HEARTBEAT,
                src_kernel=kernel.kernel_id,
                dst_kernel=self.monitor_id,
                addr=kernel.incarnation,
            )
            self.stats.counter("heartbeats").increment()
            yield from exchange.notify(msg)

    def _monitor(
        self, monitor: "DSEKernel", view: Membership
    ) -> Generator[Event, Any, None]:
        """Failure detector on kernel 0: silence → SUSPECT → DEAD."""
        period = self.config.heartbeat_period
        timeout = self.config.heartbeat_timeout
        grace = self.config.suspect_grace
        while True:
            yield self.sim.timeout(period)
            if monitor._shutdown:
                return
            now = self.sim.now
            for k in range(self.world):
                if k == self.monitor_id:
                    continue
                state = view.state[k]
                if state == DEAD:
                    continue
                silence = now - view.last_heard[k]
                if state == ALIVE and silence >= timeout:
                    view.suspect(k, now)
                    self.stats.counter("suspicions").increment()
                    if self.cluster.obs.enabled:
                        self.cluster.obs.instant(now, f"res.suspect:k{k}", "res", 0, 0)
                elif state == SUSPECT and silence >= timeout + grace:
                    self._declare_dead(k)

    def _declare_dead(self, dead: int) -> None:
        """Monitor decision: apply locally *now*, broadcast to the others.

        The monitor-local effects (view update, failure event, RPC aborts,
        pending-task failures) are synchronous: the fast-restart path in the
        join handler declares the old incarnation dead and immediately
        rejoins the new one, and a broadcast routed back to the monitor
        would clobber the rejoin.  The broadcast to the other kernels is
        tagged with the dead *incarnation*, so it loses the same race
        stalely at every receiver."""
        from ..dse.messages import DSEMessage, MsgType

        now = self.sim.now
        monitor = self.cluster.kernels[self.monitor_id]
        view = self.views[self.monitor_id]
        old_inc = view.incarnation.get(dead, 0)
        if not view.declare_dead(dead, old_inc):
            return
        self.stats.counter("deaths").increment()
        if dead in self._crash_times:
            self.stats.tally("detect_latency").observe(now - self._crash_times[dead])
        if self.cluster.obs.enabled:
            self.cluster.obs.instant(now, f"res.dead:k{dead}", "res", 0, 0)
        self.failures.append((now, dead))
        if self.failure_event is not None and not self.failure_event.triggered:
            self.failure_event.succeed(dead)
        aborted = monitor.exchange.abort_waiting_to(dead)
        if aborted:
            self.stats.counter("rpc_aborts").increment(aborted)
        lost = monitor.procman.fail_pending_for(dead, now)
        if lost:
            self.stats.counter("tasks_lost").increment(lost)
        self.sim.process(
            self._revoke_after_lease(monitor, dead),
            name=f"res-lease:k{self.monitor_id}:d{dead}",
        )
        if self.config.reconfigure_barriers:
            self.sim.process(
                self._reconfigure_barriers(monitor), name=f"res-reconf:d{dead}"
            )

        def broadcast() -> Generator[Event, Any, None]:
            for k in view.live_kernels():
                if k in (dead, self.monitor_id):
                    continue
                msg = DSEMessage(
                    msg_type=MsgType.RES_DEAD,
                    src_kernel=self.monitor_id,
                    dst_kernel=k,
                    addr=dead,
                    data=old_inc,
                )
                yield from monitor.exchange.notify(msg)

        self.sim.process(broadcast(), name=f"res-dead-bcast:k{dead}")

    def _reconfigure_barriers(
        self, kernel: "DSEKernel"
    ) -> Generator[Event, Any, None]:
        released = yield from kernel.sync.reconfigure_barriers()
        if released:
            self.stats.counter("barriers_reconfigured").increment(released)

    # -- RES_* service handlers -------------------------------------------------
    def _make_heartbeat_handler(self, kernel: "DSEKernel"):
        def handler(msg) -> Generator[Event, Any, None]:
            # Liveness was recorded by the arrival hook; nothing more to do.
            return None
            yield  # pragma: no cover - generator parity

        return handler

    def _make_join_handler(self, kernel: "DSEKernel"):
        def handler(msg) -> Generator[Event, Any, None]:
            joiner, incarnation = msg.src_kernel, msg.addr
            view = self.views[kernel.kernel_id]
            if kernel.kernel_id == self.monitor_id:
                if (
                    view.state.get(joiner) != DEAD
                    and incarnation > view.incarnation.get(joiner, 0)
                ):
                    # The kernel crashed and restarted *faster* than detection:
                    # the old incarnation must be declared dead first so every
                    # kernel aborts state tied to it.
                    self._declare_dead(joiner)
                view.rejoin(joiner, incarnation, self.sim.now)
                self.stats.counter("joins").increment()
                if self.cluster.obs.enabled:
                    self.cluster.obs.instant(
                        self.sim.now, f"res.join:k{joiner}", "res", 0, 0
                    )
                # Re-broadcast so survivors can target the joiner again.
                # Detached: a rollback's kill phase slays handler processes
                # on kernel 0, and the forward must survive it.
                self.sim.process(
                    self._forward_join(joiner, incarnation),
                    name=f"res-join-fwd:k{joiner}",
                )
            else:
                view.rejoin(joiner, incarnation, self.sim.now)
            return None
            yield  # pragma: no cover - generator parity

        return handler

    def _forward_join(self, joiner: int, incarnation: int) -> Generator[Event, Any, None]:
        from ..dse.messages import DSEMessage, MsgType

        monitor = self.cluster.kernels[self.monitor_id]
        for k in self.views[self.monitor_id].live_kernels():
            if k in (joiner, self.monitor_id):
                continue
            msg = DSEMessage(
                msg_type=MsgType.RES_JOIN,
                src_kernel=joiner,  # keep the joiner's identity for the views
                dst_kernel=k,
                addr=incarnation,
            )
            yield from monitor.exchange.notify(msg)

    def _make_dead_handler(self, kernel: "DSEKernel"):
        def handler(msg) -> Generator[Event, Any, None]:
            dead, dead_inc = msg.addr, int(msg.data or 0)
            view = self.views[kernel.kernel_id]
            if not view.declare_dead(dead, dead_inc):
                return None  # duplicate, or stale (a rejoin overtook it)
            aborted = kernel.exchange.abort_waiting_to(dead)
            if aborted:
                self.stats.counter("rpc_aborts").increment(aborted)
            lost = kernel.procman.fail_pending_for(dead, self.sim.now)
            if lost:
                self.stats.counter("tasks_lost").increment(lost)
            # Lease expiry: this kernel frees the dead holder's locks it
            # homes, a configurable delay after the declaration.
            self.sim.process(
                self._revoke_after_lease(kernel, dead),
                name=f"res-lease:k{kernel.kernel_id}:d{dead}",
            )
            return None
            yield  # pragma: no cover - generator parity

        return handler

    def _revoke_after_lease(
        self, kernel: "DSEKernel", dead: int
    ) -> Generator[Event, Any, None]:
        if self.config.lock_lease > 0:
            yield self.sim.timeout(self.config.lock_lease)
        if kernel._shutdown or not kernel.alive:
            return
        revoked = yield from kernel.sync.revoke_dead(dead)
        if revoked:
            self.stats.counter("locks_revoked").increment(revoked)

    def _make_rollback_handler(self, kernel: "DSEKernel"):
        from ..hardware.cpu import Work

        def handler(msg) -> Generator[Event, Any, Any]:
            if msg.name == "kill":
                self._quiesce_kernel(kernel)
            elif msg.name == "restore":
                snap = np.asarray(msg.data, dtype=np.float64)
                # Stable-storage read + memory copy back into the slice.
                yield from kernel.unix_process.compute_seconds(
                    snap.nbytes / self.config.checkpoint_bps
                )
                yield from kernel.unix_process.compute(Work(mems=len(snap)))
                kernel.gmem.restore_slice(snap)
            else:
                raise ResilienceError(f"unknown rollback phase {msg.name!r}")
            return msg.make_response()

        return handler

    def _quiesce_kernel(self, kernel: "DSEKernel") -> None:
        """Kill every guest and handler on a kernel; reset volatile DSE state.

        Used by the rollback "kill" phase on surviving kernels.  The handler
        currently executing this (if any) survives — a generator cannot
        close itself."""
        active = self.sim.active_process
        for rank in sorted(kernel.procman.local_processes):
            proc = kernel.procman.local_processes[rank]
            if proc is not active and proc.is_alive:
                proc.kill()
        for proc in list(kernel._handlers):
            if proc is not active and proc.is_alive:
                proc.kill()
                kernel._handlers.discard(proc)
        kernel.procman.clear_guests()
        kernel.sync.reset()
        kernel.gmem.abort_inflight()

    # -- fault injection --------------------------------------------------------
    def crash_kernel(
        self,
        kernel_id: int,
        restart_after: Optional[float] = None,
        halt_machine: bool = False,
    ) -> None:
        """Tear a kernel down as a crash (no warning, no cleanup protocol).

        Guests, request handlers, the heartbeat agent, and the service loop
        are killed in one synchronous pass; the UNIX process exits; the DSE
        port unbinds (later datagrams drop silently, like packets to a dead
        host); the global-memory slice is lost.  Membership is *not*
        touched — discovering the death is the failure detector's job.

        ``restart_after`` schedules :meth:`restart_kernel` that many
        simulated seconds later.  ``halt_machine`` also powers the machine
        (and its NIC) off — only meaningful when the victim is the only
        kernel on its machine."""
        if kernel_id == self.monitor_id:
            raise ResilienceError("kernel 0 is the monitor/coordinator; not crashable")
        kernel = self.cluster.kernels[kernel_id]
        if not kernel.alive:
            return
        kernel.alive = False
        now = self.sim.now
        self._crash_times[kernel_id] = now
        # Guests first: killing a combined-read leader runs its finally,
        # which needs gmem's tables still intact.
        crashed_ranks = sorted(kernel.procman.local_processes)
        for rank in crashed_ranks:
            proc = kernel.procman.local_processes[rank]
            if proc.is_alive:
                proc.kill()
        for proc in list(kernel._handlers):
            if proc.is_alive:
                proc.kill()
        kernel._handlers.clear()
        agent = self._agents.get(kernel_id)
        if agent is not None and agent.is_alive:
            agent.kill()
        service = kernel.unix_process.sim_process
        if service is not None and service.is_alive:
            service.kill()
        if not kernel.unix_process.exited:
            kernel.unix_process.mark_exited(None)
        kernel.exchange.close()
        kernel.gmem.lose_memory()
        kernel.sync.reset()
        kernel.procman.clear_guests()
        if halt_machine:
            kernel.machine.halt()
        deadlock = self.cluster.sanitizer.deadlock
        if deadlock is not None:
            deadlock.on_crash(crashed_ranks, now)
        self.stats.counter("crashes").increment()
        if self.cluster.obs.enabled:
            self.cluster.obs.instant(now, f"res.crash:k{kernel_id}", "res", 0, 0)
        if restart_after is not None:
            self.sim.process(
                self._restart_later(kernel_id, restart_after),
                name=f"res-restart:k{kernel_id}",
            )

    def _restart_later(
        self, kernel_id: int, delay: float
    ) -> Generator[Event, Any, None]:
        yield self.sim.timeout(delay)
        self.restart_kernel(kernel_id)

    def restart_kernel(self, kernel_id: int) -> None:
        """Reboot a crashed kernel: fresh incarnation, empty state, RES_JOIN."""
        kernel = self.cluster.kernels[kernel_id]
        if kernel.alive:
            return
        if not kernel.machine.up:
            kernel.machine.restart()
        kernel.reboot()
        self.stats.counter("restarts").increment()
        if self.cluster.obs.enabled:
            self.cluster.obs.instant(
                self.sim.now, f"res.restart:k{kernel_id}", "res", 0, 0
            )
        # A new heartbeat agent announces the new incarnation, then beats.
        self._agents[kernel_id] = self.sim.process(
            self._rejoin_then_beat(kernel), name=f"res-agent:k{kernel_id}.r{kernel.incarnation}"
        )

    def _rejoin_then_beat(self, kernel: "DSEKernel") -> Generator[Event, Any, None]:
        from ..dse.messages import DSEMessage, MsgType

        msg = DSEMessage(
            msg_type=MsgType.RES_JOIN,
            src_kernel=kernel.kernel_id,
            dst_kernel=self.monitor_id,
            addr=kernel.incarnation,
        )
        yield from kernel.exchange.notify(msg)
        yield from self._agent(kernel)

    # -- checkpoint / rollback ----------------------------------------------------
    def checkpoint(self, api, state: Any) -> Generator[Event, Any, None]:
        """One rank's part of a coordinated checkpoint (see CheckpointStore)."""
        rank = api.rank
        version = self._ckpt_next.get(rank, self.store.committed_version + 1)

        def on_snapshot(snap):
            self.store.put(rank, version, state, snap)
            self._ckpt_next[rank] = version + 1
            self.stats.counter("checkpoints").increment()
            rec = self.cluster.replay
            if rec is not None:
                # Replay recording piggybacks on the resilience checkpoint:
                # the ring shares this snapshot (no extra barriers or cost).
                rec.on_rank_snapshot(rank, version, state, snap, self.sim.now)

        yield from checkpoint_cut(
            api, f"res:ckpt:{version}", self.config.checkpoint_bps, on_snapshot
        )

    def arm_failure_event(self) -> Event:
        """(Re-)arm the event the resilient runner waits on."""
        if self.failure_event is None or self.failure_event.triggered:
            self.failure_event = self.sim.event(name="res-failure")
        return self.failure_event

    def await_rejoin(self, kernel: "DSEKernel") -> Generator[Event, Any, None]:
        """Wait until no kernel is DEAD in ``kernel``'s view (or time out)."""
        view = self.views[kernel.kernel_id]
        deadline = self.sim.now + self.config.rejoin_timeout
        while view.dead_kernels():
            if self.sim.now >= deadline:
                raise ResilienceError(
                    f"kernels {view.dead_kernels()} did not rejoin within "
                    f"{self.config.rejoin_timeout}s — cannot recover their "
                    "global-memory slices (see docs/resilience.md)"
                )
            yield self.sim.timeout(self.config.heartbeat_period)

    def rollback(self, kernel0: "DSEKernel") -> Generator[Event, Any, None]:
        """Two-phase cluster rollback, driven from the supervisor on kernel 0.

        Phase "kill" quiesces every live kernel (guests killed, sync and
        combining state dropped); phase "restore" rewrites each kernel's
        home slice from the committed checkpoint.  With no committed
        checkpoint only the kill phase runs — ranks restart from scratch."""
        from ..dse.messages import DSEMessage, MsgType

        self.stats.counter("rollbacks").increment()
        live = self.views[kernel0.kernel_id].live_kernels()
        for k in live:
            msg = DSEMessage(
                msg_type=MsgType.RES_ROLLBACK_REQ,
                src_kernel=kernel0.kernel_id,
                dst_kernel=k,
                name="kill",
            )
            yield from kernel0.exchange.request(msg)
        if self.store.has_checkpoint:
            for rank in range(self.world):
                state, snap = self.store.get(rank)
                target = self.cluster.placement(rank)
                msg = DSEMessage(
                    msg_type=MsgType.RES_ROLLBACK_REQ,
                    src_kernel=kernel0.kernel_id,
                    dst_kernel=target,
                    name="restore",
                    data=snap,
                    extra_bytes=8 * len(snap),
                )
                yield from kernel0.exchange.request(msg)
        self.store.discard_uncommitted()
        self._ckpt_next = {}

    def checkpoint_state(self, rank: int) -> Any:
        """Committed restart state for a rank (None without a checkpoint)."""
        if not self.store.has_checkpoint:
            return None
        state, _snap = self.store.get(rank)
        return state
