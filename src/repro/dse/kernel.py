"""The DSE kernel (parallel processing engine).

Per the paper's re-organisation (its Figures 2 and 3), the kernel is not a
separate UNIX process but a *parallel processing library* linked into the
application: here, one :class:`DSEKernel` owns one
:class:`repro.osmodel.UnixProcess` inside which run (a) the kernel's
message service loop and (b) every DSE process (parallel application
coroutine) started on this node.  All of them share the machine's CPU.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, TYPE_CHECKING

from ..errors import DSEError, KernelUnavailableError
from ..osmodel.machine import Machine
from ..sim.core import Event, Process
from ..sim.monitor import LazyStat, StatSet
from .exchange import MessageExchange
from .gmem import GlobalMemoryManager
from .messages import DSEMessage, MsgType
from .procman import ProcessManager, TaskLost
from .sync import SyncManager

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import Cluster

__all__ = ["DSEKernel"]


class DSEKernel:
    """One node's DSE kernel, linked (as a library) with its DSE processes."""

    _c_requests_served = LazyStat("requests_served")

    def __init__(self, kernel_id: int, machine: Machine, cluster: "Cluster"):
        self.kernel_id = kernel_id
        self.machine = machine
        self.cluster = cluster
        self.sim = machine.sim
        self._shutdown = False
        self.stats = StatSet(f"kernel:{kernel_id}")
        #: extension services: message type -> handler (see register_service)
        self.services: Dict[MsgType, Callable[[DSEMessage], Generator]] = {}
        #: resilience manager (None when disabled) and liveness state
        self._res = getattr(cluster, "resilience", None)
        #: replay recorder (None when disabled) — cached so the checkpoint
        #: hook's disabled path is one attribute load + identity test
        self._replay = getattr(cluster, "replay", None)
        self.alive = True
        #: bumped on every reboot; lets the monitor tell a fast restart
        #: from a still-running incarnation
        self.incarnation = 0
        #: live request-handler coroutines, tracked only when resilience is
        #: on so a crash can tear them down with the kernel
        self._handlers: set = set()

        # The one UNIX process holding kernel + DSE processes (paper Fig. 2).
        self.unix_process = machine.spawn(self._body, name=f"dse-k{kernel_id}")
        #: observability recorder + this kernel's span lane (pid = machine,
        #: tid = the kernel's UNIX process)
        self.obs = cluster.obs
        self.obs_pid = machine.station_id
        self.obs_tid = self.unix_process.pid
        self.exchange = MessageExchange(self)
        self.gmem: GlobalMemoryManager = cluster.make_gmem(self)
        self.sync = SyncManager(self)
        self.procman = ProcessManager(self)

    # -- identity ----------------------------------------------------------
    @property
    def cluster_size(self) -> int:
        return self.cluster.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DSEKernel {self.kernel_id} on {self.machine.hostname}>"

    # -- service loop --------------------------------------------------------
    def _body(self, proc) -> Generator[Event, Any, None]:
        """UNIX-process body: run the message service loop until shutdown."""
        while not self._shutdown:
            msg = yield from self.exchange.next_request()
            self._c_requests_served.increment()
            if msg.msg_type is MsgType.SHUTDOWN_REQ:
                self._shutdown = True
                yield from self.exchange.reply(msg.make_response())
                break
            # Handle each request in its own coroutine so a long or blocking
            # handler (deferred lock, nested coherence RPC) never stalls the
            # service loop — the no-head-of-line-blocking property the paper
            # gets from asynchronous I/O interruption.  Nobody joins a
            # handler, so it starts in place and ends with no event.
            handler = self.sim.start(
                self._handle(msg), name=f"k{self.kernel_id}.h{msg.seq}"
            )
            if self._res is not None and handler.is_alive:
                self._track_handler(handler)

    def _track_handler(self, handler: Process) -> None:
        """Remember a live handler coroutine so a crash can kill it.

        A handler that ended in its first step is never tracked: a failure
        there is already scheduled with no waiter, so it surfaces out of
        ``sim.run``.  For a tracked handler the completion callback
        re-raises its failure: a Process with callbacks would otherwise
        have its exception swallowed by the event loop's unhandled-failure
        rule."""
        self._handlers.add(handler)

        def done(_ev: Event) -> None:
            self._handlers.discard(handler)
            if not handler._ok:
                raise handler._value

        handler.callbacks.append(done)

    def _handle(self, msg: DSEMessage) -> Generator[Event, Any, None]:
        span = None
        if self.obs.enabled and msg.trace is not None:
            span = self.obs.begin(
                self.sim.now,
                f"serve:{msg.msg_type.value}",
                "dse",
                self.obs_pid,
                self.obs_tid,
                msg.trace,
            )
        response = yield from self.dispatch(msg)
        if response is not None:
            yield from self.exchange.reply(response)
        if span is not None:
            self.obs.end(span, self.sim.now)

    def dispatch(self, msg: DSEMessage) -> Generator[Event, Any, Optional[DSEMessage]]:
        """Route a request to the owning module; returns the response or
        ``None`` when the reply is deferred (lock queues, barriers)."""
        t = msg.msg_type
        if t is MsgType.GM_READ_REQ:
            return (yield from self.gmem.handle_read(msg))
        if t is MsgType.GM_WRITE_REQ:
            return (yield from self.gmem.handle_write(msg))
        if t is MsgType.GM_WBATCH_REQ:
            return (yield from self.gmem.handle_write_batch(msg))
        if t is MsgType.GM_ALLOC_REQ:
            return (yield from self.gmem.handle_alloc(msg))
        if t in (
            MsgType.GM_FETCH_REQ,
            MsgType.GM_OWN_REQ,
            MsgType.GM_INV_REQ,
            MsgType.GM_WB_REQ,
        ):
            handler = getattr(self.gmem, "handle_coherence", None)
            if handler is None:
                raise DSEError(
                    f"{t} requires the caching coherence policy "
                    f"(configured: {self.gmem.policy_name})"
                )
            return (yield from handler(msg))
        if t is MsgType.LOCK_REQ:
            return (yield from self.sync.handle_lock(msg))
        if t is MsgType.UNLOCK_REQ:
            return (yield from self.sync.handle_unlock(msg))
        if t is MsgType.BARRIER_REQ:
            return (yield from self.sync.handle_barrier(msg))
        if t is MsgType.PROC_START_REQ:
            return (yield from self.procman.handle_start(msg))
        if t is MsgType.PROC_DONE:
            return (yield from self.procman.handle_done(msg))
        if t is MsgType.SSI_INFO_REQ:
            return self.cluster.ssi_info_response(self, msg)
        service = self.services.get(t)
        if service is not None:
            return (yield from service(msg))
        raise DSEError(f"kernel {self.kernel_id} cannot dispatch {t}")

    def register_service(
        self, msg_type: MsgType, handler: Callable[[DSEMessage], Generator]
    ) -> None:
        """Install a handler for an extension message type (SSI services).

        The handler is a generator taking the request and returning the
        response message (or ``None`` for deferred replies).
        """
        if msg_type in self.services:
            raise DSEError(f"service for {msg_type} already registered")
        self.services[msg_type] = handler

    # -- DSE processes ---------------------------------------------------------
    def start_dse_process(
        self, entry: Callable, rank: int, args: tuple, invoker: int
    ) -> Process:
        """Start a DSE process (application coroutine) on this kernel."""
        from .api import ParallelAPI  # local import: api imports kernel types

        api = ParallelAPI(self, rank)
        race = self.cluster.sanitizer.race
        res = self._res

        def run() -> Generator[Event, Any, Any]:
            if race is not None:
                race.on_child_start(rank)
            if res is None:
                value = yield from entry(api, *args)
                # Completion is a synchronisation point: push out any combined
                # writes before the invoker learns this process is done.
                yield from self.gmem.flush()
            else:
                try:
                    value = yield from entry(api, *args)
                    yield from self.gmem.flush()
                except KernelUnavailableError as exc:
                    # A kernel this guest depended on died.  Report the task
                    # as lost (not failed) so the invoker can retry or roll
                    # back; the flush is skipped — it may target the corpse.
                    value = TaskLost(time=self.sim.now, detail=str(exc))
            if race is not None:
                # Publish the child's final clock before the invoker can
                # observe completion.
                race.on_child_done(rank)
            yield from self.procman.notify_done(rank, invoker, value)
            return value

        self.stats.counter("dse_processes").increment()
        return self.sim.process(run(), name=f"dse-proc:r{rank}")

    # -- resilience ------------------------------------------------------------
    def reboot(self) -> None:
        """Bring a crashed kernel back up with a fresh incarnation.

        Models a node restart: a new UNIX process runs the service loop, the
        DSE port is re-bound, and all kernel-local state (global-memory
        slice, lock/barrier tables, guest registry) starts empty — recovery
        of *contents* is the checkpoint layer's job."""
        if self.alive:
            raise DSEError(f"kernel {self.kernel_id} is already running")
        self.incarnation += 1
        self._shutdown = False
        self._handlers = set()
        self.unix_process = self.machine.spawn(
            self._body, name=f"dse-k{self.kernel_id}.r{self.incarnation}"
        )
        self.obs_tid = self.unix_process.pid
        self.exchange.rebind()
        self.gmem.lose_memory()
        self.sync.reset()
        self.procman.clear_guests()
        self.alive = True
        self.stats.counter("reboots").increment()

    # -- shutdown --------------------------------------------------------------
    def request_shutdown_of(self, target: int) -> Generator[Event, Any, None]:
        """Stop ``target``'s service loop (used by the runtime at teardown)."""
        msg = DSEMessage(
            msg_type=MsgType.SHUTDOWN_REQ,
            src_kernel=self.kernel_id,
            dst_kernel=target,
        )
        if target == self.kernel_id:
            # Deliver through our own socket so the service loop sees it.
            self.machine.transport.loopback(
                self.exchange.socket.port, msg, msg.size_bytes,
                src_port=self.exchange.socket.port,
            )
            yield from self.exchange._await_response(msg.seq)
        else:
            yield from self.exchange.request(msg)
