"""Message exchange mechanism (paper Figure 3, right-hand column).

Routes DSE messages between kernels:

* **own node** — a message whose destination is the *same kernel* never
  touches the OS: the paper's re-organisation put the DSE kernel and DSE
  process into one UNIX process precisely so this path is a library call.
  We charge only a small library-call cost and dispatch inline.
* **co-located kernel** — a kernel on the same machine (virtual cluster)
  is reached through the loopback path: full protocol processing, no wire.
* **remote kernel** — full path: syscalls, protocol processing, Ethernet.

``request`` implements the RPC pattern (send request, await the response
with a matching sequence number); ``notify`` is one-way; ``reply`` is used
by handlers, possibly long after the request arrived (deferred replies are
how distributed locks queue waiters).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, Tuple, TYPE_CHECKING

from ..errors import DSEError, KernelUnavailableError
from ..hardware.cpu import Work
from ..osmodel.sockets import Socket
from ..sim.core import Event
from ..sim.monitor import LazyStat, StatSet
from .messages import DSEMessage, MsgType, channel_of

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import DSEKernel

__all__ = ["MessageExchange", "DSE_BASE_PORT", "LOCAL_CALL_WORK"]

#: kernel *k* listens on DSE_BASE_PORT + k on its machine
DSE_BASE_PORT = 6200

#: cost of the library-call path for own-node messages (the win of the
#: paper's re-organisation: no syscall, no protocol processing)
LOCAL_CALL_WORK = Work(iops=200, mems=50)

#: application-level retry of RPCs on the unreliable dual-transport channel:
#: wait this long (simulated) for the response before re-sending the request
APP_RETRY_TIMEOUT = 0.025
#: re-sends before the RPC is declared failed (data-class requests are
#: idempotent, so a duplicate dispatch on the server is harmless)
APP_RETRY_LIMIT = 12


class MessageExchange:
    """One kernel's message exchange module."""

    # Per-message counters, looked up at their first use (see LazyStat).
    _c_requests_sent = LazyStat("requests_sent")
    _c_replies_sent = LazyStat("replies_sent")
    _c_bytes_out = LazyStat("bytes_out")
    _c_requests_received = LazyStat("requests_received")

    def __init__(self, kernel: "DSEKernel"):
        self.kernel = kernel
        self.sim = kernel.sim
        #: kernel id -> (station id, port)
        self.routes: Dict[int, Tuple[int, int]] = {}
        self.socket: Socket = kernel.machine.open_socket(
            kernel.unix_process, DSE_BASE_PORT + kernel.kernel_id
        )
        self.stats = StatSet(f"exchange:k{kernel.kernel_id}")
        self.obs = kernel.obs
        #: resilience manager (None when disabled — every hook below is one
        #: attribute load + identity test on the default path)
        self._res = getattr(kernel.cluster, "resilience", None)
        #: local membership view (only consulted when resilience is on)
        self._view = None if self._res is None else self._res.views[kernel.kernel_id]
        #: piggyback hook the monitor installs on its own kernel; called
        #: with the source kernel id of every inbound request
        self._on_message: Optional[Callable[[int], None]] = None
        #: in-flight remote RPC waits: seq -> (dst kernel, abort event)
        self._waiting: Dict[int, Tuple[int, Event]] = {}
        #: last simulated time anything was sent towards the monitor
        #: (kernel 0) — lets the heartbeat agent piggyback on real traffic
        self.last_sent_to_monitor = 0.0
        #: dual-channel transport: classify every message and retry
        #: unreliable-channel RPCs at the application level
        self._dual = getattr(kernel.machine.transport, "dual_channel", False)

    def add_route(self, kernel_id: int, station: int, port: int) -> None:
        self.routes[kernel_id] = (station, port)

    def route_of(self, kernel_id: int) -> Tuple[int, int]:
        try:
            return self.routes[kernel_id]
        except KeyError:
            raise DSEError(
                f"kernel {self.kernel.kernel_id} has no route to kernel {kernel_id}"
            ) from None

    # -- outgoing ----------------------------------------------------------
    def request(self, msg: DSEMessage) -> Generator[Event, Any, DSEMessage]:
        """Send a request and await its matching response."""
        if not msg.is_request:
            raise DSEError(f"request() called with non-request {msg.msg_type}")
        if (
            self._view is not None
            and msg.dst_kernel != self.kernel.kernel_id
            and not self._view.usable(msg.dst_kernel)
        ):
            self.stats.counter("requests_refused_dead").increment()
            raise KernelUnavailableError(
                f"kernel {self.kernel.kernel_id} refuses {msg.msg_type.value} "
                f"to crashed kernel {msg.dst_kernel}"
            )
        span = None
        if self.obs.enabled and msg.trace is not None:
            local = msg.dst_kernel == self.kernel.kernel_id
            span = self.obs.begin(
                self.sim.now,
                f"{'call' if local else 'rpc'}:{msg.msg_type.value}",
                "dse",
                self.kernel.obs_pid,
                self.kernel.obs_tid,
                msg.trace,
            )
            # Downstream layers (and the serving kernel) parent to the RPC.
            msg.trace = span.ctx
        if msg.dst_kernel == self.kernel.kernel_id:
            # Own node: the parallel processing library handles it inline.
            self.stats.counter("local_calls").increment()
            yield from self.kernel.unix_process.compute(LOCAL_CALL_WORK)
            response = yield from self.kernel.dispatch(msg)
            if response is None:
                # Deferred local reply (e.g. contended local lock): wait for
                # it to arrive on our own socket like any other response.
                response = yield from self._await_response(msg.seq)
            if span is not None:
                self.obs.end(span, self.sim.now)
            return response
        self._c_requests_sent.increment()
        if self._dual and channel_of(msg.msg_type) == "unreliable":
            # Data-class RPC on the raw channel: the transport gives no
            # delivery guarantee, so reliability lives here — resend the
            # (idempotent) request until its response arrives.
            response = yield from self._request_with_retry(msg)
            if span is not None:
                self.obs.end(span, self.sim.now)
            return response
        yield from self._transmit(msg)
        try:
            response = yield from self._await_response(msg.seq, dst=msg.dst_kernel)
        except KernelUnavailableError:
            if span is not None:
                self.obs.end(span, self.sim.now)
            raise
        if span is not None:
            self.obs.end(span, self.sim.now)
        return response

    def _request_with_retry(
        self, msg: DSEMessage
    ) -> Generator[Event, Any, DSEMessage]:
        """Transmit on the unreliable channel and await the response,
        re-sending on a timeout (at-least-once; requires idempotence).

        A duplicated request makes the server dispatch twice and answer
        twice; the spare response is left unclaimed in the mailbox, exactly
        like a duplicate datagram.  Exponential patience: attempt *n* waits
        ``n * APP_RETRY_TIMEOUT`` before the next resend."""
        seq = msg.seq
        match = (
            lambda p: isinstance(p.payload, DSEMessage)
            and p.payload.msg_type.is_response
            and p.payload.seq == seq
        )
        for attempt in range(1, APP_RETRY_LIMIT + 2):
            yield from self._transmit(msg)
            # The abort must be a plain Event: a Timeout is born triggered
            # (value pre-set, dispatch via the queue), so recv's fast-path
            # ``abort.triggered`` check would bail out immediately.
            deadline = self.sim.event(
                name=f"k{self.kernel.kernel_id}.rpc-deadline:{seq}"
            )
            timer = self.sim.timeout(attempt * APP_RETRY_TIMEOUT)
            timer.callbacks.append(
                lambda _ev, d=deadline: None if d.triggered else d.succeed()
            )
            packet = yield from self.socket.recv(filter=match, abort=deadline)
            if packet is not None:
                if attempt > 1:
                    self.stats.counter("rpc_retries_recovered").increment()
                return packet.payload
            if attempt <= APP_RETRY_LIMIT:
                self.stats.counter("rpc_retries").increment()
        raise DSEError(
            f"kernel {self.kernel.kernel_id} gave up on "
            f"{msg.msg_type.value} #{seq} to kernel {msg.dst_kernel} after "
            f"{APP_RETRY_LIMIT} unreliable-channel retries"
        )

    def notify(self, msg: DSEMessage) -> Generator[Event, Any, None]:
        """Send a one-way message (no response expected)."""
        if msg.dst_kernel == self.kernel.kernel_id:
            self.stats.counter("local_calls").increment()
            yield from self.kernel.unix_process.compute(LOCAL_CALL_WORK)
            response = yield from self.kernel.dispatch(msg)
            if response is not None:
                raise DSEError(f"notify of {msg.msg_type} produced a response")
            return
        self.stats.counter("notifies_sent").increment()
        yield from self._transmit(msg)

    def reply(self, response: DSEMessage) -> Generator[Event, Any, None]:
        """Send a response built with :meth:`DSEMessage.make_response`."""
        if not response.is_response:
            raise DSEError(f"reply() called with non-response {response.msg_type}")
        self._c_replies_sent.increment()
        if response.dst_kernel == self.kernel.kernel_id:
            # Deferred reply to a local requester: deliver via loopback so the
            # waiting coroutine's socket filter picks it up.
            self.kernel.machine.transport.loopback(
                self.socket.port, response, response.size_bytes,
                src_port=self.socket.port, trace=response.trace,
            )
            return
        yield from self._transmit(response)

    def _transmit(self, msg: DSEMessage) -> Generator[Event, Any, None]:
        """The socket's send generator for ``msg``; callers ``yield from`` it
        at once, so the bookkeeping here runs where it would in a wrapper."""
        station, port = self.route_of(msg.dst_kernel)
        if self._res is not None and msg.dst_kernel == self._res.monitor_id:
            # Any traffic towards the monitor doubles as a heartbeat.
            self.last_sent_to_monitor = self.sim.now
        size = msg.size_bytes
        self._c_bytes_out.increment(size)
        tracer = self.kernel.cluster.tracer
        if tracer.enabled:
            tracer.emit(
                self.sim.now,
                f"k{self.kernel.kernel_id}",
                "send",
                (msg.msg_type.value, msg.dst_kernel, size),
            )
        channel = channel_of(msg.msg_type) if self._dual else None
        return self.socket.sendto(
            station, port, msg, size, trace=msg.trace, channel=channel
        )

    def _await_response(
        self, seq: int, dst: Optional[int] = None
    ) -> Generator[Event, Any, DSEMessage]:
        match = (
            lambda p: isinstance(p.payload, DSEMessage)
            and p.payload.msg_type.is_response
            and p.payload.seq == seq
        )
        if self._res is None or dst is None:
            packet = yield from self.socket.recv(filter=match)
            return packet.payload
        # Resilient wait: the RPC is registered so the death of ``dst`` can
        # abort it (a datagram to a crashed kernel never gets a response).
        abort = self.sim.event(name=f"k{self.kernel.kernel_id}.rpc-abort:{seq}")
        self._waiting[seq] = (dst, abort)
        try:
            packet = yield from self.socket.recv(filter=match, abort=abort)
        finally:
            self._waiting.pop(seq, None)
        if packet is None:
            self.stats.counter("rpcs_aborted").increment()
            raise KernelUnavailableError(
                f"kernel {dst} was declared dead while kernel "
                f"{self.kernel.kernel_id} awaited response #{seq}"
            )
        return packet.payload

    def abort_waiting_to(self, dead: int) -> int:
        """Abort every in-flight RPC wait aimed at a dead kernel."""
        aborted = 0
        for seq in sorted(self._waiting):
            dst, abort = self._waiting[seq]
            if dst == dead and not abort.triggered:
                abort.succeed()
                aborted += 1
        return aborted

    # -- incoming -----------------------------------------------------------
    def next_request(self) -> Generator[Event, Any, DSEMessage]:
        """Receive the next inbound *request* (service-loop side)."""
        packet = yield from self.socket.recv(
            filter=lambda p: isinstance(p.payload, DSEMessage)
            and p.payload.msg_type.is_request
        )
        self._c_requests_received.increment()
        msg = packet.payload
        if self._on_message is not None:
            self._on_message(msg.src_kernel)
        tracer = self.kernel.cluster.tracer
        if tracer.enabled:
            tracer.emit(
                self.sim.now,
                f"k{self.kernel.kernel_id}",
                "recv",
                (msg.msg_type.value, msg.src_kernel, msg.size_bytes),
            )
        return msg

    def close(self) -> None:
        self.socket.close()

    def rebind(self) -> None:
        """Re-open the listening socket after a kernel reboot (resilience).

        The port is the same; only the owning UNIX process changed.  Inbound
        packets that arrived while the port was unbound were dropped by the
        transport (``packets_no_port``), exactly like datagrams to a dead
        host."""
        self.socket = self.kernel.machine.open_socket(
            self.kernel.unix_process, DSE_BASE_PORT + self.kernel.kernel_id
        )
