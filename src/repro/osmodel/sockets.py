"""Socket layer: costed send/receive bridging UNIX processes to transports.

Charges follow the paper's accounting of user-level DSE overheads:

* **send path** — ``sendto`` syscall + per-message and per-byte protocol
  processing on the sender's CPU, then the transport takes the wire.
* **receive path** — the arrival raises an (accounted) SIGIO, then the
  reader pays context switch + ``recvfrom`` syscall + protocol processing.

Each call submits its whole charge as one CPU burst, counted as one
syscall (:meth:`UnixProcess.syscall_burst`) and yielded directly, summed
left to right with the per-message part computed once per socket::

    sendto: sendto + protocol_per_message + protocol_per_byte * bytes
    recv:   signal_delivery + context_switch + recvfrom
            + protocol_per_message + protocol_per_byte * bytes

When observability is enabled (``ClusterConfig(obs_trace=True)``) and the
caller supplies a trace context, both paths record spans: ``sock.send``
covers syscall + protocol processing + transport hand-off, ``sock.recv``
covers SIGIO wake-up through ``recvfrom``, with a ``sigio`` instant marking
the asynchronous notification itself.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..errors import OSModelError
from ..obs.spans import NULL_RECORDER
from ..protocol.packet import Packet
from ..protocol.udp import Mailbox
from ..sim.core import Event
from ..sim.monitor import LazyStat
from .syscall import syscall_cost
from .unixproc import UnixProcess

__all__ = ["Socket"]


class Socket:
    """A bound datagram/reliable socket owned by one UNIX process."""

    _c_msgs_sent = LazyStat("msgs_sent", stats="machine.stats")
    _c_bytes_sent = LazyStat("bytes_sent", stats="machine.stats")
    _c_msgs_received = LazyStat("msgs_received", stats="machine.stats")
    _c_bytes_received = LazyStat("bytes_received", stats="machine.stats")

    def __init__(self, proc: UnixProcess, port: int):
        self.proc = proc
        self.port = port
        self.machine = proc.machine
        self.mailbox: Mailbox = self.machine.transport.bind(port)
        self.closed = False
        costs = proc.platform.os_costs
        self._per_byte = costs.protocol_per_byte
        #: the per-message part of each call's one burst (module docstring)
        self._send_cost = syscall_cost(costs.syscall, "sendto") + costs.protocol_per_message
        self._recv_cost = (costs.signal_delivery + costs.context_switch
                           + syscall_cost(costs.syscall, "recvfrom") + costs.protocol_per_message)
        self.machine.stats.counter("sockets_open").increment()
        self.obs = getattr(proc.sim, "obs", None) or NULL_RECORDER
        self._obs_pid = self.machine.station_id
        self._obs_tid = proc.pid

    # -- send --------------------------------------------------------------
    def sendto(
        self,
        dst_station: int,
        dst_port: int,
        payload: Any,
        payload_bytes: int,
        trace: Any = None,
        channel: Optional[str] = None,
    ) -> Generator[Event, Any, None]:
        """Send one message; completes when handed to the NIC (datagram) or
        acknowledged (reliable transport).

        ``channel`` selects the dual-channel lane ("reliable" or
        "unreliable") when the machine runs the ``dual`` transport; it is
        ignored (with a counter) on single-channel transports so callers
        can classify unconditionally.
        """
        self._check_open()
        span = None
        if self.obs.enabled and trace is not None:
            span = self.obs.begin(
                self.proc.sim.now, "sock.send", "os", self._obs_pid, self._obs_tid, trace
            )
            trace = span.ctx
        burst = self.proc.syscall_burst(self._send_cost + self._per_byte * payload_bytes)
        if burst is not None:
            yield burst
        self._c_msgs_sent.increment()
        self._c_bytes_sent.increment(payload_bytes)
        if dst_station == self.machine.station_id:
            # Same machine (virtual cluster): loopback, no wire — channels
            # are indistinguishable on the loss-free local path.
            self.machine.transport.loopback(
                dst_port, payload, payload_bytes, src_port=self.port, trace=trace
            )
        elif channel is not None and getattr(
            self.machine.transport, "dual_channel", False
        ):
            yield from self.machine.transport.send(
                dst_station, dst_port, payload, payload_bytes,
                src_port=self.port, trace=trace, channel=channel,
            )
        else:
            if channel is not None:
                self.machine.stats.counter("channel_hints_ignored").increment()
            yield from self.machine.transport.send(
                dst_station, dst_port, payload, payload_bytes,
                src_port=self.port, trace=trace,
            )
        if span is not None:
            self.obs.end(span, self.proc.sim.now)

    # -- receive ------------------------------------------------------------
    def recv(
        self,
        filter: Optional[Callable[[Packet], bool]] = None,
        abort: Optional[Event] = None,
    ) -> Generator[Event, Any, Optional[Packet]]:
        """Block for the next (matching) packet, then pay the receive path.

        ``abort`` (resilience layer) is an event that cancels the wait: if
        it triggers before a packet matches, the pending mailbox claim is
        withdrawn — it must never steal a later packet from another reader —
        and ``None`` is returned without charging receive costs.
        """
        self._check_open()
        if abort is None:
            packet = yield self.mailbox.get(filter)
        else:
            if abort.triggered:
                return None
            getter = self.mailbox.get(filter)
            outcome = yield self.proc.sim.any_of([getter, abort])
            if getter not in outcome:
                try:
                    self.mailbox.queue._getters.remove(getter)
                except ValueError:  # pragma: no cover - raced with a match
                    pass
                return None
            packet = outcome[getter]
        span = None
        if self.obs.enabled and packet.trace is not None:
            now = self.proc.sim.now
            self.obs.instant(now, "sigio", "os", self._obs_pid, self._obs_tid, packet.trace)
            span = self.obs.begin(now, "sock.recv", "os", self._obs_pid, self._obs_tid, packet.trace)
        burst = self.proc.syscall_burst(self._recv_cost + self._per_byte * packet.payload_bytes)
        if burst is not None:
            yield burst
        self._c_msgs_received.increment()
        self._c_bytes_received.increment(packet.payload_bytes)
        if span is not None:
            self.obs.end(span, self.proc.sim.now)
        return packet

    def poll(self) -> int:
        """Number of packets waiting (select()-style, uncosted)."""
        self._check_open()
        return len(self.mailbox)

    def on_arrival(self, callback: Optional[Callable[[Packet], None]]) -> None:
        """Install the async-I/O notification hook (SIGIO analogue)."""
        self.mailbox.on_arrival = callback

    def close(self) -> None:
        if not self.closed:
            self.machine.transport.unbind(self.port)
            self.closed = True
            self.machine.stats.counter("sockets_open").increment(-1)

    def _check_open(self) -> None:
        if self.closed:
            raise OSModelError(f"socket port {self.port} is closed")
