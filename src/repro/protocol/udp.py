"""Datagram (UDP-like) transport service.

One :class:`DatagramService` sits on each station's NIC.  Sending fragments
a packet into MTU-sized frames and enqueues them; the receiving service
reassembles and delivers the packet into the bound port's mailbox (a
:class:`repro.sim.Store`), optionally notifying an async-I/O callback — the
hook the OS model uses for SIGIO delivery, mirroring DSE's use of
asynchronous I/O mode interruption.

Timing note: *protocol processing* CPU cost is charged by the OS socket
layer (it depends on the platform); this module models wire behaviour only.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, Tuple

from ..errors import ProtocolError
from ..network.frame import ETH_MTU, EthernetFrame
from ..network.nic import NIC
from ..obs.spans import NET_TID, NULL_RECORDER
from ..sim.core import Event, Simulator
from ..sim.monitor import LazyStat, StatSet
from ..sim.resources import Store
from .packet import Fragment, Packet, fragment_sizes

__all__ = ["DatagramService", "Mailbox"]


class Mailbox:
    """Received-packet queue for one bound port."""

    def __init__(self, sim: Simulator, station: int, port: int):
        self.station = station
        self.port = port
        self.queue: Store = Store(sim, name=f"mbox:{station}:{port}")
        #: invoked (packet) on arrival *before* queueing — OS async-I/O hook
        self.on_arrival: Optional[Callable[[Packet], None]] = None

    def get(self, filter: Optional[Callable[[Packet], bool]] = None):
        """Event for the next (matching) packet."""
        return self.queue.get(filter)

    def __len__(self) -> int:
        return len(self.queue)


class DatagramService:
    """Unreliable, unordered-per-peer* datagram service over one NIC.

    (*) In practice delivery is in-order because the simulated fabrics do
    not reorder; the service still tolerates interleaved fragments from
    different packets.
    """

    _c_packets_sent = LazyStat("packets_sent")
    _c_bytes_sent = LazyStat("bytes_sent")
    _c_fragments_sent = LazyStat("fragments_sent")
    _c_loopback_packets = LazyStat("loopback_packets")
    _c_packets_received = LazyStat("packets_received")
    _c_bytes_received = LazyStat("bytes_received")

    def __init__(self, sim: Simulator, nic: NIC, mtu: int = ETH_MTU):
        self.sim = sim
        self.nic = nic
        self.mtu = mtu
        self.station = nic.station_id
        self._ports: Dict[int, Mailbox] = {}
        self._reassembly: Dict[Tuple[int, int], Dict[int, Fragment]] = {}
        self.stats = StatSet(f"udp:{self.station}")
        self.obs = getattr(sim, "obs", None) or NULL_RECORDER
        nic.on_receive(self._on_frame)

    # -- ports ------------------------------------------------------------
    def bind(self, port: int) -> Mailbox:
        if port in self._ports:
            raise ProtocolError(f"port {port} already bound on station {self.station}")
        mailbox = Mailbox(self.sim, self.station, port)
        self._ports[port] = mailbox
        return mailbox

    def unbind(self, port: int) -> None:
        if port not in self._ports:
            raise ProtocolError(f"port {port} is not bound on station {self.station}")
        del self._ports[port]

    def mailbox(self, port: int) -> Mailbox:
        try:
            return self._ports[port]
        except KeyError:
            raise ProtocolError(f"port {port} is not bound on station {self.station}") from None

    # -- send ----------------------------------------------------------------
    def send(
        self,
        dst: int,
        dst_port: int,
        payload: Any,
        payload_bytes: int,
        src_port: int = 0,
        trace: Any = None,
    ) -> Generator[Event, Any, Packet]:
        """Fragment + enqueue a packet; completes when all fragments queued.

        Suspends only while the NIC's ring is full; a fragment the ring
        takes at once costs no yield."""
        span = None
        if self.obs.enabled and trace is not None:
            span = self.obs.begin(
                self.sim.now, "udp.send", "net", self.station, NET_TID, trace
            )
            trace = span.ctx
        packet = Packet(
            src=self.station,
            dst=dst,
            src_port=src_port,
            dst_port=dst_port,
            payload=payload,
            payload_bytes=payload_bytes,
            trace=trace,
        )
        sizes = fragment_sizes(payload_bytes, self.mtu)
        total = len(sizes)
        self._c_packets_sent.increment()
        self._c_bytes_sent.increment(payload_bytes)
        self._c_fragments_sent.increment(total)
        for index, size in enumerate(sizes):
            fragment = Fragment(packet=packet, index=index, total=total, data_bytes=size)
            frame = EthernetFrame(
                src=self.station,
                dst=dst,
                payload=fragment,
                payload_bytes=fragment.wire_payload_bytes,
                trace=trace,
            )
            queued = self.nic.enqueue(frame)
            if queued.callbacks is not None:  # the ring is full: wait for room
                yield queued
        if span is not None:
            self.obs.end(span, self.sim.now)
        return packet

    def loopback(
        self,
        dst_port: int,
        payload: Any,
        payload_bytes: int,
        src_port: int = 0,
        trace: Any = None,
    ) -> Packet:
        """Deliver a packet to a local port without touching the wire.

        Used for kernel-to-kernel traffic between processes co-located on
        one machine (the paper's virtual cluster): protocol processing is
        still paid by the caller, the bus is not.
        """
        packet = Packet(
            src=self.station,
            dst=self.station,
            src_port=src_port,
            dst_port=dst_port,
            payload=payload,
            payload_bytes=payload_bytes,
            trace=trace,
        )
        self._c_loopback_packets.increment()
        self._deliver(packet)
        return packet

    # -- receive ----------------------------------------------------------
    def _on_frame(self, frame: EthernetFrame) -> None:
        fragment = frame.payload
        if not isinstance(fragment, Fragment):  # pragma: no cover - foreign traffic
            return
        packet = fragment.packet
        if fragment.total == 1:
            self._deliver(packet)
            return
        key = (packet.src, packet.packet_id)
        parts = self._reassembly.setdefault(key, {})
        parts[fragment.index] = fragment
        if len(parts) == fragment.total:
            del self._reassembly[key]
            self._deliver(packet)

    def _deliver(self, packet: Packet) -> None:
        mailbox = self._ports.get(packet.dst_port)
        if mailbox is None:
            self.stats.counter("packets_no_port").increment()
            return
        self._c_packets_received.increment()
        self._c_bytes_received.increment(packet.payload_bytes)
        if mailbox.on_arrival is not None:
            mailbox.on_arrival(packet)
        mailbox.queue.put(packet)
