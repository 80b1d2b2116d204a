"""Tests for the transport layer: fragmentation, datagram, reliable."""

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.network import NIC, EthernetBus, EthernetFrame, ETH_MTU
from repro.protocol import (
    DatagramService,
    Packet,
    ReliableService,
    UDP_HEADER_BYTES,
    fragment_sizes,
    make_transport,
)
from repro.sim import RandomStreams, Simulator


def make_pair(sim, kind="datagram", n=2):
    """Two (or n) stations on one bus with the requested transport."""
    bus = EthernetBus(sim, RandomStreams(7))
    out = []
    for i in range(n):
        nic = NIC(sim, bus, i)
        out.append(make_transport(sim, nic, kind))
    return bus, out


# ------------------------------------------------------------- fragmentation
def test_fragment_sizes_small():
    assert fragment_sizes(100) == [100]


def test_fragment_sizes_zero_payload_one_fragment():
    assert fragment_sizes(0) == [0]


def test_fragment_sizes_exact_boundary():
    usable = ETH_MTU - UDP_HEADER_BYTES
    assert fragment_sizes(usable) == [usable]
    assert fragment_sizes(usable + 1) == [usable, 1]


def test_fragment_sizes_total_preserved():
    for n in (1, 1000, 5000, 123457):
        assert sum(fragment_sizes(n)) == n


def test_fragment_sizes_tiny_mtu_rejected():
    with pytest.raises(ProtocolError):
        fragment_sizes(10, mtu=UDP_HEADER_BYTES)


def test_packet_port_validation():
    with pytest.raises(ProtocolError):
        Packet(src=0, dst=1, src_port=0, dst_port=70000, payload=None, payload_bytes=0)


# ------------------------------------------------------------- datagram
def test_datagram_roundtrip():
    sim = Simulator()
    _, (a, b) = make_pair(sim)
    mbox = b.bind(9)

    def sender():
        yield from a.send(1, 9, {"op": "ping"}, 64)

    def receiver():
        pkt = yield mbox.get()
        return pkt.payload

    sim.process(sender())
    p = sim.process(receiver())
    assert sim.run(p) == {"op": "ping"}


def test_datagram_large_payload_fragments_and_reassembles():
    sim = Simulator()
    _, (a, b) = make_pair(sim)
    mbox = b.bind(5)
    nbytes = 10_000  # > 6 fragments

    def sender():
        yield from a.send(1, 5, "big", nbytes)

    def receiver():
        pkt = yield mbox.get()
        return pkt

    sim.process(sender())
    pkt = sim.run(sim.process(receiver()))
    assert pkt.payload == "big"
    assert pkt.payload_bytes == nbytes
    assert a.stats.counter("fragments_sent").value >= 7
    # exactly one packet delivered despite many fragments
    assert b.stats.counter("packets_received").value == 1


def test_datagram_send_blocks_on_a_full_ring_and_sends_in_order():
    """With a one-frame ring, a multi-fragment send waits for room (and
    returns only once its last fragment is queued), and every fragment of
    both packets goes out in order."""
    sim = Simulator()
    bus = EthernetBus(sim, RandomStreams(7))
    nic_a = NIC(sim, bus, 0, tx_queue_depth=1)
    nic_b = NIC(sim, bus, 1)
    a, b = DatagramService(sim, nic_a), DatagramService(sim, nic_b)
    mbox = b.bind(5)
    wire = []
    deliver = nic_b._rx_callback
    nic_b.on_receive(lambda f: (wire.append((f.payload.packet.payload, f.payload.index)),
                                deliver(f)))
    returned = {}

    def sender():
        yield from a.send(1, 5, "big", 5 * (ETH_MTU - UDP_HEADER_BYTES))
        returned["big"] = sim.now
        yield from a.send(1, 5, "small", 64)
        returned["small"] = sim.now

    sim.process(sender())
    sim.run_all()
    assert wire == [("big", i) for i in range(5)] + [("small", 0)]
    assert [pkt.payload for pkt in mbox.queue.items] == ["big", "small"]
    # fragments 2-4 had to wait for the ring: the send returned later
    assert returned["big"] > 0.0
    assert returned["big"] <= returned["small"]
    assert nic_a.stats.counter("tx_done").value == 6


def test_datagram_multiple_ports_independent():
    sim = Simulator()
    _, (a, b) = make_pair(sim)
    m1, m2 = b.bind(1), b.bind(2)

    def sender():
        yield from a.send(1, 2, "to-2", 10)
        yield from a.send(1, 1, "to-1", 10)

    def recv(m):
        pkt = yield m.get()
        return pkt.payload

    sim.process(sender())
    p1 = sim.process(recv(m1))
    p2 = sim.process(recv(m2))
    assert sim.run(p1) == "to-1"
    assert sim.run(p2) == "to-2"


def test_datagram_unbound_port_drops():
    sim = Simulator()
    _, (a, b) = make_pair(sim)

    def sender():
        yield from a.send(1, 42, "lost", 10)

    sim.process(sender())
    sim.run_all()
    assert b.stats.counter("packets_no_port").value == 1


def test_datagram_double_bind_rejected():
    sim = Simulator()
    _, (a, _b) = make_pair(sim)
    a.bind(3)
    with pytest.raises(ProtocolError):
        a.bind(3)


def test_datagram_unbind():
    sim = Simulator()
    _, (a, _b) = make_pair(sim)
    a.bind(3)
    a.unbind(3)
    a.bind(3)  # rebindable
    with pytest.raises(ProtocolError):
        a.unbind(99)


def test_datagram_on_arrival_hook_fires_before_queue():
    sim = Simulator()
    _, (a, b) = make_pair(sim)
    mbox = b.bind(9)
    hooks = []
    mbox.on_arrival = lambda pkt: hooks.append(pkt.payload)

    def sender():
        yield from a.send(1, 9, "sig", 10)

    sim.process(sender())
    sim.run_all()
    assert hooks == ["sig"]
    assert len(mbox) == 1


def test_datagram_filtered_get():
    sim = Simulator()
    _, (a, b) = make_pair(sim)
    mbox = b.bind(9)

    def sender():
        yield from a.send(1, 9, ("req", 1), 10)
        yield from a.send(1, 9, ("rsp", 2), 10)

    def receiver():
        pkt = yield mbox.get(filter=lambda p: p.payload[0] == "rsp")
        return pkt.payload

    sim.process(sender())
    assert sim.run(sim.process(receiver())) == ("rsp", 2)


def test_datagram_interleaved_fragments_from_two_senders():
    sim = Simulator()
    _, (a, b, c) = make_pair(sim, n=3)
    mbox = c.bind(7)

    def sender(svc, tag):
        yield from svc.send(2, 7, tag, 6000)

    def receiver():
        got = []
        for _ in range(2):
            pkt = yield mbox.get()
            got.append(pkt.payload)
        return sorted(got)

    sim.process(sender(a, "from-a"))
    sim.process(sender(b, "from-b"))
    assert sim.run(sim.process(receiver())) == ["from-a", "from-b"]


# ------------------------------------------------------------- reliable
def test_reliable_roundtrip():
    sim = Simulator()
    _, (a, b) = make_pair(sim, kind="reliable")
    mbox = b.bind(4)

    def sender():
        yield from a.send(1, 4, "must-arrive", 128)
        return "acked"

    def receiver():
        pkt = yield mbox.get()
        return pkt.payload

    ps = sim.process(sender())
    pr = sim.process(receiver())
    assert sim.run(pr) == "must-arrive"
    assert sim.run(ps) == "acked"
    assert a.stats.counter("retransmissions").value == 0


def test_reliable_in_order_stream():
    sim = Simulator()
    _, (a, b) = make_pair(sim, kind="reliable")
    mbox = b.bind(4)

    def sender():
        for i in range(5):
            yield from a.send(1, 4, i, 32)

    def receiver():
        got = []
        for _ in range(5):
            pkt = yield mbox.get()
            got.append(pkt.payload)
        return got

    sim.process(sender())
    assert sim.run(sim.process(receiver())) == [0, 1, 2, 3, 4]


def test_reliable_retransmits_on_loss():
    """Drop the first data segment at the link layer; the reliable layer
    must retransmit and still deliver exactly once."""
    sim = Simulator()
    bus = EthernetBus(sim, RandomStreams(7))
    nic_a, nic_b = NIC(sim, bus, 0), NIC(sim, bus, 1)
    a = ReliableService(sim, DatagramService(sim, nic_a), retransmit_timeout=0.01)
    b = ReliableService(sim, DatagramService(sim, nic_b))
    mbox = b.bind(4)

    # Sabotage: swallow the first data frame before the datagram layer sees it.
    real_cb = nic_b._rx_callback
    dropped = []

    def lossy(frame):
        frag = frame.payload
        if not dropped and getattr(frag.packet.payload, "kind", "") == "data":
            dropped.append(frame)
            return
        real_cb(frame)

    nic_b.on_receive(lossy)

    def sender():
        yield from a.send(1, 4, "persistent", 64)

    def receiver():
        pkt = yield mbox.get()
        return pkt.payload

    sim.process(sender())
    assert sim.run(sim.process(receiver())) == "persistent"
    assert dropped, "test harness should have dropped one frame"
    assert a.stats.counter("retransmissions").value >= 1
    assert b.stats.counter("delivered").value == 1


def test_reliable_duplicate_suppression():
    """A lost *ack* causes a retransmission the receiver must drop."""
    sim = Simulator()
    bus = EthernetBus(sim, RandomStreams(7))
    nic_a, nic_b = NIC(sim, bus, 0), NIC(sim, bus, 1)
    a = ReliableService(sim, DatagramService(sim, nic_a), retransmit_timeout=0.01)
    b = ReliableService(sim, DatagramService(sim, nic_b))
    mbox = b.bind(4)

    real_cb = nic_a._rx_callback
    dropped = []

    def lossy(frame):
        frag = frame.payload
        if not dropped and getattr(frag.packet.payload, "kind", "") == "ack":
            dropped.append(frame)
            return
        real_cb(frame)

    nic_a.on_receive(lossy)

    def sender():
        yield from a.send(1, 4, "once", 64)

    def receiver():
        pkt = yield mbox.get()
        return pkt.payload

    sim.process(sender())
    assert sim.run(sim.process(receiver())) == "once"
    sim.run_all()
    assert dropped
    assert b.stats.counter("duplicates_dropped").value >= 1
    assert b.stats.counter("delivered").value == 1


def test_reliable_gives_up_after_max_retries():
    sim = Simulator()
    bus = EthernetBus(sim, RandomStreams(7))
    nic_a, nic_b = NIC(sim, bus, 0), NIC(sim, bus, 1)
    a = ReliableService(
        sim, DatagramService(sim, nic_a), retransmit_timeout=0.001, max_retries=2
    )
    b = ReliableService(sim, DatagramService(sim, nic_b))
    b.bind(4)
    nic_b.on_receive(lambda frame: None)  # black hole

    def sender():
        yield from a.send(1, 4, "void", 64)

    p = sim.process(sender())
    with pytest.raises(ProtocolError, match="failed after"):
        sim.run(p)


def test_reliable_port_range_guard():
    sim = Simulator()
    _, (a, _b) = make_pair(sim, kind="reliable")
    with pytest.raises(ProtocolError):
        a.bind(40000)


def test_make_transport_unknown_kind():
    sim = Simulator()
    bus = EthernetBus(sim, RandomStreams(7))
    nic = NIC(sim, bus, 0)
    with pytest.raises(ConfigurationError):
        make_transport(sim, nic, "carrier-pigeon")
