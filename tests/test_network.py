"""Tests for frames, the CSMA/CD bus, the switched LAN, and NICs."""

import pytest

from repro.errors import NetworkError
from repro.network import (
    BROADCAST,
    ETH_MIN_PAYLOAD,
    ETH_MTU,
    EthernetBus,
    EthernetFrame,
    FabricConfig,
    NIC,
    SEND_OK,
    SwitchedLAN,
    build_network,
)
from repro.sim import RandomStreams, Simulator


def make_bus(sim, **kw):
    return EthernetBus(sim, RandomStreams(1234), **kw)


def ignore(_status):
    pass


def transmit_at(fabric, start, frame, done=ignore):
    """Hand ``frame`` to ``fabric`` at simulated time ``start``."""
    fabric.sim.timeout(start).callbacks.append(lambda _ev: fabric.transmit(frame, done))


def transmit_each(fabric, frames):
    """Send ``frames`` in order, each from the last one's completion."""
    frames = iter(frames)

    def next_frame(_status=None):
        frame = next(frames, None)
        if frame is not None:
            fabric.transmit(frame, next_frame)

    next_frame()


# ---------------------------------------------------------------- frames
def test_frame_wire_size_includes_padding():
    f = EthernetFrame(src=0, dst=1, payload=None, payload_bytes=1)
    assert f.wire_bytes == ETH_MIN_PAYLOAD + 18 + 8


def test_frame_wire_size_large_payload():
    f = EthernetFrame(src=0, dst=1, payload=None, payload_bytes=1000)
    assert f.wire_bytes == 1000 + 26


def test_frame_rejects_oversized_payload():
    with pytest.raises(NetworkError):
        EthernetFrame(src=0, dst=1, payload=None, payload_bytes=ETH_MTU + 1)


def test_frame_rejects_negative_size():
    with pytest.raises(NetworkError):
        EthernetFrame(src=0, dst=1, payload=None, payload_bytes=-1)


def test_frame_ids_unique():
    a = EthernetFrame(src=0, dst=1, payload=None, payload_bytes=10)
    b = EthernetFrame(src=0, dst=1, payload=None, payload_bytes=10)
    assert a.frame_id != b.frame_id


# ---------------------------------------------------------------- bus basics
def test_bus_single_transmission_delivers():
    sim = Simulator()
    bus = make_bus(sim)
    received = []
    bus.attach(0, lambda f: None)
    bus.attach(1, received.append)

    statuses = []
    bus.transmit(EthernetFrame(src=0, dst=1, payload="hello", payload_bytes=100),
                 statuses.append)
    assert statuses == []  # done never runs inside transmit
    sim.run_all()
    assert statuses == [SEND_OK]
    assert len(received) == 1
    assert received[0].payload == "hello"


def test_bus_transmission_takes_wire_time():
    sim = Simulator()
    bus = make_bus(sim)
    bus.attach(0, lambda f: None)
    bus.attach(1, lambda f: None)
    frame = EthernetFrame(src=0, dst=1, payload=None, payload_bytes=1000)
    expected_tx = frame.wire_bytes * 8 / 10e6

    done_at = []
    bus.transmit(frame, lambda _status: done_at.append(sim.now))
    sim.run_all()
    # collision window + transmission time
    assert done_at == [pytest.approx(bus.collision_window + expected_tx)]


def test_bus_broadcast_reaches_all_but_sender():
    sim = Simulator()
    bus = make_bus(sim)
    received = {i: [] for i in range(4)}
    for i in range(4):
        bus.attach(i, received[i].append)

    bus.transmit(EthernetFrame(src=2, dst=BROADCAST, payload="b", payload_bytes=50), ignore)
    sim.run_all()
    assert [len(received[i]) for i in range(4)] == [1, 1, 0, 1]


def test_bus_unknown_station_rejected():
    sim = Simulator()
    bus = make_bus(sim)
    bus.attach(0, lambda f: None)

    with pytest.raises(NetworkError):
        bus.transmit(EthernetFrame(src=0, dst=9, payload=None, payload_bytes=10), ignore)
    with pytest.raises(NetworkError):
        bus.transmit(EthernetFrame(src=9, dst=0, payload=None, payload_bytes=10), ignore)


def test_bus_duplicate_attach_rejected():
    sim = Simulator()
    bus = make_bus(sim)
    bus.attach(0, lambda f: None)
    with pytest.raises(NetworkError):
        bus.attach(0, lambda f: None)


def test_bus_serialises_senders():
    """Two stations sending back-to-back must not overlap on the wire."""
    sim = Simulator()
    bus = make_bus(sim)
    deliveries = []
    bus.attach(0, lambda f: None)
    bus.attach(1, lambda f: None)
    bus.attach(2, lambda f: deliveries.append((sim.now, f.src)))

    def sender(src, start):
        transmit_at(bus, start, EthernetFrame(src=src, dst=2, payload=None, payload_bytes=1000))

    # Stagger so they do NOT collide: station 1 starts while 0 transmits,
    # senses carrier, and defers.
    sender(0, 0.0)
    sender(1, 0.0005)
    sim.run_all()
    assert len(deliveries) == 2
    tx = (1000 + 26) * 8 / 10e6
    gap = deliveries[1][0] - deliveries[0][0]
    assert gap >= tx  # second frame fully after the first


def test_bus_simultaneous_senders_collide_then_recover():
    sim = Simulator()
    bus = make_bus(sim)
    deliveries = []
    bus.attach(0, lambda f: None)
    bus.attach(1, lambda f: None)
    bus.attach(2, lambda f: deliveries.append(f.src))

    for src in (0, 1):
        bus.transmit(EthernetFrame(src=src, dst=2, payload=None, payload_bytes=200), ignore)
    sim.run_all()
    assert sorted(deliveries) == [0, 1]
    assert bus.stats.counter("collisions").value >= 1
    assert bus.collision_rate() > 0


def test_bus_many_contenders_eventually_all_deliver():
    sim = Simulator()
    bus = make_bus(sim)
    n = 8
    deliveries = []
    for i in range(n):
        bus.attach(i, lambda f: None)
    bus.attach(n, lambda f: deliveries.append(f.src))

    for i in range(n):
        bus.transmit(EthernetFrame(src=i, dst=n, payload=None, payload_bytes=100), ignore)
    sim.run_all()
    assert sorted(deliveries) == list(range(n))


def test_bus_backoffs_grow_with_offered_load():
    """More simultaneous talkers => each frame suffers more collisions
    before it gets through (counted as per-station backoff events)."""

    def run(n_stations, n_msgs):
        sim = Simulator()
        bus = make_bus(sim)
        sink = n_stations
        for i in range(n_stations + 1):
            bus.attach(i, lambda f: None)

        for i in range(n_stations):
            transmit_each(bus, [EthernetFrame(src=i, dst=sink, payload=None, payload_bytes=64)
                                for _ in range(n_msgs)])
        sim.run_all()
        sent = bus.stats.counter("frames_sent").value
        assert sent == n_stations * n_msgs
        return bus.stats.counter("backoffs").value / sent

    light = run(2, 5)
    heavy = run(10, 5)
    assert heavy > light


def test_bus_utilization_tracked():
    sim = Simulator()
    bus = make_bus(sim)
    bus.attach(0, lambda f: None)
    bus.attach(1, lambda f: None)

    bus.transmit(EthernetFrame(src=0, dst=1, payload=None, payload_bytes=1500), ignore)
    sim.run_all()
    assert bus.utilization.average(sim.now) > 0


# ---------------------------------------------------------------- switch
def test_switch_delivers_without_collisions():
    sim = Simulator()
    lan = SwitchedLAN(sim)
    received = []
    lan.attach(0, lambda f: None)
    lan.attach(1, received.append)

    statuses = []
    lan.transmit(EthernetFrame(src=0, dst=1, payload="x", payload_bytes=500), statuses.append)
    assert statuses == []  # done never runs inside transmit
    sim.run_all()
    assert statuses == [SEND_OK]
    assert len(received) == 1
    assert lan.collision_rate() == 0.0


def test_switch_concurrent_distinct_pairs_overlap():
    """0->1 and 2->3 must proceed in parallel (full duplex, no shared bus)."""
    sim = Simulator()
    lan = SwitchedLAN(sim)
    finish = {}
    for i in range(4):
        lan.attach(i, lambda f, i=i: finish.setdefault(i, sim.now))

    for src, dst in ((0, 1), (2, 3)):
        lan.transmit(EthernetFrame(src=src, dst=dst, payload=None, payload_bytes=1500), ignore)
    sim.run_all()
    # Both deliveries complete at (almost) the same time: serialisation
    # happened on distinct links.
    assert abs(finish[1] - finish[3]) < 1e-9


def test_switch_same_downlink_serialises():
    sim = Simulator()
    lan = SwitchedLAN(sim)
    arrivals = []
    for i in range(3):
        lan.attach(i, lambda f: arrivals.append(sim.now) if f.dst == 2 else None)

    for src in (0, 1):
        lan.transmit(EthernetFrame(src=src, dst=2, payload=None, payload_bytes=1500), ignore)
    sim.run_all()
    tx = (1500 + 26) * 8 / 10e6
    assert len(arrivals) == 2
    assert arrivals[1] - arrivals[0] >= tx * 0.99


def test_switch_cut_through_beats_store_and_forward():
    """Cut-through forwarding (default) delivers strictly earlier than
    store-and-forward: the downlink starts after the header, not the
    whole frame."""
    arrivals = {}
    for cut_through in (True, False):
        sim = Simulator()
        lan = SwitchedLAN(sim, cut_through=cut_through)
        lan.attach(0, lambda f: None)
        lan.attach(1, lambda f: arrivals.setdefault(cut_through, sim.now))

        lan.transmit(EthernetFrame(src=0, dst=1, payload=None, payload_bytes=1500), ignore)
        sim.run_all()
    tx = (1500 + 26) * 8 / 10e6
    assert arrivals[True] < arrivals[False]
    # The gap is the full-frame buffering minus the header time.
    assert arrivals[False] - arrivals[True] == pytest.approx(tx - lan.header_time)


def test_switch_broadcast():
    sim = Simulator()
    lan = SwitchedLAN(sim)
    got = []
    for i in range(3):
        lan.attach(i, lambda f, i=i: got.append(i))

    lan.transmit(EthernetFrame(src=0, dst=BROADCAST, payload=None, payload_bytes=64), ignore)
    sim.run_all()
    assert sorted(got) == [1, 2]


# ---------------------------------------------------------------- NIC
def test_nic_enqueue_and_deliver():
    sim = Simulator()
    bus = make_bus(sim)
    nic0 = NIC(sim, bus, 0)
    nic1 = NIC(sim, bus, 1)
    got = []
    nic1.on_receive(got.append)

    def sender():
        yield nic0.enqueue(EthernetFrame(src=0, dst=1, payload="via-nic", payload_bytes=77))

    sim.process(sender())
    sim.run_all()
    assert len(got) == 1 and got[0].payload == "via-nic"
    assert nic0.stats.counter("tx_done").value == 1
    assert nic1.stats.counter("rx_frames").value == 1


def test_nic_rejects_foreign_source():
    sim = Simulator()
    bus = make_bus(sim)
    nic0 = NIC(sim, bus, 0)
    NIC(sim, bus, 1)
    with pytest.raises(NetworkError):
        nic0.enqueue(EthernetFrame(src=1, dst=0, payload=None, payload_bytes=10))


def test_nic_without_callback_queues_frames():
    sim = Simulator()
    bus = make_bus(sim)
    nic0 = NIC(sim, bus, 0)
    nic1 = NIC(sim, bus, 1)

    def sender():
        yield nic0.enqueue(EthernetFrame(src=0, dst=1, payload="q", payload_bytes=10))

    sim.process(sender())
    sim.run_all()
    assert len(nic1.rx_queue) == 1


def test_nic_fifo_transmission_order():
    sim = Simulator()
    bus = make_bus(sim)
    nic0 = NIC(sim, bus, 0)
    nic1 = NIC(sim, bus, 1)
    got = []
    nic1.on_receive(lambda f: got.append(f.payload))

    def sender():
        for i in range(5):
            yield nic0.enqueue(EthernetFrame(src=0, dst=1, payload=i, payload_bytes=64))

    sim.process(sender())
    sim.run_all()
    assert got == [0, 1, 2, 3, 4]


def test_nic_full_ring_blocks_enqueues_in_fifo_order(monkeypatch):
    from repro.sim import core

    wakes = []
    real_push = core.heappush

    def spy(queue, entry):
        if entry[3].name == "nic0.tx-wake":
            wakes.append(entry[0])
        real_push(queue, entry)

    monkeypatch.setattr(core, "heappush", spy)
    sim = Simulator()
    bus = make_bus(sim)
    nic0 = NIC(sim, bus, 0, tx_queue_depth=2)
    nic1 = NIC(sim, bus, 1)
    sent = []
    nic1.on_receive(lambda f: sent.append((f.payload, sim.now)))
    admitted = []

    def sender(i, at):
        yield sim.timeout(at)
        yield nic0.enqueue(EthernetFrame(src=0, dst=1, payload=i, payload_bytes=64))
        admitted.append((i, sim.now))

    # Two busy periods: six frames at t=0 (one on the wire, two in the
    # ring, three blocked), then three more once the NIC has gone idle.
    for i in range(6):
        sim.process(sender(i, 0.0))
    for i in range(6, 9):
        sim.process(sender(i, 1.0))
    sim.run(until=0.0)
    assert len(nic0.tx_queue) == 2
    assert admitted == [(0, 0.0), (1, 0.0), (2, 0.0)]
    sim.run_all()
    assert [i for i, _ in admitted] == list(range(9))
    assert [i for i, _ in sent] == list(range(9))
    # A blocked enqueue is admitted when the driver takes a frame off the
    # ring, one frame time apart, each before the frame it waited on lands.
    t3, t4, t5 = (t for _, t in admitted[3:6])
    assert 0.0 < t3 < t4 < t5 < 1.0
    assert t3 <= sent[0][1] and t4 <= sent[1][1] and t5 <= sent[2][1]
    assert wakes == [0.0, 1.0]
    assert nic0.stats.counter("tx_done").value == 9 and not nic0.tx_queue


def test_nic_rejects_an_empty_ring():
    sim = Simulator()
    with pytest.raises(ValueError):
        NIC(sim, make_bus(sim), 0, tx_queue_depth=0)


# ---------------------------------------------------------------- topology
def test_build_network_ethernet():
    sim = Simulator()
    net = build_network(sim, RandomStreams(0), 4)
    assert net.station_ids == [0, 1, 2, 3]
    assert isinstance(net.fabric, EthernetBus)


def test_build_network_switch():
    sim = Simulator()
    net = build_network(sim, RandomStreams(0), 3, FabricConfig(kind="switch"))
    assert isinstance(net.fabric, SwitchedLAN)


def test_build_network_validation():
    from repro.errors import ConfigurationError

    sim = Simulator()
    with pytest.raises(ConfigurationError):
        build_network(sim, RandomStreams(0), 0)
    with pytest.raises(ConfigurationError):
        FabricConfig(kind="token-ring")
