"""The NIC's transmit callbacks and the fabrics' ``transmit(frame, done)``
against the driver process and generator ``send`` they replaced.

The oracle below is the send path as it was: one driver process per NIC,
woken by one urgent event when idle, taking the ring's frames in FIFO order
and sending each with ``status = yield from fabric.send(frame)``, where the
bus's and the switch's ``send`` were generators run in the driver's
process.  The NIC under test hands each frame to ``fabric.transmit`` and
takes the next one from the completion callback, with no process and no
event between the two.

Schedules run over both fabrics with exact start-time ties, rings of one
or two frames (so enqueues block), a bus that gives up after two attempts
(so frames drop and the NIC re-submits them), a NIC that goes down and up
mid-stream, a partition and a heal, and broadcasts.  One log of every
send attempt's status, every delivery and every admitted enqueue, with
their times and in the order they happen, every NIC and fabric counter in
first-touch order, ``sim.now`` and the cancelled-event count must be
equal; the run under test processes exactly one event fewer per NIC (the
driver process's start).
"""

from typing import Any, Generator

from hypothesis import given, settings, strategies as st

from repro.network import (
    BROADCAST,
    NIC,
    SEND_DROPPED,
    SEND_OK,
    EthernetBus,
    EthernetFrame,
    SwitchedLAN,
)
from repro.network.ethernet import _OPEN
from repro.sim import Event, RandomStreams, Simulator
from repro.sim.core import PRIORITY_URGENT
from repro.util.units import US


# ------------------------------------------------------------- the oracle
class _GenBus(EthernetBus):
    """The bus as it sent from the caller's process (without the
    observability spans, which these runs leave off)."""

    def send(self, frame: EthernetFrame) -> Generator[Event, Any, str]:
        backoff_rng = self._backoff_streams.get(frame.src)
        if backoff_rng is None:
            backoff_rng = self.rng.stream(f"backoff:{frame.src}")
            self._backoff_streams[frame.src] = backoff_rng
        attempts = 0
        while True:
            while self._busy:
                yield self._wait_idle()
            grant = Event(self.sim, "grant")
            contenders = self._contenders
            contenders.append((frame, grant))
            if len(contenders) == 1:
                self._arbiter.set(0.0, _OPEN, PRIORITY_URGENT)
            outcome = yield grant
            if outcome == SEND_OK:
                self._c_frames_sent.increment()
                self._c_bytes_sent.increment(frame.wire_bytes)
                return SEND_OK
            attempts += 1
            self._c_backoffs.increment()
            if attempts >= self.max_attempts:
                self.stats.counter("frames_dropped").increment()
                return SEND_DROPPED
            slots = backoff_rng.randrange(2 ** min(attempts, 10))
            if slots:
                yield self.sim.timeout(slots * self.slot_time)


class _GenSwitch(SwitchedLAN):
    """The switch as it sent from the caller's process."""

    def send(self, frame: EthernetFrame) -> Generator[Event, Any, str]:
        sim = self.sim
        tx = self.transmission_time(frame)
        now = sim.now
        start = max(now, self._up_free[frame.src])
        done = start + tx
        self._up_free[frame.src] = done
        yield sim.timeout(done - now)
        self._c_frames_sent.increment()
        self._c_bytes_sent.increment(frame.wire_bytes)
        if self.cut_through:
            ready = start + self.header_time + self.forward_latency
        else:
            ready = done + self.forward_latency
        targets = (
            [sid for sid in self._stations if sid != frame.src]
            if frame.dst == BROADCAST
            else [frame.dst]
        )
        for target in targets:
            if not self.reachable(frame.src, target):
                self.stats.counter("partition_drops").increment()
                continue
            dn_start = max(ready, self._down_free[target])
            self._down_free[target] = dn_start + tx
            timer = sim.timeout(dn_start + tx + self.prop_delay - sim.now, (frame, target))
            timer.callbacks.append(self._deliver)
        return "ok"


class _DriverNIC(NIC):
    """The NIC as it sent with one driver process (without the nic.tx
    spans), logging each send attempt's status."""

    def __init__(self, *args, log, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = log
        self._wake_event = None
        self.sim.process(self._tx_driver(), name=f"{self.name}.driver")

    def enqueue(self, frame: EthernetFrame) -> Event:
        self._c_tx_enqueued.increment()
        wake = self._wake_event
        if wake is not None:
            self._wake_event = None
            wake.succeed(frame, priority=PRIORITY_URGENT)
            return self._tx_queued
        if len(self.tx_queue) < self.tx_queue_depth:
            self.tx_queue.append(frame)
            return self._tx_queued
        blocked = Event(self.sim, name=f"{self.name}.tx-blocked")
        self._tx_blocked.append((blocked, frame))
        return blocked

    def _tx_driver(self) -> Generator[Event, Any, None]:
        ring = self.tx_queue
        blocked = self._tx_blocked
        while True:
            if ring:
                frame = ring.popleft()
                if blocked:
                    event, waiting = blocked.popleft()
                    ring.append(waiting)
                    event.succeed(priority=PRIORITY_URGENT)
            else:
                self._wake_event = Event(self.sim, name=f"{self.name}.tx-wake")
                frame = yield self._wake_event
            if not self.up:
                self.stats.counter("tx_dropped_down").increment()
                continue
            for attempt in range(self.driver_retries + 1):
                status = yield from self.fabric.send(frame)
                self.log.append(("sent", self.station_id, frame.payload, status, self.sim.now))
                if status == "ok":
                    self._c_tx_done.increment()
                    if attempt:
                        self.stats.counter("tx_driver_retries").increment(attempt)
                    break
            else:
                self.stats.counter("tx_dropped").increment()


class _LoggingNIC(NIC):
    """The NIC under test, logging each send attempt's status as its
    completion callback receives it."""

    def __init__(self, *args, log, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = log

    def _tx_sent(self, status: str) -> None:
        self.log.append(("sent", self.station_id, self._tx_frame.payload, status, self.sim.now))
        super()._tx_sent(status)


# ------------------------------------------------------------- schedules
#: start instants on a 10 us grid: multiples land exactly on the bus's
#: window ends (20 us), on its jam ends (window + 5 us) and on each other
_TICK = 10 * US


@st.composite
def _schedules(draw):
    fabric = draw(st.sampled_from(["bus", "switch"]))
    n_stations = draw(st.integers(min_value=2, max_value=4))
    frames = []
    for label in range(draw(st.integers(min_value=1, max_value=14))):
        src = draw(st.integers(min_value=0, max_value=n_stations - 1))
        dst = draw(st.sampled_from([BROADCAST] + [s for s in range(n_stations) if s != src]))
        size = draw(st.sampled_from([1, 46, 200, 1500]))
        start = draw(st.integers(min_value=0, max_value=12)) * _TICK
        frames.append((label, src, dst, size, start))
    depth = draw(st.sampled_from([1, 2, 256]))
    max_attempts = draw(st.sampled_from([2, 16]))
    retries = draw(st.sampled_from([0, 1, 64]))
    outage = None
    if draw(st.booleans()):
        sid = draw(st.integers(min_value=0, max_value=n_stations - 1))
        at = draw(st.integers(min_value=0, max_value=30)) * _TICK
        back = at + draw(st.integers(min_value=0, max_value=120)) * _TICK
        outage = (sid, at, back)
    cut = None
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=30)) * _TICK
        heal = at + draw(st.integers(min_value=0, max_value=60)) * _TICK
        side = draw(st.lists(st.integers(min_value=0, max_value=n_stations - 1),
                             min_size=1, max_size=n_stations - 1, unique=True))
        cut = (at, heal, side)
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return fabric, n_stations, frames, depth, max_attempts, retries, outage, cut, seed


def _play(oracle, schedule):
    fabric_kind, n_stations, frames, depth, max_attempts, retries, outage, cut, seed = schedule
    sim = Simulator()
    if fabric_kind == "bus":
        bus_class = _GenBus if oracle else EthernetBus
        fabric = bus_class(sim, RandomStreams(seed), max_attempts=max_attempts)
    else:
        fabric = (_GenSwitch if oracle else SwitchedLAN)(sim)
    nic_class = _DriverNIC if oracle else _LoggingNIC
    #: every send attempt's status, delivery and admitted enqueue, in the
    #: order they happen
    log = []
    nics = [nic_class(sim, fabric, sid, tx_queue_depth=depth, driver_retries=retries, log=log)
            for sid in range(n_stations)]
    for sid, nic in enumerate(nics):
        nic.on_receive(lambda f, sid=sid: log.append(("delivered", sid, f.payload, sim.now)))

    def sender(sid):
        for label, src, dst, size, start in frames:
            if src != sid:
                continue
            if start > sim.now:
                yield sim.timeout(start - sim.now)
            frame = EthernetFrame(src=src, dst=dst, payload=label, payload_bytes=size)
            yield nics[sid].enqueue(frame)
            log.append(("admitted", sid, label, sim.now))

    def downer(sid, at, back):
        yield sim.timeout(at)
        nics[sid].up = False
        yield sim.timeout(back - at)
        nics[sid].up = True

    def cutter(at, heal, side):
        yield sim.timeout(at)
        fabric.partition([side])
        yield sim.timeout(heal - at)
        fabric.heal()

    for sid in range(n_stations):
        sim.process(sender(sid))
    if outage is not None:
        sim.process(downer(*outage))
    if cut is not None:
        sim.process(cutter(*cut))
    sim.run()
    counters = lambda stats: [(key, c.value) for key, c in stats.counters.items()]
    return {
        "log": log,
        "nics": [counters(nic.stats) for nic in nics],
        "fabric": counters(fabric.stats),
        "util": (
            (fabric.utilization.average(sim.now), fabric.utilization._area)
            if fabric_kind == "bus" else None
        ),
        "rings": [(len(nic.tx_queue), len(nic._tx_blocked)) for nic in nics],
        "now": sim.now,
        "cancelled": sim.events_cancelled,
    }, sim.events_processed


def _check(schedule):
    got, got_events = _play(False, schedule)
    want, want_events = _play(True, schedule)
    assert got == want
    assert want_events - got_events == schedule[1]
    return got


@given(schedule=_schedules())
@settings(max_examples=300, deadline=None)
def test_nic_callbacks_match_the_driver_process(schedule):
    got = _check(schedule)
    assert sum(entry[0] == "admitted" for entry in got["log"]) == len(schedule[2])


def test_oracle_schedules_reach_blocking_retries_drops_and_outages():
    # Station 0 queues five frames at t=0 behind a one-frame ring while
    # stations 1 and 2 start in the same window; the bus gives up after two
    # attempts, station 2's NIC goes down mid-stream and a cut isolates
    # station 3.
    frames = [(0, 0, 1, 46, 0.0), (1, 0, 2, 46, 0.0), (2, 0, BROADCAST, 200, 0.0),
              (3, 0, 3, 1500, 0.0), (4, 0, 1, 46, 0.0), (5, 1, 0, 46, 0.0),
              (6, 2, 0, 46, 0.0), (7, 2, 1, 46, 20 * US), (8, 3, 0, 46, 25 * US)]
    schedule = ("bus", 4, frames, 1, 2, 1, (2, _TICK, 200 * _TICK),
                (0.0, 400 * _TICK, [3]), 7)
    got = _check(schedule)
    nic_stats = [dict(stats) for stats in got["nics"]]
    fabric = dict(got["fabric"])
    assert fabric["collisions"] >= 1 and fabric["frames_dropped"] >= 1
    assert fabric["partition_drops"] >= 1
    assert sum(s.get("tx_driver_retries", 0) for s in nic_stats) >= 1
    assert sum(s.get("tx_dropped", 0) for s in nic_stats) >= 1
    # frame 0 wakes station 0's NIC, frame 1 fills its ring, 2-4 wait for room
    admitted = {entry[2]: entry[3] for entry in got["log"] if entry[0] == "admitted"}
    assert admitted[0] == admitted[1] == 0.0
    assert 0.0 < admitted[2] < admitted[3] < admitted[4]
    assert nic_stats[2]["tx_dropped_down"] >= 1
    switched = _check(("switch",) + schedule[1:])
    assert dict(switched["fabric"])["partition_drops"] >= 1
