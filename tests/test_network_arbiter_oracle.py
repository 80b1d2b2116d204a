"""The bus's arbiter timer against the resolver process it replaced.

The oracle below is the original CSMA/CD arbitration: the first contender
of an idle period starts one ``resolve`` process, which sleeps through the
collision window, then through the transmission or the jam, and answers
the grants when it wakes.  Its stations are processes driving the
generator ``send`` the bus had then; the bus under test is driven by
callbacks through ``transmit``, each station sending its next frame from
the last one's completion, as a station process did.  Schedules come with
exact start-time ties (so contenders meet in one window, and joins land on
the instants a window, a transmission or a jam ends), with broadcasts, and
with a partition and a heal.  Every per-frame outcome and every bus
statistic must be equal.
"""

from typing import Any, Generator

from hypothesis import given, settings, strategies as st

from repro.network import BROADCAST, SEND_DROPPED, SEND_OK, EthernetBus, EthernetFrame
from repro.network.ethernet import _COLLIDED
from repro.sim import Event, RandomStreams, Simulator
from repro.sim.core import PRIORITY_URGENT
from repro.util.units import US


# ------------------------------------------------------------- the oracle
class _ResolverBus(EthernetBus):
    """The bus as it arbitrated with one resolver process per idle period
    and sent from the station's process (its send without the observability
    spans, which these runs leave off)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._resolving = False
        self._resolve_name = f"{self.name}.resolve"

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
            self._contenders.append((frame, grant))
            if not self._resolving:
                self._resolving = True
                self.sim.process(self._resolve(), name=self._resolve_name)
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
            k = min(attempts, 10)
            slots = backoff_rng.randrange(2**k)
            if slots:
                yield self.sim.timeout(slots * self.slot_time)

    def _resolve(self) -> Generator[Event, Any, None]:
        yield self.sim.timeout(self.collision_window)
        contenders, self._contenders = self._contenders, []
        self._resolving = False
        if len(contenders) == 1:
            frame, grant = contenders[0]
            self._set_busy()
            yield self.sim.timeout(self.transmission_time(frame))
            self._deliver_after_propagation(frame)
            self._set_idle()
            grant.succeed(SEND_OK)
        else:
            self._c_collisions.increment()
            self._c_collided_frames.increment(len(contenders))
            self._set_busy()
            yield self.sim.timeout(self.jam_time)
            self._set_idle()
            for _frame, grant in contenders:
                grant.succeed(_COLLIDED)


class _CountingStream:
    """A backoff stream that counts its draws: one per collision retried."""

    def __init__(self, stream):
        self.stream = stream
        self.draws = 0

    def randrange(self, n):
        self.draws += 1
        return self.stream.randrange(n)


# ------------------------------------------------------------- schedules
#: start instants on a 10 us grid: multiples land exactly on window ends
#: (20 us), on jam ends (window + 5 us) and on each other
_TICK = 10 * US


@st.composite
def _schedules(draw):
    n_stations = draw(st.integers(min_value=2, max_value=5))
    frames = []
    for label in range(draw(st.integers(min_value=1, max_value=14))):
        src = draw(st.integers(min_value=0, max_value=n_stations - 1))
        dst = draw(st.sampled_from([BROADCAST] + [s for s in range(n_stations) if s != src]))
        size = draw(st.sampled_from([1, 46, 200, 1500]))
        start = draw(st.integers(min_value=0, max_value=12)) * _TICK
        frames.append((label, src, dst, size, start))
    cut = None
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=30)) * _TICK
        heal = at + draw(st.integers(min_value=0, max_value=60)) * _TICK
        side = draw(st.lists(st.integers(min_value=0, max_value=n_stations - 1),
                             min_size=1, max_size=n_stations - 1, unique=True))
        cut = (at, heal, side)
    seed = draw(st.integers(min_value=0, max_value=2**16))
    max_attempts = draw(st.sampled_from([2, 16]))
    return n_stations, frames, cut, seed, max_attempts


def _callback_station(sim, bus, sid, frames, outcomes):
    """A station as callbacks, started where a process would be: one urgent
    event now, then each frame from its start timeout or from the last
    frame's completion."""
    mine = iter([item for item in frames if item[1] == sid])

    def next_frame(_event=None):
        item = next(mine, None)
        if item is None:
            return
        start = item[4]
        if start > sim.now:
            sim.timeout(start - sim.now).callbacks.append(lambda _ev: send(item))
        else:
            send(item)

    def send(item):
        label, src, dst, size, _start = item
        stream = bus._backoff_streams[sid]
        draws = stream.draws
        frame = EthernetFrame(src=src, dst=dst, payload=label, payload_bytes=size)

        def done(status):
            outcomes.append((label, status, sim.now, stream.draws - draws + 1))
            next_frame()

        bus.transmit(frame, done)

    kick = Event(sim, "station")
    kick.callbacks.append(next_frame)
    kick.succeed(priority=PRIORITY_URGENT)


def _play(bus_class, schedule):
    n_stations, frames, cut, seed, max_attempts = schedule
    sim = Simulator()
    bus = bus_class(sim, RandomStreams(seed), max_attempts=max_attempts)
    delivered = []
    for sid in range(n_stations):
        bus.attach(sid, lambda f, sid=sid: delivered.append((f.payload, sid, sim.now)))
        bus._backoff_streams[sid] = _CountingStream(bus.rng.stream(f"backoff:{sid}"))
    outcomes = []

    def station(sid):
        for label, src, dst, size, start in frames:
            if src != sid:
                continue
            if start > sim.now:
                yield sim.timeout(start - sim.now)
            stream = bus._backoff_streams[sid]
            draws = stream.draws
            frame = EthernetFrame(src=src, dst=dst, payload=label, payload_bytes=size)
            status = yield from bus.send(frame)
            outcomes.append((label, status, sim.now, stream.draws - draws + 1))

    def cutter(at, heal, side):
        yield sim.timeout(at)
        bus.partition([side])
        yield sim.timeout(heal - at)
        bus.heal()

    for sid in range(n_stations):
        if bus_class is _ResolverBus:
            sim.process(station(sid))
        else:
            _callback_station(sim, bus, sid, frames, outcomes)
    if cut is not None:
        sim.process(cutter(*cut))
    sim.run()
    stats = {key: c.value for key, c in sorted(bus.stats.counters.items())}
    return {
        "outcomes": sorted(outcomes),
        "delivered": delivered,
        "stats": stats,
        "util": (bus.utilization.average(sim.now), bus.utilization._area),
        "now": sim.now,
    }


@given(schedule=_schedules())
@settings(max_examples=300, deadline=None)
def test_arbiter_timer_matches_the_resolver_process(schedule):
    got = _play(EthernetBus, schedule)
    want = _play(_ResolverBus, schedule)
    assert got == want
    assert len(got["outcomes"]) == len(schedule[1])


def test_oracle_schedules_reach_collisions_drops_and_partition_drops():
    # One fixed schedule: four stations start in one window at t=0 (a
    # collision), two more join on the jam's end, a cut isolates station 3.
    frames = [(0, 0, 1, 46, 0.0), (1, 1, 2, 46, 0.0), (2, 2, BROADCAST, 200, 0.0),
              (3, 3, 0, 1500, 0.0), (4, 0, 3, 46, 25 * US), (5, 1, 0, 46, 25 * US)]
    schedule = (4, frames, (0.0, 400 * _TICK, [3]), 7, 2)
    got = _play(EthernetBus, schedule)
    assert got == _play(_ResolverBus, schedule)
    assert got["stats"]["collisions"] >= 1
    assert got["stats"]["frames_dropped"] >= 1
    assert got["stats"]["partition_drops"] >= 1
