"""Shared-bus Ethernet with CSMA/CD.

The paper attributes the Knight's-Tour slowdown at high job counts to "the
bus type Ethernet where occurrence of packet collision increases when
communication frequency between nodes increases"; this model reproduces that
mechanism:

* **carrier sense** — a station with a frame waits until the bus is idle;
* **collision window** — stations that begin transmitting within one
  propagation window of each other collide (the window folds in the
  interframe gap);
* **binary exponential backoff** — each collided station retries after
  ``uniform(0, 2^min(k,10)-1)`` slot times, giving up after
  ``max_attempts`` tries (16, per 802.3).

The model is event-driven and deterministic given the RNG seed.  A frame
is sent by callbacks, with no process: :meth:`EthernetBus.transmit` starts
one small :class:`_Sending` state object per frame, whose carrier sense
waits on the bus's idle event, whose join takes a grant event, and whose
backoff waits on a timeout; ``done(status)`` runs once the frame is on the
wire or dropped.  One
arbiter :class:`~repro.sim.core.Timer` per bus drives every idle period;
its value is the phase that ends when it fires:

* ``open`` — set by the first contender of an idle period, due at once
  with urgent priority; it arms the window's end.  So the window's end
  takes its heap sequence number where a process started at the first
  join would have taken it: after the rest of the joining dispatch and
  after every urgent event already due.  A contender due at the very
  instant the window ends makes the window or misses it exactly as it
  did under such a resolver process, which
  ``tests/test_network_arbiter_oracle.py`` keeps as its oracle;
* ``window`` — at its end a lone contender starts transmitting and several
  start a jam;
* ``transmit`` — the frame is on the wire; at its end it propagates, the
  medium goes idle and the winner's grant succeeds;
* ``jam`` — at its end the medium goes idle and every collided grant
  succeeds with the collision, in join order.

The winner's grant is the timer callback's last act, so it goes through
:meth:`~repro.sim.core.Simulator._succeed_last` and is processed in place
when nothing else is due at that instant: the sender's completion, and the
next frame it hands the bus, then run inside the arbiter's dispatch.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import NetworkError
from ..obs.spans import NET_TID, NULL_RECORDER
from ..sim.core import PRIORITY_URGENT, Event, Simulator, Timer
from ..sim.monitor import StatSet, TimeWeighted
from ..sim.rng import RandomStreams
from ..util.units import US
from .frame import BROADCAST, EthernetFrame

__all__ = ["EthernetBus", "SEND_OK", "SEND_DROPPED"]

SEND_OK = "ok"
SEND_DROPPED = "dropped"

_COLLIDED = "collided"

# Arbiter phases, carried in the arbiter timer's value.
_OPEN = "open"
_WINDOW = "window"
_TRANSMIT = "transmit"
_JAM = "jam"


class EthernetBus:
    """A single shared 10 Mbit/s (by default) Ethernet segment."""

    def __init__(
        self,
        sim: Simulator,
        rng: RandomStreams,
        rate_bps: float = 10e6,
        slot_time: float = 51.2 * US,
        collision_window: float = 20 * US,
        jam_time: float = 5 * US,
        prop_delay: float = 3 * US,
        max_attempts: int = 16,
        name: str = "ether0",
    ):
        if rate_bps <= 0:
            raise NetworkError("bus rate must be positive")
        self.sim = sim
        self.rng = rng
        self.rate_bps = rate_bps
        self.slot_time = slot_time
        self.collision_window = collision_window
        self.jam_time = jam_time
        self.prop_delay = prop_delay
        self.max_attempts = max_attempts
        self.name = name

        self._stations: Dict[int, Callable[[EthernetFrame], None]] = {}
        self._busy = False
        self._idle_event: Optional[Event] = None
        #: stations in the open collision window, in join order
        self._contenders: List[Tuple[EthernetFrame, Event]] = []
        #: the window's contenders while they transmit or jam
        self._on_air: List[Tuple[EthernetFrame, Event]] = []
        #: the one arbitration timer; its value is the phase it ends
        self._arbiter = Timer(sim, self._on_arbiter, f"{name}.arbiter")
        #: station -> partition group id; None = one unbroken segment
        self._partition: Optional[Dict[int, int]] = None
        #: per-station backoff streams (same objects rng.stream would hand
        #: out — cached to keep the per-frame f-string off the send path)
        self._backoff_streams: Dict[int, Any] = {}

        self.stats = StatSet(name)
        # Hot-path counters, resolved once (StatSet.counter is a lazy dict
        # lookup; send/deliver bump these on every frame).
        self._c_frames_sent = self.stats.counter("frames_sent")
        self._c_bytes_sent = self.stats.counter("bytes_sent")
        self._c_backoffs = self.stats.counter("backoffs")
        self._c_collisions = self.stats.counter("collisions")
        self._c_collided_frames = self.stats.counter("collided_frames")
        self._c_frames_delivered = self.stats.counter("frames_delivered")
        self.utilization = TimeWeighted(f"{name}.util", start_time=sim.now)
        self.obs = getattr(sim, "obs", None) or NULL_RECORDER
        #: the propagation timers' callback, bound once
        self._deliver_cb = self._deliver

    # -- station management ---------------------------------------------
    def attach(self, station_id: int, deliver: Callable[[EthernetFrame], None]) -> None:
        """Register a station; ``deliver`` is called with received frames."""
        if station_id in self._stations:
            raise NetworkError(f"station {station_id} already attached to {self.name}")
        if station_id < 0:
            raise NetworkError("station ids must be non-negative (BROADCAST is reserved)")
        self._stations[station_id] = deliver

    @property
    def station_ids(self) -> List[int]:
        return sorted(self._stations)

    @property
    def busy(self) -> bool:
        return self._busy

    # -- partitions (resilience fault injection) --------------------------
    def partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Sever the bus into isolated segments (a cut coax / pulled tap).

        Delivery-filtering approximation: carrier sense and collisions stay
        *global* (the model keeps one contention domain), but frames whose
        source and destination sit in different segments are dropped — at
        transmission end and again at propagation end, so frames already in
        flight when the cut happens never cross it after a heal.
        """
        mapping: Dict[int, int] = {}
        for gid, members in enumerate(groups):
            for sid in members:
                if sid not in self._stations:
                    raise NetworkError(f"station {sid} is not attached to {self.name}")
                if sid in mapping:
                    raise NetworkError(f"station {sid} appears in two partition groups")
                mapping[sid] = gid
        rest = (max(mapping.values()) + 1) if mapping else 0
        for sid in self._stations:
            mapping.setdefault(sid, rest)
        self._partition = mapping
        self.stats.counter("partitions").increment()

    def heal(self) -> None:
        """Rejoin every segment (no-op if not partitioned)."""
        if self._partition is not None:
            self._partition = None
            self.stats.counter("heals").increment()

    def reachable(self, a: int, b: int) -> bool:
        """Are two stations currently on the same segment?"""
        if self._partition is None:
            return True
        return self._partition.get(a) == self._partition.get(b)

    # -- transmission ----------------------------------------------------
    def transmission_time(self, frame: EthernetFrame) -> float:
        # bits() inlined (int * 8): identical value, one call fewer per frame.
        return frame.wire_bytes * 8 / self.rate_bps

    def transmit(self, frame: EthernetFrame, done: Callable[[str], None]) -> None:
        """Send ``frame``; ``done(status)`` runs once it is on the wire
        (:data:`SEND_OK`) or dropped after ``max_attempts`` collisions
        (:data:`SEND_DROPPED`), never inside this call."""
        if frame.src not in self._stations:
            raise NetworkError(f"source station {frame.src} is not attached to {self.name}")
        if frame.dst != BROADCAST and frame.dst not in self._stations:
            raise NetworkError(f"destination station {frame.dst} is not attached to {self.name}")
        backoff_rng = self._backoff_streams.get(frame.src)
        if backoff_rng is None:
            backoff_rng = self.rng.stream(f"backoff:{frame.src}")
            self._backoff_streams[frame.src] = backoff_rng
        span = None
        if self.obs.enabled and frame.trace is not None:
            span = self.obs.begin(
                self.sim.now, "eth.tx", "net", frame.src, NET_TID, frame.trace
            )
        _Sending(self, frame, done, backoff_rng, span).sense()

    # -- internals --------------------------------------------------------
    def _wait_idle(self) -> Event:
        idle = self._idle_event
        if idle is None or idle.callbacks is None:  # None/processed: re-arm
            idle = self._idle_event = Event(self.sim, "idle")
        return idle

    def _set_busy(self) -> None:
        self._busy = True
        self.utilization.set(1.0, self.sim.now)

    def _set_idle(self) -> None:
        self._busy = False
        self.utilization.set(0.0, self.sim.now)
        if self._idle_event is not None and not self._idle_event.triggered:
            self._idle_event.succeed()

    def _on_arbiter(self, timer: Timer) -> None:
        """End the arbitration phase in ``timer``'s value.

        An opening arms the window's end; a window's end hands the medium
        to a lone contender or jams a collision; a transmission's or a
        jam's end frees the medium and answers the contenders' grants.
        """
        phase = timer._value
        if phase is _OPEN:
            timer.set(self.collision_window, _WINDOW)
            return
        if phase is _WINDOW:
            # During the window the medium still *looks* idle to other
            # stations (the signal has not propagated), so late joiners
            # piled in; the window's end resolves them all.
            contenders, self._contenders = self._contenders, []
            self._on_air = contenders
            self._set_busy()
            if len(contenders) == 1:
                timer.set(self.transmission_time(contenders[0][0]), _TRANSMIT)
            else:
                self._c_collisions.increment()
                self._c_collided_frames.increment(len(contenders))
                timer.set(self.jam_time, _JAM)
            return
        contenders, self._on_air = self._on_air, []
        if phase is _TRANSMIT:
            frame, grant = contenders[0]
            self._deliver_after_propagation(frame)
            self._set_idle()
            self.sim._succeed_last(grant, SEND_OK)
        else:
            self._set_idle()
            for _frame, grant in contenders:
                grant.succeed(_COLLIDED)

    def _deliver_after_propagation(self, frame: EthernetFrame) -> None:
        if (
            self._partition is not None
            and frame.dst != BROADCAST
            and not self.reachable(frame.src, frame.dst)
        ):
            # Transmitted into a severed segment: the signal never reaches
            # the destination; no delivery timer is armed, so the frame
            # cannot appear after a heal.
            self.stats.counter("partition_drops").increment()
            return
        self.sim.timeout(self.prop_delay, frame).callbacks.append(self._deliver_cb)

    def _deliver(self, timer: Event) -> None:
        frame = timer._value
        if self._partition is None:
            # Default (unpartitioned) path: unchanged from the baseline.
            self._c_frames_delivered.increment()
            if frame.dst == BROADCAST:
                for sid, deliver in self._stations.items():
                    if sid != frame.src:
                        deliver(frame)
            else:
                self._stations[frame.dst](frame)
            return
        if frame.dst == BROADCAST:
            self.stats.counter("frames_delivered").increment()
            for sid, deliver in self._stations.items():
                if sid == frame.src:
                    continue
                if not self.reachable(frame.src, sid):
                    self.stats.counter("partition_drops").increment()
                    continue
                deliver(frame)
            return
        if not self.reachable(frame.src, frame.dst):
            # The cut happened during propagation.
            self.stats.counter("partition_drops").increment()
            return
        self.stats.counter("frames_delivered").increment()
        self._stations[frame.dst](frame)

    # -- reporting ---------------------------------------------------------
    def collision_rate(self) -> float:
        """Collisions per successfully sent frame (0 if nothing sent)."""
        sent = self.stats.counter("frames_sent").value
        if sent == 0:
            return 0.0
        return self.stats.counter("collisions").value / sent


class _Sending:
    """One frame's CSMA/CD attempts on a bus: carrier sense, a grant per
    contention window, binary exponential backoff after a collision."""

    __slots__ = ("bus", "frame", "done", "backoff_rng", "span", "attempts")

    def __init__(self, bus: EthernetBus, frame: EthernetFrame,
                 done: Callable[[str], None], backoff_rng: Any, span: Any):
        self.bus = bus
        self.frame = frame
        self.done = done
        self.backoff_rng = backoff_rng
        self.span = span
        self.attempts = 0

    def sense(self, _event: Optional[Event] = None) -> None:
        """Defer while the medium is busy, else join the contention window."""
        bus = self.bus
        if bus._busy:
            bus._wait_idle().callbacks.append(self.sense)
            return
        grant = Event(bus.sim, "grant")
        grant.callbacks.append(self._granted)
        contenders = bus._contenders
        contenders.append((self.frame, grant))
        if len(contenders) == 1:  # the first one opens the window
            bus._arbiter.set(0.0, _OPEN, PRIORITY_URGENT)

    def _granted(self, grant: Event) -> None:
        bus = self.bus
        frame = self.frame
        span = self.span
        if grant._value == SEND_OK:
            bus._c_frames_sent.increment()
            bus._c_bytes_sent.increment(frame.wire_bytes)
            if span is not None:
                span.args = {"attempts": self.attempts + 1}
                bus.obs.end(span, bus.sim.now)
            self.done(SEND_OK)
            return
        # Collision: back off a random number of slot times.
        self.attempts = attempts = self.attempts + 1
        bus._c_backoffs.increment()
        if span is not None:
            bus.obs.instant(
                bus.sim.now, "eth.collision", "net", frame.src, NET_TID, span.ctx
            )
        if attempts >= bus.max_attempts:
            bus.stats.counter("frames_dropped").increment()
            if span is not None:
                span.args = {"attempts": attempts, "dropped": True}
                bus.obs.end(span, bus.sim.now)
            self.done(SEND_DROPPED)
            return
        slots = self.backoff_rng.randrange(2 ** min(attempts, 10))
        if slots:
            bus.sim.timeout(slots * bus.slot_time).callbacks.append(self.sense)
        else:
            self.sense()
