"""Network interface card: per-station transmit ring + receive delivery.

The NIC decouples the OS (which just enqueues frames) from fabric
arbitration (which may block on a busy bus).  Frames of the transmit ring
(``tx_queue``, a deque) go to the fabric in FIFO order, by callbacks and
without a driver process: the fabric's ``transmit(frame, done)`` calls
``done(status)`` once the frame is on the wire or dropped, and that
completion counts it (or re-submits it, up to ``driver_retries`` times)
and hands the fabric the next frame of the ring in the same dispatch.
An idle NIC is woken by its one owner-held URGENT timer, ``<nic>.tx-wake``,
set by the enqueue that finds it idle; a frame enqueued while it is busy
waits in the ring and is taken without an event when the current frame is
done.  ``enqueue`` returns an already-processed event while the ring has
room; when the ring is full it returns a pending event, and blocked
enqueues are admitted in FIFO order as frames leave the ring.  Received
frames are handed to an interrupt-style callback that the OS model wires
to SIGIO delivery.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from ..errors import NetworkError
from ..obs.spans import NET_TID, NULL_RECORDER
from ..sim.core import PRIORITY_URGENT, Event, Simulator, Timer
from ..sim.monitor import LazyStat, StatSet
from ..sim.resources import Store
from .ethernet import SEND_OK
from .frame import EthernetFrame

__all__ = ["NIC"]


class NIC:
    """One station's network interface."""

    _c_tx_enqueued = LazyStat("tx_enqueued")
    _c_tx_done = LazyStat("tx_done")
    _c_rx_frames = LazyStat("rx_frames")
    _c_rx_bytes = LazyStat("rx_bytes")

    def __init__(
        self,
        sim: Simulator,
        fabric: Any,
        station_id: int,
        tx_queue_depth: int = 256,
        driver_retries: int = 64,
        name: str = "",
    ):
        if tx_queue_depth < 1:
            raise ValueError(f"tx_queue_depth must be >= 1, got {tx_queue_depth}")
        self.sim = sim
        self.fabric = fabric
        self.station_id = station_id
        #: how many times the NIC re-submits a frame the MAC gave up on
        #: (16 collision attempts each).  The DSE transport is a datagram
        #: service with no retransmission, so the NIC is patient — a
        #: dropped request/response message would hang the RPC above.
        self.driver_retries = driver_retries
        self.name = name or f"nic{station_id}"
        #: powered flag (resilience: a halted machine's NIC drops every frame
        #: it would send or receive until it is up again)
        self.up = True
        #: frames waiting to be sent (the one being sent is not here)
        self.tx_queue: Deque[EthernetFrame] = deque()
        self.tx_queue_depth = tx_queue_depth
        #: enqueues waiting for room in a full ring, FIFO: (event, frame)
        self._tx_blocked: Deque[Tuple[Event, EthernetFrame]] = deque()
        #: no frame is being sent or waking (so the ring is empty)
        self._tx_idle = True
        #: fires with the frame an enqueue handed to the idle NIC
        self._tx_wake = Timer(sim, self._on_tx_wake, f"{self.name}.tx-wake")
        #: the frame being sent, its nic.tx span and its re-submissions so far
        self._tx_frame: Optional[EthernetFrame] = None
        self._tx_span: Any = None
        self._tx_attempt = 0
        #: the completion handed to fabric.transmit, bound once
        self._tx_sent_cb = self._tx_sent
        #: what enqueue returns while the ring has room
        self._tx_queued = sim.done(name=f"{self.name}.tx-queued")
        self.rx_queue: Store = Store(sim, name=f"{self.name}.rx")
        self._rx_callback: Optional[Callable[[EthernetFrame], None]] = None
        self.stats = StatSet(self.name)
        self.obs = getattr(sim, "obs", None) or NULL_RECORDER
        fabric.attach(station_id, self._on_receive)

    # -- transmit ---------------------------------------------------------
    def enqueue(self, frame: EthernetFrame) -> Event:
        """Queue a frame for transmission; the event triggers once queued."""
        if frame.src != self.station_id:
            raise NetworkError(
                f"{self.name}: frame source {frame.src} != station {self.station_id}"
            )
        self._c_tx_enqueued.increment()
        if self._tx_idle:
            # Nothing is being sent, so the ring is empty: wake on the frame.
            self._tx_idle = False
            self._tx_wake.set(0.0, frame, PRIORITY_URGENT)
            return self._tx_queued
        if len(self.tx_queue) < self.tx_queue_depth:
            # Room in the ring means no enqueue is blocked either.
            self.tx_queue.append(frame)
            return self._tx_queued
        blocked = Event(self.sim, name=f"{self.name}.tx-blocked")
        self._tx_blocked.append((blocked, frame))
        return blocked

    def _on_tx_wake(self, timer: Timer) -> None:
        self._tx_start(timer._value)

    def _tx_start(self, frame: Optional[EthernetFrame]) -> None:
        """Hand ``frame`` to the fabric; a downed NIC drops it and takes the
        next one.  With no frame left the NIC goes idle."""
        while frame is not None:
            if self.up:
                span = None
                if self.obs.enabled and frame.trace is not None:
                    # The nic.tx span covers queue-head to on-the-wire, so its
                    # gap from the enclosing udp.send start is the queueing delay.
                    span = self.obs.begin(
                        self.sim.now, "nic.tx", "net", self.station_id, NET_TID, frame.trace
                    )
                    frame.trace = span.ctx
                self._tx_frame = frame
                self._tx_span = span
                self._tx_attempt = 0
                self.fabric.transmit(frame, self._tx_sent_cb)
                return
            self.stats.counter("tx_dropped_down").increment()
            frame = self._tx_next()
        self._tx_idle = True

    def _tx_next(self) -> Optional[EthernetFrame]:
        """Take the ring's head, admitting the first blocked enqueue."""
        ring = self.tx_queue
        if not ring:
            return None
        frame = ring.popleft()
        blocked = self._tx_blocked
        if blocked:
            event, waiting = blocked.popleft()
            ring.append(waiting)
            event.succeed(priority=PRIORITY_URGENT)
        return frame

    def _tx_sent(self, status: str) -> None:
        """The fabric's completion: count the frame or re-submit it, then
        start the next one."""
        attempt = self._tx_attempt
        if status == SEND_OK:
            self._c_tx_done.increment()
            if attempt:
                self.stats.counter("tx_driver_retries").increment(attempt)
        elif attempt < self.driver_retries:
            self._tx_attempt = attempt + 1
            self.fabric.transmit(self._tx_frame, self._tx_sent_cb)
            return
        else:
            self.stats.counter("tx_dropped").increment()
        if self._tx_span is not None:
            self.obs.end(self._tx_span, self.sim.now)
        self._tx_start(self._tx_next())

    # -- receive ------------------------------------------------------------
    def on_receive(self, callback: Callable[[EthernetFrame], None]) -> None:
        """Install the interrupt handler invoked for each received frame."""
        self._rx_callback = callback

    def _on_receive(self, frame: EthernetFrame) -> None:
        if not self.up:
            self.stats.counter("rx_dropped_down").increment()
            return
        self._c_rx_frames.increment()
        self._c_rx_bytes.increment(frame.payload_bytes)
        if self._rx_callback is not None:
            self._rx_callback(frame)
        else:
            self.rx_queue.put(frame)
