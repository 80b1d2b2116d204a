"""Network interface card: per-station transmit ring + receive delivery.

The NIC decouples the OS (which just enqueues frames) from fabric
arbitration (which may block on a busy bus).  A driver process sends the
frames of the transmit ring (``tx_queue``, a deque) in FIFO order.  The
driver is woken by one URGENT event, and only when it is idle: a frame
enqueued while it is busy waits in the ring, and the driver takes it
without an event when its current frame is done.  ``enqueue`` returns an
already-processed event while the ring has room; when the ring is full it
returns a pending event, and blocked enqueues are admitted in FIFO order
as the driver frees room.  Received frames are handed to an
interrupt-style callback that the OS model wires to SIGIO delivery.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional, Tuple

from ..errors import NetworkError
from ..obs.spans import NET_TID, NULL_RECORDER
from ..sim.core import PRIORITY_URGENT, Event, Simulator
from ..sim.monitor import LazyStat, StatSet
from ..sim.resources import Store
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
        #: how many times the driver re-submits a frame the MAC gave up on
        #: (16 collision attempts each).  The DSE transport is a datagram
        #: service with no retransmission, so the driver is patient — a
        #: dropped request/response message would hang the RPC above.
        self.driver_retries = driver_retries
        self.name = name or f"nic{station_id}"
        #: powered flag (resilience: a halted machine's NIC drops everything;
        #: the driver process survives the outage and resumes on restart)
        self.up = True
        #: frames waiting for the driver (the one it is sending is not here)
        self.tx_queue: Deque[EthernetFrame] = deque()
        self.tx_queue_depth = tx_queue_depth
        #: enqueues waiting for room in a full ring, FIFO: (event, frame)
        self._tx_blocked: Deque[Tuple[Event, EthernetFrame]] = deque()
        #: what an idle driver waits on; None while it is busy
        self._tx_wake: Optional[Event] = None
        self._tx_wake_name = f"{self.name}.tx-wake"
        #: what enqueue returns while the ring has room
        self._tx_queued = sim.done(name=f"{self.name}.tx-queued")
        self.rx_queue: Store = Store(sim, name=f"{self.name}.rx")
        self._rx_callback: Optional[Callable[[EthernetFrame], None]] = None
        self.stats = StatSet(self.name)
        self.obs = getattr(sim, "obs", None) or NULL_RECORDER
        fabric.attach(station_id, self._on_receive)
        self._driver = sim.process(self._tx_driver(), name=f"{self.name}.driver")

    # -- transmit ---------------------------------------------------------
    def enqueue(self, frame: EthernetFrame) -> Event:
        """Queue a frame for transmission; the event triggers once queued."""
        if frame.src != self.station_id:
            raise NetworkError(
                f"{self.name}: frame source {frame.src} != station {self.station_id}"
            )
        self._c_tx_enqueued.increment()
        wake = self._tx_wake
        if wake is not None:
            # The driver is idle, so the ring is empty: hand it the frame.
            self._tx_wake = None
            wake.succeed(frame, priority=PRIORITY_URGENT)
            return self._tx_queued
        if len(self.tx_queue) < self.tx_queue_depth:
            # Room in the ring means no enqueue is blocked either.
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
                self._tx_wake = Event(self.sim, name=self._tx_wake_name)
                frame = yield self._tx_wake
            if not self.up:
                self.stats.counter("tx_dropped_down").increment()
                continue
            span = None
            if self.obs.enabled and frame.trace is not None:
                # The nic.tx span covers queue-head to on-the-wire, so its
                # gap from the enclosing udp.send start is the queueing delay.
                span = self.obs.begin(
                    self.sim.now, "nic.tx", "net", self.station_id, NET_TID, frame.trace
                )
                frame.trace = span.ctx
            for attempt in range(self.driver_retries + 1):
                status = yield from self.fabric.send(frame)
                if status == "ok":
                    self._c_tx_done.increment()
                    if attempt:
                        self.stats.counter("tx_driver_retries").increment(attempt)
                    break
            else:
                self.stats.counter("tx_dropped").increment()
            if span is not None:
                self.obs.end(span, self.sim.now)

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
