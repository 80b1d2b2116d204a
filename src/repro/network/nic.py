"""Network interface card: per-station transmit queue + receive delivery.

The NIC decouples the OS (which just enqueues frames) from fabric
arbitration (which may block on a busy bus).  A driver process drains the
transmit queue in FIFO order; received frames are handed to an
interrupt-style callback that the OS model wires to SIGIO delivery.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..errors import NetworkError
from ..obs.spans import NET_TID, NULL_RECORDER
from ..sim.core import Event, Simulator
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
        self.tx_queue: Store = Store(sim, capacity=tx_queue_depth, name=f"{self.name}.tx")
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
        return self.tx_queue.put(frame)

    def _tx_driver(self) -> Generator[Event, Any, None]:
        while True:
            frame = yield self.tx_queue.get()
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
