"""Switched full-duplex LAN (the large-cluster alternative to the bus).

Each station gets a private full-duplex link to a switch; there are no
collisions, only per-port serialisation and queueing plus the switch's
forwarding latency.  The network ablation bench swaps this in for
:class:`repro.network.ethernet.EthernetBus` to isolate the collision effect
the paper blames for the Knight's-Tour degradation, and the scaling story
(:doc:`docs/scaling`) relies on it beyond the six-machine paper setup: a
shared bus serialises *all* stations while a switch only serialises frames
that share a port.

The implementation is built for large clusters:

* **per-port free-time bookkeeping** — each uplink and downlink is a single
  float (the time the port is next free), not a ``Resource``; queueing for
  a port is computed arithmetically, so a frame costs two simulation events
  (uplink done, delivery) instead of a process plus resource round trips.
* **callbacks, no process** — :meth:`SwitchedLAN.transmit` arms the uplink
  timer with the frame's state as its value and one bound method as its
  callback, which arms the delivery timers the same way and then calls
  the sender's ``done``.
* **cut-through forwarding** (default) — the switch starts driving the
  output port once the frame header has arrived instead of buffering the
  whole frame, so the per-hop cost is header time + forwarding latency
  rather than a full store-and-forward serialisation.  Pass
  ``cut_through=False`` for classic store-and-forward timing.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ..errors import NetworkError
from ..sim.core import Event, Simulator
from ..sim.monitor import LazyStat, StatSet
from ..util.units import US, bits
from .frame import BROADCAST, ETH_HEADER_BYTES, ETH_PREAMBLE_BYTES, EthernetFrame

__all__ = ["SwitchedLAN"]


class SwitchedLAN:
    """A switch with one full-duplex port per station.

    Exposes the same ``attach``/``transmit`` interface as ``EthernetBus`` so
    the fabric is pluggable in cluster construction.
    """

    _c_frames_sent = LazyStat("frames_sent")
    _c_bytes_sent = LazyStat("bytes_sent")
    _c_frames_delivered = LazyStat("frames_delivered")

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float = 10e6,
        forward_latency: float = 15 * US,
        prop_delay: float = 3 * US,
        cut_through: bool = True,
        name: str = "switch0",
    ):
        if rate_bps <= 0:
            raise NetworkError("link rate must be positive")
        if forward_latency < 0 or prop_delay < 0:
            raise NetworkError("latencies must be non-negative")
        self.sim = sim
        self.rate_bps = rate_bps
        self.forward_latency = forward_latency
        self.prop_delay = prop_delay
        self.cut_through = cut_through
        self.name = name
        #: serialisation time of the frame header — the cut-through point
        self.header_time = bits(ETH_HEADER_BYTES + ETH_PREAMBLE_BYTES) / rate_bps
        self._stations: Dict[int, Callable[[EthernetFrame], None]] = {}
        #: per-port next-free times (the whole queueing model)
        self._up_free: Dict[int, float] = {}
        self._down_free: Dict[int, float] = {}
        #: station -> partition group id; None = fully connected
        self._partition: Optional[Dict[int, int]] = None
        self.stats = StatSet(name)
        #: the uplink and delivery timers' callbacks, bound once
        self._uplink_done_cb = self._uplink_done
        self._deliver_cb = self._deliver

    def attach(self, station_id: int, deliver: Callable[[EthernetFrame], None]) -> None:
        """Register a station; ``deliver`` is called with received frames."""
        if station_id in self._stations:
            raise NetworkError(f"station {station_id} already attached to {self.name}")
        if station_id < 0:
            raise NetworkError("station ids must be non-negative")
        self._stations[station_id] = deliver
        self._up_free[station_id] = self.sim.now
        self._down_free[station_id] = self.sim.now

    @property
    def station_ids(self) -> List[int]:
        return sorted(self._stations)

    # -- partitions (resilience fault injection) --------------------------
    def partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Split the LAN into isolated segments.

        ``groups`` lists the station ids of each segment; stations not
        mentioned form one implicit extra segment.  Frames between segments
        are dropped — both frames sent while partitioned *and* frames still
        queued in the switch when the partition appears (so nothing is
        delivered late, out of order, after a heal).
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
        """Reconnect every segment (no-op if not partitioned)."""
        if self._partition is not None:
            self._partition = None
            self.stats.counter("heals").increment()

    def reachable(self, a: int, b: int) -> bool:
        """Are two stations currently in the same segment?"""
        if self._partition is None:
            return True
        return self._partition.get(a) == self._partition.get(b)

    def transmission_time(self, frame: EthernetFrame) -> float:
        return bits(frame.wire_bytes) / self.rate_bps

    def transmit(self, frame: EthernetFrame, done: Callable[[str], None]) -> None:
        """Serialise onto the uplink, then call ``done("ok")``; forwarding and
        delivery are computed arithmetically and scheduled as one timer per
        destination."""
        if frame.src not in self._stations:
            raise NetworkError(f"source station {frame.src} is not attached to {self.name}")
        if frame.dst != BROADCAST and frame.dst not in self._stations:
            raise NetworkError(f"destination station {frame.dst} is not attached to {self.name}")
        sim = self.sim
        tx = frame.wire_bytes * 8 / self.rate_bps  # transmission_time, inlined
        now = sim.now
        start = max(now, self._up_free[frame.src])
        end = start + tx
        self._up_free[frame.src] = end
        sim.timeout(end - now, (frame, start, tx, done)).callbacks.append(self._uplink_done_cb)

    def _uplink_done(self, timer: Event) -> None:
        frame, start, tx, done = timer._value
        sim = self.sim
        self._c_frames_sent.increment()
        self._c_bytes_sent.increment(frame.wire_bytes)
        # When can the switch begin driving an output port?
        if self.cut_through:
            ready = start + self.header_time + self.forward_latency
        else:
            ready = start + tx + self.forward_latency
        targets = (
            [sid for sid in self._stations if sid != frame.src]
            if frame.dst == BROADCAST
            else [frame.dst]
        )
        for target in targets:
            if self._partition is not None and not self.reachable(frame.src, target):
                # Sent into a partition: dropped at the ingress port.  The
                # delivery timer is never armed, so the frame cannot pop out
                # after a heal.
                self.stats.counter("partition_drops").increment()
                continue
            dn_start = max(ready, self._down_free[target])
            self._down_free[target] = dn_start + tx
            sim.timeout(
                dn_start + tx + self.prop_delay - sim.now, (frame, target)
            ).callbacks.append(self._deliver_cb)
        done("ok")

    def _deliver(self, timer: Event) -> None:
        frame, target = timer._value
        if self._partition is not None and not self.reachable(frame.src, target):
            # Partition appeared while the frame was queued in the switch.
            self.stats.counter("partition_drops").increment()
            return
        self._c_frames_delivered.increment()
        self._stations[target](frame)

    def collision_rate(self) -> float:
        """Switched fabric never collides (interface parity with the bus)."""
        return 0.0
