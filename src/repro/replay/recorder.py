"""The in-run recorder: checkpoint ring + event-log tail + waypoints.

One :class:`ReplayRecorder` per cluster (built by
:class:`repro.dse.cluster.Cluster` before the kernels, so hook sites can
cache the reference — the established ``is not None`` gating pattern).
It captures three things while an application runs:

* a bounded **checkpoint ring** of barrier-aligned consistent snapshots
  (every rank's application state + home global-memory slice),
* a **waypoint** per checkpoint — (sequence, simulated time, sha256
  fingerprint) — kept forever even after the ring evicts the data.  During
  a replay the recorder compares each waypoint against the reference
  recording and raises :class:`~repro.errors.ReplayDivergence` on the
  first mismatch, turning "the replay silently differs" into a loud error
  at the exact simulated instant it happens,
* an **event-log tail** of annotations since the last retained snapshot
  (checkpoint lifecycle, run markers), shown by the inspector.

Two recording paths share this bookkeeping: with resilience enabled the
recorder piggybacks on :meth:`ResilienceManager.checkpoint` (no extra
barriers, no extra simulated cost); without it, :meth:`checkpoint` runs
its own two-phase barrier protocol, charging ``charge_bps`` only when the
user asks recording to model checkpoint I/O.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, TYPE_CHECKING

from ..errors import ReplayDivergence
from ..resilience.checkpoint import checkpoint_cut
from ..sim.core import Event
from .config import ReplayConfig
from .ring import CheckpointRing, RingSlot

if TYPE_CHECKING:  # pragma: no cover
    from ..dse.cluster import Cluster
    from .recording import Recording

__all__ = ["ReplayRecorder"]


class ReplayRecorder:
    """Cluster-wide recording state (see module docs)."""

    def __init__(self, cluster: "Cluster", config: ReplayConfig):
        # Built before machines/kernels exist: only sizes may be touched here.
        self.cluster = cluster
        self.config = config
        self.sim = cluster.sim
        self.world = cluster.config.n_processors
        self.ring = CheckpointRing(config.ring_size, self.world)
        #: annotations since the last *retained* snapshot
        self.tail: List[dict] = []
        self.tail_dropped = 0
        #: per-rank next checkpoint sequence number
        self._seq_next: Dict[int, int] = {}
        #: seq -> retain-in-ring decision (memoised at the first rank's
        #: arrival, which is after the enter barrier — deterministic)
        self._retain: Dict[int, bool] = {}
        self._last_retained_time: Optional[float] = None
        #: commits so far (index into a reference recording's waypoints)
        self.commits = 0
        #: reference recording to verify against (set by ReplaySession)
        self.reference: Optional["Recording"] = None

    # -- event-log tail -----------------------------------------------------
    def note(self, kind: str, detail: Any = None) -> None:
        """Append one annotation to the tail (bounded by ``log_limit``)."""
        limit = self.config.log_limit
        if limit is not None and len(self.tail) >= limit:
            self.tail_dropped += 1
            return
        self.tail.append({"time": self.sim.now, "kind": kind, "detail": detail})

    # -- retention policy ---------------------------------------------------
    def _decide_retain(self, seq: int, now: float) -> bool:
        """Ring-retention decision for a sequence, memoised at first arrival.

        Must be identical for every rank of the sequence even though their
        arrival times stagger, so the first rank decides between the two
        barriers (where the cut is quiescent) and the rest reuse it."""
        retain = self._retain.get(seq)
        if retain is None:
            interval = self.config.snapshot_interval
            last = self._last_retained_time
            retain = interval <= 0.0 or last is None or now - last >= interval
            self._retain[seq] = retain
            if retain:
                self._last_retained_time = now
        return retain

    # -- snapshot intake ----------------------------------------------------
    def on_rank_snapshot(
        self, rank: int, version: int, state: Any, snap, now: float
    ) -> None:
        """One rank's snapshot piece (both recording paths funnel here)."""
        seq = self._seq_next.get(rank, 0)
        self._seq_next[rank] = seq + 1
        retain = self._decide_retain(seq, now)
        slot = self.ring.put_rank(
            seq, version, rank, state, snap, now, retained=retain
        )
        if slot is not None:
            self._on_commit(slot)

    def _on_commit(self, slot: RingSlot) -> None:
        stats = self.cluster.ckpt_stats
        stats.counter("commits").increment()
        stats.tally("commit_bytes").observe(slot.nbytes)
        if not slot.retained:
            stats.counter("interval_skips").increment()
        if self.cluster.obs.enabled:
            self.cluster.obs.instant(
                slot.time, f"ckpt.commit:s{slot.seq}", "ckpt", 0, 0
            )
        self.note(
            "ckpt.commit",
            {
                "seq": slot.seq,
                "version": slot.version,
                "retained": slot.retained,
                "nbytes": slot.nbytes,
                "fingerprint": slot.fingerprint[:16],
            },
        )
        if slot.retained:
            # The tail restarts at each retained snapshot: it is "what
            # happened since the instant you can jump back to".
            self.tail = self.tail[-1:]
            self.tail_dropped = 0
        index = self.commits
        self.commits += 1
        if self.reference is not None:
            self._verify(index, slot)

    def _verify(self, index: int, slot: RingSlot) -> None:
        waypoints = self.reference.waypoints
        if index >= len(waypoints):
            raise ReplayDivergence(
                f"replay produced checkpoint #{index} at t={slot.time:.9g} "
                f"but the recording only has {len(waypoints)} — the replayed "
                "run is not the recorded run (different config or workload?)"
            )
        ref = waypoints[index]
        if slot.time != ref["time"]:
            raise ReplayDivergence(
                f"checkpoint #{index} committed at t={slot.time!r} in the "
                f"replay but t={ref['time']!r} in the recording — simulated "
                "time diverged (nondeterminism upstream of this cut)"
            )
        if slot.fingerprint != ref["fingerprint"]:
            raise ReplayDivergence(
                f"checkpoint #{index} at t={slot.time:.9g}: state fingerprint "
                f"{slot.fingerprint[:16]}… != recorded "
                f"{ref['fingerprint'][:16]}… — cluster state diverged"
            )

    # -- the replay-only coordinated checkpoint ------------------------------
    def checkpoint(self, api, state: Any) -> Generator[Event, Any, None]:
        """One rank's part of a recording checkpoint (no resilience).

        Takes the same two-phase cut as :meth:`ResilienceManager.checkpoint`
        (:func:`~repro.resilience.checkpoint.checkpoint_cut`), but by
        default charges *nothing* to simulated time beyond the barriers,
        so a recorded run stays timing-comparable with an unrecorded one
        modulo the checkpoint call itself."""
        rank = api.rank
        seq = self._seq_next.get(rank, 0)
        yield from checkpoint_cut(
            api, f"rpl:ckpt:{seq}", self.config.charge_bps,
            lambda snap: self.on_rank_snapshot(rank, seq, state, snap, api.now),
        )
