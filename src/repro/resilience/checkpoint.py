"""Coordinated checkpoint store (simulated stable storage).

Checkpoints are taken at barriers — natural consistent cuts in the DSE's
barrier-synchronised SPMD programs.  :meth:`ParallelAPI.checkpoint` runs a
two-phase protocol per version ``V``:

1. flush write-combining buffers, then barrier ``res:ckpt:V:enter`` —
   every rank has reached the cut and global memory is quiescent;
2. each rank snapshots its *own* home slice of global memory plus an
   application-supplied state dict, charges a stable-storage write, and
   puts both here;
3. barrier ``res:ckpt:V:commit`` — once every rank has put, the version
   is *committed* and becomes the rollback target.

The store itself lives outside the failure domain (stable storage):
kernel crashes never lose committed checkpoints.  Uncommitted puts for a
version are discarded when a rollback intervenes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, Tuple

import numpy as np

__all__ = ["CheckpointStore", "checkpoint_cut"]


def checkpoint_cut(
    api, tag: str, charge_bps: float, on_snapshot: Callable[[np.ndarray], None]
) -> Generator[Any, Any, None]:
    """One rank's part of a consistent cut (resilience and replay both):
    barrier ``<tag>:enter``, snapshot the home slice, charge its write at
    ``charge_bps`` (nothing when 0), count it in ``ckpt_stats``, hand it to
    ``on_snapshot``, barrier ``<tag>:commit``."""
    # Enter barrier: every rank is at the cut and (because api.barrier
    # flushes first) global memory is quiescent.
    yield from api.barrier(f"{tag}:enter")
    snap = api.kernel.gmem.snapshot_slice()
    latency = 0.0
    if charge_bps > 0:
        latency = max(snap.nbytes, 64) / charge_bps
        yield from api.compute_seconds(latency)
    ckpt = api.kernel.cluster.ckpt_stats
    ckpt.counter("snapshots").increment()
    ckpt.tally("snapshot_bytes").observe(snap.nbytes)
    ckpt.tally("write_latency").observe(latency)
    on_snapshot(snap)
    # Commit barrier: nobody proceeds until the cut is complete.
    yield from api.barrier(f"{tag}:commit")


class CheckpointStore:
    """Versioned per-rank snapshots; a version commits when all ranks put."""

    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        #: (version, rank) -> (state dict, gmem slice copy)
        self._puts: Dict[Tuple[int, int], Tuple[Any, np.ndarray]] = {}
        #: highest fully committed version (-1 = none: restart from scratch)
        self.committed_version = -1
        #: total simulated bytes written to stable storage
        self.bytes_written = 0

    def put(self, rank: int, version: int, state: Any, gmem_slice: np.ndarray) -> None:
        """Record rank's snapshot for ``version``; commit if it is the last."""
        data = np.array(gmem_slice, copy=True)
        self._puts[(version, rank)] = (state, data)
        self.bytes_written += data.nbytes
        if all((version, r) in self._puts for r in range(self.n_ranks)):
            self.committed_version = max(self.committed_version, version)
            # Older versions can never be rolled back to again.
            stale = [k for k in self._puts if k[0] < version]
            for key in stale:
                del self._puts[key]

    def get(self, rank: int, version: Optional[int] = None) -> Tuple[Any, np.ndarray]:
        """(state, gmem slice) of rank at ``version`` (default: committed)."""
        v = self.committed_version if version is None else version
        if v < 0:
            raise KeyError("no committed checkpoint")
        return self._puts[(v, rank)]

    def discard_uncommitted(self) -> int:
        """Drop puts newer than the committed version; returns count dropped."""
        stale = [k for k in self._puts if k[0] > self.committed_version]
        for key in stale:
            del self._puts[key]
        return len(stale)

    @property
    def has_checkpoint(self) -> bool:
        return self.committed_version >= 0
