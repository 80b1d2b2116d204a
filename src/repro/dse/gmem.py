"""Global memory management module (the DSM core of DSE).

The paper's system model (Figure 1) gives each Processor Element a slice of
the Global Memory; the union of slices is the distributed shared memory the
parallel API exposes.  This module implements the baseline **home-based**
policy used by DSE: every word has a fixed home kernel (contiguous slices),
reads and writes to non-home words become request/response message pairs to
the home, and accesses to home-resident words are plain library-speed local
operations.

Addresses are in **words** (one word = one float64 = 8 bytes); a
``block_words`` granularity exists for the caching ablation
(:mod:`repro.dse.coherence`) and for allocator alignment.

With ``ClusterConfig(gmem_batching=True)`` (the large-cluster scaling
layer) the manager additionally batches global-memory traffic:

* **write combining** — remote writes are buffered per home, contiguous
  and overlapping runs are merged (latest write wins), and each home's
  buffer goes out as one ``GM_WBATCH_REQ`` wire message when flushed.
  Flushes happen at synchronisation points (lock release, barrier, DSE
  process completion), before any read that overlaps a buffered run, and
  when a home's buffer exceeds :data:`WC_FLUSH_WORDS`.
* **read combining** — concurrent remote reads of the same ``(addr,
  nwords)`` range share a single in-flight request; late joiners wait on
  the leader's marker event instead of sending their own message.

Batching never changes the values a data-race-free program observes — it
changes *when* writes hit the wire, and therefore the simulated clock.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..errors import GlobalMemoryError
from ..hardware.cpu import Work
from ..sim.core import Event
from ..sim.monitor import LazyStat, StatSet
from .messages import DSEMessage, MsgType

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import DSEKernel

__all__ = ["GlobalMemoryManager", "WC_FLUSH_WORDS"]

#: fixed library cost of one global-memory operation (argument checking,
#: address translation) regardless of locality
_GM_CALL_WORK = Work(iops=80)

#: write-combining buffer cap per home (words); a buffer past this size is
#: flushed immediately so batching bounds memory and staleness
WC_FLUSH_WORDS = 16384


class GlobalMemoryManager:
    """One kernel's view of the cluster-wide global memory (home policy)."""

    policy_name = "home"

    # Per-message counters whose first use must stay where it is: a remote
    # read or a served read may never happen, and a key that is never
    # touched stays out of the snapshot (see LazyStat).
    _c_remote_reads = LazyStat("remote_reads")
    _c_served_reads = LazyStat("served_reads")

    def __init__(self, kernel: "DSEKernel", total_words: int, block_words: int):
        if total_words <= 0 or block_words <= 0:
            raise GlobalMemoryError("total_words and block_words must be positive")
        self.kernel = kernel
        self.total_words = total_words
        self.block_words = block_words
        n = kernel.cluster_size
        # Contiguous slice per kernel, rounded up to a whole number of
        # blocks so that no block straddles two homes (required by the
        # caching coherence policy, harmless for the home policy).
        raw_slice = -(-total_words // n)  # ceil division
        self.slice_words = -(-raw_slice // block_words) * block_words
        self.my_lo = min(kernel.kernel_id * self.slice_words, total_words)
        self.my_hi = min(self.my_lo + self.slice_words, total_words)
        #: authoritative storage for this kernel's home slice
        self.storage = np.zeros(self.my_hi - self.my_lo, dtype=np.float64)
        #: bump allocator (kernel 0 is the allocation authority)
        self._alloc_next = 0
        self.stats = StatSet(f"gmem:k{kernel.kernel_id}")
        # Hot-path counters resolved once: every read/write bumps these, and
        # StatSet.counter is a lazy dict lookup per call.
        self._c_local_reads = self.stats.counter("local_reads")
        self._c_words_read = self.stats.counter("words_read")
        self._c_local_writes = self.stats.counter("local_writes")
        self._c_remote_writes = self.stats.counter("remote_writes")
        self._c_words_written = self.stats.counter("words_written")
        #: message batching (large-cluster scaling layer; see module docs)
        self.batching = bool(
            getattr(getattr(kernel.cluster, "config", None), "gmem_batching", False)
        )
        #: write-combining buffers: home kernel -> [(start, words), ...]
        self._wc: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        #: read-combining table: (start, count) -> the in-flight leader's
        #: one-item slot for its marker event (None until a follower joins)
        self._read_inflight: Dict[Tuple[int, int], List[Optional[Event]]] = {}
        #: race detector (None unless ``ClusterConfig(sanitize=...)`` asked
        #: for it) — the disabled path is one attribute load + identity test
        from ..sanitize import NULL_SANITIZER

        self._san_race = getattr(kernel.cluster, "sanitizer", NULL_SANITIZER).race
        #: resilience manager (None when disabled); when it — or the replay
        #: recorder — is on, the high-water mark of the local slice is
        #: tracked so checkpoints copy only the used prefix.  The combined
        #: flag is resolved once: the write hot path tests one bool.
        self._res = getattr(kernel.cluster, "resilience", None)
        self._track_hw = (
            self._res is not None
            or getattr(kernel.cluster, "replay", None) is not None
        )
        self._hw = 0

    # -- address arithmetic -------------------------------------------------
    def home_of(self, addr: int) -> int:
        """Home kernel of word ``addr`` (contiguous slice distribution)."""
        self._check_addr(addr)
        return min(addr // self.slice_words, self.kernel.cluster_size - 1)

    def _check_addr(self, addr: int) -> None:
        if not (0 <= addr < self.total_words):
            raise GlobalMemoryError(
                f"address {addr} outside global memory [0, {self.total_words})"
            )

    def _check_range(self, addr: int, nwords: int) -> None:
        if nwords <= 0:
            raise GlobalMemoryError(f"word count must be positive, got {nwords}")
        self._check_addr(addr)
        if addr + nwords > self.total_words:
            raise GlobalMemoryError(
                f"range [{addr}, {addr + nwords}) overruns global memory "
                f"(total {self.total_words} words)"
            )

    def home_runs(self, addr: int, nwords: int) -> List[Tuple[int, int, int]]:
        """Split ``[addr, addr+nwords)`` into per-home runs.

        Returns ``(home_kernel, start_addr, count)`` triples, coalescing all
        contiguous words with the same home into one run (one message).
        """
        self._check_range(addr, nwords)
        runs: List[Tuple[int, int, int]] = []
        pos, end = addr, addr + nwords
        while pos < end:
            home = min(pos // self.slice_words, self.kernel.cluster_size - 1)
            home_hi = (
                self.total_words
                if home == self.kernel.cluster_size - 1
                else (home + 1) * self.slice_words
            )
            take = min(end, home_hi) - pos
            runs.append((home, pos, take))
            pos += take
        return runs

    # -- local slice access --------------------------------------------------
    def _local_read(self, addr: int, nwords: int) -> np.ndarray:
        lo = addr - self.my_lo
        return self.storage[lo : lo + nwords].copy()

    def _local_view(self, addr: int, nwords: int) -> np.ndarray:
        """Zero-copy view of the home slice — for consumers that copy.

        Safe **only** when the caller immediately copies the data out
        (e.g. assignment into a gather buffer): a view kept across simulated
        time would alias the live home storage and change observed values.
        Anything placed in a response message must use :meth:`_local_read`.
        """
        lo = addr - self.my_lo
        return self.storage[lo : lo + nwords]

    def _local_write(self, addr: int, values: np.ndarray) -> None:
        lo = addr - self.my_lo
        hi = lo + len(values)
        self.storage[lo:hi] = values
        if self._track_hw and hi > self._hw:
            self._hw = hi

    def _owns(self, addr: int, nwords: int) -> bool:
        return self.my_lo <= addr and addr + nwords <= self.my_hi

    # -- public API (used by the parallel API library) ------------------------
    def read(
        self, addr: int, nwords: int, trace: Any = None, accessor: Any = None
    ) -> Generator[Event, Any, np.ndarray]:
        """Read ``nwords`` words starting at ``addr``."""
        if self._san_race is not None:
            self._san_race.on_access(
                self.kernel.kernel_id if accessor is None else accessor,
                addr, nwords, False, self.kernel.sim.now,
            )
        yield from self.kernel.unix_process.compute(_GM_CALL_WORK)
        if self.batching and self._wc:
            yield from self._flush_overlapping(addr, nwords, trace=trace)
        if self.my_lo <= addr and addr + nwords <= self.my_hi and nwords > 0:
            # Entirely home-local: same events and stats as the general loop
            # below (one run), but a single copy with no gather buffer.
            self._c_local_reads.increment()
            yield from self.kernel.unix_process.compute(Work(mems=nwords))
            out = self._local_view(addr, nwords).copy()
            self._c_words_read.increment(nwords)
            return out
        out = np.empty(nwords, dtype=np.float64)
        offset = 0
        for home, start, count in self.home_runs(addr, nwords):
            if home == self.kernel.kernel_id:
                self._c_local_reads.increment()
                yield from self.kernel.unix_process.compute(Work(mems=count))
                # Assignment into the gather buffer copies; skip the
                # intermediate _local_read copy.
                out[offset : offset + count] = self._local_view(start, count)
            elif self.batching:
                chunk = yield from self._remote_read_combined(home, start, count, trace)
                out[offset : offset + count] = chunk
            else:
                out[offset : offset + count] = yield from self._remote_read(
                    home, start, count, trace
                )
            offset += count
        self._c_words_read.increment(nwords)
        return out

    def _remote_read(
        self, home: int, start: int, count: int, trace: Any = None
    ) -> Generator[Event, Any, np.ndarray]:
        """One request/response round trip for a single-home run."""
        self._c_remote_reads.increment()
        msg = DSEMessage(
            msg_type=MsgType.GM_READ_REQ,
            src_kernel=self.kernel.kernel_id,
            dst_kernel=home,
            addr=start,
            nwords=count,
            trace=trace,
        )
        rsp = yield from self.kernel.exchange.request(msg)
        if rsp.status != "ok":
            raise GlobalMemoryError(f"remote read failed: {rsp.status}")
        return np.asarray(rsp.data, dtype=np.float64)

    def _remote_read_combined(
        self, home: int, start: int, count: int, trace: Any = None
    ) -> Generator[Event, Any, np.ndarray]:
        """Remote read through the read-combining table.

        The first reader of a ``(start, count)`` range becomes the leader
        and sends the wire message; readers that arrive while it is in
        flight wait on the leader's marker and share the response.  The
        marker is built by the first of them, so a read nobody joins
        schedules no event.
        """
        key = (start, count)
        inflight = self._read_inflight
        slot = inflight.get(key)
        if slot is not None:
            self.stats.counter("combined_reads").increment()
            marker = slot[0]
            if marker is None:
                marker = slot[0] = self.kernel.sim.event(name=f"gmrd:{start}+{count}")
            status, data = yield marker
            if status != "ok":
                raise GlobalMemoryError(f"remote read failed: {status}")
            return data
        # The leader's slot holds the marker once a follower joins; a read
        # nobody joins builds and schedules no event.
        slot = inflight[key] = [None]
        status, data = "error", None
        try:
            data = yield from self._remote_read(home, start, count, trace)
            status = "ok"
            return data
        finally:
            # pop (not del): a crash teardown may clear the table while the
            # leader is in flight, and this finally also runs on kill
            inflight.pop(key, None)
            marker = slot[0]
            if marker is not None and not marker.triggered:
                marker.succeed((status, data))

    def write(
        self, addr: int, values: Any, trace: Any = None, accessor: Any = None
    ) -> Generator[Event, Any, None]:
        """Write ``values`` (array-like of float64) starting at ``addr``."""
        data = np.asarray(values, dtype=np.float64).ravel()
        nwords = len(data)
        if self._san_race is not None:
            self._san_race.on_access(
                self.kernel.kernel_id if accessor is None else accessor,
                addr, nwords, True, self.kernel.sim.now,
            )
        yield from self.kernel.unix_process.compute(_GM_CALL_WORK)
        offset = 0
        for home, start, count in self.home_runs(addr, nwords):
            chunk = data[offset : offset + count]
            if home == self.kernel.kernel_id:
                self._c_local_writes.increment()
                yield from self.kernel.unix_process.compute(Work(mems=count))
                self._local_write(start, chunk)
            elif self.batching:
                self._c_remote_writes.increment()
                self.stats.counter("combined_writes").increment()
                # Buffer locally (one memory copy); the wire message goes
                # out at the next flush point.
                yield from self.kernel.unix_process.compute(Work(mems=count))
                self._buffer_write(home, start, chunk)
                if sum(len(d) for _, d in self._wc[home]) > WC_FLUSH_WORDS:
                    yield from self.flush(homes=(home,), trace=trace)
            else:
                self._c_remote_writes.increment()
                msg = DSEMessage(
                    msg_type=MsgType.GM_WRITE_REQ,
                    src_kernel=self.kernel.kernel_id,
                    dst_kernel=home,
                    addr=start,
                    nwords=count,
                    data=chunk,
                    trace=trace,
                )
                rsp = yield from self.kernel.exchange.request(msg)
                if rsp.status != "ok":
                    raise GlobalMemoryError(f"remote write failed: {rsp.status}")
            offset += count
        self._c_words_written.increment(nwords)

    # -- write combining (batching mode) --------------------------------------
    def _buffer_write(self, home: int, start: int, chunk: np.ndarray) -> None:
        """Fold one write run into ``home``'s combining buffer.

        Runs are kept non-overlapping; a new run absorbs every buffered run
        it overlaps or touches, and its own data is laid down last so the
        latest write wins.
        """
        runs = self._wc.setdefault(home, [])
        lo, hi = start, start + len(chunk)
        merged: List[Tuple[int, np.ndarray]] = []
        kept: List[Tuple[int, np.ndarray]] = []
        for run in runs:
            rlo, rhi = run[0], run[0] + len(run[1])
            (merged if (rlo <= hi and lo <= rhi) else kept).append(run)
        if not merged:
            runs.append((start, chunk.copy()))
            return
        new_lo = min(lo, min(r[0] for r in merged))
        new_hi = max(hi, max(r[0] + len(r[1]) for r in merged))
        buf = np.zeros(new_hi - new_lo, dtype=np.float64)
        for rlo, rdata in merged:
            buf[rlo - new_lo : rlo - new_lo + len(rdata)] = rdata
        buf[lo - new_lo : hi - new_lo] = chunk
        kept.append((new_lo, buf))
        self._wc[home] = kept

    def _flush_overlapping(
        self, addr: int, nwords: int, trace: Any = None
    ) -> Generator[Event, Any, None]:
        """Flush every home whose buffer overlaps ``[addr, addr+nwords)`` so
        a read always observes this kernel's own buffered writes."""
        lo, hi = addr, addr + nwords
        homes = [
            home
            for home, runs in self._wc.items()
            if any(rlo < hi and lo < rlo + len(rdata) for rlo, rdata in runs)
        ]
        if homes:
            yield from self.flush(homes=homes, trace=trace)

    def flush(
        self, homes: Optional[Any] = None, trace: Any = None
    ) -> Generator[Event, Any, None]:
        """Send buffered write runs, one ``GM_WBATCH_REQ`` per home.

        Called at synchronisation points (lock release, barrier, DSE
        process completion) and before overlapping reads.  A no-op unless
        batching is enabled and something is buffered.
        """
        if not self._wc:
            return
        targets = sorted(self._wc) if homes is None else sorted(set(homes) & set(self._wc))
        for home in targets:
            runs = self._wc.pop(home)
            runs.sort(key=lambda r: r[0])
            total = int(sum(len(d) for _, d in runs))
            self.stats.counter("batch_flushes").increment()
            self.stats.counter("batched_runs").increment(len(runs))
            msg = DSEMessage(
                msg_type=MsgType.GM_WBATCH_REQ,
                src_kernel=self.kernel.kernel_id,
                dst_kernel=home,
                addr=runs[0][0],
                nwords=total,
                data=tuple(runs),
                # per-run descriptor (addr + length) beyond the word payload
                extra_bytes=8 * len(runs),
                trace=trace,
            )
            rsp = yield from self.kernel.exchange.request(msg)
            if rsp.status != "ok":
                raise GlobalMemoryError(f"batched write failed: {rsp.status}")

    def alloc(self, nwords: int, trace: Any = None) -> Generator[Event, Any, int]:
        """Allocate ``nwords`` words; kernel 0 is the allocation authority."""
        if nwords <= 0:
            raise GlobalMemoryError(f"allocation size must be positive, got {nwords}")
        msg = DSEMessage(
            msg_type=MsgType.GM_ALLOC_REQ,
            src_kernel=self.kernel.kernel_id,
            dst_kernel=0,
            nwords=nwords,
            trace=trace,
        )
        rsp = yield from self.kernel.exchange.request(msg)
        if rsp.status != "ok":
            raise GlobalMemoryError(f"allocation of {nwords} words failed: {rsp.status}")
        return rsp.addr

    # -- resilience ----------------------------------------------------------
    def snapshot_slice(self) -> np.ndarray:
        """Copy of the used prefix of this kernel's home slice (checkpoint)."""
        return self.storage[: self._hw].copy()

    def restore_slice(self, data: Any) -> None:
        """Overwrite the home slice from a checkpoint snapshot (rollback)."""
        snap = np.asarray(data, dtype=np.float64)
        self.storage[:] = 0.0
        self.storage[: len(snap)] = snap
        self._hw = len(snap)
        self._wc.clear()
        self._read_inflight.clear()

    def lose_memory(self) -> None:
        """Model the memory loss of a crash: slice zeroed, buffers gone.

        Guest coroutines must be killed *before* this is called — killing a
        combined-read leader runs its ``finally``, which touches
        ``_read_inflight``."""
        self.storage[:] = 0.0
        self._hw = 0
        self._wc.clear()
        self._read_inflight.clear()

    def abort_inflight(self) -> None:
        """Drop combining state on a surviving kernel during rollback."""
        self._wc.clear()
        self._read_inflight.clear()

    # -- message handlers (home side) ---------------------------------------
    def handle_read(self, msg: DSEMessage) -> Generator[Event, Any, DSEMessage]:
        if not self._owns(msg.addr, msg.nwords):
            return msg.make_response(status="not-home")
        yield from self.kernel.unix_process.compute(Work(mems=msg.nwords))
        self._c_served_reads.increment()
        return msg.make_response(data=self._local_read(msg.addr, msg.nwords))

    def handle_write(self, msg: DSEMessage) -> Generator[Event, Any, DSEMessage]:
        if not self._owns(msg.addr, msg.nwords):
            return msg.make_response(status="not-home", nwords=0)
        yield from self.kernel.unix_process.compute(Work(mems=msg.nwords))
        self._local_write(msg.addr, np.asarray(msg.data, dtype=np.float64))
        self.stats.counter("served_writes").increment()
        return msg.make_response(nwords=0)

    def handle_write_batch(self, msg: DSEMessage) -> Generator[Event, Any, DSEMessage]:
        """Apply a ``GM_WBATCH_REQ``: ``msg.data`` is a tuple of
        ``(start, words)`` runs, all homed here."""
        runs = tuple(msg.data or ())
        total = int(sum(len(d) for _, d in runs))
        for start, words in runs:
            if not self._owns(start, len(words)):
                return msg.make_response(status="not-home", nwords=0)
        # One handler dispatch amortised over all runs: per-word copy cost
        # plus a small per-run unpacking overhead.
        yield from self.kernel.unix_process.compute(Work(mems=total, iops=40 * len(runs)))
        for start, words in runs:
            self._local_write(start, np.asarray(words, dtype=np.float64))
        self.stats.counter("served_batches").increment()
        self.stats.counter("served_writes").increment(len(runs))
        return msg.make_response(nwords=0)

    def handle_alloc(self, msg: DSEMessage) -> Generator[Event, Any, DSEMessage]:
        if self.kernel.kernel_id != 0:
            return msg.make_response(status="not-allocator", nwords=0)
        # Align allocations to block boundaries so blocks are never shared
        # between unrelated allocations (matters for the caching ablation).
        aligned = -(-self._alloc_next // self.block_words) * self.block_words
        if aligned + msg.nwords > self.total_words:
            return msg.make_response(status="out-of-memory", nwords=0)
        self._alloc_next = aligned + msg.nwords
        self.stats.counter("allocations").increment()
        rsp = msg.make_response(nwords=0)
        rsp.addr = aligned
        return rsp
        yield  # pragma: no cover - keeps this a generator for dispatch parity
