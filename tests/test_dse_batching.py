"""Tests for global-memory message batching (write/read combining)."""

import numpy as np
import pytest

from repro.dse import Cluster, ClusterConfig, run_master, run_parallel
from repro.hardware import get_platform


def cfg(**kw):
    kw.setdefault("platform", get_platform("linux"))
    kw.setdefault("n_processors", 4)
    kw.setdefault("total_gm_words", 1 << 16)
    kw.setdefault("block_words", 64)
    kw.setdefault("gmem_batching", True)
    return ClusterConfig(**kw)


def test_batching_off_by_default():
    assert ClusterConfig().gmem_batching is False
    assert Cluster(cfg(gmem_batching=False)).kernel(0).gmem.batching is False
    assert Cluster(cfg()).kernel(0).gmem.batching is True


def test_batched_writes_visible_after_barrier():
    """Combined writes must be flushed by the barrier, not lost in buffers."""

    def worker(api):
        base = api.home_base(0)
        if api.rank == 1:
            yield from api.gm_write(base, np.arange(8, dtype=float))
        yield from api.barrier("w")
        data = yield from api.gm_read(base, 8)
        return list(data)

    res = run_parallel(cfg(), worker)
    for values in res.returns.values():
        assert values == [float(i) for i in range(8)]
    assert res.stats["gm.batch_flushes"] >= 1


def test_batched_write_spanning_home_boundary():
    """One write crossing a slice boundary batches to BOTH homes correctly."""

    def worker(api):
        boundary = api.home_base(1)  # first word homed at kernel 1
        if api.rank == 2:
            yield from api.gm_write(boundary - 4, np.arange(10, dtype=float))
        yield from api.barrier("w")
        data = yield from api.gm_read(boundary - 4, 10)
        return list(data)

    res = run_parallel(cfg(), worker)
    for values in res.returns.values():
        assert values == [float(i) for i in range(10)]
    # Rank 2's flush sent one batch to home 0 and one to home 1.
    assert res.stats["gm.batch_flushes"] >= 2


def test_read_observes_own_buffered_writes():
    """A read overlapping the write-combining buffer flushes it first."""

    def master(api):
        addr = api.home_base(1)  # remote from kernel 0, so it is buffered
        yield from api.gm_write(addr, [1.0, 2.0, 3.0])
        data = yield from api.gm_read(addr, 3)  # no synchronisation between
        return list(data)

    assert run_master(cfg(), master).returns[0] == [1.0, 2.0, 3.0]


def test_adjacent_writes_combine_into_one_run():
    """Word-at-a-time writes to a contiguous range flush as ONE message."""

    def master(api):
        gm = api.kernel.gmem
        addr = api.home_base(1)
        for i in range(16):
            yield from api.gm_write_scalar(addr + i, float(i))
        data = yield from api.gm_read(addr, 16)  # forces the flush
        return (
            list(data),
            gm.stats.counter("remote_writes").value,
            gm.stats.counter("batch_flushes").value,
            gm.stats.counter("batched_runs").value,
        )

    values, remote_writes, flushes, runs = run_master(cfg(), master).returns[0]
    assert values == [float(i) for i in range(16)]
    assert remote_writes == 16  # every write was counted...
    assert flushes == 1  # ...but one wire message carried them all
    assert runs == 1  # merged into a single contiguous run


def test_latest_write_wins_in_buffer():
    """Overlapping buffered writes merge with last-writer-wins semantics."""

    def master(api):
        addr = api.home_base(1)
        yield from api.gm_write(addr, np.zeros(8))
        yield from api.gm_write(addr + 2, [9.0, 9.0])  # overlaps the first run
        data = yield from api.gm_read(addr, 8)
        return list(data)

    assert run_master(cfg(), master).returns[0] == [0, 0, 9, 9, 0, 0, 0, 0]


def test_buffer_cap_forces_flush():
    """A home's buffer past WC_FLUSH_WORDS flushes without a sync point."""

    def master(api):
        gm = api.kernel.gmem
        addr = api.home_base(1)
        yield from api.gm_write(addr, np.zeros(9000))
        before = gm.stats.counter("batch_flushes").value
        yield from api.gm_write(addr + 9000, np.ones(9000))
        after = gm.stats.counter("batch_flushes").value
        return (before, after)

    before, after = run_master(cfg(total_gm_words=1 << 18), master).returns[0]
    assert before == 0 and after == 1


def test_read_combining_shares_one_fetch():
    """Concurrent identical remote reads on one kernel share a single wire
    round trip; the joiner waits on the leader's in-flight marker."""

    def master(api):
        gm = api.kernel.gmem
        sim = api.kernel.sim
        addr = api.home_base(1)
        yield from api.gm_write(addr, np.full(32, 5.0))
        yield from gm.flush()  # make the subsequent reads true remote reads
        out = {}

        def reader(tag):
            data = yield from gm.read(addr, 32)
            out[tag] = list(data)

        p1 = sim.process(reader("a"))
        p2 = sim.process(reader("b"))
        yield p1
        yield p2
        return (
            out["a"],
            out["b"],
            gm.stats.counter("remote_reads").value,
            gm.stats.counter("combined_reads").value,
        )

    a, b, remote, combined = run_master(cfg(), master).returns[0]
    assert a == b == [5.0] * 32
    assert remote == 1  # one wire message...
    assert combined == 1  # ...shared by the second reader


def test_read_combining_follower_gets_the_leaders_data():
    """A reader that joins an in-flight read resumes with the leader's
    response, after the leader, without a wire message of its own."""

    def master(api):
        gm = api.kernel.gmem
        sim = api.kernel.sim
        addr = api.home_base(1)
        yield from api.gm_write(addr, np.arange(16, dtype=float))
        yield from gm.flush()
        order = []

        def reader(tag):
            data = yield from gm.read(addr, 16)
            order.append((tag, list(data), sim.now))

        leader = sim.process(reader("leader"))
        follower = sim.process(reader("follower"))
        yield leader
        yield follower
        return order, gm.stats.counter("remote_reads").value

    order, remote = run_master(cfg(), master).returns[0]
    assert [tag for tag, _, _ in order] == ["leader", "follower"]
    assert order[0][1] == order[1][1] == [float(i) for i in range(16)]
    assert order[0][2] == order[1][2]  # the marker fires at the response's instant
    assert remote == 1


def test_read_nobody_joins_schedules_no_marker():
    """A combined read that no follower joins costs exactly the events of
    the plain request/response round trip: no marker is scheduled."""

    def master(api):
        gm = api.kernel.gmem
        sim = api.kernel.sim
        addr = api.home_base(1)
        yield from api.gm_write(addr, np.full(8, 2.0))
        yield from gm.flush()
        yield from gm._remote_read(1, addr, 8)  # warm both sides' paths
        # Each window ends on a zero timeout, so an event the read left
        # due at its last instant is processed inside the window.
        before = sim.events_processed
        plain = yield from gm._remote_read(1, addr, 8)
        yield sim.timeout(0.0)
        plain_events = sim.events_processed - before
        before = sim.events_processed
        combined = yield from gm._remote_read_combined(1, addr, 8)
        yield sim.timeout(0.0)
        combined_events = sim.events_processed - before
        return (list(plain), list(combined), plain_events, combined_events,
                gm.stats.counter("combined_reads").value, dict(gm._read_inflight))

    plain, combined, plain_events, combined_events, joined, inflight = (
        run_master(cfg(), master).returns[0]
    )
    assert plain == combined == [2.0] * 8
    assert joined == 0 and inflight == {}
    assert combined_events == plain_events > 0


def test_batching_reduces_wire_messages():
    """Same workload, same config: batching must cut total messages."""

    def worker(api):
        # Everyone writes a private result strip into kernel 0's slice and
        # reads a shared table from it — the knight's-tour communication
        # shape in miniature.
        table = api.home_base(0)
        strip = table + 64 + api.rank * 16
        yield from api.gm_read(table, 64)
        for i in range(16):
            yield from api.gm_write_scalar(strip + i, float(api.rank))
        yield from api.barrier("done")
        return True

    msgs = {}
    for batching in (False, True):
        res = run_parallel(cfg(gmem_batching=batching), worker)
        assert all(res.returns.values())
        msgs[batching] = res.stats["msgs_sent"]
    assert msgs[True] < msgs[False]


def test_coherence_multiblock_prefetch():
    """Under the caching policy, a read spanning several missing blocks of
    one home fetches them with one message."""

    def worker(api):
        base = api.home_base(0)
        if api.rank == 0:
            yield from api.gm_write(base, np.arange(256, dtype=float))
        yield from api.barrier("w")
        data = yield from api.gm_read(base, 256)  # 4 blocks of 64 words
        return (
            float(data.sum()),
            api.kernel.gmem.stats.counter("batched_fills").value,
        )

    res = run_parallel(cfg(coherence="cache"), worker)
    expected = float(np.arange(256).sum())
    for rank, (total, fills) in res.returns.items():
        assert total == expected
        if rank != 0:
            assert fills >= 1  # the 4-block read was one wire message


def test_coherence_batched_values_match_unbatched():
    """Batched coherence changes the clock, never the values."""

    def worker(api):
        base = api.home_base(0)
        if api.rank == 0:
            yield from api.gm_write(base, np.arange(128, dtype=float))
        yield from api.barrier("w")
        data = yield from api.gm_read(base, 128)
        return list(data)

    results = {}
    for batching in (False, True):
        res = run_parallel(
            cfg(coherence="cache", gmem_batching=batching), worker
        )
        results[batching] = res.returns
    assert results[False] == results[True]
