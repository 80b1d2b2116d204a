"""Integration tests for the DSE runtime: global memory, sync, procman,
runner, virtual cluster, platform portability."""

import numpy as np
import pytest

from repro.dse import ClusterConfig, Cluster, run_master, run_parallel
from repro.errors import (
    ConfigurationError,
    DSEError,
    GlobalMemoryError,
)
from repro.hardware import get_platform
from repro.network import FabricConfig


def cfg(**kw):
    kw.setdefault("platform", get_platform("linux"))
    kw.setdefault("n_processors", 4)
    return ClusterConfig(**kw)


# --------------------------------------------------------------- config
def test_config_validation():
    with pytest.raises(ConfigurationError):
        cfg(n_processors=0)
    with pytest.raises(ConfigurationError):
        cfg(transport="smoke-signals")
    with pytest.raises(ConfigurationError):
        cfg(coherence="mesi-f")
    with pytest.raises(ConfigurationError):
        cfg(block_words=1 << 30, total_gm_words=128)


def test_config_virtual_cluster_placement():
    c = cfg(n_processors=12, n_machines=6)
    assert c.machines_used == 6
    assert c.machine_of(0) == 0
    assert c.machine_of(6) == 0
    assert c.machine_of(11) == 5
    assert c.max_colocation() == 2
    assert c.kernels_on(0) == [0, 6]


def test_config_small_cluster_uses_fewer_machines():
    c = cfg(n_processors=3, n_machines=6)
    assert c.machines_used == 3
    assert c.max_colocation() == 1


def test_config_with_processors_sweep_helper():
    c = cfg(n_processors=2)
    c8 = c.with_processors(8)
    assert c8.n_processors == 8 and c8.platform is c.platform


# --------------------------------------------------------------- gmem basics
def test_gm_write_read_roundtrip():
    def worker(api):
        if api.rank == 0:
            yield from api.gm_write(100, np.arange(32, dtype=float))
        yield from api.barrier("w")
        data = yield from api.gm_read(100, 32)
        return float(data.sum())

    res = run_parallel(cfg(), worker)
    expected = float(np.arange(32).sum())
    assert all(v == expected for v in res.returns.values())


def test_gm_alloc_returns_disjoint_ranges():
    def master(api):
        a = yield from api.gm_alloc(100)
        b = yield from api.gm_alloc(50)
        c = yield from api.gm_alloc(1)
        return (a, b, c)

    res = run_master(cfg(), master)
    a, b, c = res.returns[0]
    assert a < b < c
    assert b >= a + 100
    assert c >= b + 50


def test_gm_alloc_out_of_memory():
    def master(api):
        with pytest.raises(GlobalMemoryError):
            yield from api.gm_alloc(1 << 30)
        yield from api.sleep(0)
        return "ok"

    res = run_master(cfg(), master)
    assert res.returns[0] == "ok"


def test_gm_out_of_range_access_rejected():
    def master(api):
        with pytest.raises(GlobalMemoryError):
            yield from api.gm_read(api.kernel.gmem.total_words, 1)
        with pytest.raises(GlobalMemoryError):
            yield from api.gm_read(0, 0)
        with pytest.raises(GlobalMemoryError):
            yield from api.gm_write(api.kernel.gmem.total_words - 1, [1.0, 2.0])
        yield from api.sleep(0)
        return "ok"

    assert run_master(cfg(), master).returns[0] == "ok"


def test_gm_cross_slice_read_write():
    """A range spanning several home slices must still be coherent."""

    def master(api):
        gm = api.kernel.gmem
        # Straddle the boundary between kernel 0's and kernel 1's slices.
        addr = gm.slice_words - 10
        values = np.arange(20, dtype=float)
        yield from api.gm_write(addr, values)
        back = yield from api.gm_read(addr, 20)
        return np.array_equal(back, values)

    assert run_master(cfg(), master).returns[0] is True


def test_gm_home_runs_coalescing():
    """home_runs must merge contiguous words with the same home."""
    cluster = Cluster(cfg(n_processors=4, total_gm_words=4096, block_words=64))
    gm = cluster.kernel(0).gmem
    runs = gm.home_runs(0, 4096)
    assert len(runs) == 4  # one run per home slice
    assert [h for h, _, _ in runs] == [0, 1, 2, 3]
    assert sum(c for _, _, c in runs) == 4096


def test_gm_remote_vs_local_counters():
    def worker(api):
        gm = api.kernel.gmem
        # Address in kernel 0's slice: local for rank 0, remote otherwise.
        yield from api.gm_read(0, 4)
        return gm.stats.counter("remote_reads").value

    res = run_parallel(cfg(), worker)
    assert res.returns[0] == 0
    assert all(res.returns[r] == 1 for r in range(1, 4))


def test_gm_read_sees_latest_write_home_policy():
    def worker(api):
        for i in range(3):
            if api.rank == 0:
                yield from api.gm_write_scalar(7, float(i))
            yield from api.barrier(f"w{i}")
            v = yield from api.gm_read_scalar(7)
            assert v == float(i), (api.rank, i, v)
            yield from api.barrier(f"r{i}")
        return True

    res = run_parallel(cfg(), worker)
    assert all(res.returns.values())


# --------------------------------------------------------------- sync
def test_lock_mutual_exclusion():
    def worker(api):
        # Read-modify-write a shared counter 10 times under a lock; without
        # mutual exclusion updates would be lost.
        for _ in range(10):
            yield from api.lock("mutex")
            v = yield from api.gm_read_scalar(0)
            yield from api.gm_write_scalar(0, v + 1)
            yield from api.unlock("mutex")
        yield from api.barrier("end")
        return (yield from api.gm_read_scalar(0))

    res = run_parallel(cfg(n_processors=5), worker)
    assert all(v == 50.0 for v in res.returns.values())


def test_lock_without_mutex_loses_updates():
    """Sanity check that the lock test above is actually meaningful: the
    same read-modify-write WITHOUT the lock must lose updates."""

    def worker(api):
        for _ in range(10):
            v = yield from api.gm_read_scalar(0)
            yield from api.gm_write_scalar(0, v + 1)
        yield from api.barrier("end")
        return (yield from api.gm_read_scalar(0))

    res = run_parallel(cfg(n_processors=5), worker)
    assert any(v < 50.0 for v in res.returns.values())


def test_unlock_not_owner_fails():
    def master(api):
        with pytest.raises(DSEError):
            yield from api.unlock("never-held")
        yield from api.sleep(0)
        return "ok"

    assert run_master(cfg(), master).returns[0] == "ok"


def test_double_acquire_fails():
    def master(api):
        yield from api.lock("L")
        with pytest.raises(DSEError):
            yield from api.lock("L")
        yield from api.unlock("L")
        return "ok"

    assert run_master(cfg(), master).returns[0] == "ok"


def test_lock_fifo_handoff():
    order = []

    def worker(api):
        yield from api.barrier("go")
        yield from api.lock("q")
        order.append(api.rank)
        yield from api.compute_seconds(0.001)
        yield from api.unlock("q")
        return api.rank

    run_parallel(cfg(n_processors=4), worker)
    assert sorted(order) == [0, 1, 2, 3]
    assert len(set(order)) == 4


def test_barrier_synchronises_all_ranks():
    times = {}

    def worker(api):
        yield from api.compute_seconds(0.001 * (api.rank + 1))
        yield from api.barrier("sync")
        times[api.rank] = api.now
        return api.now

    res = run_parallel(cfg(n_processors=4), worker)
    vals = list(res.returns.values())
    # Everyone leaves the barrier at (nearly) the same time, after the
    # slowest rank's compute.
    assert max(vals) - min(vals) < 0.5 * max(vals)
    assert min(vals) >= 0.004


def test_barrier_reusable_same_name():
    def worker(api):
        for _ in range(3):
            yield from api.barrier("loop")
        return True

    res = run_parallel(cfg(n_processors=3), worker)
    assert all(res.returns.values())


def test_barrier_subset_parties():
    def worker(api):
        if api.rank < 2:
            yield from api.barrier("pair", parties=2)
        return True

    res = run_parallel(cfg(n_processors=4), worker)
    assert all(res.returns.values())


# --------------------------------------------------------------- procman / runtime
def test_run_parallel_returns_per_rank():
    def worker(api):
        yield from api.compute_seconds(0.0001)
        return api.rank * 10

    res = run_parallel(cfg(n_processors=6, n_machines=6), worker)
    assert res.returns == {r: r * 10 for r in range(6)}
    assert res.elapsed > 0
    assert res.sim_events > 0


def test_run_parallel_args():
    def worker(api, base):
        yield from api.sleep(0)
        return base + api.rank

    res = run_parallel(cfg(n_processors=3), worker, args=(100,))
    assert res.returns == {0: 100, 1: 101, 2: 102}


def test_run_parallel_args_of():
    def worker(api, v):
        yield from api.sleep(0)
        return v

    res = run_parallel(cfg(n_processors=3), worker, args_of=lambda r: (r * r,))
    assert res.returns == {0: 0, 1: 1, 2: 4}


def test_single_processor_run():
    def worker(api):
        yield from api.gm_write_scalar(0, 42.0)
        v = yield from api.gm_read_scalar(0)
        return v

    res = run_parallel(cfg(n_processors=1, n_machines=1), worker)
    assert res.returns == {0: 42.0}


def test_worker_exception_propagates():
    def worker(api):
        yield from api.sleep(0)
        raise ValueError("application bug")

    with pytest.raises(ValueError, match="application bug"):
        run_parallel(cfg(n_processors=2), worker)


# --------------------------------------------------------------- virtual cluster
def test_virtual_cluster_colocation_slows_compute():
    """8 kernels on 6 machines: the doubled machines dominate elapsed time."""

    def worker(api):
        yield from api.compute_seconds(0.1)
        yield from api.barrier("end")
        return True

    t6 = run_parallel(cfg(n_processors=6, n_machines=6), worker).elapsed
    t8 = run_parallel(cfg(n_processors=8, n_machines=6), worker).elapsed
    # With 8 kernels, two machines run 2 kernels each: compute there takes
    # >= 2x as long (plus context-switch tax).
    assert t8 > 1.8 * t6


def test_twelve_real_machines_avoid_the_slowdown():
    def worker(api):
        yield from api.compute_seconds(0.5)
        yield from api.barrier("end")
        return True

    t_virtual = run_parallel(cfg(n_processors=12, n_machines=6), worker).elapsed
    t_real = run_parallel(cfg(n_processors=12, n_machines=12), worker).elapsed
    assert t_virtual > 1.7 * t_real


# --------------------------------------------------------------- portability
@pytest.mark.parametrize("platform", ["sunos", "aix", "linux"])
def test_runs_identically_on_all_platforms(platform):
    """The portability claim: same program, same answers, every platform."""

    def worker(api):
        yield from api.gm_write(10 * api.rank, np.full(10, float(api.rank)))
        yield from api.barrier("w")
        data = yield from api.gm_read(0, 10 * api.size)
        return float(data.sum())

    res = run_parallel(cfg(platform=get_platform(platform)), worker)
    expected = float(sum(10 * r for r in range(4)))
    assert all(v == expected for v in res.returns.values())


def test_platform_order_preserved_in_elapsed():
    """Same compute-bound program: SparcStation slowest, PII fastest."""

    def worker(api):
        yield from api.compute(__import__("repro.hardware", fromlist=["Work"]).Work(flops=2e6))
        yield from api.barrier("end")
        return True

    times = {
        name: run_parallel(cfg(platform=get_platform(name), n_processors=2), worker).elapsed
        for name in ("sunos", "aix", "linux")
    }
    assert times["sunos"] > times["aix"] > times["linux"]


# --------------------------------------------------------------- determinism
@pytest.mark.parametrize(
    "fabric", [FabricConfig(kind="ethernet"), FabricConfig(kind="switch")],
    ids=["ethernet", "switch"],
)
def test_runs_are_deterministic(fabric):
    def worker(api):
        yield from api.lock("L")
        v = yield from api.gm_read_scalar(0)
        yield from api.gm_write_scalar(0, v + 1)
        yield from api.unlock("L")
        yield from api.barrier("end")
        return api.now

    r1 = run_parallel(cfg(n_processors=5, fabric=fabric), worker)
    r2 = run_parallel(cfg(n_processors=5, fabric=fabric), worker)
    assert r1.elapsed == r2.elapsed
    assert r1.returns == r2.returns
    assert r1.sim_events == r2.sim_events


def test_different_seed_changes_details_not_results():
    def worker(api):
        yield from api.lock("L")
        yield from api.unlock("L")
        yield from api.barrier("end")
        return api.rank

    r1 = run_parallel(cfg(n_processors=4, seed=1), worker)
    r2 = run_parallel(cfg(n_processors=4, seed=2), worker)
    assert r1.returns == r2.returns  # results identical


# --------------------------------------------------------------- handlers
def test_request_handler_fires_no_start_or_end_event(monkeypatch):
    """A served request runs its handler in place: no Initialize event
    starts it and no completion event ends it."""
    import re

    from repro.sim import core

    pushed = []
    real_push = core.heappush

    def spy(queue, entry):
        event = entry[3]
        if isinstance(event, core.Initialize):
            pushed.append(("start", event.callbacks[0].__self__.name))
        elif isinstance(event, core.Process):
            pushed.append(("end", event.name))
        real_push(queue, entry)

    monkeypatch.setattr(core, "heappush", spy)

    def master(api):
        data = yield from api.gm_read(api.kernel.gmem.total_words - 4, 4)
        return float(data.sum())

    res = run_master(cfg(n_processors=2), master)
    assert res.returns[0] == 0.0
    served = res.cluster.kernel(1).stats.counter("requests_served").value
    assert served >= 2  # the read and the shutdown
    handler = re.compile(r"k\d+\.h\d+$")
    assert ("start", "dse-master") in pushed
    assert [e for e in pushed if handler.match(e[1])] == []
