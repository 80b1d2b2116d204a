"""Tests for the matrix-multiply extension app and SSI remote execution."""

import gc
import weakref

import numpy as np
import pytest

from repro.apps import make_matrices, matmul_work, matmul_worker
from repro.dse import Cluster, ClusterConfig, ParallelAPI, run_parallel
from repro.errors import ApplicationError, SSIError
from repro.hardware import get_platform
from repro.ssi import pick_least_loaded, remote_run


def cfg(p=4, **kw):
    kw.setdefault("platform", get_platform("linux"))
    return ClusterConfig(n_processors=p, **kw)


# ------------------------------------------------------------- matmul
def test_make_matrices_deterministic():
    a1, b1 = make_matrices(10)
    a2, b2 = make_matrices(10)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    with pytest.raises(ApplicationError):
        make_matrices(0)


def test_make_matrices_read_only_and_shared_while_held():
    a, b = make_matrices(10)
    assert not a.flags.writeable and not b.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1.0
    with pytest.raises(ValueError):
        b[0, 0] = 1.0
    a2, b2 = make_matrices(10)
    assert a2 is a and b2 is b


def test_make_matrices_freed_with_last_holder():
    a, b = make_matrices(10)
    refs = weakref.ref(a), weakref.ref(b)
    del a, b
    gc.collect()
    assert refs[0]() is None and refs[1]() is None
    a, b = make_matrices(10)
    assert not a.flags.writeable and not b.flags.writeable


def test_matmul_work_scaling():
    w = matmul_work(10, 100)
    assert w.flops == pytest.approx(2 * 10 * 100 * 100)


@pytest.mark.parametrize("p", [1, 3, 4])
def test_matmul_matches_numpy(p):
    n = 24
    kw = {"n_machines": 1} if p == 1 else {}
    res = run_parallel(cfg(p, **kw), matmul_worker, args=(n,))
    a, b = make_matrices(n)
    assert np.allclose(res.returns[0]["c"], a @ b, atol=1e-10)


def test_matmul_more_ranks_than_rows():
    n = 3
    res = run_parallel(cfg(5), matmul_worker, args=(n,))
    a, b = make_matrices(n)
    assert np.allclose(res.returns[0]["c"], a @ b, atol=1e-10)


def test_matmul_speeds_up():
    # n^3 compute vs n^2 traffic: large enough n wins despite B replication
    # over the 10 Mbit/s bus.
    n = 192
    t1 = run_parallel(cfg(1, n_machines=1, platform=get_platform("sunos")),
                      matmul_worker, args=(n, 23, False))
    t4 = run_parallel(cfg(4, platform=get_platform("sunos")),
                      matmul_worker, args=(n, 23, False))
    e1 = max(r["t1"] - r["t0"] for r in t1.returns.values())
    e4 = max(r["t1"] - r["t0"] for r in t4.returns.values())
    assert e4 < 0.6 * e1


# ------------------------------------------------------------- remote exec
def _run_master(config, master):
    cluster = Cluster(config)
    out = {}

    def driver():
        api = ParallelAPI(cluster.kernel(0), 0)
        out["value"] = yield from master(api)
        yield from cluster.shutdown_from(0)

    cluster.sim.process(driver())
    cluster.sim.run_all()
    return out["value"], cluster


def compute_task(api, x):
    yield from api.compute_seconds(0.01)
    return (x * x, api.kernel.kernel_id, api.hostname)


def test_remote_run_returns_value_from_other_node():
    def master(api):
        value, kernel_id, host = yield from remote_run(api, compute_task, (7,))
        return value, kernel_id, host

    (value, kernel_id, host), _ = _run_master(cfg(4), master)
    assert value == 49
    assert kernel_id != 0  # excluded self by default
    assert host != "node00"


def test_remote_run_explicit_target():
    def master(api):
        return (yield from remote_run(api, compute_task, (3,), target=2))

    (value, kernel_id, _), _ = _run_master(cfg(4), master)
    assert (value, kernel_id) == (9, 2)


def test_remote_run_bad_target():
    def master(api):
        with pytest.raises(SSIError):
            yield from remote_run(api, compute_task, (1,), target=99)
        return True

    value, _ = _run_master(cfg(2), master)
    assert value is True


def test_remote_tasks_can_use_global_memory():
    def task(api, addr):
        yield from api.gm_write_scalar(addr, 123.0)
        return (yield from api.gm_read_scalar(addr))

    def master(api):
        value = yield from remote_run(api, task, (50,))
        mine = yield from api.gm_read_scalar(50)
        return value, mine

    (value, mine), _ = _run_master(cfg(3), master)
    assert value == 123.0
    assert mine == 123.0  # shared memory: visible from the master too


def test_pick_least_loaded_prefers_idle():
    cluster = Cluster(cfg(4))
    cluster.sim.run(until=0.001)
    api = ParallelAPI(cluster.kernel(0), 0)
    cluster.machines[1].spawn(lambda proc: iter(()), name="hog")
    choice = pick_least_loaded(api)
    assert cluster.kernel(choice).machine is not cluster.machines[1]


def test_many_remote_tasks_spread_results():
    """Fan out 6 tasks from the master; all results return correctly."""

    def master(api):
        results = []
        for i in range(6):
            value, kid, _ = yield from remote_run(api, compute_task, (i,))
            results.append((i * i, kid))
        return results

    results, _ = _run_master(cfg(3), master)
    assert [v for v, _ in results] == [i * i for i in range(6)]
