"""Tests for the Gauss-Seidel application (sequential + DSE-parallel)."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.apps.gauss_seidel import (
    DEFAULT_SWEEPS,
    gauss_seidel_seq,
    gauss_seidel_worker,
    make_system,
    row_partition,
    sequential_work,
    sweep_work,
)
from repro.dse import ClusterConfig, run_parallel
from repro.hardware import get_platform
from repro.network.topology import FabricConfig


def cfg(p=4, **kw):
    kw.setdefault("platform", get_platform("linux"))
    return ClusterConfig(n_processors=p, **kw)


def test_make_system_diagonally_dominant():
    a, b = make_system(50)
    diag = np.abs(np.diag(a))
    off = np.abs(a).sum(axis=1) - diag
    assert np.all(diag > off)
    assert a.shape == (50, 50) and b.shape == (50,)


def test_make_system_deterministic():
    a1, b1 = make_system(20, seed=3)
    a2, b2 = make_system(20, seed=3)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    a3, _ = make_system(20, seed=4)
    assert not np.array_equal(a1, a3)


def test_make_system_validation():
    with pytest.raises(ValueError):
        make_system(0)


def test_make_system_is_read_only():
    a, b = make_system(12, seed=5)
    assert not a.flags.writeable and not b.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1.0
    with pytest.raises(ValueError):
        b[0] = 1.0


def test_make_system_shared_while_held():
    a1, b1 = make_system(12, seed=5)
    a2, b2 = make_system(12, seed=5)
    assert a2 is a1 and b2 is b1
    a3, b3 = make_system(12, seed=6)
    assert a3 is not a1 and b3 is not b1


def test_make_system_freed_with_last_holder():
    """A weak memo: nothing is kept for the life of the process."""
    a, b = make_system(12, seed=5)
    refs = weakref.ref(a), weakref.ref(b)
    del a, b
    gc.collect()
    assert refs[0]() is None and refs[1]() is None
    a, b = make_system(12, seed=5)
    assert not a.flags.writeable and not b.flags.writeable


def test_make_system_replaces_only_the_freed_array():
    a, b = make_system(12, seed=5)
    b_ref = weakref.ref(b)
    del b
    gc.collect()
    assert b_ref() is None
    a2, b2 = make_system(12, seed=5)
    assert a2 is a
    assert np.array_equal(b2, make_system(12, seed=5)[1])


def _traced_peak(p):
    config = cfg(p, n_machines=p, fabric=FabricConfig(kind="switch"))
    gc.collect()
    tracemalloc.start()
    try:
        run_parallel(config, gauss_seidel_worker, args=(256, 1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ranks_share_one_system_copy():
    """28 more ranks cost far less host memory than 28 more 256x256
    systems (512 KiB each, about 14 MiB)."""
    extra = _traced_peak(32) - _traced_peak(4)
    assert extra < 4 * 2**20


def test_sequential_converges_to_true_solution():
    a, b = make_system(40)
    x, residuals = gauss_seidel_seq(a, b, sweeps=30)
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-8)
    # Residuals must decrease monotonically until they hit round-off.
    for r1, r2 in zip(residuals, residuals[1:]):
        if r1 < 1e-12:
            break
        assert r2 < r1


def test_row_partition_covers_all_rows():
    bounds = row_partition(10, 3)
    assert bounds == [(0, 4), (4, 7), (7, 10)]
    assert bounds[0][0] == 0 and bounds[-1][1] == 10


def test_row_partition_more_ranks_than_rows():
    bounds = row_partition(2, 4)
    assert bounds == [(0, 1), (1, 2), (2, 2), (2, 2)]


def test_work_model_scaling():
    w1 = sweep_work(10, 100)
    w2 = sweep_work(20, 100)
    assert w2.flops == pytest.approx(2 * w1.flops)
    seq = sequential_work(100, 5)
    assert seq.flops == pytest.approx(5 * sweep_work(100, 100).flops)


def test_parallel_matches_convergence_quality():
    """The block-parallel variant must converge (to the same solution)."""
    res = run_parallel(cfg(3), gauss_seidel_worker, args=(60, 25))
    a, b = make_system(60)
    truth = np.linalg.solve(a, b)
    for rank, out in res.returns.items():
        assert np.allclose(out["x"], truth, atol=1e-6), f"rank {rank} diverged"
        assert out["residual"] < 1e-6


def test_parallel_identical_across_ranks():
    res = run_parallel(cfg(4), gauss_seidel_worker, args=(30, 10))
    xs = [out["x"] for out in res.returns.values()]
    for x in xs[1:]:
        assert np.array_equal(x, xs[0])


def test_parallel_single_processor_equals_sequential():
    """With one processor the block variant IS plain Gauss-Seidel."""
    n, sweeps = 30, 8
    res = run_parallel(cfg(1, n_machines=1), gauss_seidel_worker, args=(n, sweeps))
    a, b = make_system(n)
    x_seq, _ = gauss_seidel_seq(a, b, sweeps)
    assert np.allclose(res.returns[0]["x"], x_seq, atol=1e-12)


def test_parallel_row_assignment():
    res = run_parallel(cfg(3), gauss_seidel_worker, args=(10, 2))
    assert [res.returns[r]["rows"] for r in range(3)] == [(0, 4), (4, 7), (7, 10)]


def test_more_ranks_than_rows_still_correct():
    res = run_parallel(cfg(6), gauss_seidel_worker, args=(4, 20))
    a, b = make_system(4)
    truth = np.linalg.solve(a, b)
    assert np.allclose(res.returns[0]["x"], truth, atol=1e-8)


def test_timing_markers_present_and_ordered():
    res = run_parallel(cfg(2), gauss_seidel_worker, args=(20, 3))
    for out in res.returns.values():
        assert 0 <= out["t0"] < out["t1"]


def test_verify_false_skips_gather():
    res = run_parallel(cfg(2), gauss_seidel_worker, args=(20, 3, 7, False))
    assert "x" not in res.returns[0]
    assert "t1" in res.returns[0]


def test_small_system_parallel_slower_than_sequential():
    """The paper's small-N result: parallelising n=100 on several
    processors is a net loss."""
    t1 = run_parallel(cfg(1, n_machines=1), gauss_seidel_worker, args=(100, 5, 7, False))
    t6 = run_parallel(cfg(6), gauss_seidel_worker, args=(100, 5, 7, False))
    e1 = max(r["t1"] - r["t0"] for r in t1.returns.values())
    e6 = max(r["t1"] - r["t0"] for r in t6.returns.values())
    assert e6 > e1


def test_large_system_parallel_faster():
    """...and the large-N result: n=700 on 4 processors wins clearly."""
    t1 = run_parallel(cfg(1, n_machines=1), gauss_seidel_worker, args=(700, 4, 7, False))
    t4 = run_parallel(cfg(4), gauss_seidel_worker, args=(700, 4, 7, False))
    e1 = max(r["t1"] - r["t0"] for r in t1.returns.values())
    e4 = max(r["t1"] - r["t0"] for r in t4.returns.values())
    assert e4 < 0.6 * e1
