"""Parallel dense matrix multiplication (extension application).

Not one of the paper's four workloads — included as the classic
shared-memory demo a DSE user would write first, and as a large-transfer
stress for the DSM (whole matrix rows move through global memory).

Decomposition: ``C = A @ B`` with A and C split into row blocks, one per
rank, living in that rank's global-memory slice; B lives in the master's
slice and every rank reads it once.  Real numerics via numpy; charged cost
is the classic ``2·n³`` multiply-add count split across ranks.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Tuple

import numpy as np

from ..dse.api import ParallelAPI
from ..errors import ApplicationError
from ..hardware.cpu import Work
from ..sim.core import Event
from .gauss_seidel import row_partition
from .shared import shared_pair

__all__ = ["make_matrices", "matmul_work", "matmul_worker"]


def make_matrices(n: int, seed: int = 23) -> Tuple[np.ndarray, np.ndarray]:
    """The operands ``(A, B)``: the one shared, read-only host copy for
    ``(n, seed)`` (see :mod:`repro.apps.shared`), freed with its last
    holder."""
    if n < 1:
        raise ApplicationError(f"matrix dimension must be >= 1, got {n}")
    return shared_pair(("matmul", n, seed), lambda: _build_matrices(n, seed))


def _build_matrices(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)), rng.normal(size=(n, n))


def matmul_work(rows: int, n: int) -> Work:
    """Cost of computing ``rows`` rows of an n×n product."""
    return Work(flops=2.0 * rows * n * n, mems=float(rows * n + n * n))


def matmul_worker(
    api: ParallelAPI, n: int, seed: int = 23, verify: bool = True
) -> Generator[Event, Any, Dict[str, Any]]:
    """DSE-parallel matrix multiply (run under ``run_parallel``).

    The ranks share one read-only host copy of the operands, the way
    co-located processes share read-only pages; generating them is
    uncharged.  Layout: B at the master's slice base; rank r's rows of A
    at ``home_base(r)``, its rows of C right after them.
    """
    a, b = make_matrices(n, seed)
    bounds = row_partition(n, api.size)
    lo, hi = bounds[api.rank]
    rows = hi - lo

    b_addr = api.home_base(0) + 2 * n * n  # clear of A/C blocks of rank 0
    a_addr = api.home_base(api.rank)
    c_addr = a_addr + max(rows, 1) * n

    # Distribution (untimed): master publishes B, each rank its A rows.
    if api.rank == 0:
        yield from api.gm_write(b_addr, b.ravel())
    if rows:
        yield from api.gm_write(a_addr, a[lo:hi].ravel())
    yield from api.barrier("mm:loaded")
    t0 = api.now

    result: Dict[str, Any] = {}
    if rows:
        flat_b = yield from api.gm_read(b_addr, n * n)
        my_a = (yield from api.gm_read(a_addr, rows * n)).reshape(rows, n)
        my_c = my_a @ flat_b.reshape(n, n)
        yield from api.compute(matmul_work(rows, n))
        yield from api.gm_write(c_addr, my_c.ravel())
    yield from api.barrier("mm:done")
    t1 = api.now
    result.update({"t0": t0, "t1": t1, "rows": (lo, hi)})

    if verify and api.rank == 0:
        c = np.empty((n, n))
        for r, (rlo, rhi) in enumerate(bounds):
            if rhi > rlo:
                block = yield from api.gm_read(
                    api.home_base(r) + (rhi - rlo) * n, (rhi - rlo) * n
                )
                c[rlo:rhi] = block.reshape(rhi - rlo, n)
        result["c"] = c
    return result
