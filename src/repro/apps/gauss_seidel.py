"""Gauss-Seidel solution of simultaneous linear equations (paper §4.1).

The paper solves an N-dimensional simultaneous equation with N varied from
100 to 900.  We build a diagonally dominant dense system, solve it with:

* :func:`gauss_seidel_seq` — the true sequential Gauss-Seidel iteration
  (the speed-up denominator), and
* :func:`gauss_seidel_worker` — the DSE-parallel block variant: each
  processor owns a contiguous block of rows/unknowns; within its block it
  applies Gauss-Seidel updates (newest values), across blocks it uses the
  values published in global memory at the last sweep (block-Jacobi
  coupling, the standard distributed-memory parallelisation; it converges
  for strictly diagonally dominant systems).

The solution vector is *placed*: rank r's block of x lives in rank r's
slice of global memory, so each sweep reads p-1 remote blocks and writes
one local block — the paper's fine-grain shared-memory traffic.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

import numpy as np

from ..dse.api import ParallelAPI
from ..hardware.cpu import Work
from ..sim.core import Event
from .shared import shared_pair

__all__ = [
    "make_system",
    "gauss_seidel_seq",
    "sequential_work",
    "gauss_seidel_worker",
    "row_partition",
    "DEFAULT_SWEEPS",
]

#: fixed sweep count so runs are deterministic and timing-comparable
DEFAULT_SWEEPS = 10


def make_system(n: int, seed: int = 7) -> Tuple[np.ndarray, np.ndarray]:
    """A strictly diagonally dominant dense system (guaranteed convergence).

    Returns the one shared, read-only host copy of ``(a, b)`` for
    ``(n, seed)`` (see :mod:`repro.apps.shared`): callers that hold it at
    the same time get the same arrays, and it is freed with the last
    holder.  Copy an array before changing it.
    """
    if n < 1:
        raise ValueError(f"system dimension must be >= 1, got {n}")
    return shared_pair(("gauss_seidel", n, seed), lambda: _build_system(n, seed))


def _build_system(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    np.fill_diagonal(a, 0.0)
    dominance = np.abs(a).sum(axis=1) + 1.0
    np.fill_diagonal(a, dominance)
    b = rng.uniform(-1.0, 1.0, size=n)
    return a, b


def sweep_work(rows: int, n: int) -> Work:
    """Operation count of one Gauss-Seidel sweep over ``rows`` rows."""
    # Each row: n multiply-adds (2n flops) + a divide, touching n memory words.
    return Work(flops=2.0 * rows * n + rows, mems=float(rows * n))


def sequential_work(n: int, sweeps: int) -> Work:
    return sweep_work(n, n).scaled(sweeps)


def gauss_seidel_seq(
    a: np.ndarray, b: np.ndarray, sweeps: int = DEFAULT_SWEEPS
) -> Tuple[np.ndarray, List[float]]:
    """True sequential Gauss-Seidel; returns (x, per-sweep residual norms)."""
    n = len(b)
    x = np.zeros(n)
    residuals = []
    diag = np.diag(a)
    for _ in range(sweeps):
        for i in range(n):
            s = a[i] @ x - diag[i] * x[i]
            x[i] = (b[i] - s) / diag[i]
        residuals.append(float(np.linalg.norm(a @ x - b)))
    return x, residuals


def row_partition(n: int, size: int) -> List[Tuple[int, int]]:
    """Contiguous (lo, hi) row ranges, one per rank (remainder spread)."""
    base, extra = divmod(n, size)
    bounds = []
    lo = 0
    for r in range(size):
        hi = lo + base + (1 if r < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _block_update(
    a: np.ndarray, b: np.ndarray, x: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Gauss-Seidel update of rows [lo, hi) against the snapshot ``x``."""
    out = x.copy()
    diag = np.diag(a)
    for i in range(lo, hi):
        s = a[i] @ out - diag[i] * out[i]
        out[i] = (b[i] - s) / diag[i]
    return out[lo:hi]


def gauss_seidel_worker(
    api: ParallelAPI,
    n: int,
    sweeps: int = DEFAULT_SWEEPS,
    seed: int = 7,
    verify: bool = True,
) -> Generator[Event, Any, Dict[str, Any]]:
    """DSE-parallel block Gauss-Seidel (run under ``run_parallel``).

    The ranks share one read-only host copy of the (deterministic) system,
    the way co-located processes share read-only pages; generating it is
    uncharged.  Each rank works on its contiguous row block; the x vector
    is distributed across the ranks' global-memory slices.
    """
    a, b = make_system(n, seed)
    size, rank = api.size, api.rank
    bounds = row_partition(n, size)
    lo, hi = bounds[rank]

    # x block r lives at the start of rank r's home slice.
    def block_addr(r: int) -> int:
        return api.home_base(r)

    # Initialise own block to zero (the sequential start vector).
    yield from api.gm_write(block_addr(rank), np.zeros(max(hi - lo, 1)))
    yield from api.barrier("gs:init")
    t0 = api.now

    x = np.zeros(n)
    for sweep in range(sweeps):
        # Gather the current x: own block is local, others are remote reads.
        for r in range(size):
            rlo, rhi = bounds[r]
            if rhi > rlo:
                data = yield from api.gm_read(block_addr(r), rhi - rlo)
                x[rlo:rhi] = data
        # Separate the gather from this sweep's writes: without this
        # barrier a fast rank's write races a slow rank's gather of the
        # same block, and the "last sweep values" coupling below becomes
        # timing-dependent (found by repro.sanitize race detection).
        yield from api.barrier(f"gs:gather{sweep}")
        if hi > lo:
            # The real numerics: update own rows from the gathered snapshot.
            new_block = _block_update(a, b, x, lo, hi)
            yield from api.compute(sweep_work(hi - lo, n))
            yield from api.gm_write(block_addr(rank), new_block)
        yield from api.barrier(f"gs:sweep{sweep}")
    t1 = api.now

    result: Dict[str, Any] = {"rows": (lo, hi), "t0": t0, "t1": t1}
    if verify:
        # Final gather so the rank can report the full solution and residual.
        for r in range(size):
            rlo, rhi = bounds[r]
            if rhi > rlo:
                data = yield from api.gm_read(block_addr(r), rhi - rlo)
                x[rlo:rhi] = data
        result["x"] = x
        result["residual"] = float(np.linalg.norm(a @ x - b))
    return result
