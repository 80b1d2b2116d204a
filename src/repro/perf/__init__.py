"""Performance layer: the committed engine and transport benchmarks.

Two parts:

* :mod:`repro.perf.benches` — the canonical wall-clock scenarios recorded
  in ``BENCH_engine.json`` and gated by ``tools/check_bench.py``.
* :mod:`repro.perf.netbench` — the transport x burst-loss goodput matrix
  recorded in ``BENCH_transport.json`` (same tool, ``--suite transport``).

:mod:`repro.perf.paired` is the measuring helper of host-time assertions
on a shared host: alternating pairs, the median per-pair ratio and its
win count.

Host-time attribution lives elsewhere: ``hostbench/run.py --trace 1`` for
per-package self time and ``python -m cProfile`` for per-function calls.
See ``docs/performance.md`` for how these guided the engine fast paths and
``docs/networking.md`` for the transport loss benchmarks.
"""

from .benches import BENCHES, MICRO_BENCHES, run_bench, time_bench
from .netbench import (
    CANONICAL,
    LOSS_POINTS,
    TRANSPORTS,
    matrix_ratios,
    run_matrix,
    run_stream,
    sweep_rows,
)
from .paired import PairedTimes, time_pairs

__all__ = [
    "BENCHES",
    "MICRO_BENCHES",
    "run_bench",
    "time_bench",
    "CANONICAL",
    "LOSS_POINTS",
    "TRANSPORTS",
    "matrix_ratios",
    "run_matrix",
    "run_stream",
    "sweep_rows",
    "PairedTimes",
    "time_pairs",
]
