"""Performance layer: event-loop profiling and engine benchmarks.

Three parts:

* :mod:`repro.perf.engine` — :class:`EngineProfiler`, the dispatch-level
  profiler behind ``dse-experiments profile-engine``: per-event-type
  counts/time, callback fan-out histograms, and hot-site attribution.
* :mod:`repro.perf.benches` — the canonical wall-clock scenarios recorded
  in ``BENCH_engine.json`` and gated by ``tools/check_bench.py``.
* :mod:`repro.perf.netbench` — the transport x burst-loss goodput matrix
  recorded in ``BENCH_transport.json`` (same tool, ``--suite transport``).

See ``docs/performance.md`` for how these guided the engine fast paths and
``docs/networking.md`` for the transport loss benchmarks.
"""

from .benches import BENCHES, MICRO_BENCHES, run_bench, time_bench
from .engine import EngineProfile, EngineProfiler, SiteStats
from .netbench import (
    CANONICAL,
    LOSS_POINTS,
    TRANSPORTS,
    matrix_ratios,
    run_matrix,
    run_stream,
    sweep_rows,
)

__all__ = [
    "BENCHES",
    "MICRO_BENCHES",
    "run_bench",
    "time_bench",
    "EngineProfile",
    "EngineProfiler",
    "SiteStats",
    "CANONICAL",
    "LOSS_POINTS",
    "TRANSPORTS",
    "matrix_ratios",
    "run_matrix",
    "run_stream",
    "sweep_rows",
]
