"""Engine benchmarks: the raw throughput of the simulation substrate.

Unlike the figure benches (which measure *simulated* time), these measure
real wall-clock throughput of the discrete-event engine — the number the
next person extending the simulator cares about.  Each one times the
scenario of the same name in :mod:`repro.perf.benches`, which
``tools/check_bench.py`` times for ``BENCH_engine.json``.
"""

from repro.perf import run_bench


def test_engine_timeout_throughput(benchmark):
    """Bare event-loop speed: a chain of timeouts."""
    out = benchmark(run_bench, "timeout_chain")
    assert out["events"] >= 20_000


def test_processor_sharing_churn(benchmark):
    """PS CPU with constant arrivals/departures (the scheduler hot path)."""
    out = benchmark(run_bench, "ps_churn")
    assert out["completed"] == 2_000


def test_bus_contention_throughput(benchmark):
    """CSMA/CD arbitration under 8-station contention."""
    out = benchmark(run_bench, "bus_contention")
    assert out["frames"] == 800


def test_full_stack_run_wall_clock(benchmark):
    """One end-to-end figure point (cluster build + app + teardown)."""
    out = benchmark(run_bench, "figure_point")
    assert out["events"] > 100
