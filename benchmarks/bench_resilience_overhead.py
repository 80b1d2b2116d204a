"""Resilience overhead: what the crash-tolerance machinery costs.

The contract mirrors the sanitizer and tracing benches
(``bench_sanitize_overhead.py``, ``bench_obs_overhead.py``):

* **disabled** (``resilience=None``) — every hook site is one
  ``is not None`` test on a cached manager reference, so a plain run pays
  nothing for the subsystem's existence: wall-clock stays within noise of
  the contract bound and *simulated* time is bit-identical run to run
  (guard micro-benchmark below);
* **enabled, no faults** — heartbeats, membership bookkeeping, and
  per-sweep checkpoints cost real simulated and wall-clock time; both are
  reported and loosely bounded so a regression that makes fault-free runs
  pathologically slow fails loudly.
"""

import time

from repro.apps.knights_tour import knights_tour_worker, knights_tour_workload
from repro.dse import ClusterConfig, run_parallel
from repro.hardware import get_platform
from repro.perf import time_pairs
from repro.resilience import ResilienceConfig, run_resilient
from repro.resilience.workloads import resilient_gauss_seidel

N_JOBS = 16
GS_ARGS = (48, 4, 7, False)  # n, sweeps, seed, verify
PAIRS = 9


def _run_plain(outcomes: list) -> None:
    """One Knight's Tour run with resilience=None, its job pool rebuilt.

    Clearing the memo makes every run search the tree, as a first run
    does, so each timed body is tens of milliseconds, not the ~10 ms of a
    run that only replays cached counts; ``outcomes`` gets the run's
    simulated elapsed time and event counts.
    """
    knights_tour_workload.cache_clear()
    config = ClusterConfig(
        platform=get_platform("sunos"), n_processors=4, resilience=None
    )
    result = run_parallel(config, knights_tour_worker, args=(N_JOBS,))
    sim = result.cluster.sim
    outcomes.append((result.elapsed, sim.events_processed, sim.events_cancelled))


def test_disabled_path_is_deterministic_and_cheap():
    outcomes: list = []
    times = time_pairs(lambda: _run_plain(outcomes), lambda: _run_plain(outcomes), PAIRS)
    elapsed, events, cancelled = outcomes[0]
    print(f"\nknights-tour n_jobs={N_JOBS} p=4 resilience=None: "
          f"{PAIRS} pairs, median ratio {times.median_ratio:.3f} "
          f"(ratios {' '.join(f'{r:.2f}' for r in times.ratios)}), "
          f"simulated {elapsed:.6f}s, {events} events, {cancelled} cancelled")
    # Exact companions: the disabled path does the same simulated work on
    # every run, bit for bit.
    assert outcomes == [outcomes[0]] * (2 * PAIRS)
    # Paired runs of the *same* configuration bound the disabled path
    # against itself: the hooks add no systematic cost.
    assert times.balance > 1 / 1.02 - 0.15


def test_fault_free_resilient_run_is_loosely_bounded():
    config = ClusterConfig(
        platform=get_platform("sunos"), n_processors=4, resilience=None
    )
    start = time.perf_counter()
    base = run_parallel(
        config,
        lambda api, *a: resilient_gauss_seidel(api, None, *a),
        args=GS_ARGS,
    )
    plain_wall = time.perf_counter() - start

    res_config = ClusterConfig(
        platform=get_platform("sunos"),
        n_processors=4,
        resilience=ResilienceConfig(),
    )
    start = time.perf_counter()
    clean = run_resilient(res_config, resilient_gauss_seidel, args=GS_ARGS)
    res_wall = time.perf_counter() - start

    sim_ratio = clean.elapsed / base.elapsed
    wall_ratio = res_wall / plain_wall
    print(f"\ngauss-seidel n={GS_ARGS[0]} p=4: "
          f"plain {base.elapsed * 1e3:.3f} ms sim / {plain_wall:.3f}s wall, "
          f"resilient {clean.elapsed * 1e3:.3f} ms sim / {res_wall:.3f}s wall "
          f"(sim x{sim_ratio:.2f}, wall x{wall_ratio:.2f})")
    assert clean.recoveries == 0
    # Heartbeats + per-sweep checkpoints cost simulated time, but must stay
    # a small multiple of the app, not dominate it.
    assert sim_ratio < 3.0, f"fault-free resilience sim cost x{sim_ratio:.2f}"
    assert wall_ratio < 10.0, f"fault-free resilience wall cost x{wall_ratio:.2f}"


def test_disabled_guard_is_cheap():
    """The disabled-mode hook is one `x is not None` test — measure it."""
    config = ClusterConfig(n_processors=2, resilience=None)
    from repro.dse.cluster import Cluster

    resilience = Cluster(config).resilience
    assert resilience is None  # the shape every kernel/api hook relies on
    n = 1_000_000

    start = time.perf_counter()
    for _ in range(n):
        if resilience is not None:
            raise AssertionError("unreachable")
    guarded = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(n):
        pass
    empty = time.perf_counter() - start

    per_hook_ns = (guarded - empty) / n * 1e9
    print(f"\ndisabled-mode guard: {per_hook_ns:.1f} ns per hook site")
    assert per_hook_ns < 500, f"guard costs {per_hook_ns:.0f} ns — not zero-cost"
