"""Golden-value regression pins.

The simulation is fully deterministic, so a handful of canonical runs are
pinned to their exact observed values.  If a refactor changes any of these
numbers, either it changed behaviour (fix it) or it *intentionally*
re-calibrated (update the pins AND regenerate EXPERIMENTS.md).

Most pins use a tiny relative tolerance to absorb floating-point
reassociation across numpy versions; anything beyond 0.1% is a behaviour
change.  The CPU-model pins at the end are exact (``float.hex()``): they
guard the scheduler's fast paths, which must not move a single bit.
"""

import hashlib
import json

import pytest

from repro.apps import (
    count_tours_seq,
    knights_tour_workload,
    othello_workload,
)
from repro.dse import ClusterConfig, run_parallel
from repro.hardware import get_platform


def elapsed_of(worker, args, platform="sunos", p=4, **kw):
    res = run_parallel(
        ClusterConfig(platform=get_platform(platform), n_processors=p, **kw),
        worker,
        args=args,
    )
    return max(r["t1"] - r["t0"] for r in res.returns.values())


def test_pin_workload_constants():
    """Real-computation invariants (cannot drift without an algorithm change)."""
    tours, nodes = count_tours_seq()
    assert (tours, nodes) == (304, 1735079)
    w = knights_tour_workload(32)
    assert len(w.jobs) == 80
    assert w.total_nodes == 1735040
    ow = othello_workload(4)
    assert len(ow.jobs) == 30
    assert ow.total_nodes == 896
    assert ow.best_value == -43


def test_pin_gauss_seidel_point():
    from repro.apps import gauss_seidel_worker

    # Re-pinned when the mid-sweep gather barrier closed the gather/write
    # race the sanitizer found (one extra barrier per sweep).
    t = elapsed_of(gauss_seidel_worker, (300, 5, 7, False))
    assert t == pytest.approx(0.177348, rel=1e-3)


def test_pin_dct_point():
    from repro.apps import dct2_worker

    t = elapsed_of(dct2_worker, (64, 8, 0.25, 11, False))
    assert t == pytest.approx(0.461430, rel=1e-3)


def test_pin_othello_point():
    from repro.apps import othello_worker

    t = elapsed_of(othello_worker, (5,))
    assert t == pytest.approx(0.193152, rel=1e-3)


def test_pin_knights_tour_point():
    from repro.apps import knights_tour_worker

    t = elapsed_of(knights_tour_worker, (32,))
    assert t == pytest.approx(4.326778, rel=1e-3)


# -- exact pins of the processor-sharing CPU model ----------------------------
# The approx pins above cannot see a one-ulp drift.  These two runs pin the
# simulated clock, the event counts and every CPU's run-queue and busy
# integrals bit for bit (as float.hex()).  The switched run is mostly solo
# bursts (one kernel per machine); the bus run doubles kernels up on six
# machines, so its bursts share CPUs.
EXACT_PINS = {
    "switch-8-batched": {
        "elapsed": "0x1.1907a0ec71ec5p-5",
        "sim_events": 6483,
        "events_cancelled": 634,
        "runq": [
            "0x1.ac326baa98792p-1", "0x1.517350a0f531bp-2", "0x1.5080981cdab52p-2",
            "0x1.265c39df04b45p-2", "0x1.477a03d4e68a7p-2", "0x1.3b5d0c25d8cf8p-2",
            "0x1.29672b557533ap-2", "0x1.33ff9e9180a9ep-2",
        ],
        "util": [
            "0x1.142efad765053p-1", "0x1.dff1e05a8b520p-3", "0x1.dfee90af01341p-3",
            "0x1.dfcfe35c33019p-3", "0x1.dfeeb9dae963ap-3", "0x1.dfe28787170e9p-3",
            "0x1.dfcd3eea03211p-3", "0x1.dfdcc5873affep-3",
        ],
    },
    "bus-12-on-6": {
        "elapsed": "0x1.ad2315975b152p-3",
        "sim_events": 16519,
        "events_cancelled": 2393,
        "runq": [
            "0x1.8925a5996fcd3p+0", "0x1.a9b7f776df9a8p-1", "0x1.94a59d625addbp-1",
            "0x1.9c90ded32a4c9p-1", "0x1.b17e7975f26ccp-1", "0x1.9aceae2bd5dd3p-1",
        ],
        "util": [
            "0x1.844c28d89095fp-1", "0x1.beca6480a76b9p-2", "0x1.bea511bf2b106p-2",
            "0x1.bec80c347dfefp-2", "0x1.beb7b1576b991p-2", "0x1.bebd302b2d791p-2",
        ],
    },
}


def _exact_pin_config(name):
    from repro.network.topology import FabricConfig

    if name == "switch-8-batched":
        return ClusterConfig(
            platform=get_platform("linux"), n_processors=8, n_machines=8,
            fabric=FabricConfig(kind="switch"), gmem_batching=True,
        )
    return ClusterConfig(platform=get_platform("sunos"), n_processors=12, n_machines=6)


@pytest.mark.parametrize("name", sorted(EXACT_PINS))
def test_exact_pin_cpu_model(name):
    from repro.apps import gauss_seidel_worker

    res = run_parallel(_exact_pin_config(name), gauss_seidel_worker, args=(96, 2, 7, False))
    machines = res.cluster.machines
    got = {
        "elapsed": res.elapsed.hex(),
        "sim_events": res.sim_events,
        "events_cancelled": res.cluster.sim.events_cancelled,
        "runq": [m.cpu.average_run_queue().hex() for m in machines],
        "util": [m.cpu.utilization().hex() for m in machines],
    }
    assert got == EXACT_PINS[name]


# -- exact pins of the traffic layer -----------------------------------------
# One two-tenant elastic run per dispatch policy: tenant "a" is Poisson with
# Pareto(1.5) service behind a token-bucket quota, tenant "b" is a bursty
# MMPP with exponential service.  Each pin hashes the canonical result plus
# the metrics series, and pins the overall mean bit for bit, the event and
# cancellation counts, and the insertion order of the ``trf`` stat keys
# (the order ``StatSet.snapshot`` reports them in).
_SINGLE_KEYS = [
    "servers_added", "requests_offered", "requests_admitted", "clones_dispatched",
    "requests_completed", "requests_rejected", "servers_removed",
    "request_work.count", "request_work.mean", "request_work.total",
    "request_work.min", "request_work.max",
    "response_time.count", "response_time.mean", "response_time.total",
    "response_time.min", "response_time.max",
]
_CLONE_KEYS = [
    "servers_added", "requests_offered", "requests_admitted", "requests_cloned",
    "clones_dispatched", "clones_cancelled", "requests_completed",
    "requests_rejected", "servers_removed",
    "request_work.count", "request_work.mean", "request_work.total",
    "request_work.min", "request_work.max",
    "response_time.count", "response_time.mean", "response_time.total",
    "response_time.min", "response_time.max",
]
TRAFFIC_PINS = {
    "random": {
        "sha256": "3799bc12d65abc60008850b0742a24f70186907743be0d19541a123501f75d93",
        "mean": "0x1.3c8fa88ccc83fp+1",
        "sim_events": 6153,
        "events_cancelled": 1659,
        "stat_keys": _SINGLE_KEYS,
    },
    "rr": {
        "sha256": "bb64e17d9d0ada2c9fda23e7f1ffbd7d7d5d0074cb371b5f75cb81e794989f37",
        "mean": "0x1.ca14af544fff2p+0",
        "sim_events": 6153,
        "events_cancelled": 1232,
        "stat_keys": _SINGLE_KEYS,
    },
    "jsq": {
        "sha256": "39b2ad8147f3c19ece0b041e9ccc9588e8251a6918e99eba97f583c1e7cf0f4e",
        "mean": "0x1.5075afea9e168p+0",
        "sim_events": 6153,
        "events_cancelled": 830,
        "stat_keys": _SINGLE_KEYS,
    },
    "lwl": {
        "sha256": "979a62b4edfd0b10069d8fc28c9b98bf43c2502a0283a336880fd45c71712692",
        "mean": "0x1.546671fe6f7edp+0",
        "sim_events": 6153,
        "events_cancelled": 972,
        "stat_keys": _SINGLE_KEYS,
    },
    "clone-2": {
        "sha256": "97a62f7e510f8c1d988db32175c74efcba2c7962600e3bb4c51cfcf59d3651c6",
        "mean": "0x1.a673dad807de0p-1",
        "sim_events": 6153,
        "events_cancelled": 5114,
        "stat_keys": _CLONE_KEYS,
    },
    "clone-3": {
        "sha256": "5fa862a1258c107b784ee19e3dc954127a70a48b6a59c0a1583d982ac63b5983",
        "mean": "0x1.30796e6646111p-1",
        "sim_events": 6153,
        "events_cancelled": 8630,
        "stat_keys": _CLONE_KEYS,
    },
}


def _traffic_pin_config(policy):
    from repro.traffic import (
        ElasticConfig, Exponential, MMPPArrivals, Pareto, PoissonArrivals,
        QuotaConfig, TenantSpec, TrafficConfig,
    )

    return TrafficConfig(
        tenants=(
            TenantSpec("a", PoissonArrivals(2.0), Pareto(alpha=1.5, mean=1.0), 1500,
                       quota=QuotaConfig(rate=1.8, burst=10.0)),
            TenantSpec("b", MMPPArrivals(rates=(1.0, 4.0), dwells=(9.0, 1.0)),
                       Exponential(1.0), 1500),
        ),
        n_servers=6,
        policy=policy,
        seed=5,
        elastic=ElasticConfig(3, 12, 20.0),
        metrics_interval=5.0,
        obs_trace=True,
        span_sample=100,
    )


@pytest.mark.parametrize("policy", sorted(TRAFFIC_PINS))
def test_exact_pin_traffic(policy):
    from repro.traffic import TrafficEngine

    engine = TrafficEngine(_traffic_pin_config(policy))
    result = engine.run()
    blob = json.dumps(
        {"canonical": result.canonical(), "series": result.series}, sort_keys=True
    )
    got = {
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "mean": result.overall["mean"].hex(),
        "sim_events": result.sim_events,
        "events_cancelled": engine.sim.events_cancelled,
        "stat_keys": list(result.stats),
    }
    assert got == TRAFFIC_PINS[policy]
