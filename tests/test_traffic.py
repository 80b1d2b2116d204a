"""Tests for the repro.traffic multi-tenant request layer.

The ISSUE-level properties live here: seed-deterministic streams (same
config => byte-identical results, serial vs pooled sweeps identical),
heavy-tail moment sanity for the service distributions, the
JSQ-never-worse-than-random property, and clone-cancel leaving no
orphaned work on any server — plus coverage of admission control,
elasticity, crash reassignment, the SSI service directory, and the
full-stack cluster backend.
"""

import hashlib
import json
import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.resilience.campaign import CrashPlan
from repro.sim import Simulator
from repro.sim.statreg import COUNTERS, TALLIES
from repro.ssi import ServiceDirectory
from repro.traffic.analytic import (
    clone_mean_response,
    clone_vs_random,
    expected_ordering,
    ps_mean_response,
    random_dispatch_mean_response,
)
from repro.traffic.arrivals import (
    Deterministic,
    Exponential,
    MMPPArrivals,
    Pareto,
    PoissonArrivals,
    make_arrivals,
    make_service,
)
from repro.traffic.bench import run_point
from repro.traffic.cli import _sweep_task, build_sweep_config, run_traced_traffic
from repro.traffic.engine import (
    ElasticConfig,
    TrafficConfig,
    TrafficEngine,
    run_traffic,
)
from repro.traffic.policies import make_policy
from repro.traffic.service import Clone, PSServer
from repro.traffic.slo import SUBDIV, LatencyHistogram
from repro.traffic.tenants import QuotaConfig, TenantSpec, TokenBucket


def _single_tenant(policy, rho=0.5, requests=2000, service=None, **kw):
    service = service if service is not None else Exponential(1.0)
    return TrafficConfig(
        tenants=(TenantSpec("t", PoissonArrivals(rho * 4), service, requests),),
        n_servers=4,
        policy=policy,
        seed=11,
        **kw,
    )


# -- arrivals and service distributions ---------------------------------------
def test_poisson_gaps_deterministic_and_mean():
    gaps1 = PoissonArrivals(2.0).gaps(random.Random(5))
    gaps2 = PoissonArrivals(2.0).gaps(random.Random(5))
    seq = [gaps1() for _ in range(5000)]
    assert seq[:100] == [gaps2() for _ in range(100)]
    assert sum(seq) / len(seq) == pytest.approx(0.5, rel=0.1)


def test_mmpp_long_run_rate_matches_mean_rate():
    mmpp = make_arrivals("mmpp", 13.0)
    assert isinstance(mmpp, MMPPArrivals)
    assert mmpp.mean_rate == pytest.approx(13.0)
    next_gap = mmpp.gaps(random.Random(3))
    n = 40000
    total = sum(next_gap() for _ in range(n))
    assert n / total == pytest.approx(13.0, rel=0.1)


def test_pareto_moments_and_min_of_d():
    dist = Pareto(alpha=2.2, mean=1.0)
    assert dist.xm == pytest.approx(1.2 / 2.2)
    rng = random.Random(17)
    samples = [dist.sample(rng) for _ in range(60000)]
    assert min(samples) >= dist.xm
    assert sum(samples) / len(samples) == pytest.approx(1.0, rel=0.1)
    # empirical E[min of 2] against the closed form (Pareto(2*alpha, xm))
    mins = [min(samples[i], samples[i + 1]) for i in range(0, len(samples), 2)]
    assert sum(mins) / len(mins) == pytest.approx(dist.min_of_mean(2), rel=0.1)


def test_scv_classifies_variability():
    assert Deterministic(1.0).scv == 0.0
    assert Exponential(1.0).scv == 1.0
    assert Pareto(alpha=1.5, mean=1.0).scv == float("inf")
    assert Pareto(alpha=3.0, mean=1.0).scv == pytest.approx(1.0 / 3.0)


def test_factories_reject_unknown_specs():
    with pytest.raises(ConfigurationError):
        make_arrivals("lognormal", 1.0)
    with pytest.raises(ConfigurationError):
        make_service("weibull", 1.0)
    assert make_service("pareto:1.5", 2.0).alpha == 1.5
    with pytest.raises(ConfigurationError):
        Pareto(alpha=1.0, mean=1.0)
    with pytest.raises(ConfigurationError):
        MMPPArrivals(rates=(1.0, 2.0), dwells=(1.0,))


# -- latency histogram --------------------------------------------------------
def test_histogram_bucket_bounds_cover_value():
    # (the 5e-324 denormal floor is excluded: its bounds underflow)
    for value in (1e-300, 1e-9, 0.3, 1.0, 7.25, 1e9):
        index = LatencyHistogram.bucket_of(value)
        lo, hi = LatencyHistogram.bucket_bounds(index)
        assert lo <= value < hi
        # linear subdivision within each octave: relative width is at
        # most 1/SUBDIV (at the bottom of the octave)
        assert 1.0 < hi / lo <= 1.0 + 1.0 / SUBDIV


def test_histogram_merge_equals_combined():
    rng = random.Random(1)
    a, b, both = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
    for i in range(2000):
        v = rng.expovariate(1.0)
        (a if i % 2 else b).observe(v)
        both.observe(v)
    a.merge(b)
    assert a.buckets == both.buckets
    assert a.count == both.count
    assert a.total == pytest.approx(both.total)  # addition order differs
    assert a.min == both.min and a.max == both.max


def test_histogram_quantiles_track_exponential():
    hist = LatencyHistogram()
    rng = random.Random(2)
    for _ in range(50000):
        hist.observe(rng.expovariate(1.0))
    assert hist.quantile(0.5) == pytest.approx(math.log(2), rel=0.1)
    assert hist.quantile(0.99) == pytest.approx(math.log(100), rel=0.1)
    summary = hist.summary()
    assert set(summary) == {"count", "mean", "min", "max", "p50", "p99", "p999"}
    empty = LatencyHistogram()
    assert empty.quantile(0.5) == 0.0 and empty.summary()["min"] == 0.0


def test_histogram_floors_nonpositive_values():
    hist = LatencyHistogram()
    hist.observe(0.0)
    assert hist.count == 1 and hist.min == 5e-324


# -- admission control --------------------------------------------------------
def test_token_bucket_rejects_then_refills():
    bucket = TokenBucket(QuotaConfig(rate=1.0, burst=2.0), now=0.0)
    assert bucket.try_take(0.0) and bucket.try_take(0.0)
    assert not bucket.try_take(0.0)  # burst exhausted
    assert bucket.try_take(1.5)      # 1.5 tokens refilled
    assert not bucket.try_take(1.6)
    bucket2 = TokenBucket(QuotaConfig(rate=1.0, burst=2.0), now=0.0)
    assert bucket2.try_take(100.0)   # refill caps at burst
    assert bucket2.tokens == pytest.approx(1.0)


def test_quota_validation():
    with pytest.raises(ConfigurationError):
        QuotaConfig(rate=0.0, burst=2.0)
    with pytest.raises(ConfigurationError):
        QuotaConfig(rate=1.0, burst=0.5)


# -- service directory --------------------------------------------------------
def test_directory_register_resolve_idempotent():
    directory = ServiceDirectory()
    directory.register("svc", 1, 0.0)
    directory.register("svc", 0, 1.0)
    directory.register("svc", 1, 2.0)  # idempotent, no journal entry
    assert directory.resolve("svc") == [0, 1]
    assert directory.resolve("nope") == []
    assert directory.services() == ["svc"]
    assert len(directory.journal) == 2


def test_directory_membership_replay():
    directory = ServiceDirectory()
    directory.register("svc", 0, 0.0)
    directory.register("svc", 1, 1.0)
    directory.deregister("svc", 0, 2.0)
    directory.register("svc", 2, 3.0)
    assert directory.membership_at("svc", 0.5) == [0]
    assert directory.membership_at("svc", 1.5) == [0, 1]
    assert directory.membership_at("svc", 2.5) == [1]
    assert directory.membership_at("svc", 99.0) == [1, 2]


# -- policies -----------------------------------------------------------------
def test_make_policy_spellings():
    assert make_policy("clone-3").n_clones == 3
    for name in ("random", "rr", "jsq", "lwl"):
        assert make_policy(name).n_clones == 1
    with pytest.raises(ConfigurationError):
        make_policy("p2c")
    with pytest.raises(ConfigurationError):
        make_policy("clone-x")
    with pytest.raises(ConfigurationError):
        make_policy("clone-1")


_CLUSTER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.integers(0, 11), st.integers(1, 3)),
        st.tuples(st.just("remove"), st.integers(0, 11), st.just(1)),
        st.tuples(st.just("grow"), st.integers(1, 3), st.just(0)),
        st.tuples(st.just("shrink"), st.integers(1, 3), st.just(0)),
        st.tuples(st.just("crash"), st.integers(1, 11), st.just(0)),
        st.tuples(st.just("restart"), st.integers(1, 11), st.just(0)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(n_servers=st.integers(1, 6), ops=_CLUSTER_OPS)
def test_jsq_loop_matches_min_with_key(n_servers, ops):
    """JSQ's plain loop picks what ``min(active, key=(queue_len, id))``
    picks, on queue states built by admits, removals and membership churn
    (ties are common: queues stay a few jobs deep)."""
    from repro.sim import Simulator
    from repro.traffic.service import Clone, VirtualCluster

    sim = Simulator()
    cluster = VirtualCluster(sim, n_servers, max_servers=8)
    servers = cluster.servers
    policy = make_policy("jsq")

    def check():
        want = min(cluster.active, key=lambda i: (servers[i].queue_len, i))
        assert policy.select(cluster, None, sim.now) == [want]

    check()
    for op, a, b in ops:
        if op == "admit":
            server = servers[cluster.active[a % len(cluster.active)]]
            for _ in range(b):
                server.admit(Clone(None, 1.0), sim.now)
        elif op == "remove":
            server = servers[a % len(servers)]
            if server.jobs:
                server.remove(next(iter(server.jobs)), sim.now)
        elif op == "grow":
            cluster.grow(a)
        elif op == "shrink":
            cluster.shrink(a)
        elif op == "crash":
            if len(servers) > 1:  # server 0 is the un-crashable anchor
                cluster.crash(1 + a % (len(servers) - 1))
        else:
            cluster.restart(a % len(servers))
        check()


def test_config_validation_fails_fast():
    spec = TenantSpec("t", PoissonArrivals(1.0), Exponential(1.0), 10)
    with pytest.raises(ConfigurationError):
        TrafficConfig(tenants=(), n_servers=2)
    with pytest.raises(ConfigurationError):
        TrafficConfig(tenants=(spec, spec), n_servers=2)
    with pytest.raises(ConfigurationError):
        TrafficConfig(tenants=(spec,), n_servers=2, policy="bogus")
    # capacity checks live in the engine (they need the built cluster)
    with pytest.raises(ConfigurationError):
        TrafficEngine(TrafficConfig(tenants=(spec,), n_servers=2, policy="clone-4"))
    with pytest.raises(ConfigurationError):
        TrafficEngine(TrafficConfig(
            tenants=(spec,), n_servers=2, policy="clone-2",
            elastic=ElasticConfig(min_servers=1, max_servers=4),
        ))


# -- determinism --------------------------------------------------------------
def test_same_config_byte_identical():
    config = _single_tenant("jsq", requests=1500)
    a = run_traffic(config).canonical()
    b = run_traffic(config).canonical()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seed_changes_the_sample_path():
    base = _single_tenant("random", requests=800)
    other = TrafficConfig(
        tenants=base.tenants, n_servers=base.n_servers,
        policy=base.policy, seed=base.seed + 1,
    )
    assert run_traffic(base).canonical() != run_traffic(other).canonical()


def test_policy_change_keeps_arrival_stream_paired():
    """Common random numbers: tenant streams are policy-independent."""
    a = run_traffic(_single_tenant("random", requests=1200)).canonical()
    b = run_traffic(_single_tenant("jsq", requests=1200)).canonical()
    assert a["stats"]["requests_offered"] == b["stats"]["requests_offered"]
    assert a["stats"]["request_work.total"] == pytest.approx(
        b["stats"]["request_work.total"]
    )


def test_sweep_identical_across_jobs():
    from repro.experiments.parallel import run_tasks

    grid = [
        {"policy": policy, "rho": 0.5, "requests": 500, "seed": 9,
         "n_servers": 4, "elastic": False, "crashes": 0}
        for policy in ("random", "clone-2")
    ]
    serial = run_tasks(_sweep_task, grid, jobs=1)
    pooled = run_tasks(_sweep_task, grid, jobs=2)
    assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)


# -- the report's orderings ---------------------------------------------------
def test_jsq_never_worse_than_random():
    for rho in (0.4, 0.7):
        jsq = run_point("jsq", rho, n_requests=4000)
        rand = run_point("random", rho, n_requests=4000)
        assert jsq["mean"] <= rand["mean"]
        assert jsq["p99"] <= rand["p99"]


def test_clone_beats_random_on_heavy_tail():
    clone = run_point("clone-2", 0.5, n_requests=4000)
    rand = run_point("random", 0.5, n_requests=4000)
    assert clone["mean"] < rand["mean"]


def test_cloning_loses_on_deterministic_service():
    clone = run_point("clone-2", 0.45, "det", n_requests=4000)
    rand = run_point("random", 0.45, "det", n_requests=4000)
    assert rand["mean"] < clone["mean"]


def test_check_gates_without_closed_forms_keeps_only_orderings():
    from pathlib import Path

    from repro.traffic.bench import check_gates

    committed = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCH_traffic.json").read_text()
    )["trajectory"][-1]["results"]
    full = check_gates(committed)
    orderings = check_gates(committed, closed_forms=False)
    assert orderings == [gate for gate in full if "analytic" not in gate[0]]
    assert len(orderings) == 4 and len(full) > len(orderings)
    assert all(ok for _, ok in full)


def test_traffic_smoke_gate_exits_zero():
    """``check_bench.py --suite traffic --smoke`` keeps the ordering gates
    and skips the closed-form checks its 6,000-request sample cannot hold."""
    import subprocess
    import sys
    from pathlib import Path

    tool = Path(__file__).resolve().parent.parent / "tools" / "check_bench.py"
    out = subprocess.run(
        [sys.executable, str(tool), "--suite", "traffic", "--smoke"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "skipping the sim-vs-analytic checks" in out.stdout
    assert out.stdout.count("[PASS] heavy tail") == 3


def test_mm_ps_matches_insensitivity_formula():
    """M/M/1-PS via random dispatch: E[T] = E[S] / (1 - rho)."""
    result = run_traffic(_single_tenant("random", rho=0.5, requests=30000))
    analytic = random_dispatch_mean_response(Exponential(1.0), 2.0, 4)
    assert analytic == pytest.approx(2.0)
    assert result.mean_response == pytest.approx(analytic, rel=0.1)


# -- clone lifecycle hygiene --------------------------------------------------
def test_clone_cancel_leaves_no_orphaned_work():
    engine = TrafficEngine(_single_tenant(
        "clone-2", requests=3000, service=Pareto(alpha=1.5, mean=1.0),
    ))
    result = engine.run()
    assert engine._outstanding == 0
    for server in engine.cluster.servers:
        assert server.jobs == {}
        assert not any(entry[2].alive for entry in server._heap)
    stats = result.stats
    admitted = stats["requests_admitted"]
    assert stats["requests_completed"] == admitted
    assert stats["clones_dispatched"] == 2 * admitted
    # exactly one sibling cancelled per completed request
    assert stats["clones_cancelled"] == admitted
    assert result.overall["count"] == admitted


def test_single_dispatch_has_no_cancellations():
    result = run_traffic(_single_tenant("lwl", requests=1000))
    assert result.stats.get("clones_cancelled", 0) == 0
    assert result.stats["clones_dispatched"] == result.stats["requests_admitted"]


# -- multi-tenant sweep scenario ----------------------------------------------
def test_sweep_scenario_quota_and_accounting():
    result = run_traffic(build_sweep_config("random", 0.6, 4000, seed=3))
    for name in ("web", "batch"):
        tenant = result.per_tenant[name]
        assert tenant["offered"] == tenant["rejected"] + tenant["count"]
    batch = result.per_tenant["batch"]
    assert batch["rejected"] > 0          # MMPP bursts overflow the quota
    assert result.per_tenant["web"]["rejected"] == 0  # no quota on web
    assert result.stats["requests_offered"] == (
        result.per_tenant["web"]["offered"] + batch["offered"]
    )


def test_elastic_resizes_and_completes():
    config = build_sweep_config("random", 0.7, 4000, seed=5, elastic=True)
    engine = TrafficEngine(config)
    result = engine.run()
    assert result.stats["requests_completed"] == result.stats["requests_admitted"]
    resizes = (result.stats.get("servers_added", 0) - config.n_servers
               + result.stats.get("servers_removed", 0))
    assert resizes > 0
    assert config.elastic.min_servers <= result.servers_final <= config.elastic.max_servers
    assert engine.cluster.total_queue() == 0


def test_crash_reassigns_and_every_request_completes():
    lam = 0.5 * 4
    config = TrafficConfig(
        tenants=(TenantSpec(
            "t", PoissonArrivals(lam), Pareto(alpha=1.5, mean=1.0), 3000,
        ),),
        n_servers=4,
        policy="random",
        seed=13,
        crashes=(
            CrashPlan(kernel_id=1, at=200.0, restart_after=50.0),
            CrashPlan(kernel_id=2, at=900.0, restart_after=None),
        ),
    )
    engine = TrafficEngine(config)
    result = engine.run()
    assert result.stats["server_crashes"] == 2
    assert result.stats["server_restarts"] == 1
    assert result.stats["requests_reassigned"] > 0
    assert result.stats["requests_completed"] == result.stats["requests_admitted"]
    assert engine._outstanding == 0
    for server in engine.cluster.servers:
        assert server.jobs == {}


def _crash_campaign_config():
    """Four crashes (servers 1, 2, 3, then 1 again) at rho=0.95 on 4 servers."""
    return TrafficConfig(
        tenants=(TenantSpec(
            "t", PoissonArrivals(0.95 * 4), Pareto(alpha=1.5, mean=1.0), 20000,
        ),),
        n_servers=4,
        policy="random",
        seed=13,
        crashes=tuple(
            CrashPlan(kernel_id=k, at=at, restart_after=300.0)
            for k, at in zip((1, 2, 3, 1), (2000.0, 3000.0, 4000.0, 5000.0))
        ),
    )


def _canonical_sha(result):
    blob = json.dumps(result.canonical(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


#: canonical digest of the crash campaign; its 185 reassignment draws go to
#: the lost clones in admission order
CRASH_CAMPAIGN_SHA = "4b35998a4f0fa44c5f2f64a6042fcc1e710a7791a080f0ba7ed85384d577c9d8"


def test_crash_reassignment_independent_of_memory_layout():
    """Lost clones are reassigned in admission order, never heap-address
    order: repeated runs with different allocations in between, and a
    fresh interpreter, all give the same canonical result."""
    import subprocess
    import sys
    from pathlib import Path

    ballast = []
    digests = []
    for n_objects in (0, 5000, 777):
        ballast.append([object() for _ in range(n_objects)])
        result = run_traffic(_crash_campaign_config())
        assert result.stats["requests_reassigned"] == 185
        digests.append(_canonical_sha(result))
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import tests.test_traffic as t\n"
        "print(t._canonical_sha(t.run_traffic(t._crash_campaign_config())))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(src.parent)]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    digests.append(out.stdout.strip())
    assert digests == [CRASH_CAMPAIGN_SHA] * 4


def _clone_crash_campaign_config():
    """clone-2 on 6 servers (clone groups {0,1}, {2,3}, {4,5}).  Groups
    {2,3} and {4,5} each lose both members 0.1 s apart and restart them
    later: most requests there lose one clone and keep a live sibling,
    and a few lose both and are reassigned."""
    return TrafficConfig(
        tenants=(TenantSpec(
            "t", PoissonArrivals(3.6), Pareto(alpha=1.5, mean=1.0), 4000,
        ),),
        n_servers=6,
        policy="clone-2",
        seed=21,
        crashes=tuple(
            CrashPlan(kernel_id=k, at=at, restart_after=after)
            for k, at, after in ((2, 200.0, 150.0), (3, 200.1, 150.0),
                                 (4, 600.0, 100.0), (5, 600.1, 100.0))
        ),
    )


def _sha_without_sim_events(result):
    canonical = result.canonical()
    del canonical["sim_events"]  # counts heap events, not simulated outcomes
    return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()


#: the clone-2 campaign's digest without ``sim_events`` and its lazily
#: cancelled events, recorded while tenants were still generator processes
CLONE_CRASH_PIN = ("710acd1a0b319b458526acfb7ce1f777b544afc75f93687e62715a8cfe892780", 9070)


def test_clone_crash_restart_campaign_pinned():
    engine = TrafficEngine(_clone_crash_campaign_config())
    result = engine.run()
    assert result.stats["requests_reassigned"] == 5
    assert result.stats["server_restarts"] == 4
    assert result.stats["requests_completed"] == result.stats["requests_admitted"] == 4000
    assert (_sha_without_sim_events(result), engine.sim.events_cancelled) == CLONE_CRASH_PIN
    for server in engine.cluster.servers:
        assert server.jobs == {}


@pytest.mark.parametrize("policy", ["random", "jsq", "clone-2"])
def test_single_tenant_run_processes_two_events_per_request(policy):
    """One arrival and one departure per request: a tenant is a timer, not
    a process, and a cancelled sibling clone never reaches dispatch."""
    result = run_traffic(_single_tenant(policy, requests=1500))
    assert result.stats["requests_completed"] == 1500
    assert result.sim_events == 2 * 1500


def test_crashed_server_never_fires_its_pending_departure():
    sim = Simulator()
    server = PSServer(sim, 1)
    done = []
    server.on_complete = lambda clone, now: done.append((clone.request, now))
    clone = Clone("lost", 2.0)
    server.admit(clone, sim.now)
    sim.run(until=1.0)
    assert server.crash(sim.now) == [clone] and not clone.alive
    sim.run_all()
    assert done == [] and sim.events_processed == 0 and sim.events_cancelled == 1
    assert sim._timeout_pool == []  # the server keeps its one timer
    server.restart(sim.now)
    server.admit(Clone("kept", 1.0), sim.now)
    sim.run_all()
    assert done == [("kept", 2.0)] and sim.events_processed == 1


# -- observability ------------------------------------------------------------
def test_traced_run_emits_request_spans():
    from repro.experiments.timeline import span_census

    engine = run_traced_traffic(requests=600, span_sample=25, seed=3)
    request_spans = [
        s for s in engine.recorder.spans if s.cat == "request"
    ]
    assert request_spans
    assert all(s.end is not None for s in request_spans)
    census = span_census(engine.recorder, sim=engine.sim)
    assert "request spans" in census
    assert "trf.request.web" in census


def test_metrics_series_sampled():
    config = _single_tenant("random", requests=400, metrics_interval=5.0)
    engine = TrafficEngine(config)
    engine.run()
    series = engine.sampler.series
    assert "trf.servers_active" in series
    assert series["trf.servers_active"].items()[-1][1] == 4.0
    assert "trf.requests_completed" in series


def test_stat_keys_are_registered():
    result = run_traffic(build_sweep_config("clone-2", 0.6, 1500, seed=1, crashes=1))
    for key in result.stats:
        base = key.partition(".")[0]
        assert base in COUNTERS or base in TALLIES, key


# -- analytic module ----------------------------------------------------------
def test_analytic_formulas():
    assert ps_mean_response(1.0, 0.5) == pytest.approx(2.0)
    with pytest.raises(ConfigurationError):
        ps_mean_response(1.0, 1.0)
    heavy = Pareto(alpha=1.5, mean=1.0)
    # alpha 1.5: cloning is exactly load-neutral, wins at every load
    assert expected_ordering(heavy, 4.0, 8, 2) == "clone"
    # deterministic: clone loses both below and at clone-side saturation
    assert expected_ordering(Deterministic(1.0), 3.0, 8, 2) == "random"
    assert expected_ordering(Deterministic(1.0), 4.0, 8, 2) == "random"
    # exponential is load-neutral with half the min-mean: clone wins too
    assert expected_ordering(Exponential(1.0), 3.0, 8, 2) == "clone"
    clone, rand = clone_vs_random(heavy, 4.0, 8, 2)
    assert clone == clone_mean_response(heavy, 4.0, 8, 2)
    assert rand == random_dispatch_mean_response(heavy, 4.0, 8)
    assert clone < rand
    with pytest.raises(ConfigurationError):
        clone_mean_response(heavy, 4.0, 7, 2)  # n must divide by d


# -- full-stack cluster backend -----------------------------------------------
def test_cluster_traffic_deterministic_and_complete():
    from repro.traffic.cluster_backend import run_cluster_traffic

    kw = dict(n_kernels=3, n_requests=24, arrival_rate=30.0,
              mean_service=0.02, seed=5)
    a = run_cluster_traffic(**kw)
    b = run_cluster_traffic(**kw)
    assert a == b
    assert a["count"] == 24
    assert a["mean"] > 0


def test_cluster_traffic_survives_burst_loss():
    from repro.traffic.cluster_backend import run_cluster_traffic

    lossy = run_cluster_traffic(
        n_kernels=3, n_requests=16, arrival_rate=30.0, mean_service=0.02,
        transport="sr", p_enter_bad=0.05, seed=5,
    )
    assert lossy["count"] == 16


def test_dual_equals_sr_without_payload_traffic():
    """Request RPCs are all control-class: with no GM payload the dual
    transport's unreliable lane is unused and results match sr exactly."""
    from repro.traffic.cluster_backend import run_cluster_traffic

    kw = dict(n_kernels=3, n_requests=20, arrival_rate=30.0,
              mean_service=0.02, p_enter_bad=0.03, seed=5)
    assert run_cluster_traffic(transport="sr", **kw) == dict(
        run_cluster_traffic(transport="dual", **kw), transport="sr"
    )


def test_payload_traffic_diverges_under_dual():
    from repro.traffic.cluster_backend import run_cluster_traffic

    kw = dict(n_kernels=3, n_requests=20, arrival_rate=30.0,
              mean_service=0.02, p_enter_bad=0.03, payload_words=64, seed=5)
    sr = run_cluster_traffic(transport="sr", **kw)
    dual = run_cluster_traffic(transport="dual", **kw)
    assert sr["count"] == dual["count"] == 20
    assert sr["mean"] != dual["mean"]  # the bulk lane changes the path


def test_resilient_traffic_retries_through_crashes():
    from repro.traffic.cluster_backend import run_resilient_traffic

    summary = run_resilient_traffic(
        n_kernels=3, n_requests=30, arrival_rate=40.0,
        mean_service=0.02, crash_times=(0.2,), seed=5,
    )
    assert summary["completed"] == 30
    assert summary["retries"] >= 1
