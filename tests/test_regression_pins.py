"""Golden-value regression pins.

The simulation is fully deterministic, so a handful of canonical runs are
pinned to their exact observed values.  If a refactor changes any of these
numbers, either it changed behaviour (fix it) or it *intentionally*
re-calibrated (update the pins AND regenerate EXPERIMENTS.md).

Most pins use a tiny relative tolerance to absorb floating-point
reassociation across numpy versions; anything beyond 0.1% is a behaviour
change.  The CPU-model pins at the end are exact (``float.hex()``): they
guard the scheduler's fast paths, which must not move a single bit.  A
change to how costs are charged that moves them is re-pinned only with a
decision record (``docs/performance.md``), and the conservation pins show
that it moved no charged cost.
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
from repro.obs import MSG_CAT


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
    assert [othello_workload(d).total_nodes for d in (3, 5, 6)] == [204, 2775, 12055]
    ow5 = othello_workload(5)
    assert (ow5.best_value, ow5.best_move) == (-32, 26)


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
# machines, so its bursts share CPUs.  The float fields were re-pinned when
# the CPU became a virtual-time PS queue: a finish tag rounds differently
# from repeated subtraction of the remaining work (elapsed moved by 2.1e-14
# and 2.2e-15 relative); both event counts stayed as they were.
EXACT_PINS = {
    "switch-8-batched": {
        "elapsed": "0x1.1907a0ec71ed2p-5",
        # 3462 while each NIC started a driver process (one event per NIC)
        # and each gmem read scheduled a combining marker, joined or not
        "sim_events": 3342,
        "events_cancelled": 309,
        "runq": [
            "0x1.ac326baa987a7p-1", "0x1.517350a0f5300p-2", "0x1.5080981cdab62p-2",
            "0x1.265c39df04b2bp-2", "0x1.477a03d4e6843p-2", "0x1.3b5d0c25d8c91p-2",
            "0x1.29672b5575356p-2", "0x1.33ff9e9180aa1p-2",
        ],
        "util": [
            "0x1.142efad765050p-1", "0x1.dff1e05a8b50bp-3", "0x1.dfee90af01344p-3",
            "0x1.dfcfe35c3302cp-3", "0x1.dfeeb9dae9638p-3", "0x1.dfe28787170eep-3",
            "0x1.dfcd3eea031ffp-3", "0x1.dfdcc5873b005p-3",
        ],
    },
    "bus-12-on-6": {
        "elapsed": "0x1.ad2315975b182p-3",
        # 10278 before the bus arbiter became one timer: each arbitration
        # then also ended a resolver process (one event); 9545 while each
        # NIC started a driver process (one event per NIC)
        "sim_events": 9539,
        "events_cancelled": 1178,
        "runq": [
            "0x1.8925a5996fe2cp+0", "0x1.a9b7f776df89cp-1", "0x1.94a59d625aaadp-1",
            "0x1.9c90ded32a4fdp-1", "0x1.b17e7975f21f9p-1", "0x1.9aceae2bd60a6p-1",
        ],
        "util": [
            "0x1.844c28d89092ep-1", "0x1.beca6480a7675p-2", "0x1.bea511bf2b0cbp-2",
            "0x1.bec80c347dfb1p-2", "0x1.beb7b1576b936p-2", "0x1.bebd302b2d755p-2",
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


# -- conservation of the charged CPU cost --------------------------------------
# The same two runs, per machine: the syscall count (exact) and the total CPU
# demand submitted (to round-off).  Captured while each socket call was still
# charged as two (send) or three (receive) bursts, so merging a call's costs
# into one burst is shown to move no cost, only how it is summed.
CONSERVATION_PINS = {
    "switch-8-batched": {
        "syscalls": [170, 73, 73, 73, 73, 73, 73, 73],
        "demand": [0.021251777619047618] + [0.009235410476190477] * 7,
    },
    "bus-12-on-6": {
        "syscalls": [367, 210, 210, 210, 210, 210],
        "demand": [0.17563876666666595, 0.10110600000000027, 0.10110600000000025,
                   0.10110600000000027, 0.10110600000000025, 0.10110600000000027],
    },
}


@pytest.mark.parametrize("name", sorted(CONSERVATION_PINS))
def test_socket_charges_are_conserved(name):
    from repro.apps import gauss_seidel_worker

    res = run_parallel(_exact_pin_config(name), gauss_seidel_worker, args=(96, 2, 7, False))
    machines = res.cluster.machines
    pin = CONSERVATION_PINS[name]
    assert [m.stats.counter("syscalls").value for m in machines] == pin["syscalls"]
    demand = [m.cpu.stats.snapshot()["demand.total"] for m in machines]
    assert demand == pytest.approx(pin["demand"], rel=1e-12, abs=0)


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
        "sha256": "8e979472af892173a8b50f9e006141bb96074c08eadc3f6c86156cb256987648",
        "mean": "0x1.3c8fa88ccc83fp+1",
        "sim_events": 6149,
        "events_cancelled": 1659,
        "stat_keys": _SINGLE_KEYS,
    },
    "rr": {
        "sha256": "b58ecff085b3746207dd81a7efdc9d21024bb81f748c707c7c07b65ed4ce9efd",
        "mean": "0x1.ca14af544fff2p+0",
        "sim_events": 6149,
        "events_cancelled": 1232,
        "stat_keys": _SINGLE_KEYS,
    },
    "jsq": {
        "sha256": "527cc356e7cd7dfe28b5f50879fe57b7d7b6453b084f993cebd87d0086c7bc80",
        "mean": "0x1.5075afea9e168p+0",
        "sim_events": 6149,
        "events_cancelled": 830,
        "stat_keys": _SINGLE_KEYS,
    },
    "lwl": {
        "sha256": "ad87a24b22f3c0691a2e0a3b23ea14f0d536d0ce070c52f132fd39c2beae7a88",
        "mean": "0x1.546671fe6f7edp+0",
        "sim_events": 6149,
        "events_cancelled": 972,
        "stat_keys": _SINGLE_KEYS,
    },
    "clone-2": {
        "sha256": "9cad2ae646fbabfcd2ed6667276ed5c5a303a0311ff93833202fc53dcdfc0c90",
        "mean": "0x1.a673dad807de0p-1",
        "sim_events": 6149,
        "events_cancelled": 5114,
        "stat_keys": _CLONE_KEYS,
    },
    "clone-3": {
        "sha256": "6f4f3034fbdc8ac4f61890fbcb17bb4808d0b5f9878c42cf12b4330109ed442e",
        "mean": "0x1.30796e6646111p-1",
        "sim_events": 6149,
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


# -- exact pins of what the hostbench fingerprint cannot see ------------------
# The fingerprint sorts stat keys and never turns a tracer on.  These pins
# cover the same two runs as EXACT_PINS: the ordered keys and exact values of
# every per-object StatSet snapshot (a hoisted counter read one call too
# early moves a key), and the recorder of an ``obs_trace=True`` run, split
# into its per-message ``cat="msg"`` records (``trace_records``/``trace``,
# digested as ``time|k<id>|send/recv|[type, peer, bytes]`` lines) and its
# other spans.  Each is a sha256 so a moved key or a skipped record shows as
# a changed digest.  ``trace`` and ``span_digest`` hash timestamps, so they
# moved with EXACT_PINS' elapsed when the CPU became a virtual-time queue;
# the stat digests and both record counts did not.
TRACE_PINS = {
    "switch-8-batched": {
        "stats": {
            "machine": "720ef10ab9d3919c90afff36482a4b13f2f7c79a2e8989a285ad8eb6e909f29e",
            "cpu": "abaf824ce009e0a78c0648367eb8916c9502b9d27ac45c508da057763478befc",
            "nic": "9e908c6512559ddf5da83e7c780dcae30d23e1b21d3ce40c4ee0d3068e4340cf",
            "transport": "a9c790c126730ef9809a71560adf46b699c1c0c1fb53c0ec962d4b1a5f8cfcba",
            "fabric": "59097c576bea7bbb9b36fdb98650dfea6d855cd5e8a5087c95aeed662080d450",
            "exchange": "a69bfdc295a6b157baeda402c0e8b906ad43d66f3a62b311bf674411de1d559d",
            "gmem": "8b4a2d221e6c7d33fcd98d5ed7fd294eb1938d9679e19b7fabf0246c02b3748a",
            "kernel": "6c0d5f19113846de0c3b3859e8a100caf9ba404957d5d27fd38b23fe88ec1934",
            "sync": "b81207c92ed899ecbfe14a84f8ba560478a9d4a4a426d5e8086e2f0501298f7e",
            "procman": "45f2f10fc81fbeb90111564a25f9f4b594366ebbe044b4ea7f6ddd3b56f48931",
        },
        "trace_records": 498,
        "trace": "1b968af88918cea73908b5cd36524b91cec80b08ee1d69d91ac941ec778f2ffa",
        "spans": 1971,
        "span_digest": "5720be8698fcdd74f8885cd137cd1701cc90eb06b1b1b1de24bc72cafd17085a",
    },
    "bus-12-on-6": {
        "stats": {
            "machine": "614b8e7d1c6c85fae9de127f655c7db73c3eff09ffc2888f8a323383d14422d6",
            "cpu": "d0870685d6ccbbced2dd2733d7a6644fdefd182d3b70441556c434ee1e139f68",
            "nic": "9fa5d60df4576837a12f9650e816149f10765176afabb51958f3fcace92fb74a",
            "transport": "61cfc1d6c449f3516b802947358239d8ec4527c6124e6b6458f06c8a8fb83799",
            "fabric": "057fe857edf80111ec91db1f5d6b6947ff8a19021e6fbbae9c1717306cc66c94",
            "exchange": "dcc18ecfc62bb71bbf644b07b677797453dd0e3b2fa203e6c3950ed238c7f55d",
            "gmem": "c96b48560ad3c74525e68bd1bbd33cb4f97ae236dd352edd3fdbc67d859f6b02",
            "kernel": "b1c0beeb7ac99f2c648df09a29a6351fafe2e7faa607fbe1dcd5fc93a4d4e0d1",
            "sync": "101e267f4aaebe46fd54928d8511ce3dac416336c7ee6de6c3e69d451552d699",
            "procman": "a9a3f5f93ab0abf974c1accbb03b099637e091f51913217d7e24644a268997c3",
        },
        "trace_records": 1046,
        "trace": "426acd4ce5c5b227511c935446aefc0580203c18d8bcae1c5041eeaad039a827",
        "spans": 4906,
        "span_digest": "efad70f35844411193243806819e6e0bac17544bad6cb74c9915182075b62c64",
    },
}

#: per-object stat sets, by kind
_STAT_KINDS = {
    "machine": lambda c: [m.stats for m in c.machines],
    "cpu": lambda c: [m.cpu.stats for m in c.machines],
    "nic": lambda c: [m.nic.stats for m in c.machines],
    "transport": lambda c: [m.transport.stats for m in c.machines],
    "fabric": lambda c: [c.network.fabric.stats],
    "exchange": lambda c: [k.exchange.stats for k in c.kernels],
    "gmem": lambda c: [k.gmem.stats for k in c.kernels],
    "kernel": lambda c: [k.stats for k in c.kernels],
    "sync": lambda c: [k.sync.stats for k in c.kernels],
    "procman": lambda c: [k.procman.stats for k in c.kernels],
}


def _exact(value):
    return value.hex() if isinstance(value, float) else repr(value)


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _stat_digests(cluster):
    return {
        kind: _sha256(
            f"{stats.name}:{key}={_exact(value)}"
            for stats in statsets(cluster)
            for key, value in stats.snapshot().items()
        )
        for kind, statsets in _STAT_KINDS.items()
    }


def _message_digest(records):
    lines = []
    for r in records:
        kind, msg_type = r.name.split(":", 1)
        detail = [msg_type, r.args["peer"], r.args["bytes"]]
        lines.append(f"{_exact(r.start)}|k{r.args['kernel']}|{kind}|{json.dumps(detail)}")
    return _sha256(lines)


def _span_digest(spans):
    # tids are UNIX pids from a process-wide counter; number them by first
    # appearance so the digest does not depend on what ran before.
    tids = {}
    lines = []
    for s in spans:
        tid = tids.setdefault(s.tid, len(tids))
        end = "-" if s.end is None else _exact(s.end)
        lines.append(
            f"{s.name}|{s.cat}|{s.pid}|{tid}|{_exact(s.start)}|{end}|{s.phase}|"
            f"{s.ctx.trace_id}.{s.ctx.span_id}<{s.parent_id}|{json.dumps(s.args)}"
        )
    return _sha256(lines)


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_exact_pin_stat_keys_and_traces(name):
    import dataclasses

    from repro.apps import gauss_seidel_worker

    args = (96, 2, 7, False)
    config = _exact_pin_config(name)
    plain = run_parallel(config, gauss_seidel_worker, args=args)
    traced = run_parallel(
        dataclasses.replace(config, obs_trace=True), gauss_seidel_worker, args=args
    )
    # The recorder may not move the simulated clock.
    assert traced.elapsed.hex() == EXACT_PINS[name]["elapsed"]
    messages = [s for s in traced.cluster.obs.spans if s.cat == MSG_CAT]
    spans = [s for s in traced.cluster.obs.spans if s.cat != MSG_CAT]
    got = {
        "stats": _stat_digests(plain.cluster),
        "trace_records": len(messages),
        "trace": _message_digest(messages),
        "spans": len(spans),
        "span_digest": _span_digest(spans),
    }
    assert got == TRACE_PINS[name]
