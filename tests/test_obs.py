"""Tests for the cross-layer observability subsystem (repro.obs).

Covers the tentpole's hard requirements:

* determinism — tracing must not perturb simulated time or results;
* causality — one remote global-memory read is a single connected span
  tree crossing the DSE, OS, protocol, and link layers on both machines;
* export — the Chrome trace JSON is well-formed;
* metrics — the periodic sampler produces ring-buffered series without
  preventing the event queue from draining.
"""

import dataclasses
import io
import json

import pytest

from repro.dse import ClusterConfig, run_master, run_parallel
from repro.hardware import get_platform
from repro.network.ethernet import EthernetBus, SEND_OK
from repro.network.frame import EthernetFrame
from repro.obs import (
    MSG_CAT,
    MetricsSampler,
    NET_TID,
    SpanRecorder,
    TraceContext,
    chrome_trace_json,
    metrics_rows,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_jsonl,
)
from repro.obs.spans import UNTRACED
from repro.sim import Simulator
from repro.sim.monitor import StatSet
from repro.sim.rng import RandomStreams


# ---------------------------------------------------------------------------
# recorder unit behaviour
# ---------------------------------------------------------------------------


def test_recorder_disabled_records_nothing_via_guard():
    rec = SpanRecorder(enabled=False)
    # Instrumentation sites guard on .enabled; the recorder itself still
    # works if called, so the guard is the only thing between us and cost.
    assert rec.enabled is False
    assert rec.spans == []


def test_span_parenting_and_trace_grouping():
    rec = SpanRecorder(enabled=True)
    root = rec.begin(0.0, "api.gm_read", "api", 0, 100, None)
    child = rec.begin(0.1, "rpc:gm_read_req", "dse", 0, 100, root.ctx)
    other = rec.begin(0.2, "api.gm_write", "api", 1, 101, None)
    rec.end(child, 0.3)
    rec.end(root, 0.4)
    assert root.ctx.trace_id != other.ctx.trace_id
    assert child.ctx.trace_id == root.ctx.trace_id
    assert child.parent_id == root.ctx.span_id
    assert rec.roots() == [root, other]
    assert rec.trace(root.ctx.trace_id) == [root, child]
    assert root.duration == pytest.approx(0.4)


def test_span_limit_counts_drops():
    rec = SpanRecorder(enabled=True, limit=2)
    for i in range(5):
        rec.begin(float(i), f"s{i}", "t", 0, 0, None)
    assert len(rec.spans) == 2
    assert rec.dropped == 3
    rec.clear()
    assert rec.spans == [] and rec.dropped == 0


def test_mark_takes_no_ids_and_totals_skip_it():
    rec = SpanRecorder(enabled=True)
    first = rec.begin(0.0, "api.gm_read", "api", 0, 100, None)
    rec.mark(0.1, "send:gm_read_req", 0, 100, {"kernel": 0, "peer": 1, "bytes": 64})
    second = rec.begin(0.2, "api.gm_write", "api", 0, 100, None)
    rec.end(first, 0.3)
    rec.end(second, 0.4)
    # The record in between shifts neither the trace nor the span counter.
    assert (second.ctx.trace_id, second.ctx.span_id) == (2, 2)
    msg = rec.spans[1]
    assert msg.cat == MSG_CAT and msg.phase == "i" and msg.duration == 0.0
    assert msg.ctx is UNTRACED and msg.parent_id is None
    assert rec.trace(first.ctx.trace_id) == [first]
    assert rec.totals() == {
        "api.gm_read": {"count": 1, "total": pytest.approx(0.3)},
        "api.gm_write": {"count": 1, "total": pytest.approx(0.2)},
    }


def test_instant_has_zero_duration_and_i_phase():
    rec = SpanRecorder(enabled=True)
    root = rec.begin(0.0, "r", "t", 0, 0, None)
    mark = rec.instant(0.5, "sigio", "os", 0, 0, root.ctx)
    assert mark.phase == "i"
    assert mark.duration == 0.0
    assert mark.parent_id == root.ctx.span_id


# ---------------------------------------------------------------------------
# determinism: tracing must not perturb the simulation
# ---------------------------------------------------------------------------


def _gs_run(**obs_kwargs):
    from repro.apps.gauss_seidel import gauss_seidel_worker

    config = ClusterConfig(
        platform=get_platform("sunos"), n_processors=3, **obs_kwargs
    )
    return run_parallel(config, gauss_seidel_worker, args=(48, 2, 7, True))


def test_tracing_does_not_perturb_virtual_time_or_results():
    base = _gs_run()
    traced = _gs_run(obs_trace=True)
    # Span tracing adds no simulation events: bit-identical virtual clocks.
    assert traced.elapsed == base.elapsed
    assert traced.cluster.sim.now == base.cluster.sim.now
    for rank in base.returns:
        assert traced.returns[rank]["t0"] == base.returns[rank]["t0"]
        assert traced.returns[rank]["t1"] == base.returns[rank]["t1"]
        assert traced.returns[rank]["residual"] == base.returns[rank]["residual"]
    # ...and the traced run actually recorded something.
    assert len(traced.cluster.obs.spans) > 0
    assert base.cluster.obs.spans == []


def test_metrics_sampler_does_not_perturb_workload_timing():
    """The sampler adds its own clock ticks (final sim.now may land on the
    last tick) but must never change what the application observes."""
    base = _gs_run()
    sampled = _gs_run(obs_trace=True, obs_metrics_interval=0.0005)
    assert sampled.elapsed == base.elapsed
    for rank in base.returns:
        assert sampled.returns[rank]["t0"] == base.returns[rank]["t0"]
        assert sampled.returns[rank]["t1"] == base.returns[rank]["t1"]
        assert sampled.returns[rank]["residual"] == base.returns[rank]["residual"]
    assert sampled.cluster.metrics.samples_taken > 0


# ---------------------------------------------------------------------------
# causality: one remote read = one connected cross-layer tree
# ---------------------------------------------------------------------------


def _remote_read_master(api):
    addr = api.home_base(1)  # homed on the *other* kernel
    yield from api.gm_write(addr, [4.0, 5.0])
    data = yield from api.gm_read(addr, 2)
    return float(data.sum())


def remote_read_run(**kwargs):
    config = ClusterConfig(
        platform=get_platform("sunos"), n_processors=2, obs_trace=True, **kwargs
    )
    return run_master(config, _remote_read_master)


def test_remote_read_is_one_connected_span_tree():
    result = remote_read_run()
    assert result.returns[0] == 9.0
    obs = result.cluster.obs
    read_roots = [s for s in obs.roots() if s.name == "api.gm_read"]
    assert len(read_roots) == 1
    tree = obs.trace(read_roots[0].ctx.trace_id)
    # Every span in the trace reaches the root through parent links.
    by_id = {s.ctx.span_id: s for s in tree}
    for span in tree:
        node = span
        while node.parent_id is not None:
            node = by_id[node.parent_id]
        assert node is read_roots[0]
    names = [s.name for s in tree]
    # The full request path crosses every layer...
    for expected in (
        "api.gm_read", "rpc:gm_read_req", "sock.send", "udp.send",
        "nic.tx", "eth.tx", "sigio", "sock.recv", "serve:gm_read_req",
    ):
        assert expected in names, f"missing {expected} in {names}"
    # ...and both machines appear in the one tree.
    assert {s.pid for s in tree} == {0, 1}
    # Link-layer spans sit on the NET lane, kernel spans on the kernel's pid.
    assert all(s.tid == NET_TID for s in tree if s.name in ("nic.tx", "eth.tx"))
    # Every completed span has an end no earlier than its start.
    assert all(s.end is not None and s.end >= s.start for s in tree)


def _remote_scalar_master(api):
    addr = api.home_base(1)
    yield from api.gm_write_scalar(addr, 4.0)
    value = yield from api.gm_read_scalar(addr)
    return value


def test_scalar_gmem_calls_are_span_trees():
    config = ClusterConfig(platform=get_platform("sunos"), n_processors=2)
    plain = run_master(config, _remote_scalar_master)
    result = run_master(dataclasses.replace(config, obs_trace=True), _remote_scalar_master)
    assert result.returns[0] == plain.returns[0] == 4.0
    assert result.elapsed == plain.elapsed
    obs = result.cluster.obs
    for root_name, served in (
        ("api.gm_write", "serve:gm_write_req"),
        ("api.gm_read", "serve:gm_read_req"),
    ):
        roots = [s for s in obs.roots() if s.name == root_name]
        assert len(roots) == 1, root_name
        names = [s.name for s in obs.trace(roots[0].ctx.trace_id)]
        assert served in names, names


def test_serve_span_runs_on_remote_kernel_lane():
    result = remote_read_run()
    obs = result.cluster.obs
    serves = obs.by_name("serve:gm_read_req")
    assert serves and all(s.pid == 1 for s in serves)
    rpcs = obs.by_name("rpc:gm_read_req")
    assert rpcs and all(s.pid == 0 for s in rpcs)


def test_reliable_transport_carries_trace():
    result = remote_read_run(transport="reliable")
    obs = result.cluster.obs
    read_roots = [s for s in obs.roots() if s.name == "api.gm_read"]
    tree_names = [s.name for s in obs.trace(read_roots[0].ctx.trace_id)]
    assert "serve:gm_read_req" in tree_names
    assert "eth.tx" in tree_names


def test_gbn_transport_carries_trace():
    result = remote_read_run(transport="reliable-gbn")
    obs = result.cluster.obs
    read_roots = [s for s in obs.roots() if s.name == "api.gm_read"]
    tree_names = [s.name for s in obs.trace(read_roots[0].ctx.trace_id)]
    assert "serve:gm_read_req" in tree_names


def test_caching_coherence_carries_trace():
    result = remote_read_run(coherence="cache")
    obs = result.cluster.obs
    # The write misses and transacts GM_OWN_REQ with home; the read that
    # follows is then a pure cache hit (no messages, root span only).
    write_roots = [s for s in obs.roots() if s.name == "api.gm_write"]
    write_tree = [s.name for s in obs.trace(write_roots[0].ctx.trace_id)]
    assert "rpc:gm_own_req" in write_tree
    assert "serve:gm_own_req" in write_tree
    read_roots = [s for s in obs.roots() if s.name == "api.gm_read"]
    read_tree = obs.trace(read_roots[0].ctx.trace_id)
    assert [s.name for s in read_tree] == ["api.gm_read"]


def test_collision_instants_recorded():
    """Two stations transmitting together must collide and mark it."""
    sim = Simulator()
    sim.obs = SpanRecorder(enabled=True)
    rng = RandomStreams(7)
    bus = EthernetBus(sim, rng)
    bus.attach(0, lambda f: None)
    bus.attach(1, lambda f: None)
    statuses = []

    for src in (0, 1):
        ctx = sim.obs.begin(sim.now, f"test-root-{src}", "test", src, NET_TID, None).ctx
        frame = EthernetFrame(src=src, dst=1 - src, payload=None,
                              payload_bytes=256, trace=ctx)
        bus.transmit(frame, statuses.append)
    sim.run_all()
    assert statuses == [SEND_OK, SEND_OK]
    collisions = sim.obs.by_name("eth.collision")
    assert collisions and all(s.phase == "i" for s in collisions)
    eth = sim.obs.by_name("eth.tx")
    assert len(eth) == 2
    assert all(s.args and s.args["attempts"] >= 2 for s in eth)


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------


def test_chrome_trace_json_well_formed(tmp_path):
    result = remote_read_run()
    cluster = result.cluster
    doc = json.loads(chrome_trace_json(cluster.obs, cluster))
    events = doc["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] in ("X", "i", "M")
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] != "M":
            assert isinstance(event["ts"], float) or isinstance(event["ts"], int)
        if event["ph"] == "X":
            assert event["dur"] >= 0
        if event["ph"] == "i":
            assert event["s"] == "t"
    # metadata names every machine and kernel
    meta_names = [e["args"]["name"] for e in events if e["ph"] == "M"]
    assert any("station 0" in n for n in meta_names)
    assert any(n.startswith("kernel k") for n in meta_names)
    assert any("net" in n for n in meta_names)
    # round-trip through a file too
    path = tmp_path / "trace.json"
    count = write_chrome_trace(cluster.obs, str(path), cluster=cluster)
    on_disk = json.loads(path.read_text())
    assert on_disk == json.loads(chrome_trace_json(cluster.obs, cluster))
    assert len(on_disk["traceEvents"]) == count
    assert on_disk["otherData"]["dropped"] == 0


# ---------------------------------------------------------------------------
# metrics sampler + series export
# ---------------------------------------------------------------------------


def test_sampler_samples_at_interval_and_terminates():
    sim = Simulator()
    sampler = MetricsSampler(sim, interval=0.5)
    ticks = []
    sampler.register("level", lambda: float(len(ticks)))

    def busy():
        for _ in range(4):
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    sim.process(busy())
    sampler.start()
    sim.run_all()  # must terminate: the sampler stops when the queue drains
    series = sampler.get("level")
    assert len(series) >= 8
    times = [t for t, _v in series.items()]
    assert times == sorted(times)
    assert times[1] - times[0] == pytest.approx(0.5)


def test_sampler_ring_buffer_caps_length():
    sim = Simulator()
    sampler = MetricsSampler(sim, interval=0.1, maxlen=10)
    sampler.register("const", lambda: 1.0)

    def busy():
        yield sim.timeout(100.0)

    sim.process(busy())
    sampler.start()
    sim.run_all()
    assert len(sampler.get("const")) == 10  # oldest samples evicted


def test_register_statset_snapshots_counters():
    sim = Simulator()
    sampler = MetricsSampler(sim, interval=1.0)
    stats = StatSet("x")
    stats.counter("hits").increment(3)
    stats.tally("wait").observe(2.0)
    sampler.register_statset("x", stats)
    sampler.sample()
    assert sampler.get("x.hits").last == 3
    assert sampler.get("x.wait.mean").last == 2.0


def test_cluster_metrics_series_and_exports(tmp_path):
    result = remote_read_run(obs_metrics_interval=0.0002)
    sampler = result.cluster.metrics
    assert sampler is not None
    assert len(sampler.get("bus.utilization")) > 0
    hit_ratio = sampler.get("k0.gmem.hit_ratio").last
    assert 0.0 <= hit_ratio <= 1.0
    rows = metrics_rows(sampler)
    assert rows and all(set(r) == {"series", "time", "value"} for r in rows)
    # CSV
    buf = io.StringIO()
    n = write_metrics_csv(sampler, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "series,time,value"
    assert len(lines) == n + 1
    # JSONL
    path = tmp_path / "metrics.jsonl"
    n2 = write_metrics_jsonl(sampler, str(path))
    parsed = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(parsed) == n2 == n


def test_statset_snapshot_min_max_guarded():
    stats = StatSet("s")
    stats.tally("empty")  # no observations: min/max sentinels must not leak
    stats.tally("seen").observe(3.0)
    stats.tally("seen").observe(-1.0)
    snap = stats.snapshot()
    assert "empty.min" not in snap and "empty.max" not in snap
    assert snap["seen.min"] == -1.0
    assert snap["seen.max"] == 3.0


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_obs_values():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        ClusterConfig(obs_metrics_interval=-1.0)
    with pytest.raises(ConfigurationError):
        ClusterConfig(obs_span_limit=-1)


def test_trace_context_slots():
    ctx = TraceContext(1, 2)
    assert (ctx.trace_id, ctx.span_id) == (1, 2)
    with pytest.raises(AttributeError):
        ctx.extra = 1  # __slots__: no surprise dict per context
