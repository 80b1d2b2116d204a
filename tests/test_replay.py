"""Tests for repro.replay: time-travel debugging.

Covers the tentpole contracts end to end — the checkpoint ring's retention
and eviction, bit-identical replay (record → seek --at T → continue yields
the same final solution *and* simulated clock as the original), span-
anchored seek, snapshot restore, divergence detection, manifest round-
trips, live streaming, and the CLI faces — plus the recorder's piggyback
on resilience checkpoints and the disabled-path invariants.
"""

import io
import json
import socket

import numpy as np
import pytest

from repro.dse.config import ClusterConfig
from repro.dse.runtime import LaunchedRun, launch_parallel, run_parallel
from repro.errors import ConfigurationError, ReplayDivergence, ReplayError
from repro.experiments.cli import main as experiments_main
from repro.replay import (
    CheckpointRing,
    LiveSink,
    Recording,
    ReplayConfig,
    ReplaySession,
    WorkloadSpec,
    live_run,
    record,
)
from repro.replay.recording import (
    config_from_dict,
    config_to_dict,
    fingerprint_returns,
)
from repro.resilience import ResilienceConfig
from repro.resilience.workloads import resilient_gauss_seidel

GS_ARGS = (32, 3, 7, True)  # n, sweeps, seed, verify — small but non-trivial

GS_SPEC = WorkloadSpec(
    module="repro.resilience.workloads",
    attr="resilient_gauss_seidel",
    args=GS_ARGS,
    ck_style=True,
    label="gauss-seidel",
)


def _config(**kw):
    kw.setdefault("n_processors", 4)
    kw.setdefault("seed", 1999)
    kw.setdefault("obs_trace", True)
    kw.setdefault("replay", ReplayConfig())
    return ClusterConfig(**kw)


@pytest.fixture(scope="module")
def gs_recording():
    """One shared gauss-seidel recording (record() is deterministic)."""
    return record(_config(), spec=GS_SPEC)


# ------------------------------------------------------------ config
def test_replay_config_validation():
    with pytest.raises(ConfigurationError):
        ClusterConfig(n_processors=2, replay=ReplayConfig(ring_size=0))
    with pytest.raises(ConfigurationError):
        ClusterConfig(n_processors=2, replay=ReplayConfig(snapshot_interval=-1))
    with pytest.raises(ConfigurationError):
        ClusterConfig(n_processors=2, replay=object())


# ------------------------------------------------------------ ring
def _fill_ring(ring, n, world=2):
    for seq in range(n):
        for rank in range(world):
            slot = ring.put_rank(
                seq, f"v{seq}", rank,
                {"rank": rank, "seq": seq}, np.full(4, float(seq)),
                now=0.01 * (seq + 1),
            )
    return slot


def test_ring_eviction_keeps_newest_and_all_waypoints():
    ring = CheckpointRing(ring_size=2, world=2)
    _fill_ring(ring, 5)
    assert [s.seq for s in ring.slots] == [3, 4]
    assert ring.evictions == 3
    # Waypoints are append-only: every commit is still verifiable.
    assert [w["seq"] for w in ring.waypoints] == [0, 1, 2, 3, 4]
    assert [w["retained"] for w in ring.waypoints] == [True] * 5
    assert all(w["fingerprint"] for w in ring.waypoints)
    assert len(ring) == 2


def test_ring_commit_waits_for_all_ranks():
    ring = CheckpointRing(ring_size=4, world=3)
    assert ring.put_rank(0, "v0", 0, {}, np.zeros(2), now=0.1) is None
    assert ring.put_rank(0, "v0", 1, {}, np.zeros(2), now=0.1) is None
    slot = ring.put_rank(0, "v0", 2, {}, np.zeros(2), now=0.1)
    assert slot is not None and slot.seq == 0
    assert len(ring) == 1


def test_ring_waypoint_only_commit_is_not_retained():
    ring = CheckpointRing(ring_size=4, world=1)
    ring.put_rank(0, "v0", 0, {}, np.zeros(2), now=0.1, retained=False)
    assert len(ring.slots) == 0 and len(ring.waypoints) == 1
    assert ring.waypoints[0]["retained"] is False
    assert ring.evictions == 0  # a skip is not an eviction


def test_ring_nearest():
    ring = CheckpointRing(ring_size=8, world=1)
    _fill_ring(ring, 3, world=1)  # commits at t=0.01, 0.02, 0.03
    assert ring.nearest(0.025).seq == 1
    assert ring.nearest(0.03).seq == 2
    assert ring.nearest(0.001) is None


def test_ring_fingerprint_is_state_sensitive():
    a = CheckpointRing(ring_size=2, world=1)
    b = CheckpointRing(ring_size=2, world=1)
    sa = a.put_rank(0, "v", 0, {"x": 1}, np.zeros(2), now=0.1)
    sb = b.put_rank(0, "v", 0, {"x": 2}, np.zeros(2), now=0.1)
    assert sa.fingerprint != sb.fingerprint


# ------------------------------------------------------------ recording
def test_recording_contains_ring_spans_and_final(gs_recording):
    rec = gs_recording
    assert rec.final["elapsed"] > 0
    assert rec.final["fingerprint"]
    assert len(rec.waypoints) == 4  # one per committed checkpoint sweep
    assert [s.seq for s in rec.slots] == [0, 1, 2, 3]
    assert rec.spans, "obs_trace=True must record spans"
    assert rec.ckpt_stats["snapshots"] == 16  # 4 ranks x 4 checkpoints
    assert rec.ckpt_stats["commits"] == 4


def test_record_requires_replay_config():
    with pytest.raises(ReplayError, match="--record"):
        record(ClusterConfig(n_processors=2, replay=None), spec=GS_SPEC)


def test_snapshot_interval_skips_are_waypoint_only():
    rec = record(
        _config(replay=ReplayConfig(snapshot_interval=0.04)), spec=GS_SPEC
    )
    retained = [w for w in rec.waypoints if w["retained"]]
    skipped = [w for w in rec.waypoints if not w["retained"]]
    assert skipped, "a 0.04s interval must skip some of the 4 commits"
    assert retained[0]["seq"] == 0  # the first commit is always retained
    assert [s.seq for s in rec.slots] == [w["seq"] for w in retained]
    assert rec.ckpt_stats["interval_skips"] == len(skipped)


def test_charge_bps_costs_simulated_time():
    free = record(_config(), spec=GS_SPEC)
    charged = record(
        _config(replay=ReplayConfig(charge_bps=1e6)), spec=GS_SPEC
    )
    assert charged.final["elapsed"] > free.final["elapsed"]
    assert charged.ckpt_stats["write_latency.total"] > 0


# ------------------------------------------------------------ bit-identical replay
def test_seek_then_continue_is_bit_identical(gs_recording):
    session = ReplaySession(gs_recording)
    session.seek(gs_recording.end_time * 0.4)
    result = session.finish()  # verify=True: fingerprint + elapsed + clock
    assert result.elapsed == gs_recording.final["elapsed"]
    assert result.cluster.sim.now == gs_recording.final["end_time"]
    assert (
        fingerprint_returns(result.returns)
        == gs_recording.final["fingerprint"]
    )


def test_seek_reconstructs_mid_run_memory(gs_recording):
    # The recorded mid-run global memory must match a fresh run paused there.
    mid_t = gs_recording.end_time / 2
    session = ReplaySession(gs_recording)
    session.seek(mid_t)
    mid = session.gmem(0, 0, 8)

    launched = launch_parallel(
        _config(),
        lambda api, *a: resilient_gauss_seidel(api, None, *a),
        args=GS_ARGS,
    )
    launched.run_to(mid_t)
    fresh = launched.cluster.kernels[0].gmem.storage[:8].copy()
    assert np.array_equal(mid, fresh)
    assert session.now == launched.now == mid_t


def test_seek_past_end_clamps_to_recording_end(gs_recording):
    session = ReplaySession(gs_recording)
    assert session.seek(gs_recording.end_time * 10) == gs_recording.end_time


def test_seek_backward_relaunches(gs_recording):
    session = ReplaySession(gs_recording)
    session.seek(0.06)
    events_at_006 = session.state()["events_processed"]
    session.seek(0.03)
    assert session.now == 0.03
    assert session.state()["events_processed"] < events_at_006
    session.continue_to(0.06)
    assert session.state()["events_processed"] == events_at_006


def test_step_advances_one_event_at_a_time(gs_recording):
    session = ReplaySession(gs_recording)
    session.seek(0.02)
    before = session.state()["events_processed"]
    ran = session.step(7)
    assert ran == 7
    assert session.state()["events_processed"] == before + 7


def test_divergent_waypoint_raises_at_the_cut(gs_recording):
    import copy

    tampered = copy.copy(gs_recording)
    tampered.waypoints = [dict(w) for w in gs_recording.waypoints]
    tampered.waypoints[1]["fingerprint"] = "not-the-real-fingerprint"
    session = ReplaySession(tampered)
    with pytest.raises(ReplayDivergence, match="checkpoint #1"):
        session.seek(tampered.end_time)


def test_divergent_final_fingerprint_raises(gs_recording):
    import copy

    tampered = copy.copy(gs_recording)
    tampered.final = dict(gs_recording.final)
    tampered.final["fingerprint"] = "bogus"
    session = ReplaySession(tampered)
    with pytest.raises(ReplayDivergence, match="return values"):
        session.finish()


# ------------------------------------------------------------ span-anchored seek
def test_span_anchored_seek(gs_recording):
    span = max(
        (s for s in gs_recording.spans if s["end"] is not None),
        key=lambda s: s["end"] - s["start"],
    )
    session = ReplaySession(gs_recording)
    anchor = session.seek_span(span["id"])
    assert anchor.span_id == span["id"]
    assert session.now == span["start"]
    near = session.spans(name=span["name"], window=1e-9)
    assert any(s["id"] == span["id"] for s in near)


def test_worst_span_and_anchor(gs_recording):
    worst = gs_recording.worst_span("api.barrier")
    assert worst["name"] == "api.barrier"
    anchor = gs_recording.anchor(worst["id"])
    assert anchor.time == worst["start"]
    if anchor.slot_seq is not None:
        slot = next(
            s for s in gs_recording.slots if s.seq == anchor.slot_seq
        )
        assert slot.time <= anchor.time
        assert anchor.offset == anchor.time - slot.time


def test_unknown_span_id_mentions_obs_trace(gs_recording):
    with pytest.raises(ReplayError, match="obs_trace"):
        gs_recording.span(10**9)
    with pytest.raises(ReplayError, match="recorded"):
        gs_recording.worst_span("no.such.span")


# ------------------------------------------------------------ snapshot restore
def test_restore_is_solution_exact(gs_recording):
    x_ref = run_parallel(
        ClusterConfig(n_processors=4, seed=1999),
        lambda api, *a: resilient_gauss_seidel(api, None, *a),
        args=GS_ARGS,
    ).returns[0]["x"]

    session = ReplaySession(gs_recording)
    t0 = session.restore(at=gs_recording.slots[1].time)
    assert t0 == gs_recording.slots[1].time
    assert session.restored and session.state()["mode"] == "restore"
    result = session.finish()  # verify skipped: timing differs by contract
    for rank in range(4):
        np.testing.assert_array_equal(result.returns[rank]["x"], x_ref)


def test_restore_requires_ck_style_and_retained_slots(gs_recording):
    plain = Recording.from_run(
        run_parallel(
            _config(),
            lambda api, *a: resilient_gauss_seidel(api, None, *a),
            args=GS_ARGS,
        ),
        spec=None,
    )
    with pytest.raises(ReplayError, match="ck-style"):
        ReplaySession(plain).restore()
    with pytest.raises(ReplayError, match="not retained"):
        ReplaySession(gs_recording).restore(seq=999)
    with pytest.raises(ReplayError, match="seek"):
        ReplaySession(gs_recording).restore(at=1e-9)


# ------------------------------------------------------------ manifest
def test_manifest_roundtrip_is_exact(gs_recording, tmp_path):
    path = tmp_path / "run.replay"
    gs_recording.save(str(path))
    loaded = Recording.load(str(path))
    assert loaded.final == gs_recording.final
    assert loaded.waypoints == gs_recording.waypoints
    assert loaded.spans == gs_recording.spans
    assert loaded.tail == gs_recording.tail
    for a, b in zip(gs_recording.slots, loaded.slots):
        assert (a.seq, a.time, a.fingerprint) == (b.seq, b.time, b.fingerprint)
        assert a.states == b.states
        for rank in a.slices:
            np.testing.assert_array_equal(a.slices[rank], b.slices[rank])
    # ...and the loaded recording still replays bit-identically.
    result = ReplaySession(loaded).finish()
    assert result.elapsed == gs_recording.final["elapsed"]


def test_config_dict_roundtrip():
    config = _config(
        resilience=ResilienceConfig(),
        replay=ReplayConfig(ring_size=3, snapshot_interval=0.01),
    )
    back = config_from_dict(config_to_dict(config))
    assert back.n_processors == config.n_processors
    assert back.seed == config.seed
    assert back.platform.name == config.platform.name
    assert back.replay == config.replay
    assert back.resilience == config.resilience
    assert back.fabric.rate_bps == config.fabric.rate_bps
    # Recordings saved while ClusterConfig had a ``trace`` flag still load.
    legacy = config_from_dict(dict(config_to_dict(config), trace=True))
    assert config_to_dict(legacy) == config_to_dict(back)


# ------------------------------------------------------------ resilience piggyback
def test_recorder_piggybacks_on_resilience_checkpoints():
    rec = record(_config(resilience=ResilienceConfig()), spec=GS_SPEC)
    assert rec.waypoints, "resilience checkpoints must feed the ring"
    assert rec.ckpt_stats["snapshots"] >= 16
    # The piggybacked recording replays bit-identically too.
    result = ReplaySession(rec).finish()
    assert result.elapsed == rec.final["elapsed"]


# ------------------------------------------------------------ ckpt.* surfacing
def test_ckpt_stats_surface_in_snapshot_metrics_and_census():
    from repro.experiments.timeline import span_census

    result = run_parallel(
        _config(obs_metrics_interval=0.002),
        GS_SPEC.make_entry(None),
        args=GS_ARGS,
    )
    cluster = result.cluster
    snapshot = cluster.stats_snapshot()
    assert snapshot["ckpt.snapshots"] == 16
    assert snapshot["ckpt.commits"] == 4
    assert snapshot["ckpt.bytes"] > 0
    assert snapshot["ckpt.ring_retained"] == 4
    assert snapshot["ckpt.ring_evictions"] == 0
    assert any(n.startswith("ckpt.") for n in cluster.metrics.series)
    census = span_census(
        cluster.obs, sim=cluster.sim, ckpt=cluster.ckpt_stats
    )
    assert "ckpt: 16 snapshots" in census
    assert "write latency" in census


# ------------------------------------------------------------ disabled path
def test_recorder_without_checkpoints_is_bit_identical_in_sim_time():
    # The recorder only hooks api.checkpoint(); a workload that never
    # checkpoints must run bit-identically with recording on or off.
    from repro.apps.gauss_seidel import gauss_seidel_worker

    plain_args = (32, 2, 7, True)
    off = run_parallel(
        ClusterConfig(n_processors=4, seed=1999),
        gauss_seidel_worker, args=plain_args,
    )
    on = run_parallel(
        ClusterConfig(n_processors=4, seed=1999, replay=ReplayConfig()),
        gauss_seidel_worker, args=plain_args,
    )
    assert on.elapsed == off.elapsed
    assert on.sim_events == off.sim_events
    assert fingerprint_returns(on.returns) == fingerprint_returns(off.returns)


def test_disabled_cluster_has_no_recorder():
    from repro.dse.cluster import Cluster

    cluster = Cluster(ClusterConfig(n_processors=2))
    assert cluster.replay is None
    assert cluster.kernels[0]._replay is None
    snapshot = cluster.stats_snapshot()
    assert not any(k.startswith("ckpt.") for k in snapshot)


# ------------------------------------------------------------ live mode
def test_live_run_streams_and_matches_plain_run(tmp_path):
    path = tmp_path / "live.jsonl"
    sink = LiveSink(path=str(path))
    try:
        result = live_run(
            _config(),
            GS_SPEC.make_entry(None),
            args=GS_ARGS,
            sink=sink,
            every=0.01,
        )
    finally:
        sink.close()
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["type"] == "topology"
    assert lines[-1]["type"] == "final"
    samples = [l for l in lines if l["type"] == "sample"]
    assert samples, "at least one sample per run"
    assert samples[0]["ckpt"]["commits"] >= 0
    times = [s["time"] for s in samples]
    assert times == sorted(times)
    # Streaming must not change the answer or the elapsed simulated time.
    plain = record(_config(), spec=GS_SPEC)
    assert result.elapsed == plain.final["elapsed"]
    assert fingerprint_returns(result.returns) == plain.final["fingerprint"]


def test_live_sink_serves_tcp_clients(tmp_path):
    sink = LiveSink(port=0)
    try:
        assert sink.port
        client = socket.create_connection(("127.0.0.1", sink.port), timeout=5)
        sink.emit({"type": "hello"})  # accepts the client, then broadcasts
        sink.emit({"type": "sample", "n": 1})
        client.settimeout(5)
        data = client.recv(65536).decode()
        client.close()
    finally:
        sink.close()
    assert '"type": "sample"' in data


def test_live_rejects_bad_interval():
    with pytest.raises(ReplayError):
        live_run(_config(), GS_SPEC.make_entry(None), args=GS_ARGS, every=0.0)


# ------------------------------------------------------------ CLI
def test_cli_replay_record_seek_resume(tmp_path, capsys):
    manifest = tmp_path / "run.replay"
    status = experiments_main(
        [
            "replay", "--workload", "gauss-seidel", "--processors", "4",
            "--record", str(manifest), "--at", "0.002", "--step", "3",
            "--resume",
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert manifest.exists()
    assert "bit-identical to the recording" in out
    assert "stepped 3 event(s)" in out

    status = experiments_main(
        ["replay", "--load", str(manifest), "--worst", "api.barrier"]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "worst 'api.barrier'" in out


def test_cli_replay_without_spans_prints_hint(capsys):
    status = experiments_main(
        ["replay", "--workload", "knights-tour", "--no-obs", "--at", "0.001"]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "--span/--worst cannot anchor" in out


def test_cli_replay_interactive(tmp_path, capsys, monkeypatch):
    commands = iter(["state", "queues 2", "gmem 0", "spans", "tail", "step",
                     "bogus", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(commands))
    status = experiments_main(
        ["replay", "--workload", "gauss-seidel", "--at", "0.002",
         "--interactive"]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "unknown command 'bogus'" in out
    assert "stepped 1 event(s)" in out


def test_cli_live(tmp_path, capsys):
    path = tmp_path / "live.jsonl"
    status = experiments_main(
        ["live", "--workload", "gauss-seidel", "--out", str(path),
         "--every", "0.01"]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "stream lines" in out
    assert path.exists() and path.read_text().strip()


def test_cli_trace_empty_exports_print_hints(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    status = experiments_main(
        ["trace", "--workload", "knights-tour", "--span-limit", "0",
         "--out", str(trace)]
    )
    out = capsys.readouterr().out
    assert status == 1
    assert not trace.exists()
    assert "no spans were recorded" in out
    assert "--span-limit" in out
