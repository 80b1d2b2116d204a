"""Tests for repro.resilience: campaigns, detection, recovery, and faults.

Covers the subsystem end to end (crash + restart during SPMD Gauss-Seidel
recovers to a bit-identical solution; a permanent crash during a task farm
is survived by reassignment) plus the unit surfaces: membership state
machine, checkpoint store, campaign plans, Gilbert-Elliott burst loss, and
fabric partitions.
"""

import numpy as np
import pytest

from repro.dse.cluster import Cluster
from repro.dse.config import ClusterConfig
from repro.dse.runtime import run_parallel
from repro.errors import ConfigurationError, NetworkError, ResilienceError
from repro.network import BROADCAST, EthernetBus, EthernetFrame, NIC, SwitchedLAN
from repro.network.faults import BurstLossConfig, LossInjector
from repro.resilience import (
    ALIVE,
    DEAD,
    SUSPECT,
    CheckpointStore,
    CrashPlan,
    FaultCampaign,
    Membership,
    PartitionPlan,
    ResilienceConfig,
    random_crashes,
    run_resilient,
    run_resilient_master,
)
from repro.resilience.workloads import resilient_gauss_seidel, resilient_tour_master
from repro.sim import RandomStreams, Simulator

GS_ARGS = (48, 4, 7, True)  # n, sweeps, seed, verify — small but non-trivial


def _config(resilience, processors=4, **kw):
    return ClusterConfig(n_processors=processors, resilience=resilience, **kw)


def _crash_campaign():
    return FaultCampaign(
        crashes=[CrashPlan(kernel_id=1, at=0.02, restart_after=0.01)]
    )


# ------------------------------------------------------------ SPMD recovery
def failure_free_x():
    base = run_parallel(
        _config(None),
        lambda api, *a: resilient_gauss_seidel(api, None, *a),
        args=GS_ARGS,
    )
    return base.returns[0]["x"]


def test_spmd_crash_restart_recovers_bit_identical():
    x_ref = failure_free_x()
    faulty = run_resilient(
        _config(ResilienceConfig()),
        resilient_gauss_seidel,
        args=GS_ARGS,
        campaign=_crash_campaign(),
    )
    assert faulty.recoveries == 1
    assert len(faulty.failures) == 1
    death_time, victim = faulty.failures[0]
    assert victim == 1
    assert death_time > 0.02  # detected strictly after the injected crash
    # Rollback must restore the exact pre-crash cut: bit-identical solution.
    assert np.array_equal(faulty.returns[0]["x"], x_ref)
    snap = faulty.stats
    assert snap["res.crashes"] == 1
    assert snap["res.deaths"] == 1
    assert snap["res.restarts"] == 1
    assert snap["res.joins"] == 1
    assert snap["res.rollbacks"] == 1
    detect = faulty.cluster.resilience.stats.tally("detect_latency")
    assert detect.count == 1
    assert detect.mean > 0.0  # silence must accrue before declaration


def test_spmd_resilient_no_faults_matches_plain():
    x_ref = failure_free_x()
    clean = run_resilient(
        _config(ResilienceConfig()), resilient_gauss_seidel, args=GS_ARGS
    )
    assert clean.recoveries == 0
    assert clean.failures == ()
    assert np.array_equal(clean.returns[0]["x"], x_ref)
    # Checkpoints were taken even though none was needed.
    assert clean.stats["res.checkpoints"] >= 4


def test_spmd_crash_campaign_deterministic():
    runs = [
        run_resilient(
            _config(ResilienceConfig()),
            resilient_gauss_seidel,
            args=GS_ARGS,
            campaign=_crash_campaign(),
        )
        for _ in range(2)
    ]
    assert runs[0].elapsed == runs[1].elapsed
    assert runs[0].sim_events == runs[1].sim_events
    assert runs[0].failures == runs[1].failures
    assert runs[0].stats == runs[1].stats


def test_run_resilient_requires_resilience_config():
    with pytest.raises(ConfigurationError):
        run_resilient(_config(None), resilient_gauss_seidel, args=GS_ARGS)
    with pytest.raises(ConfigurationError):
        run_resilient_master(_config(None), resilient_tour_master, args=(8,))


def test_spmd_permanent_crash_gives_up():
    campaign = FaultCampaign(
        crashes=[CrashPlan(kernel_id=1, at=0.02, restart_after=None)]
    )
    config = _config(ResilienceConfig(rejoin_timeout=0.05, max_recovery_attempts=2))
    with pytest.raises(ResilienceError):
        run_resilient(
            config, resilient_gauss_seidel, args=GS_ARGS, campaign=campaign
        )


# ------------------------------------------------------------ farm recovery
def test_farm_survives_permanent_crash():
    campaign = FaultCampaign(
        crashes=[CrashPlan(kernel_id=2, at=0.03, restart_after=None)]
    )
    result = run_resilient_master(
        _config(ResilienceConfig()),
        resilient_tour_master,
        args=(24,),
        campaign=campaign,
    )
    report = result.returns[0]
    assert report["tours"] == report["expected_tours"] == 304
    assert report["retries"] >= 1
    assert report["wasted_seconds"] > 0.0
    assert len(report["attempts"]) == report["n_jobs"]
    assert sum(report["attempts"]) == report["n_jobs"] + report["retries"]
    assert len(result.failures) == 1 and result.failures[0][1] == 2
    assert result.stats["res.tasks_lost"] >= 1


def test_farm_without_faults_has_no_retries():
    result = run_resilient_master(
        _config(ResilienceConfig()), resilient_tour_master, args=(12,)
    )
    report = result.returns[0]
    assert report["tours"] == report["expected_tours"] == 304
    assert report["retries"] == 0
    assert report["wasted_seconds"] == 0.0
    assert all(a == 1 for a in report["attempts"])
    assert result.failures == ()


# ------------------------------------------------------- suspicion lifecycle
def test_partition_heal_raises_then_clears_suspicion():
    config = _config(ResilienceConfig())
    campaign = FaultCampaign(
        partitions=[PartitionPlan(groups=((0,),), at=0.02, heal_after=0.024)]
    )
    cluster = Cluster(config)
    campaign.arm(cluster)
    sim = cluster.sim

    def driver():
        yield sim.timeout(0.08)
        yield from cluster.shutdown_from(0)

    sim.process(driver(), name="driver")
    sim.run_all(max_events=5_000_000)
    snap = cluster.stats_snapshot()
    assert snap["res.suspicions"] >= 1
    assert snap["res.suspicions_cleared"] >= 1
    assert snap.get("res.deaths", 0) == 0
    view = cluster.resilience.membership
    assert all(view.state[k] == ALIVE for k in range(cluster.size))


def test_partition_past_grace_declares_dead():
    # Never healed: every non-monitor kernel is eventually declared dead.
    config = _config(ResilienceConfig(), processors=2)
    campaign = FaultCampaign(
        partitions=[PartitionPlan(groups=((0,),), at=0.01, heal_after=None)]
    )
    cluster = Cluster(config)
    campaign.arm(cluster)
    sim = cluster.sim

    def driver():
        yield sim.timeout(0.1)
        yield from cluster.shutdown_from(0)

    sim.process(driver(), name="driver")
    sim.run_all(max_events=5_000_000)
    assert cluster.resilience.membership.state[1] == DEAD
    assert cluster.stats_snapshot()["res.deaths"] == 1


# ------------------------------------------------------------ membership unit
def test_membership_suspect_and_clear():
    view = Membership(3)
    view.suspect(1, now=1.0)
    assert view.state[1] == SUSPECT
    assert view.usable(1)  # SUSPECT still accepts RPCs
    assert view.heard_from(1, now=2.0)
    assert view.state[1] == ALIVE
    assert not view.heard_from(1, now=3.0)  # nothing to clear


def test_membership_death_is_idempotent_and_incarnation_guarded():
    view = Membership(3)
    assert view.declare_dead(1, 0)
    assert not view.declare_dead(1, 0)  # duplicate
    assert view.dead_kernels() == [1]
    assert not view.usable(1)
    # Rejoin with a higher incarnation, then a stale death must not clobber.
    assert view.rejoin(1, incarnation=1, now=5.0)
    assert view.state[1] == ALIVE
    assert not view.declare_dead(1, 0)  # stale: incarnation 1 already joined
    assert view.state[1] == ALIVE
    assert view.declare_dead(1, 1)


def test_membership_rejoin_rejects_stale_and_duplicate():
    view = Membership(2)
    assert view.rejoin(1, incarnation=2, now=1.0)
    assert not view.rejoin(1, incarnation=1, now=2.0)  # stale
    view.declare_dead(1, 2)
    assert not view.rejoin(1, incarnation=2, now=3.0)  # dead incarnation
    assert view.rejoin(1, incarnation=3, now=4.0)
    assert view.live_kernels() == [0, 1]


# -------------------------------------------------------- checkpoint store
def test_checkpoint_store_commits_when_all_ranks_put():
    store = CheckpointStore(2)
    assert not store.has_checkpoint
    with pytest.raises(KeyError):
        store.get(0)
    store.put(0, 0, {"sweep": 1}, np.arange(4.0))
    assert store.committed_version == -1  # partial: rank 1 missing
    store.put(1, 0, {"sweep": 1}, np.arange(3.0))
    assert store.committed_version == 0
    state, data = store.get(0)
    assert state == {"sweep": 1}
    assert np.array_equal(data, np.arange(4.0))
    assert store.bytes_written == 7 * 8


def test_checkpoint_store_discards_uncommitted_and_prunes_old():
    store = CheckpointStore(2)
    store.put(0, 0, "a", np.zeros(1))
    store.put(1, 0, "b", np.zeros(1))
    store.put(0, 1, "c", np.zeros(1))
    assert store.discard_uncommitted() == 1  # version 1 was partial
    assert store.committed_version == 0
    store.put(0, 1, "c", np.zeros(1))
    store.put(1, 1, "d", np.zeros(1))
    assert store.committed_version == 1
    with pytest.raises(KeyError):
        store.get(0, version=0)  # pruned at commit of version 1
    assert store.get(1)[0] == "d"

    snapshot = np.arange(2.0)
    store.put(0, 2, None, snapshot)
    snapshot[0] = 99.0  # the store must hold a copy, not a view
    assert store.get(0, version=2)[1][0] == 0.0


# ------------------------------------------------------------ campaign plans
def test_crash_plan_validation():
    with pytest.raises(ResilienceError):
        CrashPlan(kernel_id=0, at=0.01)  # kernel 0 hosts the monitor
    with pytest.raises(ResilienceError):
        CrashPlan(kernel_id=1, at=-0.1)
    with pytest.raises(ResilienceError):
        CrashPlan(kernel_id=1, at=0.01, restart_after=-1.0)
    plan = CrashPlan(kernel_id=1, at=0.01, restart_after=None)
    assert plan.restart_after is None


def test_partition_plan_validation():
    with pytest.raises(ResilienceError):
        PartitionPlan(groups=((0, 1),), at=-0.5)
    with pytest.raises(ResilienceError):
        PartitionPlan(groups=((0, 1),), at=0.0, heal_after=-0.1)


def test_campaign_arm_requires_resilience_and_valid_victim():
    cluster = Cluster(_config(None, processors=2))
    with pytest.raises(ResilienceError):
        FaultCampaign(crashes=[CrashPlan(kernel_id=1, at=0.01)]).arm(cluster)
    cluster = Cluster(_config(ResilienceConfig(), processors=2))
    with pytest.raises(ResilienceError):
        FaultCampaign(crashes=[CrashPlan(kernel_id=5, at=0.01)]).arm(cluster)


def test_random_crashes_deterministic_and_bounded():
    a = random_crashes(seed=11, n_crashes=6, n_kernels=4, t_lo=0.01, t_hi=0.05)
    b = random_crashes(seed=11, n_crashes=6, n_kernels=4, t_lo=0.01, t_hi=0.05)
    assert a == b
    assert all(1 <= plan.kernel_id < 4 for plan in a)
    assert all(0.01 <= plan.at <= 0.05 for plan in a)
    assert [p.at for p in a] == sorted(p.at for p in a)
    c = random_crashes(seed=12, n_crashes=6, n_kernels=4, t_lo=0.01, t_hi=0.05)
    assert a != c


def test_resilience_config_validation():
    with pytest.raises(ConfigurationError):
        ResilienceConfig(heartbeat_period=0.0)
    with pytest.raises(ConfigurationError):
        ResilienceConfig(heartbeat_timeout=0.001)  # below the period
    with pytest.raises(ConfigurationError):
        ResilienceConfig(max_task_retries=-1)


# ----------------------------------------------------- disabled-path parity
def test_disabled_path_unchanged():
    """resilience=None must keep the exact pre-subsystem behaviour."""
    base = run_parallel(
        _config(None),
        lambda api, *a: resilient_gauss_seidel(api, None, *a),
        args=GS_ARGS,
    )
    again = run_parallel(
        _config(None),
        lambda api, *a: resilient_gauss_seidel(api, None, *a),
        args=GS_ARGS,
    )
    assert base.elapsed == again.elapsed
    assert base.sim_events == again.sim_events
    assert not any(key.startswith("res.") for key in base.stats)
    assert base.cluster.resilience is None
    # api.checkpoint degrades to a no-op: elapsed is pure app time, and no
    # checkpoint traffic exists anywhere in the stats.
    assert not any("ckpt" in key for key in base.stats)


# ----------------------------------------------------- sanitizer integration
def test_deadlock_sanitizer_labels_crashed_barriers():
    config = _config(
        ResilienceConfig(reconfigure_barriers=False),
        processors=3,
        sanitize="deadlock",
    )
    cluster = Cluster(config)
    sim = cluster.sim

    def waiter(api):
        if api.rank == 2:
            # The victim is still computing when the crash lands: it never
            # reaches the barrier, and the survivors wait forever.
            yield from api.compute_seconds(0.05)
        yield from api.barrier("doomed")

    def driver():
        kernel0 = cluster.kernel(0)
        handles = []
        for rank in range(cluster.size):
            handle = yield from kernel0.procman.invoke(
                cluster.placement(rank), waiter, rank, ()
            )
            handles.append(handle)
        yield sim.timeout(0.005)
        cluster.resilience.crash_kernel(2, restart_after=None)

    sim.process(driver(), name="driver")
    # No shutdown: ranks 0 and 1 must still be waiting when we finalize,
    # exactly as a hung run looks when the runner raises.
    sim.run(until=0.12, max_events=5_000_000)
    sanitizer = cluster.sanitizer
    sanitizer.finalize(sim.now)
    crashed = [f for f in sanitizer.report.barrier_faults if f.kind == "crashed"]
    assert crashed, sanitizer.report.format()
    assert "t=" in crashed[0].detail


# ------------------------------------------------- Gilbert-Elliott burst loss
class _SinkNIC:
    """Minimal NIC stand-in: a station id and a swappable receive callback."""

    def __init__(self):
        self.station_id = 1
        self.received = []
        self._rx_callback = self.received.append

    def on_receive(self, callback):
        self._rx_callback = callback


def _drop_pattern(burst, n_frames=4000, seed=99):
    sim = Simulator()
    nic = _SinkNIC()
    injector = LossInjector(sim, nic, RandomStreams(seed), burst=burst)
    injector.arm()
    for i in range(n_frames):
        frame = EthernetFrame(src=0, dst=1, payload=i, payload_bytes=64)
        nic._rx_callback(frame)
    got = {f.payload for f in nic.received}
    return [i not in got for i in range(n_frames)], injector


def _mean_run_length(pattern):
    runs, current = [], 0
    for lost in pattern:
        if lost:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return sum(runs) / len(runs) if runs else 0.0


def test_burst_config_validation_and_stationary_loss():
    with pytest.raises(NetworkError):
        BurstLossConfig(p_enter_bad=1.5)
    with pytest.raises(NetworkError):
        BurstLossConfig(loss_bad=-0.1)
    cfg = BurstLossConfig(p_enter_bad=0.02, p_exit_bad=0.25, loss_bad=1.0)
    assert cfg.stationary_loss == pytest.approx(0.02 / 0.27)
    frozen = BurstLossConfig(p_enter_bad=0.0, p_exit_bad=0.0, loss_good=0.125)
    assert frozen.stationary_loss == 0.125  # chain never leaves GOOD


def test_burst_losses_are_bursty_and_deterministic():
    burst = BurstLossConfig(p_enter_bad=0.02, p_exit_bad=0.25, loss_bad=1.0)
    pattern, injector = _drop_pattern(burst)
    rate = sum(pattern) / len(pattern)
    assert rate == pytest.approx(burst.stationary_loss, rel=0.35)
    # Correlated outages: mean burst length ~ 1/p_exit_bad = 4 frames,
    # far above the ~1.08 a Bernoulli process at the same rate gives.
    assert _mean_run_length(pattern) > 2.0
    assert injector.stats.counter("bursts_entered").value >= 1
    assert injector.stats.counter("dropped_bad").value == sum(pattern)
    again, _ = _drop_pattern(burst)
    assert again == pattern


def test_bernoulli_losses_are_not_bursty():
    burst = BurstLossConfig(p_enter_bad=0.02, p_exit_bad=0.25, loss_bad=1.0)
    sim = Simulator()
    nic = _SinkNIC()
    injector = LossInjector(
        sim, nic, RandomStreams(99), drop_rate=burst.stationary_loss
    )
    injector.arm()
    for i in range(4000):
        nic._rx_callback(EthernetFrame(src=0, dst=1, payload=i, payload_bytes=64))
    got = {f.payload for f in nic.received}
    pattern = [i not in got for i in range(4000)]
    assert 0 < sum(pattern) < 4000
    assert _mean_run_length(pattern) < 1.5


# --------------------------------------------------------- fabric partitions
def _switch(sim):
    return SwitchedLAN(sim)


def _bus(sim):
    return EthernetBus(sim, RandomStreams(5))


def _attach(fabric, received, n=4):
    for sid in range(n):
        fabric.attach(sid, received[sid].append)


def _ignore(_status):
    pass


@pytest.mark.parametrize("make_fabric", [_switch, _bus], ids=["switch", "bus"])
def test_partition_blocks_cross_segment_traffic(make_fabric):
    sim = Simulator()
    fabric = make_fabric(sim)
    received = {i: [] for i in range(4)}
    _attach(fabric, received)
    fabric.partition([[0, 1], [2, 3]])
    assert fabric.reachable(0, 1) and not fabric.reachable(0, 2)

    def send_out(_status):
        fabric.transmit(EthernetFrame(src=0, dst=2, payload="out", payload_bytes=64), _ignore)

    fabric.transmit(EthernetFrame(src=0, dst=1, payload="in", payload_bytes=64), send_out)
    sim.run_all()
    assert [f.payload for f in received[1]] == ["in"]
    assert received[2] == []
    assert fabric.stats.counter("partition_drops").value == 1
    assert fabric.stats.counter("partitions").value == 1


@pytest.mark.parametrize("make_fabric", [_switch, _bus], ids=["switch", "bus"])
def test_partition_drops_in_flight_frames_even_after_heal(make_fabric):
    sim = Simulator()
    fabric = make_fabric(sim)
    received = {i: [] for i in range(4)}
    _attach(fabric, received)

    def cut(_status):
        # The cut lands after transmission but before delivery: the frame is
        # in flight inside the fabric and must never pop out, even healed.
        fabric.partition([[0, 1], [2, 3]])
        sim.timeout(0.01).callbacks.append(lambda _ev: fabric.heal())

    fabric.transmit(EthernetFrame(src=0, dst=2, payload="late", payload_bytes=500), cut)
    sim.run_all()
    assert received[2] == []
    assert fabric.stats.counter("partition_drops").value == 1
    assert fabric.stats.counter("heals").value == 1
    assert fabric.reachable(0, 2)


def test_bus_broadcast_respects_partition():
    sim = Simulator()
    fabric = _bus(sim)
    received = {i: [] for i in range(4)}
    _attach(fabric, received)
    fabric.partition([[0, 1], [2, 3]])

    fabric.transmit(EthernetFrame(src=0, dst=BROADCAST, payload="b", payload_bytes=64), _ignore)
    sim.run_all()
    assert [len(received[i]) for i in range(4)] == [0, 1, 0, 0]
    assert fabric.stats.counter("partition_drops").value == 2


@pytest.mark.parametrize("make_fabric", [_switch, _bus], ids=["switch", "bus"])
def test_partition_rejects_unknown_or_duplicate_stations(make_fabric):
    sim = Simulator()
    fabric = make_fabric(sim)
    received = {i: [] for i in range(4)}
    _attach(fabric, received)
    with pytest.raises(NetworkError):
        fabric.partition([[0, 9]])
    with pytest.raises(NetworkError):
        fabric.partition([[0, 1], [1, 2]])
    fabric.heal()  # no-op when not partitioned
    assert fabric.stats.counter("heals").value == 0


def test_traffic_resumes_after_heal():
    sim = Simulator()
    fabric = _switch(sim)
    received = {i: [] for i in range(4)}
    _attach(fabric, received)
    fabric.partition([[0, 1]])

    def heal_and_resend(_status):
        fabric.heal()
        fabric.transmit(EthernetFrame(src=0, dst=3, payload="found", payload_bytes=64), _ignore)

    fabric.transmit(EthernetFrame(src=0, dst=3, payload="lost", payload_bytes=64),
                    heal_and_resend)
    sim.run_all()
    assert [f.payload for f in received[3]] == ["found"]


def test_downed_nic_drops_received_traffic():
    sim = Simulator()
    fabric = _switch(sim)
    received = {i: [] for i in range(3)}
    nics = {sid: NIC(sim, fabric, sid) for sid in range(3)}
    for sid, nic in nics.items():
        nic.on_receive(received[sid].append)
    nics[2].up = False  # crashed machine: interface stops answering

    fabric.transmit(EthernetFrame(src=0, dst=2, payload="x", payload_bytes=64), _ignore)
    sim.run_all()
    assert received[2] == []
    assert nics[2].stats.counter("rx_dropped_down").value == 1


# ------------------------------------------------------------ request handlers
def _notify(cluster, msg_type, **fields):
    """Send one request from kernel 0 to kernel 1 that nobody replies to."""
    from repro.dse.messages import DSEMessage

    def driver():
        msg = DSEMessage(msg_type, 0, 1, **fields)
        yield from cluster.kernel(0).exchange.notify(msg)
        yield cluster.sim.timeout(0.01)

    return cluster.sim.process(driver())


def test_handler_that_ends_in_its_first_step_is_not_tracked(monkeypatch):
    from repro.dse.messages import MsgType

    cluster = Cluster(_config(ResilienceConfig(), processors=2))
    kernel = cluster.kernel(1)
    tracked = []
    real_track = kernel._track_handler
    monkeypatch.setattr(
        kernel, "_track_handler", lambda h: (tracked.append(h.name), real_track(h))
    )

    def parked(msg):
        yield cluster.sim.timeout(1.0)

    kernel.register_service(MsgType.KV_GET_REQ, parked)
    # A PROC_DONE for a rank nobody waits on is dropped without a yield.
    done = _notify(cluster, MsgType.PROC_DONE, addr=5)
    cluster.sim.run(until=done)
    assert kernel.procman.stats.counter("stale_completions").value == 1
    assert tracked == [] and not kernel._handlers
    # A handler that suspends is tracked until it ends.
    parked_done = _notify(cluster, MsgType.KV_GET_REQ, name="x")
    cluster.sim.run(until=parked_done)
    assert len(tracked) == 1 and len(kernel._handlers) == 1
    cluster.sim.run(until=cluster.sim.now + 1.0)
    assert not kernel._handlers


@pytest.mark.parametrize("suspend", [False, True])
def test_failing_handler_raises_out_of_run(suspend):
    from repro.dse.messages import MsgType
    from repro.errors import DSEError

    cluster = Cluster(_config(ResilienceConfig(), processors=2))

    def broken(msg):
        if suspend:
            yield cluster.sim.timeout(0.001)
        raise DSEError("handler broke")
        yield  # pragma: no cover - makes this a generator

    cluster.kernel(1).register_service(MsgType.KV_GET_REQ, broken)
    done = _notify(cluster, MsgType.KV_GET_REQ, name="x")
    with pytest.raises(DSEError, match="handler broke"):
        cluster.sim.run(until=done)
