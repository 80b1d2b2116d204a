"""Tests for repro.sanitize: race detection, deadlock detection, wiring.

Three families:

* detection — every intentionally buggy demo guest is flagged, with
  usable attribution (sites, ranks, lock names, participant counts);
* false-positive guards — properly synchronised idioms (mutex, barrier,
  fork-join, false sharing, reused barrier names) stay clean, and so do
  all four paper applications with batching off and on;
* invariants — enabling sanitizers never changes simulated time, and the
  report/stats/CLI surfaces carry the findings.
"""

import pytest

from repro.dse import ClusterConfig, run_master, run_parallel
from repro.errors import ConfigurationError, DSEError
from repro.sanitize import VectorClock, normalize_modes
from repro.sanitize.demo import (
    COUNTER_ADDR,
    impossible_barrier_worker,
    lock_cycle_worker,
    locked_counter_worker,
    mismatch_barrier_worker,
    racy_counter_worker,
)


def sanitized_run(worker, procs=4, args=(), **cfg):
    cfg.setdefault("sanitize", True)
    result = run_parallel(
        ClusterConfig(n_processors=procs, **cfg), worker, args=args
    )
    return result, result.cluster.sanitizer.report


def report_of_hang(worker, procs=4, **cfg):
    """Run a guest expected to hang; returns the attached report."""
    cfg.setdefault("sanitize", True)
    with pytest.raises(DSEError) as excinfo:
        run_parallel(ClusterConfig(n_processors=procs, **cfg), worker)
    return excinfo.value.cluster.sanitizer.report, str(excinfo.value)


# -- mode selection ----------------------------------------------------------
def test_normalize_modes():
    assert normalize_modes(False) == frozenset()
    assert normalize_modes(None) == frozenset()
    assert normalize_modes(True) == {"race", "deadlock"}
    assert normalize_modes("all") == {"race", "deadlock"}
    assert normalize_modes("race") == {"race"}
    assert normalize_modes("race,deadlock") == {"race", "deadlock"}
    assert normalize_modes(("deadlock",)) == {"deadlock"}


def test_config_rejects_unknown_mode():
    with pytest.raises(ConfigurationError):
        ClusterConfig(sanitize="racy")


def test_config_mode_subset_builds_only_that_detector():
    from repro.dse.cluster import Cluster

    cluster = Cluster(ClusterConfig(n_processors=2, sanitize="deadlock"))
    assert cluster.sanitizer.race is None
    assert cluster.sanitizer.deadlock is not None


# -- vector clocks -----------------------------------------------------------
def test_vector_clock_join_and_tick():
    a, b = VectorClock(), VectorClock()
    a.tick(1)
    a.tick(1)
    b.tick(2)
    b.join(a)
    assert b.get(1) == 2 and b.get(2) == 1
    assert a.get(2) == 0  # join is one-directional


# -- race detection ----------------------------------------------------------
def test_racy_counter_is_flagged_with_sites():
    _result, report = sanitized_run(racy_counter_worker, args=(3,))
    assert report.races
    finding = report.races[0]
    assert finding.first.accessor != finding.second.accessor
    assert "write" in (finding.first.op, finding.second.op)
    # Attribution reaches the guest source, not the runtime.
    assert "demo.py" in finding.first.site
    assert "demo.py" in finding.second.site
    assert report.format().startswith("sanitizers:")


def test_locked_counter_is_clean_and_exact():
    result, report = sanitized_run(locked_counter_worker, args=(3,))
    assert report.clean, report.format()
    # No lost updates: the mutex makes the count exact.
    finals = {out["final"] for out in result.returns.values()}
    assert finals == {float(4 * 3)}


def test_race_detection_under_batching_and_caching():
    for extra in ({"gmem_batching": True}, {"coherence": "cache"}):
        _result, report = sanitized_run(racy_counter_worker, args=(3,), **extra)
        assert report.races, f"race missed under {extra}"


def test_false_sharing_is_not_reported():
    def neighbours(api):
        # All ranks write DIFFERENT words of the same block concurrently.
        yield from api.gm_write_scalar(COUNTER_ADDR + api.rank, 1.0)
        yield from api.barrier("done")
        return 0.0

    _result, report = sanitized_run(neighbours)
    assert report.clean, report.format()


def test_barrier_separation_is_clean_even_with_name_reuse():
    def pingpong(api):
        # Same barrier name every round: exercises generation tracking.
        for _round in range(3):
            yield from api.gm_write_scalar(COUNTER_ADDR + api.rank, 1.0)
            yield from api.barrier("round")
            _ = yield from api.gm_read_scalar(
                COUNTER_ADDR + (api.rank + 1) % api.size
            )
            yield from api.barrier("round")
        return 0.0

    _result, report = sanitized_run(pingpong)
    assert report.clean, report.format()


def test_fork_join_edges_are_clean():
    def child(api, addr):
        value = yield from api.gm_read_scalar(addr)  # parent wrote pre-spawn
        yield from api.gm_write_scalar(addr + 1 + api.rank, value + 1.0)
        return 0.0

    def master(api):
        yield from api.gm_write_scalar(0, 41.0)
        handles = yield from api.spawn_workers(child, args_of=lambda r: (0,))
        yield from api.wait_workers(handles)
        # Reading the children's writes after the join is ordered.
        for rank in range(1, api.size):
            _ = yield from api.gm_read_scalar(1 + rank)
        return 0.0

    result = run_master(ClusterConfig(n_processors=3, sanitize=True), master)
    assert result.cluster.sanitizer.report.clean


def test_unjoined_child_write_is_racy():
    def child(api, addr):
        yield from api.gm_write_scalar(addr, 1.0)
        return 0.0

    def master(api):
        handles = yield from api.spawn_workers(child, ranks=[1], args_of=lambda r: (0,))
        _ = yield from api.gm_read_scalar(0)  # read WITHOUT waiting: racy
        yield from api.wait_workers(handles)
        return 0.0

    result = run_master(ClusterConfig(n_processors=2, sanitize=True), master)
    assert result.cluster.sanitizer.report.races


# -- deadlock detection ------------------------------------------------------
def test_lock_cycle_is_detected_and_reported():
    report, message = report_of_hang(lock_cycle_worker, procs=2)
    assert report.lock_cycles
    cycle = report.lock_cycles[0].cycle
    assert {edge[1] for edge in cycle} == {"demo.A", "demo.B"}
    assert "waits for lock" in message  # report rides on the runtime error


def test_impossible_barrier_is_flagged_online():
    report, message = report_of_hang(impossible_barrier_worker, procs=3)
    kinds = [f.kind for f in report.barrier_faults]
    assert "impossible" in kinds
    assert "can never complete" in message


def test_mismatched_barrier_counts_are_flagged():
    with_mismatch = None
    try:
        _result, report = sanitized_run(mismatch_barrier_worker, procs=3)
        with_mismatch = report
    except DSEError as exc:  # arrival-order dependent: hang is also legal
        with_mismatch = exc.cluster.sanitizer.report
    assert any(f.kind == "mismatch" for f in with_mismatch.barrier_faults)


def test_lost_wakeup_stuck_barrier_names_missing_parties():
    def skipper(api):
        if api.rank != 0:
            yield from api.barrier("phase", api.size)
        return 0.0
        yield  # pragma: no cover - rank 0 exits without yielding

    report, _message = report_of_hang(skipper, procs=3)
    stuck = [f for f in report.barrier_faults if f.kind == "stuck"]
    assert stuck
    assert stuck[0].expected == 3
    assert len(stuck[0].arrived) == 2


def test_contended_lock_without_cycle_is_not_flagged():
    def contenders(api):
        yield from api.lock("hot")
        yield from api.compute_seconds(0.0005)
        yield from api.unlock("hot")
        return 0.0

    _result, report = sanitized_run(contenders)
    assert report.clean, report.format()


# -- paper applications: false-positive guard --------------------------------
@pytest.mark.parametrize("batching", [False, True])
@pytest.mark.parametrize(
    "workload", ["gauss-seidel", "knights-tour", "othello", "dct2"]
)
def test_paper_apps_are_race_free(workload, batching):
    from repro.experiments.cli import TRACE_WORKLOADS

    spec = TRACE_WORKLOADS[workload]
    _result, report = sanitized_run(
        spec.resolve(), args=spec.args, gmem_batching=batching
    )
    assert report.clean, f"{workload} batching={batching}:\n{report.format()}"


# -- invariants ---------------------------------------------------------------
def test_sanitizers_do_not_change_simulated_time():
    for worker, args in ((racy_counter_worker, (3,)), (locked_counter_worker, (2,))):
        base = run_parallel(ClusterConfig(n_processors=4), worker, args=args)
        san = run_parallel(
            ClusterConfig(n_processors=4, sanitize=True), worker, args=args
        )
        assert base.elapsed == san.elapsed  # bit-identical, not approx


def test_stats_snapshot_and_metrics_carry_san_counters():
    result, report = sanitized_run(
        racy_counter_worker, args=(2,), obs_metrics_interval=0.001
    )
    assert result.stats["san.races"] == len(report.races)
    assert result.stats["san.accesses_checked"] > 0
    assert any(
        name.startswith("san.") for name in result.cluster.metrics.series
    )
    # Disabled runs advertise nothing.
    off = run_parallel(ClusterConfig(n_processors=2), locked_counter_worker)
    assert not any(key.startswith("san.") for key in off.stats)


def test_findings_surface_as_obs_instants():
    result, report = sanitized_run(racy_counter_worker, args=(2,), obs_trace=True)
    assert report.races
    names = [span.name for span in result.cluster.obs.spans]
    assert any(name.startswith("san:RaceFinding") for name in names)


def test_sanitize_cli_demo_and_clean_paths():
    from repro.sanitize.cli import sanitize_main

    assert sanitize_main(["--demo", "--processors", "3"]) == 0
    assert (
        sanitize_main(["--workload", "knights-tour", "--processors", "3"]) == 0
    )
