"""Tests for the perf layer: bench pins, the committed BENCH_*.json gates
in tools/check_bench.py, and the engine fast paths (Timeout pooling)."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.perf import BENCHES, MICRO_BENCHES, PairedTimes, run_bench, time_pairs
from repro.sim import Simulator, Timeout

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_bench", REPO / "tools" / "check_bench.py"
)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)
_spec = importlib.util.spec_from_file_location(
    "paired_bench", REPO / "tools" / "paired_bench.py"
)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

#: exact simulated outcomes of the engine micro-benches.  These pins were
#: captured on the PRE-optimisation engine and must never drift: the fast
#: paths (timeout pooling, cached PS shortest-remaining, inlined dispatch)
#: are required to keep simulated time bit-identical.  The one count
#: re-pinned since is ``bus_contention`` ``events`` (5372 -> 4510 -> 4494):
#: the bus arbiter became one timer, so an arbitration no longer ends a
#: resolver process (one event each); then the bus took ``transmit(frame,
#: done)`` callbacks, so the eight stations no longer run as processes
#: (their start and end events); ``sim_now`` is unchanged.  ``ps_churn``
#: ``sim_now`` moved by one ulp (3.80799625 -> 3.8079962499999995) when the
#: CPU became a virtual-time PS queue: a finish tag is not repeated
#: subtraction.  Its event and cancellation counts did not move.
MICRO_PINS = {
    "timeout_chain": {"sim_now": 20.00000000000146, "events": 20002, "cancelled": 0},
    "ps_churn": {"sim_now": 3.8079962499999995, "events": 6007, "cancelled": 1999},
    "bus_contention": {"sim_now": 0.18462899999999832, "events": 4494, "cancelled": 0},
}

#: exact outcome of the solo-burst scenario, captured on the scheduler
#: before it had a solo path: 20,000 bursts, each one timer plus one
#: completion event
PS_SOLO_PIN = {"sim_now": 37.999100000001164, "events": 40002, "cancelled": 0,
               "completed": 20000}


# -- bench scenario determinism ------------------------------------------------
@pytest.mark.parametrize("name", sorted(MICRO_PINS))
def test_micro_bench_outcomes_bit_identical_to_seed_engine(name):
    out = run_bench(name)
    pin = MICRO_PINS[name]
    assert out["sim_now"] == pin["sim_now"]  # exact, not approx
    assert out["events"] == pin["events"]
    assert out["cancelled"] == pin["cancelled"]


def test_bench_registry_covers_micro_benches():
    for name in MICRO_BENCHES:
        assert name in BENCHES


def test_ps_solo_outcome_bit_identical_to_general_ps_path():
    assert run_bench("ps_solo") == PS_SOLO_PIN
    assert "ps_solo" not in MICRO_BENCHES


# -- the committed perf trajectory --------------------------------------------
def test_committed_trajectory_shows_fast_path_speedups():
    trajectory = check_bench.load_trajectory(REPO / "BENCH_engine.json")
    pairs = check_bench.speedup_pairs(trajectory)
    assert pairs, "need pre- and post-optimisation entries on one host"
    # The acceptance bar: >= 1.3x wall-clock on every engine micro-bench
    # from the pre-fast-path entry, no regression beyond 15% in any later
    # same-host group, each for the *same* simulated computation, bit for bit.
    assert any(first["label"] == check_bench.SPEEDUP_BASELINE for first, _ in pairs)
    gates = check_bench.trajectory_gates(trajectory, require_speedup=1.3, tolerance=0.15)
    assert len(gates) == len(pairs) * len(MICRO_BENCHES)
    assert all(ok for _, ok in gates), [d for d, ok in gates if not ok]


def test_committed_baseline_matches_live_outcomes():
    payload = json.loads((REPO / "BENCH_engine.json").read_text())
    latest = payload["trajectory"][-1]["results"]
    for name, pin in {**MICRO_PINS, "ps_solo": PS_SOLO_PIN}.items():
        for fld, value in pin.items():
            assert latest[name][fld] == value, (name, fld)


def _trajectory_copy(tmp_path, suite):
    path = tmp_path / check_bench.SUITES[suite].baseline.name
    path.write_text(check_bench.SUITES[suite].baseline.read_text())
    return path


def test_trajectory_speedups_pair_entries_of_one_host_stamp(tmp_path, capsys):
    path = _trajectory_copy(tmp_path, "engine")
    payload = json.loads(path.read_text())
    first = payload["trajectory"][0]
    slower = copy.deepcopy(first)
    for outcome in slower["results"].values():
        outcome["wall"] *= 10
    gate = ["--trajectory", "--require-speedup", "1.3", "--baseline", str(path)]

    # one entry per host stamp leaves nothing to gate: fail, don't pass
    path.write_text(json.dumps({**payload, "trajectory": [first]}))
    assert check_bench.main(gate) == 1
    assert "no host stamp has two entries" in capsys.readouterr().err

    # a slower entry from another host is no regression of this one
    payload["trajectory"].append({**slower, "machine": "other-host", "cpus": 64})
    path.write_text(json.dumps(payload))
    assert check_bench.main(gate) == 0

    # ... but on the first entry's own host stamp it is
    payload["trajectory"].append(slower)
    path.write_text(json.dumps(payload))
    assert check_bench.main(gate) == 1


def test_same_host_groups_gate_regressions_not_speedups(tmp_path, capsys):
    path = _trajectory_copy(tmp_path, "engine")
    payload = json.loads(path.read_text())
    stamp = check_bench.host_stamp(payload["trajectory"][-1])
    first = next(e for e in payload["trajectory"] if check_bench.host_stamp(e) == stamp)
    latest = payload["trajectory"][-1]["results"]
    assert first["label"] != check_bench.SPEEDUP_BASELINE
    gate = ["--trajectory", "--require-speedup", "1.3", "--baseline", str(path)]

    def with_last(scale, field="wall", bump=0):
        # the first entry's walls, timing the latest entry's computation
        last = copy.deepcopy(first)
        last["label"] = "later change"
        for name in MICRO_BENCHES:
            last["results"][name].update(
                {f: v for f, v in latest[name].items() if f != "wall"})
            last["results"][name]["wall"] *= scale
            last["results"][name][field] += bump
        path.write_text(json.dumps({**payload, "trajectory": payload["trajectory"] + [last]}))
        return check_bench.main(gate)

    # no speed-up is asked of a group that does not start at the baseline ...
    assert with_last(1.10) == 0
    assert "'later change' ps_churn: 0.91x" in capsys.readouterr().out
    # ... only no regression beyond --tolerance
    assert with_last(1.20) == 1
    assert check_bench.main(gate + ["--tolerance", "0.25"]) == 0
    # ... and the same simulated computation
    assert with_last(1.0, field="events", bump=1) == 1
    assert "simulated outcome differs" in capsys.readouterr().out
    assert with_last(1.0, field="cancelled", bump=1) == 1
    assert "simulated outcome differs" in capsys.readouterr().out
    # ... which may take fewer events, never more
    assert with_last(1.0, field="events", bump=-1) == 0


def test_declared_outcome_change_restarts_the_exact_rule(tmp_path, capsys):
    path = _trajectory_copy(tmp_path, "engine")
    payload = json.loads(path.read_text())
    stamp = check_bench.host_stamp(payload["trajectory"][-1])
    group = [e for e in payload["trajectory"] if check_bench.host_stamp(e) == stamp]
    gate = ["--trajectory", "--require-speedup", "1.3", "--baseline", str(path)]

    def with_entries(*entries):
        path.write_text(json.dumps({**payload, "trajectory": payload["trajectory"] + list(entries)}))
        return check_bench.main(gate)

    moved = copy.deepcopy(group[-1])
    moved["label"] = "moved ps_churn"
    moved.pop("outcome_change", None)
    moved["results"]["ps_churn"]["sim_now"] += 1e-15
    later = copy.deepcopy(moved)
    later["label"] = "after the move"
    # undeclared, the move fails the group's first -> last outcome rule ...
    assert with_entries(moved, later) == 1
    assert "'after the move' ps_churn: " in capsys.readouterr().out
    # ... declared, later entries must repeat the declaring entry's outcome
    moved["outcome_change"] = {"ps_churn": "a finish tag rounds differently"}
    later["outcome_change"] = {}
    assert with_entries(moved, later) == 0
    capsys.readouterr()
    # events and cancellations still may not rise over the group's first
    later["results"]["ps_churn"]["events"] = group[0]["results"]["ps_churn"]["events"] + 1
    moved["results"]["ps_churn"]["events"] = later["results"]["ps_churn"]["events"]
    assert with_entries(moved, later) == 1
    assert "simulated outcome differs" in capsys.readouterr().out


def test_undeclared_outcome_change_still_fails(tmp_path, capsys):
    path = _trajectory_copy(tmp_path, "engine")
    payload = json.loads(path.read_text())
    last = copy.deepcopy(payload["trajectory"][-1])
    last["label"] = "declares another bench"
    last["outcome_change"] = {"timeout_chain": "not the one that moved"}
    last["results"]["ps_churn"]["sim_now"] += 1e-15
    path.write_text(json.dumps({**payload, "trajectory": payload["trajectory"] + [last]}))
    gate = ["--trajectory", "--require-speedup", "1.3", "--baseline", str(path)]
    assert check_bench.main(gate) == 1
    assert "'declares another bench' ps_churn" in capsys.readouterr().out


def _no_measuring(args):
    raise AssertionError("--trajectory must not measure")


@pytest.mark.parametrize("suite", ["transport", "traffic", "hostbench"])
def test_trajectory_flag_measures_nothing_in_any_suite(suite, monkeypatch, capsys):
    suites = check_bench.SUITES
    monkeypatch.setitem(suites, suite, suites[suite]._replace(measure=_no_measuring))
    assert check_bench.main(["--suite", suite, "--trajectory"]) == 0
    label = check_bench.load_trajectory(suites[suite].baseline)[-1]["label"]
    assert label in capsys.readouterr().out


def test_record_refuses_an_entry_that_fails_a_gate(tmp_path, monkeypatch):
    path = _trajectory_copy(tmp_path, "transport")
    committed = check_bench.load_trajectory(path)[-1]["results"]
    suites = check_bench.SUITES
    monkeypatch.setitem(suites, "transport", suites["transport"]._replace(
        measure=lambda args: (committed, {})))
    before = path.read_text()
    argv = ["--suite", "transport", "--record", "--baseline", str(path)]

    assert check_bench.main(argv + ["--require-ratio", "1000"]) == 1
    assert path.read_text() == before

    assert check_bench.main(argv + ["--label", "passes"]) == 0
    recorded = check_bench.load_trajectory(path)
    assert len(recorded) == 2 and recorded[-1]["label"] == "passes"
    assert recorded[-1]["results"] == committed


def test_record_stores_a_paired_summary_of_this_host_only(tmp_path, monkeypatch, capsys):
    path = _trajectory_copy(tmp_path, "hostbench")
    committed = check_bench.load_trajectory(path)[-1]["results"]
    suites = check_bench.SUITES
    monkeypatch.setitem(suites, "hostbench", suites["hostbench"]._replace(
        measure=lambda args: (committed, {})))
    summary = {"pass_s": {"parent": [4.5, 4.6, 4.7], "change": [3.9, 4.0, 4.1],
                          "pairs": 10, "wins": 10}}
    run = {**paired_bench.host_stamp(), "workload": "traffic_sweep", "parent": "abc1234",
           "seeds": [1, 10], "seconds": 12.0, "summary": summary}
    paired = tmp_path / "paired.json"
    paired.write_text(json.dumps(run))
    argv = ["--suite", "hostbench", "--record", "--baseline", str(path),
            "--paired", str(paired), "--label", "paired"]
    before = path.read_text()

    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({**run, "cpus": 999}))
    with pytest.raises(SystemExit):
        check_bench.main(argv[:-4] + ["--paired", str(foreign)])
    with pytest.raises(SystemExit):  # only the hostbench suite records one
        check_bench.main(["--suite", "traffic", "--paired", str(paired)])
    assert path.read_text() == before

    assert check_bench.main(argv) == 0
    entry = check_bench.load_trajectory(path)[-1]
    assert entry["results"] == committed
    run_key = "traffic_sweep seeds 1-10"
    assert entry["paired"][run_key]["summary"] == summary
    assert check_bench.host_stamp(entry["paired"][run_key]) == check_bench.host_stamp(entry)
    # the paired key sits outside results: the exact comparison ignores it
    assert check_bench.compare(committed, {}, [entry], (), 0.15) == 0
    assert check_bench.main(["--suite", "hostbench", "--trajectory",
                             "--baseline", str(path)]) == 0
    assert "traffic_sweep seeds 1-10 pass_s 4.6 -> 4 (10/10 wins)" in capsys.readouterr().out


def test_record_keeps_every_seed_set_of_one_workload(tmp_path, monkeypatch, capsys):
    path = _trajectory_copy(tmp_path, "hostbench")
    committed = check_bench.load_trajectory(path)[-1]["results"]
    suites = check_bench.SUITES
    monkeypatch.setitem(suites, "hostbench", suites["hostbench"]._replace(
        measure=lambda args: (committed, {})))
    files = []
    for first, last, median in ((1, 10, 3.0), (11, 20, 3.1), (1, 10, 3.2)):
        summary = {"pass_s": {"parent": [3.5, 3.6, 3.7], "change": [2.9, median, 3.3],
                              "pairs": 10, "wins": 9}}
        run = {**paired_bench.host_stamp(), "workload": "scale_switch", "parent": "abc1234",
               "seeds": [first, last], "seconds": 12.0, "summary": summary}
        files.append(tmp_path / f"paired-{len(files)}.json")
        files[-1].write_text(json.dumps(run))
    argv = ["--suite", "hostbench", "--record", "--baseline", str(path), "--label", "sets"]
    before = path.read_text()

    with pytest.raises(SystemExit):  # two summaries of one workload and seed range
        check_bench.main(argv + ["--paired", str(files[0]), "--paired", str(files[2])])
    assert path.read_text() == before

    assert check_bench.main(argv + ["--paired", str(files[0]), "--paired", str(files[1])]) == 0
    paired = check_bench.load_trajectory(path)[-1]["paired"]
    assert sorted(paired) == ["scale_switch seeds 1-10", "scale_switch seeds 11-20"]
    assert paired["scale_switch seeds 11-20"]["summary"]["pass_s"]["change"][1] == 3.1
    capsys.readouterr()
    assert check_bench.main(["--suite", "hostbench", "--trajectory",
                             "--baseline", str(path)]) == 0
    out = capsys.readouterr().out
    assert "scale_switch seeds 1-10 pass_s 3.6 -> 3 (9/10 wins)" in out
    assert "scale_switch seeds 11-20 pass_s 3.6 -> 3.1 (9/10 wins)" in out


#: one exact field per suite to perturb in the compare test
_EXACT_PROBES = {"engine": "events", "transport": "retransmissions",
                 "traffic": "p99", "hostbench": "sim.events"}


@pytest.mark.parametrize("suite", sorted(_EXACT_PROBES))
def test_compare_flags_exact_mismatch_wall_regression_and_param_skip(suite, capsys):
    wall = check_bench.SUITES[suite].wall
    trajectory = check_bench.load_trajectory(check_bench.SUITES[suite].baseline)
    latest = trajectory[-1]
    params = {"n_requests": latest["n_requests"]} if suite == "traffic" else {}

    def compare(results, params=params, tolerance=0.15):
        return check_bench.compare(results, params, trajectory, wall, tolerance)

    assert compare(latest["results"]) == 0

    perturbed = copy.deepcopy(latest["results"])
    name = sorted(perturbed)[0]
    perturbed[name][_EXACT_PROBES[suite]] += 1
    assert compare(perturbed) == 1
    assert "DETERMINISM MISMATCH" in capsys.readouterr().out

    if wall:
        slower = copy.deepcopy(latest["results"])
        slower[name]["wall"] *= 1.5
        assert compare(slower) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert compare(slower, tolerance=0.6) == 0

    if params:
        assert compare(perturbed, params={"n_requests": 6_000}) == 0
        assert "skipping the comparison" in capsys.readouterr().out


def test_hostbench_suite_pins_exactly_the_gated_workloads():
    gated = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(check_bench.HOSTBENCH_WORKLOADS) == sorted(gated)
    latest = check_bench.load_trajectory(check_bench.SUITES["hostbench"].baseline)[-1]
    assert sorted(latest["results"]) == sorted(gated)
    assert check_bench.SUITES["hostbench"].wall == ()


# -- the paired runner -----------------------------------------------------------
def test_paired_summary_on_canned_numbers():
    parent = [3.0, 4.0, 5.0, 6.0, 7.0]
    change = [2.0, 4.5, 4.0, 5.0, 6.0]
    pairs = [({"pass_s": p, "peak_rss_mb": 50.0, "score": 1.0},
              {"pass_s": c, "peak_rss_mb": 50.0, "score": 2.0})
             for p, c in zip(parent, change)]
    better = {"pass_s": "lower", "peak_rss_mb": "lower", "score": "higher",
              "absent": "lower"}
    summary = paired_bench.summarize(pairs, better)
    assert list(summary) == ["pass_s", "peak_rss_mb", "score"]
    assert summary["pass_s"] == {"parent": (4.0, 5.0, 6.0), "change": (4.0, 4.5, 5.0),
                                 "pairs": 5, "wins": 4}
    assert summary["peak_rss_mb"]["wins"] == 0  # a tie is no win
    assert summary["score"]["wins"] == 5
    assert paired_bench.summarize(pairs[:1], better)["pass_s"]["parent"] == (3.0, 3.0, 3.0)
    table = paired_bench.format_summary("w", summary)
    assert "-10.0%" in table and "4/5" in table


def test_paired_runner_children_get_a_built_environment(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    monkeypatch.setenv("PATH", "/usr/bin")
    env = paired_bench.child_env()
    assert env["PATH"] == "/usr/bin"
    assert set(env) <= set(paired_bench.KEPT_ENV)
    assert paired_bench.seed_range("3-5") == [3, 4, 5]
    assert paired_bench.seed_range("7") == [7]


def test_diff_mode_reports_an_ulp_and_an_event_for_what_they_are():
    parent = {
        "hostbench": {"paper_bus": {"elapsed/gs/4": 0.1, "network.frames": 40,
                                    "sim.events": 1000, "sim.cancelled": 7}},
        "engine": {"ps_churn": {"sim_now": 3.5, "events": 6007, "cancelled": 1999}},
    }
    change = copy.deepcopy(parent)
    change["hostbench"]["paper_bus"]["elapsed/gs/4"] = 0.1 + 2 ** -56  # one ulp
    change["hostbench"]["paper_bus"]["sim.events"] -= 1
    lines = paired_bench.diff_lines(parent, change)
    assert "  hostbench network.frames: integer-identical" in lines
    assert "  engine sim_now: bit-identical" in lines
    (elapsed,) = [line for line in lines if "elapsed/gs/4" in line]
    assert "largest relative |delta| 1.39e-16" in elapsed
    assert "  events hostbench paper_bus sim.events: 1000 -> 999 (-1)" in lines
    assert "  events hostbench paper_bus sim.cancelled: 7 -> 7 (unchanged)" in lines
    # counts are never folded into the output lines
    assert not any("events" in line for line in lines if not line.startswith("  events"))


def test_diff_mode_runs_the_experiments_sr_dual_rows_exactly():
    """--diff carries the six rows of the EXPERIMENTS.md sr/dual table as
    float-exact fields; a planted one-ulp goodput change in one row is
    reported as such, and the row's event count gets its own line."""
    table = (REPO / "EXPERIMENTS.md").read_text().split("| transport | loss |")[1]
    quoted = [tuple(cell.strip() for cell in line.split("|")[1:3])
              for line in table.splitlines()[2:8]]
    assert list(paired_bench.SR_DUAL_ROWS) == quoted
    row = {"count": 200, "mean": 0.0706, "p50": 0.0537109375, "p99": 0.3046875,
           "goodput_rps": 32.58, "elapsed": 6.1384, "sim_events": 90000}
    parent = {"experiments": {f"{t} loss {loss}": dict(row)
                              for t, loss in paired_bench.SR_DUAL_ROWS}}
    change = copy.deepcopy(parent)
    change["experiments"]["sr loss 0.05"]["goodput_rps"] += 2 ** -47  # one ulp
    lines = paired_bench.diff_lines(parent, change)
    assert "  experiments mean: bit-identical" in lines
    assert "  experiments count: integer-identical" in lines
    (moved,) = [line for line in lines if "goodput_rps" in line]
    assert "largest relative |delta| 2.18e-16 (sr loss 0.05:" in moved
    assert "  events experiments dual loss 0 sim_events: 90000 -> 90000 (unchanged)" in lines


def test_paired_times_on_canned_numbers():
    times = PairedTimes(first=(1.0, 2.0, 4.0, 1.0), second=(2.0, 1.0, 4.0, 0.5))
    assert times.ratios == (2.0, 0.5, 1.0, 0.5)
    assert times.median_ratio == 0.75
    assert times.wins == 2  # a tie is no win
    assert times.balance == 0.75
    assert PairedTimes((1.0,), (0.5,)).balance == PairedTimes((0.5,), (1.0,)).balance == 0.5
    with pytest.raises(ValueError):
        time_pairs(lambda: None, lambda: None, 0)


def test_paired_times_alternate_and_catch_a_planted_2x_slowdown():
    """The check of bench_resilience_overhead.py, balance > 1/1.02 - 0.15,
    passes for one body against itself and fails when one side runs it
    twice."""
    calls = []

    def body():
        sum(range(300_000))

    def slow():
        calls.append("slow")
        body()
        body()

    def fast():
        calls.append("fast")
        body()

    bound = 1 / 1.02 - 0.15
    planted = time_pairs(fast, slow, 7)
    assert calls[:4] == ["fast", "slow", "slow", "fast"]  # alternating order
    assert planted.balance < bound
    assert planted.median_ratio > 1 / bound and planted.wins <= 1
    assert time_pairs(body, body, 7).balance > bound


# -- engine fast paths ---------------------------------------------------------
def test_timeout_pool_recycles_cancelled_timeouts():
    sim = Simulator()
    t1 = sim.timeout(1.0)
    t1.cancel()
    assert sim.events_cancelled == 1
    t2 = sim.timeout(2.0, value="v")
    assert t2 is t1  # recycled in place
    assert t2.delay == 2.0

    got = []

    def proc():
        got.append((yield t2))

    sim.process(proc())
    sim.run_all()
    assert got == ["v"]
    assert sim.now == 2.0


def test_timeout_pool_does_not_capture_subclasses():
    sim = Simulator()

    class MyTimeout(Timeout):
        __slots__ = ()

    t = MyTimeout(sim, 1.0)
    t.cancel()
    assert t not in sim._timeout_pool
    assert sim.timeout(1.0) is not t


def test_recycled_timeout_drops_old_callbacks():
    sim = Simulator()
    fired = []
    t1 = sim.timeout(1.0)
    t1.callbacks.append(lambda ev: fired.append("old"))
    t1.cancel()
    t2 = sim.timeout(1.0)
    t2.callbacks.append(lambda ev: fired.append("new"))
    sim.run_all()
    assert fired == ["new"]


def test_run_skips_cancelled_head_and_counts_it():
    sim = Simulator()
    t = sim.timeout(1.0)
    sim.timeout(2.0)
    t.cancel()
    sim.run_all()
    assert sim.now == 2.0
    assert sim.events_processed == 1
    assert sim.events_cancelled == 1
