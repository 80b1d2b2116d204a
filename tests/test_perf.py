"""Tests for the perf layer: profiler fidelity, bench pins, the committed
trajectory gate, and the engine fast paths (Timeout pooling)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.perf import BENCHES, MICRO_BENCHES, EngineProfiler, run_bench
from repro.sim import Simulator, Timeout

REPO = Path(__file__).resolve().parent.parent

#: exact simulated outcomes of the engine micro-benches.  These pins were
#: captured on the PRE-optimisation engine and must never drift: the fast
#: paths (timeout pooling, cached PS shortest-remaining, inlined dispatch)
#: are required to keep simulated time bit-identical.
MICRO_PINS = {
    "timeout_chain": {"sim_now": 20.00000000000146, "events": 20002, "cancelled": 0},
    "ps_churn": {"sim_now": 3.80799625, "events": 6007, "cancelled": 1999},
    "bus_contention": {"sim_now": 0.18462899999999832, "events": 5372, "cancelled": 0},
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


# -- profiler fidelity --------------------------------------------------------
def test_profiler_changes_no_simulated_outcome():
    plain = run_bench("ps_churn")
    with EngineProfiler() as prof:
        profiled = run_bench("ps_churn")
    assert profiled == plain
    assert prof.profile.events_processed == plain["events"]
    assert prof.profile.events_cancelled == plain["cancelled"]


def test_profiler_counts_and_attribution():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)

    with EngineProfiler() as prof:
        sim.process(proc())
        sim.run_all()
    p = prof.profile
    assert p.events_processed == sim.events_processed
    assert p.by_type["Timeout"].count == 2
    assert p.by_type["Initialize"].count == 1
    assert any("Process._resume" in site for site in p.by_site)
    assert sum(p.fanout.values()) == p.events_processed
    assert p.wall_ns > 0


def test_profiler_render_has_all_sections():
    with EngineProfiler() as prof:
        run_bench("timeout_chain")
    text = prof.profile.render()
    assert "dispatch by event type" in text
    assert "hot callback sites" in text
    assert "callback fan-out histogram" in text
    assert "events dispatched" in text


def test_profiler_restores_run_and_rejects_nesting():
    original = Simulator.run
    with EngineProfiler() as prof:
        assert Simulator.run is not original
        with pytest.raises(RuntimeError):
            prof.__enter__()
    assert Simulator.run is original


def test_profiler_preserves_until_event_semantics():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.5)
        return "done"

    p = sim.process(proc())
    with EngineProfiler():
        assert sim.run(p) == "done"
    assert sim.now == 1.5


# -- the committed perf trajectory --------------------------------------------
def test_committed_trajectory_shows_fast_path_speedups():
    payload = json.loads((REPO / "BENCH_engine.json").read_text())
    trajectory = payload["trajectory"]
    assert len(trajectory) >= 2, "need pre- and post-optimisation entries"
    first, last = trajectory[0]["results"], trajectory[-1]["results"]
    for name in MICRO_BENCHES:
        # The acceptance bar: >= 1.3x wall-clock on every engine micro-bench.
        assert first[name]["wall"] / last[name]["wall"] >= 1.3, name
        # ... for the *same* simulated computation, bit for bit.
        for fld in ("sim_now", "events", "cancelled"):
            assert first[name][fld] == last[name][fld], (name, fld)


def test_committed_baseline_matches_live_outcomes():
    payload = json.loads((REPO / "BENCH_engine.json").read_text())
    latest = payload["trajectory"][-1]["results"]
    for name, pin in MICRO_PINS.items():
        for fld, value in pin.items():
            assert latest[name][fld] == value, (name, fld)


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


# -- CLI ----------------------------------------------------------------------
def test_profile_engine_cli_smoke():
    out = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", "profile-engine",
         "--bench", "bus_contention"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert out.returncode == 0, out.stderr
    assert "dispatch by event type" in out.stdout
    assert "EthernetBus" in out.stdout or "Process._resume" in out.stdout
