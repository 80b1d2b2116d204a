#!/usr/bin/env python
"""Benchmark gates: record and compare the committed perf trajectories.

Three suites, selected with ``--suite``:

* ``engine`` (default) — wall-clock measurements of the canonical engine
  scenarios (:mod:`repro.perf.benches`), committed in ``BENCH_engine.json``.
* ``transport`` — the transport x burst-loss goodput matrix
  (:mod:`repro.perf.netbench`), committed in ``BENCH_transport.json``.
  Every field is *simulated* and therefore machine-independent: CI
  compares the whole matrix exactly, and ``--require-ratio`` (default 10)
  gates the selective-repeat speed-up over stop-and-wait at the canonical
  burst-loss point.
* ``traffic`` — the dispatch-policy x load response-time matrix
  (:mod:`repro.traffic.bench`), committed in ``BENCH_traffic.json``.
  Also all-simulated/exact; additionally gates the PS request-cloning
  report's orderings (clone-2 beats random on the heavy tail, loses on
  deterministic service) and the simulated-vs-analytic error within
  ``--tolerance`` of the closed forms.  ``--smoke`` runs a tenth of the
  requests and keeps only the ordering gates (see ``SMOKE_NO_ANALYTIC``).

The engine suite has three modes:

record
    ``python tools/check_bench.py --record --label "post-PR5 fast paths"``
    appends a fresh measurement to the trajectory, stamped with the
    machine, the Python version and the CPU count.

compare (default)
    Runs the scenarios fresh and compares against the *latest* committed
    entry: the deterministic fields (simulated clock, events processed,
    events cancelled) must match **exactly** — a mismatch means the engine's
    behaviour changed, not just its speed — and wall-clock must not regress
    by more than ``--tolerance`` (default 15%).  Wall-clock baselines are
    machine-dependent; on foreign hardware (CI) pass a generous tolerance
    and rely on the exact deterministic-field comparison, which is
    machine-independent.

trajectory
    ``--trajectory`` prints the committed history and the first->last
    speed-up per bench; ``--require-speedup X`` additionally gates the
    micro-benches at >= X (the PR-5 acceptance bar is 1.3).

Exit status is non-zero on any regression/mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.perf.benches import BENCHES, MICRO_BENCHES, time_bench  # noqa: E402
from repro.perf.netbench import matrix_ratios, run_matrix  # noqa: E402

DEFAULT_BASELINE = REPO / "BENCH_engine.json"
TRANSPORT_BASELINE = REPO / "BENCH_transport.json"
TRAFFIC_BASELINE = REPO / "BENCH_traffic.json"

#: the canonical gate points for --suite transport (loss point 0.02)
_GATE_KEYS = ("sr@0.02", "dual@0.02")

#: deterministic outcome fields compared exactly between runs
_EXACT_FIELDS = ("sim_now", "events", "cancelled")

#: why ``--suite traffic --smoke`` skips the closed-form error checks
SMOKE_NO_ANALYTIC = (
    "smoke mode: skipping the sim-vs-analytic checks; a {n}-request mean of "
    "Pareto(1.5) service (infinite variance) is too noisy for a {tol:g}% "
    "bound (hostbench measured -12%..+22% over 20 seeds even at 10^5 "
    "requests); the full suite keeps them"
)


def stamp(label: str) -> dict:
    """The head of a recorded trajectory entry: label and host stamp."""
    return {
        "label": label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def measure(repeats: int) -> dict:
    """Time every scenario; returns name -> {wall, sim_now, events, ...}."""
    results = {}
    for name in BENCHES:
        reps = repeats if name in MICRO_BENCHES else max(2, repeats // 2)
        wall, outcome = time_bench(name, repeats=reps)
        results[name] = {"wall": wall, **outcome}
        print(f"  {name:>16}: {wall * 1000:8.2f} ms  "
              f"(events={outcome['events']}, cancelled={outcome['cancelled']})")
    return results


def measure_transport() -> dict:
    """Run the deterministic transport x loss matrix; print a summary."""
    results = run_matrix()
    ratios = matrix_ratios(results)
    for key, outcome in results.items():
        ratio = ratios.get(key)
        extra = f"  ({ratio:g}x vs stop-and-wait)" if ratio is not None else ""
        status = "" if outcome["completed"] else "  DNF"
        print(f"  {key:>20}: goodput {outcome['goodput_mps']:10.1f} msg/s "
              f"over {outcome['sim_now']:.6f} s{extra}{status}")
    return {"results": results, "ratios": ratios}


def compare_transport(fresh: dict, base_entry: dict, require_ratio: float) -> int:
    """Exact comparison (everything simulated) + speed-up gate."""
    failures = 0
    base = base_entry["results"]
    print(f"\ncomparing against baseline entry {base_entry['label']!r}:")
    for key, cur in fresh["results"].items():
        ref = base.get(key)
        if ref is None:
            print(f"  {key:>20}: NEW (no baseline)")
            continue
        if cur != ref:
            diffs = {
                fld: (cur.get(fld), ref.get(fld))
                for fld in sorted(set(cur) | set(ref))
                if cur.get(fld) != ref.get(fld)
            }
            print(f"  {key:>20}: DETERMINISM MISMATCH {diffs}")
            failures += 1
        else:
            print(f"  {key:>20}: ok (exact)")
    for key in _GATE_KEYS:
        ratio = fresh["ratios"].get(key, 0.0)
        ok = ratio >= require_ratio
        print(f"  gate {key}: {ratio:g}x vs stop-and-wait "
              f"[{'PASS' if ok else 'FAIL'} >= {require_ratio:g}x]")
        failures += 0 if ok else 1
    return 1 if failures else 0


def load_trajectory(path: Path) -> list:
    if not path.exists():
        return []
    return json.loads(path.read_text())["trajectory"]


def save_trajectory(path: Path, trajectory: list, benches=None) -> None:
    payload = {
        "benches": list(BENCHES) if benches is None else list(benches),
        "trajectory": trajectory,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def compare(fresh: dict, base_entry: dict, tolerance: float) -> int:
    """0 if fresh matches the baseline entry; 1 on mismatch/regression."""
    failures = 0
    base = base_entry["results"]
    print(f"\ncomparing against baseline entry {base_entry['label']!r}:")
    for name, cur in fresh.items():
        ref = base.get(name)
        if ref is None:
            print(f"  {name:>16}: NEW (no baseline)")
            continue
        for fld in _EXACT_FIELDS:
            if cur.get(fld) != ref.get(fld):
                print(f"  {name:>16}: DETERMINISM MISMATCH {fld}: "
                      f"{cur.get(fld)!r} != baseline {ref.get(fld)!r}")
                failures += 1
        ratio = cur["wall"] / ref["wall"] if ref["wall"] else float("inf")
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = f"REGRESSION (> {1.0 + tolerance:.2f}x allowed)"
            failures += 1
        print(f"  {name:>16}: {cur['wall'] * 1000:8.2f} ms vs "
              f"{ref['wall'] * 1000:8.2f} ms baseline ({ratio:.2f}x) {verdict}")
    return 1 if failures else 0


def show_trajectory(trajectory: list, require_speedup: float | None) -> int:
    if len(trajectory) < 1:
        print("no committed trajectory entries")
        return 1
    for entry in trajectory:
        walls = "  ".join(
            f"{n}={r['wall'] * 1000:.2f}ms" for n, r in sorted(entry["results"].items())
        )
        print(f"{entry['label']:>28}: {walls}")
    if len(trajectory) < 2:
        return 0
    first, last = trajectory[0]["results"], trajectory[-1]["results"]
    failures = 0
    print("\nfirst -> last speed-up:")
    for name in BENCHES:
        if name not in first or name not in last:
            continue
        speedup = first[name]["wall"] / last[name]["wall"]
        gate = ""
        if require_speedup is not None and name in MICRO_BENCHES:
            ok = speedup >= require_speedup
            gate = f"  [{'PASS' if ok else 'FAIL'} >= {require_speedup:.2f}x]"
            failures += 0 if ok else 1
        print(f"  {name:>16}: {speedup:.2f}x{gate}")
    return 1 if failures else 0


def _transport_suite(args) -> int:
    """The transport x burst-loss matrix suite (exact, simulated)."""
    print("measuring transport x burst-loss matrix (simulated, exact):")
    fresh = measure_transport()
    trajectory = load_trajectory(args.baseline)
    if args.record:
        trajectory.append({**stamp(args.label), **fresh})
        save_trajectory(args.baseline, trajectory,
                        benches=sorted(fresh["results"]))
        print(f"\nrecorded entry {args.label!r} ({len(trajectory)} total) "
              f"to {args.baseline}")
        return 0
    if not trajectory:
        print(f"no baseline at {args.baseline}; run with --record first",
              file=sys.stderr)
        return 2
    return compare_transport(fresh, trajectory[-1], args.require_ratio)


def _engine_suite(args) -> int:
    """The wall-clock engine scenario suite (record/compare/trajectory)."""
    trajectory = load_trajectory(args.baseline)
    if args.trajectory:
        return show_trajectory(trajectory, args.require_speedup)

    repeats = 2 if args.smoke else args.repeats
    print(f"measuring engine benches (best of {repeats}):")
    fresh = measure(repeats)

    if args.record:
        trajectory.append({**stamp(args.label), "results": fresh})
        save_trajectory(args.baseline, trajectory)
        print(f"\nrecorded entry {args.label!r} ({len(trajectory)} total) "
              f"to {args.baseline}")
        return 0

    if not trajectory:
        print(f"no baseline at {args.baseline}; run with --record first",
              file=sys.stderr)
        return 2
    return compare(fresh, trajectory[-1], args.tolerance)


def _traffic_suite(args) -> int:
    """The policy x load traffic matrix: exact + report-ordering gates."""
    from repro.traffic.bench import check_gates, run_bench_matrix

    n_requests = 6_000 if args.smoke else 60_000
    print(f"measuring traffic policy x load matrix "
          f"({n_requests} requests/point, simulated, exact):")
    fresh = run_bench_matrix(n_requests=n_requests)
    for key, outcome in sorted(fresh.items()):
        analytic = outcome.get("analytic")
        extra = f"  (analytic {analytic:.4f})" if analytic is not None else ""
        print(f"  {key:>16}: mean {outcome['mean']:10.4f}  "
              f"p99 {outcome['p99']:10.4f}{extra}")

    failures = 0
    print("\nreport-reproduction gates:")
    if args.smoke:
        print("  " + SMOKE_NO_ANALYTIC.format(n=n_requests, tol=args.tolerance * 100))
    gates = check_gates(fresh, tolerance=args.tolerance, closed_forms=not args.smoke)
    for description, ok in gates:
        print(f"  [{'PASS' if ok else 'FAIL'}] {description}")
        failures += 0 if ok else 1

    trajectory = load_trajectory(args.baseline)
    if args.record:
        if failures:
            print(f"\nrefusing to record a baseline that fails "
                  f"{failures} gate(s)", file=sys.stderr)
            return 1
        trajectory.append({**stamp(args.label), "n_requests": n_requests,
                           "results": fresh})
        save_trajectory(args.baseline, trajectory, benches=sorted(fresh))
        print(f"\nrecorded entry {args.label!r} ({len(trajectory)} total) "
              f"to {args.baseline}")
        return 0
    if not trajectory:
        print(f"no baseline at {args.baseline}; run with --record first",
              file=sys.stderr)
        return 2
    base_entry = trajectory[-1]
    base = base_entry["results"]
    print(f"\ncomparing against baseline entry {base_entry['label']!r}:")
    if base_entry.get("n_requests") != n_requests:
        print(f"  (baseline used {base_entry.get('n_requests')} requests/point, "
              f"this run {n_requests}: skipping the exact comparison)")
    else:
        for key, cur in sorted(fresh.items()):
            ref = base.get(key)
            if ref is None:
                print(f"  {key:>16}: NEW (no baseline)")
                continue
            if cur != ref:
                diffs = {
                    fld: (cur.get(fld), ref.get(fld))
                    for fld in sorted(set(cur) | set(ref))
                    if cur.get(fld) != ref.get(fld)
                }
                print(f"  {key:>16}: DETERMINISM MISMATCH {diffs}")
                failures += 1
            else:
                print(f"  {key:>16}: ok (exact)")
    return 1 if failures else 0


#: suite name -> (committed baseline file, runner); adding a suite is one
#: entry here — selection, default baseline, and dispatch all read it
SUITES = {
    "engine": (DEFAULT_BASELINE, _engine_suite),
    "transport": (TRANSPORT_BASELINE, _transport_suite),
    "traffic": (TRAFFIC_BASELINE, _traffic_suite),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="engine", metavar="SUITE",
                        help="which benchmark suite to run "
                             f"(one of: {', '.join(SUITES)}; default: engine)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="trajectory file (default: BENCH_<suite>.json)")
    parser.add_argument("--record", action="store_true",
                        help="append a fresh measurement instead of comparing")
    parser.add_argument("--label", default="unlabelled",
                        help="label for the recorded entry")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed wall-clock regression fraction (default 0.15)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of repetitions per micro-bench (default 5)")
    parser.add_argument("--smoke", action="store_true",
                        help="fast mode for CI: best-of-2 repetitions")
    parser.add_argument("--trajectory", action="store_true",
                        help="print the committed trajectory and speed-ups")
    parser.add_argument("--require-speedup", type=float, default=None,
                        help="with --trajectory: gate micro-bench first->last speed-up")
    parser.add_argument("--require-ratio", type=float, default=10.0,
                        help="transport suite: minimum SR-vs-stop-and-wait "
                             "goodput ratio at the canonical loss point")
    args = parser.parse_args(argv)

    suite = SUITES.get(args.suite)
    if suite is None:
        print(
            f"unknown suite {args.suite!r}; known suites: "
            f"{', '.join(sorted(SUITES))}",
            file=sys.stderr,
        )
        return 2
    default_baseline, run = suite
    if args.baseline is None:
        args.baseline = default_baseline
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
