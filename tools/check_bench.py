#!/usr/bin/env python
"""Benchmark gates: measure, compare and record the committed BENCH_*.json suites.

Four suites, selected with ``--suite``, each one :class:`Suite` entry in
``SUITES`` run by the one loop in :func:`main`:

* ``engine`` (default) — wall-clock measurements of the canonical engine
  scenarios (:mod:`repro.perf.benches`), committed in ``BENCH_engine.json``.
  Its one wall field is ``wall``; no gates.
* ``transport`` — the transport x burst-loss goodput matrix
  (:mod:`repro.perf.netbench`), committed in ``BENCH_transport.json``.
  All simulated; gates the selective-repeat and dual speed-ups over
  stop-and-wait at the canonical burst-loss point at ``--require-ratio``
  (default 10).
* ``traffic`` — the dispatch-policy x load response-time matrix
  (:mod:`repro.traffic.bench`), committed in ``BENCH_traffic.json``.
  All simulated; gates the PS request-cloning report's orderings and the
  simulated-vs-analytic error within ``--tolerance`` of the closed forms.
  ``--smoke`` runs a tenth of the requests and keeps only the ordering
  gates (see ``SMOKE_NO_ANALYTIC``).
* ``hostbench`` — cross-revision pins of the repo benchmark's simulated
  outputs, committed in ``BENCH_hostbench.json``: each workload that
  ``BENCHMARK.json`` gates runs once at ``op_seed(1, 0)``, and its
  ``Workload.counts()`` plus the simulated ``elapsed`` of every run it
  makes are compared exactly (~15 s; ``--smoke`` changes nothing).  A
  host-time optimisation must leave all of them unchanged.  The workload
  fingerprint is not pinned: it hashes application results that go
  through numpy's BLAS, which another numpy build may round differently.
  ``hostbench/`` is imported, never changed.  No wall fields, no gates.
  ``--record --paired PATH`` (repeatable) stores the summaries that
  ``tools/paired_bench.py --json PATH`` wrote, measured on this host, in
  the new entry under ``paired``, outside ``results``, keyed by workload
  and seed range (``"scale_switch seeds 1-10"``; entries recorded before
  that are keyed by workload alone): a speed claim is then committed next
  to the exact counts it keeps, with every seed set it was measured on.

All four files share one schema::

    {"benches": [...],
     "trajectory": [{"label", "machine", "python", "cpus", <params>,
                     "results": {bench: {field: value}}}]}

where ``<params>`` are the run parameters a comparison must agree on
(traffic's ``n_requests``; none for the others).  Every run measures, then
runs the suite's gates, then does one of:

compare (default)
    Compares against the latest committed entry with equal params.  Every
    field except the suite's wall fields must match **exactly** — a
    mismatch means behaviour changed, not just speed — and each wall field
    must not regress by more than ``--tolerance`` (default 15%).  Wall
    baselines are machine-dependent; on foreign hardware (CI) pass a
    generous tolerance and rely on the exact fields.

record
    ``python tools/check_bench.py --record --label "my change"`` appends
    the measurement, stamped with the machine, the Python version and the
    CPU count.  An entry that fails a gate is refused.

``--trajectory`` measures nothing: it prints the committed history and,
within each group of entries sharing a host stamp (machine, Python, CPU
count), the first->last speed-up of every wall field.  ``--require-speedup
X`` gates the engine micro-benches of each group's first and last entry:
the same simulated outcome in no more events, and a speed-up of at least
X in the group that starts at ``SPEEDUP_BASELINE`` (the engine before its
fast paths) or no wall regression beyond ``--tolerance`` in every later
group.  It fails if no group has two entries to compare.  An entry may
declare ``"outcome_change": {bench: reason}``: the exact-outcome rule for
the named benches then restarts at that entry, while the speed bar and the
rule that events and cancellations never rise still span the whole group.

Exit status is non-zero on any failed gate, mismatch or regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.perf.benches import BENCHES, MICRO_BENCHES, time_bench  # noqa: E402
from repro.perf.netbench import matrix_ratios, run_matrix  # noqa: E402

#: the canonical gate points for --suite transport (loss point 0.02)
_GATE_KEYS = ("sr@0.02", "dual@0.02")

#: requests per traffic matrix point (``--smoke`` runs a tenth)
TRAFFIC_REQUESTS = 60_000

#: why ``--suite traffic --smoke`` skips the closed-form error checks
SMOKE_NO_ANALYTIC = (
    "smoke mode: skipping the sim-vs-analytic checks; a {n}-request mean of "
    "Pareto(1.5) service (infinite variance) is too noisy for a {tol:g}% "
    "bound (hostbench measured -12%..+22% over 20 seeds even at 10^5 "
    "requests); the full suite keeps them"
)

Results = Dict[str, Dict[str, float]]
Gates = List[Tuple[str, bool]]


def stamp(label: str) -> dict:
    """The head of a recorded trajectory entry: label and host stamp."""
    return {
        "label": label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def host_stamp(entry: dict) -> tuple:
    """The host an entry was measured on; entries without ``cpus`` group apart."""
    return entry.get("machine"), entry.get("python"), entry.get("cpus")


def engine_benches(args) -> Tuple[Results, dict]:
    """Time every engine scenario; returns name -> {wall, sim_now, events, ...}."""
    repeats = 2 if args.smoke else args.repeats
    print(f"measuring engine benches (best of {repeats}):")
    results = {}
    for name in BENCHES:
        reps = repeats if name in MICRO_BENCHES else max(2, repeats // 2)
        wall, outcome = time_bench(name, repeats=reps)
        results[name] = {"wall": wall, **outcome}
        print(f"  {name:>20}: {wall * 1000:8.2f} ms  "
              f"(events={outcome['events']}, cancelled={outcome['cancelled']})")
    return results, {}


def transport_matrix(args) -> Tuple[Results, dict]:
    """Run the deterministic transport x loss matrix."""
    print("measuring transport x burst-loss matrix (simulated, exact):")
    results = run_matrix()
    ratios = matrix_ratios(results)
    for key, outcome in results.items():
        ratio = ratios.get(key)
        extra = f"  ({ratio:g}x vs stop-and-wait)" if ratio is not None else ""
        status = "" if outcome["completed"] else "  DNF"
        print(f"  {key:>20}: goodput {outcome['goodput_mps']:10.1f} msg/s "
              f"over {outcome['sim_now']:.6f} s{extra}{status}")
    return results, {}


def transport_gates(results: Results, args) -> Gates:
    """SR and dual must beat stop-and-wait by ``--require-ratio``."""
    ratios = matrix_ratios(results)
    return [
        (f"{key}: {ratios.get(key, 0.0):g}x vs stop-and-wait "
         f">= {args.require_ratio:g}x", ratios.get(key, 0.0) >= args.require_ratio)
        for key in _GATE_KEYS
    ]


def _traffic_requests(args) -> int:
    return TRAFFIC_REQUESTS // 10 if args.smoke else TRAFFIC_REQUESTS


def traffic_matrix(args) -> Tuple[Results, dict]:
    """Run the policy x load traffic matrix."""
    from repro.traffic.bench import run_bench_matrix

    n_requests = _traffic_requests(args)
    print(f"measuring traffic policy x load matrix "
          f"({n_requests} requests/point, simulated, exact):")
    results = run_bench_matrix(n_requests=n_requests)
    for key, outcome in sorted(results.items()):
        analytic = outcome.get("analytic")
        extra = f"  (analytic {analytic:.4f})" if analytic is not None else ""
        print(f"  {key:>20}: mean {outcome['mean']:10.4f}  "
              f"p99 {outcome['p99']:10.4f}{extra}")
    return results, {"n_requests": n_requests}


def traffic_gates(results: Results, args) -> Gates:
    """The report's orderings, plus the closed forms outside smoke mode."""
    from repro.traffic.bench import check_gates

    if args.smoke:
        print("  " + SMOKE_NO_ANALYTIC.format(n=_traffic_requests(args),
                                              tol=args.tolerance * 100))
    return check_gates(results, tolerance=args.tolerance,
                       closed_forms=not args.smoke)


#: the workloads BENCHMARK.json gates, pinned by --suite hostbench
HOSTBENCH_WORKLOADS = ("paper_bus", "scale_switch", "traffic_sweep")


def _elapsed_fields(name: str, out) -> Dict[str, float]:
    """Simulated elapsed time of every run one hostbench operation made."""
    if name == "paper_bus":
        return {f"elapsed/{app}/{p}": res.elapsed for (app, p), res in sorted(out.items())}
    if name == "traffic_sweep":
        return {f"elapsed/{policy}": result.elapsed
                for policy, (result, _) in sorted(out.items())}
    return {"elapsed": out.elapsed}


def hostbench_pins(args) -> Tuple[Results, dict]:
    """Run each gated hostbench workload once at ``op_seed(1, 0)``."""
    sys.path.insert(0, str(REPO / "hostbench"))
    from workloads import WORKLOADS, op_seed

    print("measuring hostbench workloads at op_seed(1, 0) (simulated, exact):")
    results = {}
    for name in HOSTBENCH_WORKLOADS:
        workload = WORKLOADS[name]()
        out = workload.run(op_seed(1, 0))
        results[name] = {**workload.counts(out), **_elapsed_fields(name, out)}
        print(f"  {name:>20}: {results[name]['sim.events']} events, "
              f"{len(results[name])} fields")
    return results, {}


def load_paired(paths: List[Path], parser) -> Dict[str, dict]:
    """"<workload> seeds <first>-<last>" -> paired summary, refusing one
    measured on another host and a second one of the same key."""
    paired = {}
    for path in paths:
        summary = json.loads(path.read_text())
        here = host_stamp(stamp(""))
        if host_stamp(summary) != here:
            parser.error(f"{path}: measured on {host_stamp(summary)}, not on this host {here}")
        first, last = summary["seeds"]
        key = f"{summary.pop('workload')} seeds {first}-{last}"
        if key in paired:
            parser.error(f"{path}: a second paired summary of {key}")
        paired[key] = summary
    return paired


class Suite(NamedTuple):
    """One committed ``BENCH_*.json`` file and how to measure and gate it."""

    baseline: Path
    #: args -> (results, params); params must match for a comparison
    measure: Callable[..., Tuple[Results, dict]]
    #: fields compared within ``--tolerance``; every other field is exact
    wall: Tuple[str, ...] = ()
    #: (results, args) -> [(description, ok)]; a failed gate blocks --record
    gates: Optional[Callable[..., Gates]] = None


#: suite name -> Suite; adding a suite is one entry here
SUITES = {
    "engine": Suite(REPO / "BENCH_engine.json", engine_benches, wall=("wall",)),
    "transport": Suite(REPO / "BENCH_transport.json", transport_matrix,
                       gates=transport_gates),
    "traffic": Suite(REPO / "BENCH_traffic.json", traffic_matrix,
                     gates=traffic_gates),
    "hostbench": Suite(REPO / "BENCH_hostbench.json", hostbench_pins),
}


def load_trajectory(path: Path) -> list:
    if not path.exists():
        return []
    return json.loads(path.read_text())["trajectory"]


def save_trajectory(path: Path, trajectory: list, benches) -> None:
    payload = {"benches": sorted(benches), "trajectory": trajectory}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def compare(results: Results, params: dict, trajectory: list,
            wall: Tuple[str, ...], tolerance: float) -> int:
    """0 if results match the latest entry with equal params; 1 otherwise."""
    matching = [e for e in trajectory
                if all(e.get(k) == v for k, v in params.items())]
    if not matching:
        print(f"\n  (no committed entry has {params}: skipping the comparison)")
        return 0
    base_entry = matching[-1]
    base = base_entry["results"]
    failures = 0
    print(f"\ncomparing against baseline entry {base_entry['label']!r}:")
    for name, cur in results.items():
        ref = base.get(name)
        if ref is None:
            print(f"  {name:>20}: NEW (no baseline)")
            continue
        diffs = {
            fld: (cur.get(fld), ref.get(fld))
            for fld in sorted(set(cur) | set(ref))
            if fld not in wall and cur.get(fld) != ref.get(fld)
        }
        if diffs:
            print(f"  {name:>20}: DETERMINISM MISMATCH {diffs}")
            failures += 1
        elif not wall:
            print(f"  {name:>20}: ok (exact)")
        for fld in wall:
            ratio = cur[fld] / ref[fld] if ref[fld] else float("inf")
            verdict = "ok"
            if ratio > 1.0 + tolerance:
                verdict = f"REGRESSION (> {1.0 + tolerance:.2f}x allowed)"
                failures += 1
            print(f"  {name:>20}: {cur[fld] * 1000:8.2f} ms vs "
                  f"{ref[fld] * 1000:8.2f} ms baseline ({ratio:.2f}x) {verdict}")
    return 1 if failures else 0


def speedup_pairs(trajectory: list) -> List[Tuple[dict, dict]]:
    """(first, last) entry of every host-stamp group with two or more entries."""
    groups: Dict[tuple, list] = {}
    for entry in trajectory:
        groups.setdefault(host_stamp(entry), []).append(entry)
    return [(group[0], group[-1]) for group in groups.values() if len(group) > 1]


#: first label of the one engine group gated on speed-up, not on regression
SPEEDUP_BASELINE = "pre-PR5 seed engine"

#: the simulated outcome two timings of one micro-bench must share; the
#: later one's event count may fall but never rise (an engine that
#: dispatches fewer events for the same outcome is what is being timed)
_OUTCOME = ("sim_now", "cancelled")


def outcome_base(trajectory: list, last: dict, name: str) -> dict:
    """The entry whose outcome of bench ``name`` the last entry of ``last``'s
    host group must repeat: the group's latest entry that declares an
    ``outcome_change`` of ``name``, else its first."""
    group = [e for e in trajectory if host_stamp(e) == host_stamp(last)]
    declared = [e for e in group if name in e.get("outcome_change", {})]
    return declared[-1] if declared else group[0]


def trajectory_gates(trajectory: list, require_speedup: float, tolerance: float) -> Gates:
    """Micro-bench gates of every host-stamp group's first -> last entry."""
    gates: Gates = []
    for first, last in speedup_pairs(trajectory):
        bar = require_speedup if first["label"] == SPEEDUP_BASELINE else 1 / (1 + tolerance)
        for name in MICRO_BENCHES:
            ref, cur = first["results"].get(name), last["results"].get(name)
            if ref is None or cur is None:
                continue
            base = outcome_base(trajectory, last, name)["results"][name]
            same = (all(base[fld] == cur[fld] for fld in _OUTCOME)
                    and all(cur[fld] <= min(ref[fld], base[fld])
                            for fld in ("events", "cancelled")))
            speedup = ref["wall"] / cur["wall"]
            outcome = "" if same else ", simulated outcome differs"
            gates.append((f"{last['label']!r} {name}: {speedup:.2f}x >= {bar:.2f}x{outcome}",
                          same and speedup >= bar))
    return gates


def show_trajectory(trajectory: list, wall: Tuple[str, ...],
                    require_speedup: float | None, tolerance: float) -> int:
    if not trajectory:
        print("no committed trajectory entries")
        return 1
    for entry in trajectory:
        walls = "  ".join(
            f"{n}={r[fld] * 1000:.2f}ms"
            for n, r in sorted(entry["results"].items()) for fld in wall if fld in r
        )
        print(f"{entry['label']:>36} {host_stamp(entry)}" + (f": {walls}" if walls else ""))
        for key, run in sorted(entry.get("paired", {}).items()):
            for name, m in run["summary"].items():
                print(f"{'':>36}   paired vs {run['parent']}: {key} {name} "
                      f"{m['parent'][1]:.4g} -> {m['change'][1]:.4g} "
                      f"({m['wins']}/{m['pairs']} wins)")
    for first, last in speedup_pairs(trajectory):
        print(f"\n{first['label']!r} -> {last['label']!r} speed-up "
              f"on {host_stamp(last)}:")
        for name, cur in last["results"].items():
            ref = first["results"].get(name)
            for fld in wall:
                if ref is not None and fld in ref:
                    print(f"  {name:>20}: {ref[fld] / cur[fld]:.2f}x")
    if require_speedup is None:
        return 0
    gates = trajectory_gates(trajectory, require_speedup, tolerance)
    if not gates:
        print("--require-speedup: no host stamp has two entries with "
              "micro-bench wall times to compare", file=sys.stderr)
        return 1
    print("\ngates:")
    for description, ok in gates:
        print(f"  [{'PASS' if ok else 'FAIL'}] {description}")
    return 1 if any(not ok for _, ok in gates) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="engine", choices=SUITES,
                        help="which benchmark suite to run (default: engine)")
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
    parser.add_argument("--paired", type=Path, action="append", default=[],
                        help="hostbench suite, with --record: a paired_bench.py "
                             "--json summary to store in the entry (repeatable)")
    parser.add_argument("--require-ratio", type=float, default=10.0,
                        help="transport suite: minimum SR-vs-stop-and-wait "
                             "goodput ratio at the canonical loss point")
    args = parser.parse_args(argv)
    if args.paired and (args.suite != "hostbench" or not args.record):
        parser.error("--paired needs --suite hostbench --record")
    paired = load_paired(args.paired, parser)

    suite = SUITES[args.suite]
    baseline = args.baseline or suite.baseline
    trajectory = load_trajectory(baseline)
    if args.trajectory:
        return show_trajectory(trajectory, suite.wall, args.require_speedup, args.tolerance)

    results, params = suite.measure(args)
    gates: Gates = []
    if suite.gates is not None:
        print("\ngates:")
        gates = suite.gates(results, args)
    for description, ok in gates:
        print(f"  [{'PASS' if ok else 'FAIL'}] {description}")
    failed = sum(not ok for _, ok in gates)

    if args.record:
        if failed:
            print(f"\nrefusing to record a baseline that fails "
                  f"{failed} gate(s)", file=sys.stderr)
            return 1
        entry = {**stamp(args.label), **params, "results": results}
        if paired:
            entry["paired"] = paired
        trajectory.append(entry)
        save_trajectory(baseline, trajectory, results)
        print(f"\nrecorded entry {args.label!r} ({len(trajectory)} total) "
              f"to {baseline}")
        return 0
    if not trajectory:
        print(f"no baseline at {baseline}; run with --record first",
              file=sys.stderr)
        return 2
    mismatched = compare(results, params, trajectory, suite.wall, args.tolerance)
    return 1 if failed or mismatched else 0


if __name__ == "__main__":
    raise SystemExit(main())
