#!/usr/bin/env python
"""Paired host-time runs of the repository benchmark: a parent revision
against the working tree.

    python tools/paired_bench.py --parent HEAD~1 --workload scale_switch --seeds 1-10

Exports ``--parent`` with ``git archive`` into a fresh directory under
``--scratch`` (nothing is registered in the repository, so an interrupted
run leaves no state behind), then for each seed runs ``python3
hostbench/run.py --workload W --seed N`` once there and once in the working
tree, alternating which side goes first.  It prints each end-to-end
metric's median and quartiles per side, the number of pairs and how many
the working tree won (direction from ``BENCHMARK.json``), and removes the
export when it exits.  ``--json PATH`` also writes that summary with the
host stamp, the parent's commit and the run settings, for
``tools/check_bench.py --suite hostbench --record --paired PATH``.

The children get an environment built key by key, not a copy of the
caller's: ``PYTHONDONTWRITEBYTECODE`` and ``PYTHONPATH`` never reach them,
so both sides write and read bytecode caches alike.

``--diff`` is the simulated-output half of a decision record:

    python tools/paired_bench.py --parent HEAD~1 --diff

In the same kind of export it runs the exact measurements of
``tools/check_bench.py`` (the ``hostbench``, ``traffic`` and ``transport``
suites, and the engine suite without its wall times) and the six rows of
the EXPERIMENTS.md ``sr``/``dual`` burst-loss table on both sides, and
prints per field whether the two are bit-identical (floats),
integer-identical (counts) or, if not, the largest relative |delta| and
where.  Event and cancellation counts are printed on their own lines, with
both values, and never folded into a hash with the outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
#: the only variables the benchmark processes inherit
KEPT_ENV = ("PATH", "HOME", "LANG", "LC_ALL", "TMPDIR")

Metrics = Dict[str, float]


def child_env() -> Dict[str, str]:
    return {key: os.environ[key] for key in KEPT_ENV if key in os.environ}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(lower quartile, median, upper quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: Sequence[Tuple[Metrics, Metrics]],
              better: Dict[str, str]) -> Dict[str, dict]:
    """Per metric: each side's quartiles, the pair count and the change's wins.

    ``pairs`` holds one (parent, change) metrics dict per seed; ``better``
    maps each metric to ``"lower"`` or ``"higher"``.
    """
    out = {}
    for name, direction in better.items():
        got = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not got:
            continue
        sign = 1 if direction == "lower" else -1
        out[name] = {
            "parent": quartiles([p for p, _ in got]),
            "change": quartiles([c for _, c in got]),
            "pairs": len(got),
            "wins": sum(sign * (p - c) > 0 for p, c in got),
        }
    return out


def format_summary(workload: str, summary: Dict[str, dict]) -> str:
    lines = [f"{workload}: {'metric':>12} {'parent q1/med/q3':>28} "
             f"{'change q1/med/q3':>28} {'delta':>7} {'wins':>7}"]
    for name, s in summary.items():
        (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
        delta = (cm - pm) / pm if pm else 0.0
        lines.append(
            f"{'':{len(workload) + 1}} {name:>12} {p1:9.4g} {pm:9.4g} {p3:9.4g} "
            f"{c1:9.4g} {cm:9.4g} {c3:9.4g} {delta:+7.1%} {s['wins']:>3}/{s['pairs']}"
        )
    return "\n".join(lines)


def host_stamp() -> dict:
    """The host a paired summary was measured on (as ``check_bench.stamp``)."""
    return {"machine": platform.machine(), "python": platform.python_version(),
            "cpus": os.cpu_count()}


def run_hostbench(root: Path, workload: str, seed: int, seconds) -> Metrics:
    cmd = [sys.executable, "hostbench/run.py", "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, env=child_env(), capture_output=True,
                          text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"] or not result["correct"]:
        raise RuntimeError(f"{root}: seed {seed}: {result['failed']} failed operation(s)")
    return {name: m["value"] for name, m in result["metrics"].items()}


#: the suites --diff runs, and the fields that count heap events
DIFF_SUITES = ("hostbench", "traffic", "transport", "engine")
EVENT_FIELDS = ("events", "cancelled", "sim.events", "sim.cancelled", "sim_events")
#: the EXPERIMENTS.md sr/dual burst-loss table, which --diff also runs: one
#: row per (transport, loss), each printed by
#: ``dse-experiments traffic --cluster --payload 256 --transport T --loss L``
SR_DUAL_ROWS = tuple((transport, loss) for loss in ("0", "0.02", "0.05")
                     for transport in ("sr", "dual"))

#: run in an export's root: that side's check_bench measurements, and the
#: sr/dual rows under "experiments", as JSON
_MEASURE = """
import argparse, contextlib, importlib.util, json, os, sys, tempfile
request = json.loads(sys.argv[1])
spec = importlib.util.spec_from_file_location("check_bench", "tools/check_bench.py")
check_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_bench)
args = argparse.Namespace(smoke=False, repeats=1, tolerance=0.15, require_ratio=10.0)
out = {}
with contextlib.redirect_stdout(sys.stderr):
    for name in request["suites"]:
        suite = check_bench.SUITES[name]
        results, _ = suite.measure(args)
        out[name] = {bench: {f: v for f, v in fields.items() if f not in suite.wall}
                     for bench, fields in results.items()}
    if request["rows"]:
        from repro.traffic.cli import traffic_main
        rows = out["experiments"] = {}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "row.json")
            for transport, loss in request["rows"]:
                traffic_main(["--cluster", "--payload", "256", "--transport", transport,
                              "--loss", loss, "--out", path])
                with open(path) as f:
                    rows[f"{transport} loss {loss}"] = {
                        k: v for k, v in json.load(f).items() if k != "transport"}
print(json.dumps({s: {b: {f: v.hex() if isinstance(v, float) else v
                          for f, v in fields.items()}
                      for b, fields in benches.items()}
                  for s, benches in out.items()}))
"""


def measure_exact(root: Path, suites: Sequence[str],
                  rows: Sequence[Tuple[str, str]] = ()) -> Dict[str, dict]:
    """suite -> bench -> field -> value, measured in ``root`` (the sr/dual
    ``rows`` as suite ``experiments``); floats travel as ``float.hex`` so no
    digit is lost on the way."""
    request = json.dumps({"suites": list(suites), "rows": [list(r) for r in rows]})
    proc = subprocess.run([sys.executable, "-c", _MEASURE, request], cwd=root,
                          env=child_env(), capture_output=True, text=True, check=True)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    return {s: {b: {f: float.fromhex(v) if isinstance(v, str) else v
                    for f, v in fields.items()}
                for b, fields in benches.items()}
            for s, benches in raw.items()}


def _relative(a, b) -> float:
    if a == b:
        return 0.0
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def diff_lines(parent: Dict[str, dict], change: Dict[str, dict]) -> List[str]:
    """One line per suite and field: bit-identical, integer-identical, or
    the largest relative |delta| over the suite's benches; then one line per
    bench event or cancellation count, with both values."""
    lines, events = [], []
    for suite in parent:
        fields: Dict[str, List[tuple]] = {}
        for bench in sorted(set(parent[suite]) | set(change[suite])):
            old, new = parent[suite].get(bench, {}), change[suite].get(bench, {})
            for field in sorted(set(old) | set(new)):
                a, b = old.get(field), new.get(field)
                if field in EVENT_FIELDS:
                    moved = ("unchanged" if a == b else "one side only" if None in (a, b)
                             else f"{b - a:+d}")
                    events.append(f"  events {suite} {bench} {field}: {a} -> {b} ({moved})")
                else:
                    fields.setdefault(field, []).append((bench, a, b))
        for field, values in sorted(fields.items()):
            worst = max(values, key=lambda v: _relative(v[1], v[2]))
            bench, a, b = worst
            if a == b:
                kind = "bit-identical" if any(isinstance(v[1], float) for v in values) \
                    else "integer-identical"
                lines.append(f"  {suite} {field}: {kind}")
            else:
                lines.append(f"  {suite} {field}: largest relative |delta| "
                             f"{_relative(a, b):.3g} ({bench}: {a!r} -> {b!r})")
    return lines + events


def export(revision: str, scratch: Path) -> Path:
    """``git archive`` of ``revision`` unpacked in ``scratch/parent``."""
    parent = scratch / "parent"
    parent.mkdir()
    archive = subprocess.run(["git", "archive", revision], cwd=REPO,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
    return parent


def seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", help="a BENCHMARK.json workload")
    parser.add_argument("--seeds", type=seed_range, help="A-B, one pair each")
    parser.add_argument("--diff", action="store_true",
                        help="diff the simulated outputs instead of timing")
    parser.add_argument("--seconds", type=float, default=None,
                        help="hostbench --seconds per run (default: hostbench's)")
    parser.add_argument("--scratch", default=None,
                        help="directory for the parent's export (default: a new temp dir)")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the summary, host-stamped, to this file")
    args = parser.parse_args(argv)
    if not args.diff and (args.workload is None or args.seeds is None):
        parser.error("--workload and --seeds are required unless --diff")
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    scratch = Path(tempfile.mkdtemp(prefix="paired-bench-", dir=args.scratch))
    try:
        parent = export(args.parent, scratch)
        if args.diff:
            old = measure_exact(parent, DIFF_SUITES, SR_DUAL_ROWS)
            new = measure_exact(REPO, DIFF_SUITES, SR_DUAL_ROWS)
            print(f"simulated outputs, {args.parent} -> working tree:")
            print("\n".join(diff_lines(old, new)))
            return 0
        pairs = []
        for i, seed in enumerate(args.seeds):
            sides = [("parent", parent), ("change", REPO)]
            got = {name: run_hostbench(root, args.workload, seed, args.seconds)
                   for name, root in (sides if i % 2 == 0 else sides[::-1])}
            pairs.append((got["parent"], got["change"]))
            print(f"seed {seed}: " + "  ".join(
                f"{n} {got['parent'][n]:.4g} -> {got['change'][n]:.4g}" for n in better
            ), file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = summarize(pairs, better)
    print(format_summary(args.workload, summary))
    if args.json is not None:
        commit = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=REPO,
                                capture_output=True, text=True, check=True).stdout.strip()
        args.json.write_text(json.dumps({
            **host_stamp(), "workload": args.workload, "parent": commit,
            "seeds": [args.seeds[0], args.seeds[-1]], "seconds": args.seconds,
            "summary": summary,
        }, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
