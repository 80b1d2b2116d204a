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
"""

from __future__ import annotations

import argparse
import json
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


def seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="a BENCHMARK.json workload")
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, one pair each")
    parser.add_argument("--seconds", type=float, default=None,
                        help="hostbench --seconds per run (default: hostbench's)")
    parser.add_argument("--scratch", default=None,
                        help="directory for the parent's export (default: a new temp dir)")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the summary, host-stamped, to this file")
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    scratch = Path(tempfile.mkdtemp(prefix="paired-bench-", dir=args.scratch))
    try:
        parent = scratch / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "archive", args.parent], cwd=REPO,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
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
