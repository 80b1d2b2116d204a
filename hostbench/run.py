"""Repository benchmark: host cost of repro's workloads, layer by layer.

Run from the repository root::

    python3 hostbench/run.py --workload paper_bus --seed 1 --seconds 10 --trace 0
    python3 hostbench/run.py --workload traffic_sweep --seed 1 --trace 1
    python3 hostbench/run.py --workload scale_switch --steady 5

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run log (machine stamp, raw CPU and wall seconds per pass,
set-up samples).  ``--steady N`` runs the workload N times, one seed
each, and prints every metric's median, spread and bound instead.

This script imports nothing from ``repro``.  It pins the measuring
processes' environment (one BLAS/OpenMP thread, a fixed hash seed),
starts one interpreter that only writes the bytecode caches, then one
measuring process (measure.py) per pass until ``--seconds`` are spent,
and waits for each.  Every measuring process also reports its set-up
time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from spec import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
#: passes a timing run always makes, however short ``--seconds`` is
MIN_PASSES = 3
#: a timing run starts no pass after this many seconds
LAST_PASS_START = 110.0
#: the whole run must end within this many seconds
RUN_DEADLINE = 170.0

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def machine_stamp() -> Dict[str, Any]:
    return {
        "machine": platform.machine(),
        "node": platform.node(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
    }


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _measure(args: List[str], env: Dict[str, str], timeout: float) -> Dict[str, Any]:
    """Run measure.py with ``args``; return its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "measure.py")] + args
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"measuring process failed ({proc.returncode}):\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise FileNotFoundError(
            f"no repro source tree under {root}/src; run from the repository root"
        )
    env = child_env(root)
    deadline = time.monotonic() + RUN_DEADLINE
    base = ["--workload", workload, "--seed", str(seed)]
    log: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "stamp": machine_stamp(), "env": PINNED_ENV,
    }
    if trace:
        result = _measure(base + ["--trace", "1"], env, deadline - time.monotonic())
        metrics = result.pop("metrics")
        log.update(result)
        attempted, failed, units = result["attempted"], result["failed"], PER_LAYER
    else:
        # The first interpreter writes the bytecode caches; the timed ones
        # read them, as a user's would.
        _measure(base + ["--setup-probe"], env, deadline - time.monotonic())
        passes, setups = [], []
        start = time.monotonic()
        while True:
            out = _measure(base + ["--index", str(len(passes))], env,
                           deadline - time.monotonic())
            passes.append(out["pass"])
            setups.append(out["setup"])
            elapsed = time.monotonic() - start
            if len(passes) >= MIN_PASSES and (
                elapsed * (len(passes) + 1) / len(passes) > seconds
                or elapsed > LAST_PASS_START
            ):
                break
        good = [p["pass_s"] for p in passes if not p["errors"]]
        metrics = {
            "pass_s": statistics.median(good) if good else 0.0,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        log.update(passes=passes, setups=setups)
        attempted = len(passes)
        failed = sum(1 for p in passes if p["errors"])
        units = END_TO_END
    return {
        "log": log,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def _bounds() -> Dict[str, float]:
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def steady(workload: str, runs: int, seconds: float, trace: int, seed0: int) -> int:
    """Run the workload ``runs`` times (seeds seed0, seed0+1, ...) and
    print each metric's median, quartile spread and range beside its bound."""
    values: Dict[str, List[float]] = {}
    failed = 0
    for i in range(runs):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed0 + i), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"run {i}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        log, result = json.loads(lines[-2]), json.loads(lines[-1])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        passes = " ".join(f"{p['pass_s']:.3f}" for p in log["passes"])
        print(f"run {i} seed {seed0 + i}: " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
            if k in END_TO_END) + f"  passes: {passes}", file=sys.stderr)
    bounds = _bounds()
    print(f"{workload}: {runs} runs, {failed} failed ops")
    print(f"{'metric':28} {'median':>12} {'iqr/med':>8} {'range/med':>9} {'bound':>6}  ok")
    ok = failed == 0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            good = spread < bound / 3
            ok &= good
            verdict = "yes" if good else "NO"
        shown = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{name:28} {med:12.5g} {spread:8.3f} {rng:9.3f} {shown}  {verdict}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N", default=0,
                        help="run N times and print each metric's spread")
    args = parser.parse_args(argv)
    if args.steady:
        return steady(args.workload, args.steady, args.seconds, args.trace, args.seed)
    try:
        out = run_once(args.workload, args.seed, args.seconds, args.trace)
    except (FileNotFoundError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["log"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
