"""The measuring process: set up one workload, time one pass, check it.

Started by ``run.py`` with a pinned environment, once per pass, so that
a pass's time does not depend on the state earlier passes left behind
and the process-to-process drift of a shared machine averages out over
a run.  Prints one JSON object as its last line of standard output.
Normalised times are CPU seconds scaled by ``R0 / R``, where ``R`` is the
reference kernel's speed sampled just before, during and just after the
timed region (see refkernel.py).

* ``--setup-probe``: report interpreter-start-to-ready time and exit.
* ``--trace 0``: set up, time pass ``--index``, check it.
* ``--trace 1``: one untraced pass for the counts, then the same
  operation again under the layer tracer for per-layer self time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from refkernel import SpeedProbe

# This module is only ever run as a script.  The speed probe starts before
# the heavy imports below because set-up time is interpreter start to
# ready, imports included, and is normalised like every other time.
_BUILD_START = time.thread_time()
PROBE = SpeedProbe()
#: building the probe's ring is the benchmark's cost, not set-up's
PROBE_BUILD_S = time.thread_time() - _BUILD_START
PROBE.start_sampling()

import repro  # noqa: E402
from layertrace import LayerTracer  # noqa: E402
from spec import PER_LAYER, TRACED_LAYERS  # noqa: E402
from workloads import WORKLOADS, op_seed  # noqa: E402

def _ready(name: str) -> Tuple[Any, Dict[str, float]]:
    """Build the workload; return it and its set-up time, raw and normalised."""
    workload = WORKLOADS[name]()
    cpu = time.process_time()
    PROBE.stop_sampling()
    cpu -= PROBE_BUILD_S + PROBE.sampling_cost()
    PROBE.measure()
    return workload, {"setup_cpu_s": cpu, "setup_s": cpu * PROBE.scale()}


class PassRecord:
    """One operation: its timing, outcome and simulated output."""

    def __init__(self, index: int, seed: int) -> None:
        self.index = index
        self.seed = seed
        self.cpu = 0.0
        self.wall = 0.0
        self.norm = 0.0
        self.scale = 0.0
        self.errors: List[str] = []
        self.counts: Dict[str, float] = {}
        self.fingerprint = ""
        self.peak_rss_mb = 0.0
        self.slowdowns = (0.0, 0.0)

    def log(self) -> Dict[str, Any]:
        return {
            "index": self.index, "seed": self.seed, "cpu_s": self.cpu,
            "wall_s": self.wall, "pass_s": self.norm, "scale": self.scale,
            "errors": self.errors, "fingerprint": self.fingerprint,
            "peak_rss_mb": self.peak_rss_mb, "kernel_slowdowns": self.slowdowns,
        }


def _timed_pass(workload: Any, index: int, seed: int,
                tracer: Optional[LayerTracer] = None) -> PassRecord:
    rec = PassRecord(index, op_seed(seed, index))
    # The traced run makes two passes: collect the first one's cyclic
    # garbage outside the second one's timed region.
    gc.collect()
    PROBE.reset()
    PROBE.measure()
    out = None
    if tracer is None:
        PROBE.start_sampling()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        if tracer is not None:
            tracer.start()
        try:
            out = workload.run(rec.seed)
        finally:
            if tracer is not None:
                tracer.stop()
    except Exception:  # an operation that raises is a failed operation
        rec.errors.append(traceback.format_exc(limit=4))
    finally:
        rec.cpu = time.process_time() - cpu0
        rec.wall = time.perf_counter() - wall0
        PROBE.stop_sampling()
    rec.cpu -= PROBE.sampling_cost()
    rec.peak_rss_mb = _peak_rss_mb()
    PROBE.measure()
    rec.scale = PROBE.scale()
    rec.slowdowns = PROBE.slowdowns()
    rec.norm = rec.cpu * rec.scale
    if out is not None:
        try:
            rec.errors += workload.check(out, rec.seed)
            rec.counts = workload.counts(out)
            rec.fingerprint = workload.fingerprint(out)
        except Exception:
            rec.errors.append(traceback.format_exc(limit=4))
    return rec


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace_run(workload: Any, seed: int) -> Dict[str, Any]:
    plain = _timed_pass(workload, 0, seed)
    tracer = LayerTracer(os.path.dirname(repro.__file__))
    traced = _timed_pass(workload, 0, seed, tracer)
    if not (plain.errors or traced.errors) and (
        plain.counts != traced.counts or plain.fingerprint != traced.fingerprint
    ):
        traced.errors.append(
            f"traced run diverged: {plain.counts} / {plain.fingerprint} vs "
            f"{traced.counts} / {traced.fingerprint}"
        )
    counts = plain.counts
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for layer in TRACED_LAYERS + ("ssi", "hardware"):
        metrics[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0) * traced.scale
    for layer in TRACED_LAYERS:
        metrics[f"{layer}.calls"] = float(tracer.calls.get(layer, 0))
    for name in PER_LAYER:
        if name in counts:
            metrics[name] = float(counts[name])
    events = counts.get("sim.events", 0)
    cancelled = counts.get("sim.cancelled", 0)
    frames = counts.get("network.frames", 0)
    metrics["sim.cancel_ratio"] = _ratio(cancelled, events + cancelled)
    metrics["sim.us_per_event"] = _ratio(plain.norm * 1e6, events)
    metrics["network.collision_rate"] = _ratio(counts.get("network.collisions", 0), frames)
    metrics["protocol.useful_ratio"] = _ratio(
        frames - counts.get("protocol.retransmissions", 0), frames
    )
    metrics["traffic.clone_waste_ratio"] = _ratio(
        counts.get("traffic.clones_cancelled", 0), counts.get("traffic.clones_dispatched", 0)
    )
    metrics["trace.overhead"] = _ratio(traced.norm, plain.norm)
    total = tracer.repro_total()
    return {
        "attempted": 2,
        "failed": sum(1 for p in (plain, traced) if p.errors),
        "metrics": metrics,
        "passes": [plain.log(), traced.log()],
        "layer_share": {k: _ratio(v, total) for k, v in sorted(tracer.self_s.items())},
        "layer_self_raw_s": dict(sorted(tracer.self_s.items())),
        "layer_calls": dict(sorted(tracer.calls.items())),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)

    workload, setup = _ready(args.workload)
    if args.setup_probe:
        print(json.dumps(setup))
        return 0
    if args.trace:
        result = trace_run(workload, args.seed)
    else:
        result = {"pass": _timed_pass(workload, args.index, args.seed).log()}
    result["setup"] = setup
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
