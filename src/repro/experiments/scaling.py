"""Large-virtual-cluster scaling experiments (``dse-experiments scale``).

The paper's measurements stop at 12 processors on 6 machines.  This module
asks what the same system model predicts for *large* virtual clusters —
tens to hundreds of nodes — where the two scaling levers added for that
regime matter: the switched fabric (``FabricConfig(kind="switch")``)
replaces the collision-bound shared bus, and global-memory batching
(``ClusterConfig(gmem_batching=True)``) coalesces the DSM chatter.

One measurement = one (workload, nodes, fabric, batching) point, reporting
the simulated elapsed time, achieved speed-up over one processor, total and
per-processor wire-message counts, and the *simulation cost* (host
wall-clock and events processed) so the engine's own scaling is visible
next to the model's.

Used three ways: the ``dse-experiments scale`` subcommand (see
:func:`scale_main`), ``benchmarks/bench_large_cluster.py``, and
``docs/scaling.md`` (whose quoted numbers come from the CLI).

Sweep points are independent simulations, so :func:`scale_sweep` can fan
them across worker processes (``jobs=N`` / ``--jobs N``) and reuse prior
results through the content-addressed cache (:mod:`repro.experiments.parallel`);
the merged output is byte-identical however the points were scheduled —
speed-ups are derived *after* the deterministic merge.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..dse.config import ClusterConfig
from ..dse.runtime import run_parallel
from ..hardware.platforms import get_platform
from ..network.topology import FABRIC_KINDS, FabricConfig
from ..replay.recording import WorkloadSpec
from ..util.tables import Table
from .parallel import ResultCache, run_tasks

__all__ = [
    "SCALE_WORKLOADS",
    "ScalePoint",
    "measure_scale_point",
    "scale_sweep",
    "scale_table",
    "sweep_canonical",
    "sweep_messages",
    "parse_int_list",
    "scale_main",
]


def _gauss_seidel_args(nodes: int, size: int) -> tuple:
    # Fixed problem size (strong scaling); every rank gets >= 1 row.
    return (max(size, nodes), 2, 7, False)


def _knights_tour_args(nodes: int, size: int) -> tuple:
    # Work divisions grow with the cluster, as the paper's Figures 19-21
    # vary "the number of divisions in the problem".
    return (max(2 * nodes, size), 5, 0)


#: workload key -> its worker; the run's args come from _SCALE_ARGS
SCALE_WORKLOADS = {
    "gauss-seidel": WorkloadSpec("repro.apps.gauss_seidel", "gauss_seidel_worker"),
    "knights-tour": WorkloadSpec("repro.apps.knights_tour", "knights_tour_worker"),
}

#: workload key -> args builder(nodes, size)
_SCALE_ARGS: Dict[str, Callable[[int, int], tuple]] = {
    "gauss-seidel": _gauss_seidel_args,
    "knights-tour": _knights_tour_args,
}

#: default problem size per workload (gauss-seidel: matrix order;
#: knights-tour: minimum job count)
DEFAULT_SIZE = {"gauss-seidel": 256, "knights-tour": 0}

#: default node grid: the paper's regime, then the large-cluster regime
DEFAULT_NODES = (6, 16, 32, 64)


@dataclass
class ScalePoint:
    """One (workload, nodes, fabric, batching) measurement."""

    workload: str
    nodes: int
    fabric: str
    batching: bool
    elapsed: float  # simulated seconds (processing phase, max over ranks)
    msgs: int  # wire messages across the whole run
    events: int  # simulation events processed (engine cost)
    wall_seconds: float  # host wall-clock of the simulation run
    speedup: Optional[float] = None  # vs the same workload on 1 processor
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def msgs_per_proc(self) -> float:
        return self.msgs / self.nodes

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ScalePoint":
        return cls(**payload)


def measure_scale_point(
    workload: str,
    nodes: int,
    fabric: str = "switch",
    batching: bool = True,
    machines: Optional[int] = None,
    platform: str = "linux",
    size: Optional[int] = None,
) -> ScalePoint:
    """Run one workload at ``nodes`` processors and collect the metrics.

    ``machines`` defaults to ``nodes`` — a real large cluster, one kernel
    per machine; pass fewer to study virtual-cluster doubling at scale.
    """
    worker = SCALE_WORKLOADS[workload].resolve()
    args = _SCALE_ARGS[workload](nodes, DEFAULT_SIZE[workload] if size is None else size)
    config = ClusterConfig(
        platform=get_platform(platform),
        n_processors=nodes,
        n_machines=nodes if machines is None else machines,
        fabric=FabricConfig(kind=fabric),
        gmem_batching=batching,
    )
    start = time.perf_counter()
    result = run_parallel(config, worker, args=args)
    wall = time.perf_counter() - start
    elapsed = max(out["t1"] - out["t0"] for out in result.returns.values())
    return ScalePoint(
        workload=workload,
        nodes=nodes,
        fabric=fabric,
        batching=batching,
        elapsed=elapsed,
        msgs=int(result.stats["msgs_sent"]),
        events=result.cluster.sim.events_processed,
        wall_seconds=wall,
        stats=result.stats,
    )


def _scale_task(params: dict) -> dict:
    """One sweep point as a picklable top-level task (pool workers fork
    this module by reference); returns a JSON-serialisable dict."""
    return measure_scale_point(**params).to_dict()


def scale_sweep(
    workload: str,
    nodes: Sequence[int] = DEFAULT_NODES,
    fabric: str = "switch",
    batching: bool = True,
    machines: Optional[int] = None,
    platform: str = "linux",
    size: Optional[int] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[ScalePoint]:
    """Measure a node grid and fill in speed-ups against one processor.

    ``jobs > 1`` fans the baseline and every grid point across a process
    pool; ``cache`` reuses prior identical runs.  Speed-ups are computed
    from the merged results, so output is independent of scheduling.
    """
    common = {"workload": workload, "fabric": fabric, "batching": batching,
              "platform": platform, "size": size}
    tasks = [{**common, "nodes": 1, "machines": 1}]
    tasks += [{**common, "nodes": n, "machines": machines} for n in nodes]
    raw = run_tasks(_scale_task, tasks, jobs=jobs, cache=cache, namespace="scale")
    baseline, *rest = [ScalePoint.from_dict(r) for r in raw]
    for point in rest:
        point.speedup = baseline.elapsed / point.elapsed if point.elapsed else None
    return rest


def scale_table(points: Sequence[ScalePoint], title: str = "large-cluster scaling") -> Table:
    """Render scale points as the report table the docs quote."""
    table = Table(
        [
            "workload", "nodes", "fabric", "batch",
            "elapsed(s)", "speedup", "msgs", "msgs/proc",
            "events", "wall(s)",
        ],
        title=title,
    )
    for p in points:
        table.add(
            p.workload,
            p.nodes,
            p.fabric,
            "on" if p.batching else "off",
            round(p.elapsed, 6),
            round(p.speedup, 2) if p.speedup else "-",
            p.msgs,
            round(p.msgs_per_proc, 1),
            p.events,
            round(p.wall_seconds, 1),
        )
    return table


def sweep_canonical(points: Sequence[ScalePoint]) -> str:
    """Deterministic JSON for a sweep (the ``--out`` format).

    Drops ``wall_seconds`` — the one nondeterministic field — so the output
    is byte-identical across ``--jobs`` settings and warm-cache reruns
    (asserted by tests and the CI perf job).
    """
    import json

    clean = []
    for p in points:
        d = p.to_dict()
        del d["wall_seconds"]
        clean.append(d)
    return json.dumps({"points": clean}, indent=2, sort_keys=True) + "\n"


# -- shared sweep helper (bench_message_scaling + bench_large_cluster) --------
def sweep_messages(
    worker: Callable[..., Generator],
    args: tuple,
    procs: Sequence[int],
    platform: str = "sunos",
    config_kwargs: Optional[dict] = None,
) -> Tuple[List[int], List[float]]:
    """Total wire messages and elapsed time at each processor count.

    The common core of the message-accounting benches: both
    ``bench_message_scaling`` and ``bench_large_cluster`` report columns
    produced by this function, so their numbers are directly comparable.
    """
    msgs: List[int] = []
    times: List[float] = []
    for p in procs:
        kwargs = dict(config_kwargs or {})
        kwargs.setdefault("platform", get_platform(platform))
        kwargs.setdefault("n_processors", p)
        if p == 1:
            kwargs.setdefault("n_machines", 1)
        result = run_parallel(ClusterConfig(**kwargs), worker, args=args)
        msgs.append(int(result.stats["msgs_sent"]))
        times.append(max(r["t1"] - r["t0"] for r in result.returns.values()))
    return msgs, times


def parse_int_list(text: str) -> Tuple[int, ...]:
    """Parse a ``6,32,64``-style comma list (the CLI/env sweep format)."""
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise ValueError(f"processor counts must be positive integers, got {text!r}")
    return values


def scale_main(argv: List[str]) -> int:
    """``dse-experiments scale`` — sweep a workload across cluster sizes."""
    from .cli import PLATFORM, SWEEP, command, sweep_cache, write_out

    parser = command(
        "scale",
        "Measure DSE scaling on large virtual clusters.",
        [PLATFORM, *SWEEP],
        workloads=SCALE_WORKLOADS,
        platform="linux",
    )
    parser.add_argument(
        "--nodes", type=parse_int_list, default=DEFAULT_NODES,
        help="comma-separated processor counts (default: %(default)s)",
    )
    parser.add_argument(
        "--fabric", choices=FABRIC_KINDS, default="switch",
        help="network fabric (default: switch; ethernet is the paper's bus)",
    )
    parser.add_argument(
        "--no-batching", action="store_true",
        help="disable global-memory message batching (on by default)",
    )
    parser.add_argument(
        "--machines", type=int, default=None,
        help="physical machines (default: one per node; fewer doubles kernels up)",
    )
    parser.add_argument(
        "--size", type=int, default=None,
        help="problem size (gauss-seidel: matrix order; knights-tour: min jobs)",
    )
    args = parser.parse_args(argv)

    cache = sweep_cache(args)
    points = scale_sweep(
        args.workload,
        nodes=args.nodes,
        fabric=args.fabric,
        batching=not args.no_batching,
        machines=args.machines,
        platform=args.platform,
        size=args.size,
        jobs=args.jobs,
        cache=cache,
    )
    print(scale_table(points, title=f"{args.workload} scaling ({args.platform})").render())
    if cache is not None:
        print(cache.summary())
    write_out(args, sweep_canonical(points))
    return 0
