"""``dse-experiments traffic`` — the multi-tenant traffic sweep CLI.

Sweep mode (default) drives the abstract PS engine at scale: a
policies x loads grid of multi-tenant scenarios (a heavy-tailed ``web``
tenant plus a bursty MMPP ``batch`` tenant behind a token-bucket quota),
each point an independent seeded simulation fanned across worker
processes through the content-addressed result cache.  The default grid
totals over 10^6 requests and its merged output is byte-identical for
``--jobs 1`` and ``--jobs N`` (asserted by tests).

Cluster mode (``--cluster``) runs the small-scale full-stack variant
instead — real DSE processes over a real (possibly lossy) transport —
see :mod:`repro.traffic.cluster_backend`; this is the mode behind the
``sr`` vs ``dual`` burst-loss rows in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import replace
from typing import Any, Dict, List, Tuple

from ..errors import ConfigurationError
from ..experiments.cli import SEED, SWEEP, command, sweep_cache, write_out
from ..resilience.campaign import CrashPlan
from ..util.tables import Table
from .arrivals import Exponential, Pareto, PoissonArrivals, make_arrivals
from .engine import ElasticConfig, TrafficConfig, TrafficEngine, run_traffic
from .tenants import QuotaConfig, TenantSpec

__all__ = ["traffic_main", "build_sweep_config", "run_traced_traffic"]

#: default sweep grid — 3 x 3 x 120k = 1.08M requests
DEFAULT_POLICIES = ("random", "jsq", "clone-2")
DEFAULT_LOADS = (0.35, 0.55, 0.75)
DEFAULT_REQUESTS = 120_000
#: full-stack requests are ~1000x costlier than PS-engine ones
DEFAULT_CLUSTER_REQUESTS = 200
DEFAULT_SERVERS = 8
#: the flags of one mode, refused in the other
MODE_FLAGS = {
    "sweep": ("--crashes", "--policies", "--jobs", "--fast", "--loads", "--elastic", "--no-cache"),
    "cluster": ("--transport", "--loss", "--p-exit", "--rate", "--mean-service", "--placement",
                "--payload"),
}


def build_sweep_config(
    policy: str,
    rho: float,
    requests: int,
    seed: int = 7,
    n_servers: int = DEFAULT_SERVERS,
    elastic: bool = False,
    crashes: int = 0,
) -> TrafficConfig:
    """The canonical two-tenant scenario at per-server load ``rho``.

    ``web``: 80%% of the arrival stream, Poisson, Pareto(1.5) service —
    the heavy-tail regime where cloning provably wins at every load
    (``d * E[min of d] == E[S]`` exactly at alpha 1.5).  ``batch``: the
    other 20%%, bursty MMPP arrivals, exponential service, behind a
    token-bucket quota sized to its *calm* rate — so flash-crowd bursts
    overflow the bucket and are rejected instead of stealing web's
    capacity.  Both service means are 1.0, so offered per-server load is
    ``rho`` (minus what the quota rejects).
    """
    lam = rho * n_servers
    web_requests = int(requests * 0.8)
    batch_requests = max(1, requests - web_requests)
    web = TenantSpec(
        name="web",
        arrivals=PoissonArrivals(0.8 * lam),
        service=Pareto(alpha=1.5, mean=1.0),
        n_requests=web_requests,
    )
    batch_rate = 0.2 * lam
    batch = TenantSpec(
        name="batch",
        arrivals=make_arrivals("mmpp", batch_rate),
        service=Exponential(1.0),
        # Quota at ~1.3x the long-run rate: the calm phase fits, the 4x
        # burst phase overflows — admission control visibly at work.
        quota=QuotaConfig(rate=1.3 * batch_rate, burst=max(4.0, 2.0 * batch_rate)),
        n_requests=batch_requests,
    )
    elastic_cfg = None
    if elastic:
        elastic_cfg = ElasticConfig(
            min_servers=max(2, n_servers // 2),
            max_servers=2 * n_servers,
            interval=20.0,
        )
    crash_plans: Tuple[CrashPlan, ...] = ()
    if crashes:
        duration = requests / lam  # expected run length in simulated seconds
        crash_plans = tuple(
            CrashPlan(
                kernel_id=1 + (i % (n_servers - 1)),
                at=duration * (i + 1) / (crashes + 1),
                restart_after=duration * 0.05,
            )
            for i in range(crashes)
        )
    return TrafficConfig(
        tenants=(web, batch),
        n_servers=n_servers,
        policy=policy,
        seed=seed,
        elastic=elastic_cfg,
        crashes=crash_plans,
    )


def _sweep_task(params: Dict[str, Any]) -> Dict[str, Any]:
    """One sweep point as a picklable, cacheable top-level task."""
    result = run_traffic(build_sweep_config(**params))
    out = result.canonical()
    out["rho"] = params["rho"]
    return out


def run_traced_traffic(
    requests: int = 4000,
    metrics_interval: float = 0.0,
    span_sample: int = 50,
    seed: int = 7,
) -> "TrafficEngine":
    """A small traffic run with request-span tracing on (for ``trace``).

    Returns the finished engine so the caller can export
    ``engine.recorder`` (Chrome trace) and ``engine.sampler`` (metrics).
    """
    config = replace(
        build_sweep_config("clone-2", 0.55, requests, seed=seed),
        obs_trace=True,
        span_sample=span_sample,
        metrics_interval=metrics_interval,
    )
    engine = TrafficEngine(config)
    engine.result = engine.run()
    return engine


def _sweep_main(args) -> int:
    from ..experiments.parallel import run_tasks

    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    loads = tuple(float(x) for x in args.loads.split(","))
    requests = args.requests
    if args.fast:
        # Keep the clone-vs-random pair so the headline ordering check
        # still runs in smoke mode.
        policies = ("random", "clone-2")
        loads = loads[:2]
        requests = min(requests, 2500)
    grid = [
        {
            "policy": policy,
            "rho": rho,
            "requests": requests,
            "seed": args.seed,
            "n_servers": args.servers,
            "elastic": args.elastic,
            "crashes": args.crashes,
        }
        for policy in policies
        for rho in loads
    ]
    total = requests * len(grid)
    cache = sweep_cache(args)
    start = time.perf_counter()
    points = run_tasks(
        _sweep_task, grid, jobs=args.jobs, cache=cache, namespace="traffic"
    )
    wall = time.perf_counter() - start

    table = Table(
        ["policy", "rho", "mean", "web p50", "web p99", "web p999",
         "batch p99", "batch rej", "goodput/s", "util"],
        title=(f"{len(grid)} points x {requests} requests "
               f"({total} total), {args.servers} servers, seed {args.seed}"),
    )
    for point in points:
        web = point["per_tenant"]["web"]
        batch = point["per_tenant"]["batch"]
        goodput = web["goodput_rps"] + batch["goodput_rps"]
        table.add(
            point["policy"],
            f"{point['rho']:g}",
            f"{point['overall']['mean']:.4f}",
            f"{web['p50']:.3f}",
            f"{web['p99']:.3f}",
            f"{web['p999']:.3f}",
            f"{batch['p99']:.3f}",
            int(batch["rejected"]),
            f"{goodput:.2f}",
            f"{point['utilisation']:.3f}",
        )
    print(table.render())

    # The headline property: at matched load, clone-2 beats random on
    # the heavy-tailed mixture (alpha 1.5 => cloning is load-neutral).
    by_key = {(p["policy"], p["rho"]): p for p in points}
    for rho in loads:
        clone = by_key.get(("clone-2", rho))
        rand = by_key.get(("random", rho))
        if clone and rand:
            c, r = clone["overall"]["mean"], rand["overall"]["mean"]
            verdict = "OK" if c < r else "VIOLATION"
            print(f"  clone-2 vs random @ rho={rho:g}: "
                  f"{c:.4f} < {r:.4f} [{verdict}]")
    summary = f"swept {total} requests in {wall:.1f}s with jobs={args.jobs}"
    if cache is not None:
        summary += f"; {cache.summary()}"
    print(summary)

    doc = {"points": points, "seed": args.seed, "servers": args.servers}
    write_out(args, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return 0


def _cluster_main(args) -> int:
    from .cluster_backend import run_cluster_traffic

    summary = run_cluster_traffic(
        n_kernels=args.servers,
        n_requests=args.requests,
        arrival_rate=args.rate,
        mean_service=args.mean_service,
        placement=args.placement,
        transport=args.transport,
        p_enter_bad=args.loss,
        p_exit_bad=args.p_exit,
        payload_words=args.payload,
        seed=args.seed,
    )
    table = Table(
        ["transport", "requests", "mean", "p50", "p99", "goodput/s", "elapsed"],
        title=(f"full-stack: {args.servers} kernels, loss {args.loss:g}, "
               f"seed {args.seed}"),
    )
    table.add(
        summary["transport"],
        summary["count"],
        f"{summary['mean']:.4f}",
        f"{summary['p50']:.4f}",
        f"{summary['p99']:.4f}",
        f"{summary['goodput_rps']:.2f}",
        f"{summary['elapsed']:.4f}",
    )
    print(table.render())
    write_out(args, json.dumps(summary, sort_keys=True, indent=1) + "\n")
    return 0


def traffic_main(argv: List[str]) -> int:
    from ..protocol.transport import TRANSPORT_KINDS

    parser = command(
        "traffic",
        "Multi-tenant request traffic: the PS-engine sweep, or the full-stack "
        "cluster mode (--cluster).",
        [SEED, *SWEEP],
        seed=7,
    )
    parser.add_argument("--policies", default=",".join(DEFAULT_POLICIES),
                        help="comma list: random, rr, jsq, lwl, clone-<d> "
                             f"(default {','.join(DEFAULT_POLICIES)})")
    parser.add_argument("--loads", default=",".join(f"{x:g}" for x in DEFAULT_LOADS),
                        help="comma list of per-server loads rho "
                             f"(default {','.join(f'{x:g}' for x in DEFAULT_LOADS)})")
    parser.add_argument("--requests", type=int, default=None,
                        help=f"requests per sweep point (default {DEFAULT_REQUESTS}); "
                             f"with --cluster, requests in all (default "
                             f"{DEFAULT_CLUSTER_REQUESTS})")
    parser.add_argument("--servers", type=int, default=DEFAULT_SERVERS)
    parser.add_argument("--elastic", action="store_true",
                        help="enable the autoscaler (min n/2, max 2n)")
    parser.add_argument("--crashes", type=int, default=0,
                        help="crash this many servers mid-run (engine mode)")
    parser.add_argument("--fast", action="store_true",
                        help="tiny grid for smoke tests")
    parser.add_argument("--cluster", action="store_true",
                        help="full-stack mode: real DSE kernels + transport")
    parser.add_argument("--transport", choices=TRANSPORT_KINDS, default="datagram",
                        help="cluster mode: the DSE transport (default datagram)")
    parser.add_argument("--loss", type=float, default=0.0,
                        help="cluster mode: Gilbert-Elliott p_enter_bad")
    parser.add_argument("--p-exit", dest="p_exit", type=float, default=0.25)
    parser.add_argument("--rate", type=float, default=40.0,
                        help="cluster mode: arrival rate (req/s)")
    parser.add_argument("--mean-service", type=float, default=0.05,
                        help="cluster mode: mean request CPU seconds")
    parser.add_argument("--placement", default="rr",
                        choices=("rr", "least-loaded"))
    parser.add_argument("--payload", type=int, default=0,
                        help="cluster mode: global-memory words each request "
                             "reads + writes back (bulk-data lane under dual)")
    # Mode flags start out unset, so argparse leaves alone those not given;
    # a given flag of the mode --cluster did not pick is refused.
    unset = object()
    dests = {flag: flag[2:].replace("-", "_") for flags in MODE_FLAGS.values() for flag in flags}
    args = parser.parse_args(argv, argparse.Namespace(**dict.fromkeys(dests.values(), unset)))
    other = "sweep" if args.cluster else "cluster"
    for flag, dest in dests.items():
        if getattr(args, dest) is unset:
            setattr(args, dest, parser.get_default(dest))
        elif flag in MODE_FLAGS[other]:
            raise ConfigurationError(f"{flag} applies to {other} mode only")
    if args.requests is None:
        args.requests = DEFAULT_CLUSTER_REQUESTS if args.cluster else DEFAULT_REQUESTS
    return _cluster_main(args) if args.cluster else _sweep_main(args)
