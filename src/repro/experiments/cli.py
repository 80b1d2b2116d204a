"""The ``dse-experiments`` command: regenerate the paper's figures, or run
one of the :data:`SUBCOMMANDS`.

``dse-experiments --help`` lists the subcommands and ``dse-experiments
<subcommand> --help`` describes one; the module each entry names documents
it.  The flags several subcommands share are declared once here
(:func:`command`), and so is the cluster they describe
(:func:`cluster_config`).
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..dse.config import ClusterConfig
from ..errors import ConfigurationError
from ..hardware.platforms import get_platform, platform_names
from ..replay.recording import WorkloadSpec
from .checks import check_figure
from .figures import FIGURES, FigureData
from .parallel import ResultCache, run_tasks

__all__ = [
    "SUBCOMMANDS",
    "TRACE_WORKLOADS",
    "PROCESSORS",
    "PLATFORM",
    "SEED",
    "SWEEP",
    "command",
    "cluster_config",
    "sweep_cache",
    "write_out",
    "main",
]

#: subcommand -> ``module:function`` called with the remaining argv; the
#: module is imported only when its subcommand runs
SUBCOMMANDS = {
    "trace": "repro.experiments.cli:trace_main",
    "scale": "repro.experiments.scaling:scale_main",
    "sanitize": "repro.sanitize.cli:sanitize_main",
    "resilience": "repro.resilience.cli:resilience_main",
    "loss-sweep": "repro.experiments.cli:loss_sweep_main",
    "traffic": "repro.traffic.cli:traffic_main",
    "check": "repro.check.cli:check_main",
    "replay": "repro.replay.cli:replay_main",
    "live": "repro.replay.cli:live_main",
}

#: the paper workloads at a small size (``trace`` and ``sanitize``)
TRACE_WORKLOADS = {
    "gauss-seidel": WorkloadSpec(
        "repro.apps.gauss_seidel", "gauss_seidel_worker", (96, 2, 7, False)
    ),
    "knights-tour": WorkloadSpec("repro.apps.knights_tour", "knights_tour_worker", (8,)),
    "othello": WorkloadSpec("repro.apps.othello", "othello_worker", (3,)),
    "dct2": WorkloadSpec("repro.apps.dct2", "dct2_worker", (32, 8, 0.25, 11, False)),
}

#: A flag several subcommands share: its option string and its
#: ``add_argument`` keywords.  Each is declared once, below; a subcommand
#: overrides a default through :func:`command`'s ``defaults``.
Flag = Tuple[str, Dict[str, Any]]

PROCESSORS: Flag = (
    "--processors", dict(type=int, default=4, help="DSE kernels (default: %(default)s)")
)
PLATFORM: Flag = (
    "--platform",
    dict(
        choices=platform_names(), default="sunos",
        help="Table-1 platform (default: %(default)s)",
    ),
)
SEED: Flag = ("--seed", dict(type=int, help="random seed (default: %(default)s)"))
#: the sweep trio of ``scale`` and ``traffic``; figures take the first two
SWEEP: Tuple[Flag, ...] = (
    ("--jobs", dict(
        type=int, default=1,
        help="worker processes for independent sweep points (default: %(default)s)",
    )),
    ("--no-cache", dict(
        action="store_true", help="recompute every point, bypassing the on-disk result cache",
    )),
    ("--out", dict(default=None, help="write the merged sweep as deterministic JSON")),
)


def command(
    name: str,
    description: str,
    flags: Sequence[Flag] = (),
    workloads: Optional[Iterable[str]] = None,
    **defaults: Any,
) -> argparse.ArgumentParser:
    """The parser of ``dse-experiments <name>``, holding the shared ``flags``.

    ``workloads`` adds ``--workload`` with those choices (default
    ``gauss-seidel``); ``defaults`` override the shared defaults.
    """
    parser = argparse.ArgumentParser(
        prog=f"dse-experiments {name}".strip(), description=description
    )
    if workloads is not None:
        parser.add_argument("--workload", choices=sorted(workloads), default="gauss-seidel")
    for flag, kwargs in flags:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(**defaults)
    return parser


def cluster_config(args: argparse.Namespace, **fields: Any) -> ClusterConfig:
    """The ClusterConfig of the ``--platform``/``--processors`` flags plus ``fields``."""
    return ClusterConfig(
        platform=get_platform(args.platform), n_processors=args.processors, **fields
    )


def write_out(args: argparse.Namespace, text: str) -> None:
    """Write ``text`` to the sweep's ``--out`` path, if one was given."""
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")


def sweep_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    """The result cache a sweep reads and fills, or None under ``--no-cache``."""
    return None if args.no_cache else ResultCache()


def _figure_task(params: dict) -> dict:
    """Compute one figure as a picklable, cacheable top-level task."""
    from dataclasses import asdict

    return asdict(FIGURES[params["fig_id"]](fast=params["fast"]))


def _export_trace(args, recorder, sampler, cluster) -> int:
    """Write the Chrome trace and, with ``--metrics``, the series; an export
    that would be empty is not written and makes the status 1."""
    from ..obs import write_chrome_trace, write_metrics_csv, write_metrics_jsonl

    status = 0
    if not recorder.spans:
        print(
            f"no spans were recorded, so {args.out} was not written "
            "(raise --span-limit, or check that the workload ran any work)"
        )
        status = 1
    else:
        n_events = write_chrome_trace(recorder, args.out, cluster=cluster)
        dropped = f" ({recorder.dropped} spans dropped past limit)" if recorder.dropped else ""
        print(f"wrote {n_events} trace events to {args.out}{dropped}")
    if args.metrics:
        if sampler is None or not sampler.samples_taken:
            print(
                f"no metric samples were taken, so {args.metrics} was not "
                "written (pass a --metrics-interval shorter than the run)"
            )
            status = 1
        else:
            writer = write_metrics_jsonl if args.metrics.endswith(".jsonl") else write_metrics_csv
            n_rows = writer(sampler, args.metrics)
            print(f"wrote {n_rows} metric samples to {args.metrics}")
    return status


def trace_main(argv: List[str]) -> int:
    """Run one workload traced and export Chrome trace (+ metrics) files."""
    from ..dse.runtime import run_parallel

    parser = command(
        "trace",
        "Run one workload with causal tracing and export the spans.",
        [PROCESSORS, PLATFORM],
        workloads=[*TRACE_WORKLOADS, "traffic"],
    )
    parser.add_argument("--out", default="trace.json", help="Chrome trace output path")
    parser.add_argument(
        "--metrics", default=None,
        help="also export the metrics time-series (.csv or .jsonl by extension)",
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=0.0005,
        help="sampling period in simulated seconds (default 0.5 ms)",
    )
    parser.add_argument(
        "--span-limit", type=int, default=None, help="cap on retained spans"
    )
    args = parser.parse_args(argv)
    interval = args.metrics_interval if args.metrics else 0.0

    if args.workload == "traffic":
        # The traffic layer owns its simulator (no cluster); it mints
        # sampled request-level spans, which span_census aggregates into
        # the per-tenant latency block.
        from ..traffic.cli import run_traced_traffic
        from .timeline import span_census

        engine = run_traced_traffic(metrics_interval=interval)
        result = engine.result
        print(f"traffic clone-2 sweep point: elapsed {result.elapsed:.6f}s "
              f"simulated, {result.overall['count']:.0f} requests")
        print(span_census(engine.recorder, sim=engine.sim))
        return _export_trace(args, engine.recorder, engine.sampler, engine.cluster)

    spec = TRACE_WORKLOADS[args.workload]
    config = cluster_config(
        args, obs_trace=True, obs_metrics_interval=interval, obs_span_limit=args.span_limit
    )
    result = run_parallel(config, spec.resolve(), args=spec.args)
    print(
        f"{args.workload} p={args.processors} on {args.platform}: "
        f"elapsed {result.elapsed:.6f}s simulated"
    )
    cluster = result.cluster
    return _export_trace(args, cluster.obs, cluster.metrics, cluster)


def loss_sweep_main(argv: List[str]) -> int:
    """Tabulate transport goodput under Gilbert–Elliott burst loss."""
    from ..network.topology import FABRIC_KINDS
    from ..perf.netbench import CANONICAL, LOSS_POINTS, TRANSPORTS, sweep_rows
    from ..protocol.transport import TRANSPORT_KINDS
    from ..util.tables import Table

    parser = command(
        "loss-sweep",
        "Stream messages through each transport under burst loss; report "
        "goodput and speed-up vs stop-and-wait.",
        [SEED],
        seed=CANONICAL["seed"],
    )
    parser.add_argument(
        "--transports", default=",".join(TRANSPORTS),
        help=f"comma list from {', '.join(TRANSPORT_KINDS)} "
             f"(default: {','.join(TRANSPORTS)})",
    )
    parser.add_argument(
        "--loss", default=",".join(f"{p:g}" for p in LOSS_POINTS),
        help="comma list of Gilbert-Elliott p_enter_bad values "
             f"(default: {','.join(f'{p:g}' for p in LOSS_POINTS)})",
    )
    parser.add_argument("--p-exit", type=float, default=CANONICAL["p_exit_bad"],
                        help="burst exit probability (mean burst = 1/p_exit "
                             f"frames; default {CANONICAL['p_exit_bad']:g})")
    parser.add_argument("--messages", type=int, default=CANONICAL["n_messages"])
    parser.add_argument("--payload", type=int, default=CANONICAL["payload_bytes"])
    parser.add_argument("--fabric", choices=FABRIC_KINDS, default=CANONICAL["fabric"])
    args = parser.parse_args(argv)

    transports = tuple(t.strip() for t in args.transports.split(",") if t.strip())
    unknown = [t for t in transports if t not in TRANSPORT_KINDS]
    if unknown:
        parser.error(f"unknown transport(s) {unknown}; pick from {TRANSPORT_KINDS}")
    loss_points = tuple(float(p) for p in args.loss.split(","))

    rows = sweep_rows(
        transports,
        loss_points,
        n_messages=args.messages,
        payload_bytes=args.payload,
        p_exit_bad=args.p_exit,
        fabric=args.fabric,
        seed=args.seed,
    )
    t = Table(
        ["transport", "p_enter_bad", "goodput_msg_s", "elapsed_s",
         "retransmits", "timeouts", "vs_stop_and_wait"],
        title=(f"{args.messages} x {args.payload} B over {args.fabric}, "
               f"mean burst {1 / args.p_exit:g} frames, seed {args.seed}"),
    )
    for row in rows:
        dnf = not row["completed"]
        t.add(
            row["transport"],
            f"{row['p_enter_bad']:g}",
            "DNF" if dnf else f"{row['goodput_mps']:.0f}",
            "-" if dnf else f"{row['elapsed_s']:.6f}",
            row["retransmissions"],
            row["timeouts"],
            f"{row['speedup_vs_stop_and_wait']:g}x",
        )
    print(t.render())
    if any(not row["completed"] for row in rows):
        print("\nDNF: retry budget exhausted mid-burst (partial delivery; "
              "stop-and-wait caps at 8 attempts per message)")
    return 0


def _figures_main(argv: List[str]) -> int:
    """Regenerate the requested figures (the default, subcommand-less mode)."""
    parser = command(
        "",
        "Regenerate the tables/figures of the DSE/SSI paper (ICPP 1999).",
        SWEEP[:2],
    )
    parser.epilog = (
        f"subcommands: {', '.join(SUBCOMMANDS)} "
        "(dse-experiments SUBCOMMAND --help describes each)"
    )
    parser.add_argument(
        "figures",
        nargs="*",
        help="figure ids (table1, fig4..fig21) or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list available figure ids")
    parser.add_argument(
        "--fast", action="store_true", help="smaller parameter grid (quick look)"
    )
    parser.add_argument(
        "--no-checks", action="store_true", help="skip the paper-shape checks"
    )
    parser.add_argument(
        "--plot", action="store_true", help="also draw each figure as an ASCII chart"
    )
    args = parser.parse_args(argv)

    if args.list or not args.figures:
        print("available figures:", " ".join(FIGURES))
        return 0

    wanted = list(FIGURES) if "all" in args.figures else args.figures
    unknown = [f for f in wanted if f not in FIGURES]
    if unknown:
        print(f"unknown figure id(s): {unknown}; use --list", file=sys.stderr)
        return 2

    # Compute every requested figure up front — independent simulations, so
    # they fan across the pool and hit the result cache — then render and
    # check in the requested order (deterministic merge).
    cache = sweep_cache(args)
    sweep_start = time.perf_counter()
    raw = run_tasks(
        _figure_task,
        [{"fig_id": f, "fast": args.fast} for f in wanted],
        jobs=args.jobs,
        cache=cache,
        namespace="figure",
    )
    sweep_wall = time.perf_counter() - sweep_start
    computed = {f: FigureData(**d) for f, d in zip(wanted, raw)}

    failures = 0
    for fig_id in wanted:
        start = time.perf_counter()
        fig = computed[fig_id]
        print(fig.to_text())
        if args.plot and fig_id != "table1":
            from .plot import plot_figure

            print()
            print(plot_figure(fig))
        if not args.no_checks:
            for description, ok in check_figure(fig):
                status = "PASS" if ok else "FAIL"
                print(f"  [{status}] {description}")
                failures += 0 if ok else 1
        print(f"  ({time.perf_counter() - start:.1f}s wall)\n")
    summary = f"computed {len(wanted)} figure(s) in {sweep_wall:.1f}s with jobs={args.jobs}"
    if cache is not None:
        summary += f"; {cache.summary()}"
    print(summary)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    """``dse-experiments``: run a subcommand, else regenerate figures.

    A subcommand refused for a bad knob value (:class:`ConfigurationError`)
    prints the reason and exits 2, like an argparse usage error.
    """
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in SUBCOMMANDS:
        return _figures_main(argv)
    name, rest = argv[0], argv[1:]
    module, _, func = SUBCOMMANDS[name].partition(":")
    run = getattr(importlib.import_module(module), func)
    try:
        return run(rest)
    except ConfigurationError as exc:
        print(f"dse-experiments {name}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
