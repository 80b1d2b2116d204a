"""Command-line entry point: regenerate any figure of the paper.

Installed as ``dse-experiments``::

    dse-experiments --list
    dse-experiments table1 fig5 fig11
    dse-experiments all --fast

The ``trace`` subcommand runs one workload with cross-layer causal tracing
and exports a Chrome trace-event file (load it at ``chrome://tracing`` or
https://ui.perfetto.dev) plus, optionally, the metrics time-series::

    dse-experiments trace --workload gauss-seidel --processors 4 \\
        --out trace.json --metrics metrics.csv

The ``scale`` subcommand sweeps a workload across large virtual clusters
(see :mod:`repro.experiments.scaling` and ``docs/scaling.md``)::

    dse-experiments scale --workload gauss-seidel --nodes 6,32,64 \\
        --fabric switch

The ``sanitize`` subcommand runs workloads under the race/deadlock
sanitizers (see :mod:`repro.sanitize` and ``docs/sanitizers.md``)::

    dse-experiments sanitize --all
    dse-experiments sanitize --demo

The ``resilience`` subcommand injects kernel crashes into paper workloads
and measures detection + recovery (see :mod:`repro.resilience` and
``docs/resilience.md``)::

    dse-experiments resilience --mode spmd --crash-at 0.05
    dse-experiments resilience --mode farm --crashes 2

The ``loss-sweep`` subcommand streams messages through each transport
under Gilbert–Elliott burst loss and tabulates goodput + the speed-up
over the seed's stop-and-wait protocol (see :mod:`repro.perf.netbench`
and ``docs/networking.md``)::

    dse-experiments loss-sweep

The ``traffic`` subcommand drives the multi-tenant request layer: a
policies x loads sweep of the PS cloning engine (cached, ``--jobs N``
byte-identical), or the full-stack cluster variant with ``--cluster``
(see :mod:`repro.traffic` and ``docs/traffic.md``)::

    dse-experiments traffic --jobs 4
    dse-experiments traffic --cluster --transport dual --loss 0.02
    dse-experiments loss-sweep --loss 0,0.02,0.05 --transports reliable,sr
    dse-experiments loss-sweep --fabric ethernet --messages 400

The ``check`` subcommand model-checks the transport/coherence protocol
state machines over bounded scopes: it exhaustively enumerates every
delivery order, loss, and duplication decision, checks safety invariants
at each state, and emits replayable counterexample traces (see
:mod:`repro.check` and ``docs/checking.md``)::

    dse-experiments check --smoke
    dse-experiments check --mutants
    dse-experiments check sw-lost-wakeup --save-trace traces/
    dse-experiments check --replay traces/sw-lost-wakeup.json

The ``replay`` subcommand records a run into a checkpoint ring and lets
you seek/inspect/resume any simulated instant of it; ``live`` streams a
running simulation's vitals as JSON lines (see :mod:`repro.replay` and
``docs/debugging.md``)::

    dse-experiments replay --workload gauss-seidel --at 0.002 --resume
    dse-experiments replay --load run.replay --worst api.gm_read
    dse-experiments live --workload gauss-seidel --out live.jsonl

Figure regeneration accepts ``--jobs N`` to fan independent figures across
worker processes and reuses prior runs through the content-addressed
result cache (``--no-cache`` bypasses it).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from .checks import check_figure
from .figures import FIGURES

__all__ = ["main"]

#: workload key -> (import path, worker attr, small default args)
_TRACE_WORKLOADS = {
    "gauss-seidel": ("repro.apps.gauss_seidel", "gauss_seidel_worker", (96, 2, 7, False)),
    "knights-tour": ("repro.apps.knights_tour", "knights_tour_worker", (8,)),
    "othello": ("repro.apps.othello", "othello_worker", (3,)),
    "dct2": ("repro.apps.dct2", "dct2_worker", (32, 8, 0.25, 11, False)),
}


def _figure_task(params: dict) -> dict:
    """Compute one figure as a picklable, cacheable top-level task."""
    from dataclasses import asdict

    return asdict(FIGURES[params["fig_id"]](fast=params["fast"]))


def _trace_main(argv: List[str]) -> int:
    """Run one workload traced and export Chrome trace (+ metrics) files."""
    import importlib

    from ..dse.config import ClusterConfig
    from ..dse.runtime import run_parallel
    from ..hardware.platforms import get_platform, platform_names
    from ..obs import write_chrome_trace, write_metrics_csv, write_metrics_jsonl

    parser = argparse.ArgumentParser(
        prog="dse-experiments trace",
        description="Run one workload with causal tracing and export the spans.",
    )
    parser.add_argument(
        "--workload",
        choices=sorted(_TRACE_WORKLOADS) + ["traffic"],
        default="gauss-seidel",
    )
    parser.add_argument("--processors", type=int, default=4)
    parser.add_argument("--platform", choices=platform_names(), default="sunos")
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

    if args.workload == "traffic":
        # The traffic layer owns its simulator (no cluster); it mints
        # sampled request-level spans, which span_census aggregates into
        # the per-tenant latency block.
        from ..traffic.cli import run_traced_traffic
        from .timeline import span_census

        engine = run_traced_traffic(
            metrics_interval=args.metrics_interval if args.metrics else 0.0,
        )
        result = engine.result
        print(f"traffic clone-2 sweep point: elapsed {result.elapsed:.6f}s "
              f"simulated, {result.overall['count']:.0f} requests")
        print(span_census(engine.recorder, sim=engine.sim))
        if not engine.recorder.spans:
            print(f"no spans were recorded, so {args.out} was not written")
            return 1
        n_events = write_chrome_trace(engine.recorder, args.out, engine.cluster)
        print(f"wrote {n_events} trace events to {args.out}")
        if args.metrics:
            if engine.sampler is None or not engine.sampler.samples_taken:
                print(f"no metric samples were taken, so {args.metrics} "
                      "was not written")
                return 1
            writer = (write_metrics_jsonl if args.metrics.endswith(".jsonl")
                      else write_metrics_csv)
            n_rows = writer(engine.sampler, args.metrics)
            print(f"wrote {n_rows} metric samples to {args.metrics}")
        return 0

    module_name, attr, worker_args = _TRACE_WORKLOADS[args.workload]
    worker = getattr(importlib.import_module(module_name), attr)
    config = ClusterConfig(
        platform=get_platform(args.platform),
        n_processors=args.processors,
        obs_trace=True,
        obs_metrics_interval=args.metrics_interval if args.metrics else 0.0,
        obs_span_limit=args.span_limit,
    )
    result = run_parallel(config, worker, args=worker_args)
    cluster = result.cluster
    print(
        f"{args.workload} p={args.processors} on {args.platform}: "
        f"elapsed {result.elapsed:.6f}s simulated"
    )
    status = 0
    if not cluster.obs.spans:
        # Nothing recorded — an empty trace file would only mislead.
        print(
            f"no spans were recorded, so {args.out} was not written "
            "(raise --span-limit, or check that the workload ran any work)"
        )
        status = 1
    else:
        n_events = write_chrome_trace(cluster.obs, args.out, cluster=cluster)
        dropped = f" ({cluster.obs.dropped} spans dropped past limit)" if cluster.obs.dropped else ""
        print(f"wrote {n_events} trace events to {args.out}{dropped}")
    if args.metrics:
        if cluster.metrics is None or not cluster.metrics.samples_taken:
            print(
                f"no metric samples were taken, so {args.metrics} was not "
                "written (pass a --metrics-interval shorter than the run)"
            )
            status = 1
        else:
            writer = write_metrics_jsonl if args.metrics.endswith(".jsonl") else write_metrics_csv
            n_rows = writer(cluster.metrics, args.metrics)
            print(f"wrote {n_rows} metric samples to {args.metrics}")
    return status


def _loss_sweep_main(argv: List[str]) -> int:
    """Tabulate transport goodput under Gilbert–Elliott burst loss."""
    from ..perf.netbench import CANONICAL, LOSS_POINTS, TRANSPORTS, sweep_rows
    from ..protocol.transport import TRANSPORT_KINDS
    from ..util.tables import Table

    parser = argparse.ArgumentParser(
        prog="dse-experiments loss-sweep",
        description="Stream messages through each transport under burst "
                    "loss; report goodput and speed-up vs stop-and-wait.",
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
    parser.add_argument("--fabric", choices=("switch", "ethernet"),
                        default=CANONICAL["fabric"])
    parser.add_argument("--seed", type=int, default=CANONICAL["seed"])
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


def main(argv: List[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "loss-sweep":
        return _loss_sweep_main(argv[1:])
    if argv and argv[0] == "traffic":
        from ..traffic.cli import traffic_main

        return traffic_main(argv[1:])
    if argv and argv[0] == "scale":
        from .scaling import scale_main

        return scale_main(argv[1:])
    if argv and argv[0] == "sanitize":
        from ..sanitize.cli import sanitize_main

        return sanitize_main(argv[1:])
    if argv and argv[0] == "resilience":
        from ..resilience.cli import resilience_main

        return resilience_main(argv[1:])
    if argv and argv[0] == "check":
        from ..check.cli import check_main

        return check_main(argv[1:])
    if argv and argv[0] == "replay":
        from ..replay.cli import replay_main

        return replay_main(argv[1:])
    if argv and argv[0] == "live":
        from ..replay.cli import live_main

        return live_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="dse-experiments",
        description="Regenerate the tables/figures of the DSE/SSI paper (ICPP 1999).",
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
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for independent figures (default: 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every figure, bypassing the on-disk result cache",
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
    from .figures import FigureData
    from .parallel import ResultCache, run_tasks

    cache = None if args.no_cache else ResultCache()
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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
