"""``dse-experiments resilience``: fault-injection campaigns on paper apps.

Runs the two recovery paths end to end and reports the resilience cost
model the subsystem exists to measure:

* **spmd** — block Gauss-Seidel under ``run_resilient``: a victim kernel is
  crashed mid-run and restarted; recovery is failure detection + rollback
  to the last per-sweep checkpoint.  Reports detection latency, recovery
  cycles, and the slowdown versus (a) the same resilient config without
  faults and (b) the plain ``resilience=None`` run.
* **farm** — Knight's Tour under ``run_resilient_master`` with a
  *permanent* crash: recovery is task reassignment with retry/backoff.
  Reports retries and wasted simulated compute, and verifies the exact
  tour count.

Examples::

    dse-experiments resilience
    dse-experiments resilience --mode spmd --processors 8 --crash-at 0.05
    dse-experiments resilience --mode farm --seed 11 --crashes 2
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..apps import DEFAULT_SWEEPS, count_tours_seq
from ..dse.runtime import run_parallel
from ..experiments.cli import PLATFORM, PROCESSORS, SEED, cluster_config, command
from .campaign import CrashPlan, FaultCampaign, random_crashes
from .config import ResilienceConfig
from .runner import run_resilient, run_resilient_master
from .workloads import resilient_gauss_seidel, resilient_tour_master

__all__ = ["resilience_main"]


def _spmd_report(args) -> int:
    n, sweeps, seed = args.n, DEFAULT_SWEEPS, 7
    resilient = cluster_config(args, resilience=ResilienceConfig())
    base = run_parallel(
        cluster_config(args),
        lambda api, *a: resilient_gauss_seidel(api, None, *a),
        args=(n, sweeps, seed),
    )
    clean = run_resilient(resilient, resilient_gauss_seidel, args=(n, sweeps, seed))
    campaign = FaultCampaign(
        crashes=[
            CrashPlan(
                kernel_id=args.victim,
                at=args.crash_at,
                restart_after=args.restart_after,
            )
        ]
    )
    faulty = run_resilient(
        resilient,
        resilient_gauss_seidel,
        args=(n, sweeps, seed),
        campaign=campaign,
    )

    # The block solver is Jacobi-coupled across blocks, so the reference is
    # the *failure-free parallel* solution (recovery must be exact, not just
    # convergent): bit-identical or the rollback leaked state.
    x_ref = base.returns[0]["x"]
    x = faulty.returns[0]["x"]
    exact = bool(np.array_equal(x, x_ref))
    detect = faulty.cluster.resilience.stats.tally("detect_latency")
    print(f"spmd: gauss-seidel n={n} p={args.processors} sweeps={sweeps}")
    print(f"  plain (resilience off)      elapsed {base.elapsed * 1e3:9.3f} ms")
    print(
        f"  resilient, no faults        elapsed {clean.elapsed * 1e3:9.3f} ms"
        f"  (x{clean.elapsed / base.elapsed:.3f} of plain)"
    )
    print(
        f"  crash k{args.victim}@{args.crash_at * 1e3:.1f}ms"
        f" restart+{args.restart_after * 1e3:.1f}ms"
        f"  elapsed {faulty.elapsed * 1e3:9.3f} ms"
        f"  (x{faulty.elapsed / clean.elapsed:.3f} of fault-free)"
    )
    print(
        f"  recoveries={faulty.recoveries}"
        f" deaths={[(round(t * 1e3, 3), k) for t, k in faulty.failures]}"
        f" detect_latency={detect.mean * 1e3:.3f} ms"
    )
    snap = faulty.stats
    print(
        "  res counters: "
        + " ".join(
            f"{key.split('.')[-1]}={int(snap[key])}"
            for key in sorted(snap)
            if key.startswith("res.") and snap[key]
        )
    )
    print(
        "  solution bit-identical to failure-free run: "
        f"{'YES' if exact else 'NO'}"
    )
    return 0 if exact and faulty.recoveries > 0 else 1


def _farm_report(args) -> int:
    config = cluster_config(args, resilience=ResilienceConfig())
    crashes = random_crashes(
        seed=args.seed,
        n_crashes=args.crashes,
        n_kernels=args.processors,
        t_lo=args.crash_at / 2,
        t_hi=args.crash_at * 2,
        restart_after=None,  # permanent: the farm must cope by reassignment
    )
    result = run_resilient_master(
        config,
        resilient_tour_master,
        args=(args.jobs,),
        campaign=FaultCampaign(crashes=crashes),
    )
    report = result.returns[0]
    expected, _ = count_tours_seq()
    exact = report["tours"] == expected == report["expected_tours"]
    print(f"farm: knights-tour jobs={report['n_jobs']} p={args.processors}")
    print(
        "  permanent crashes: "
        + ", ".join(f"k{p.kernel_id}@{p.at * 1e3:.1f}ms" for p in crashes)
        + f"  (seed {args.seed})"
    )
    print(
        f"  elapsed {result.elapsed * 1e3:9.3f} ms"
        f"  retries={report['retries']}"
        f"  wasted_compute={report['wasted_seconds'] * 1e3:.3f} ms"
    )
    print(
        f"  tours counted {report['tours']}"
        f" (sequential reference {expected}):"
        f" {'YES' if exact else 'NO'}"
    )
    return 0 if exact else 1


def resilience_main(argv: List[str]) -> int:
    """Entry point for the ``resilience`` subcommand."""
    parser = command(
        "resilience",
        "Crash paper workloads mid-run and measure the recovery.",
        [PROCESSORS, PLATFORM, SEED],
        seed=3,
    )
    parser.add_argument(
        "--mode", choices=["spmd", "farm", "both"], default="both",
        help="checkpoint/rollback (spmd), task reassignment (farm), or both",
    )
    parser.add_argument("--n", type=int, default=96, help="Gauss-Seidel dimension")
    parser.add_argument("--jobs", type=int, default=24, help="farm job count")
    parser.add_argument(
        "--victim", type=int, default=1, help="spmd crash victim kernel (not 0)"
    )
    parser.add_argument(
        "--crash-at", type=float, default=0.05,
        help="crash time in simulated seconds (farm draws around this)",
    )
    parser.add_argument(
        "--restart-after", type=float, default=0.02,
        help="spmd victim reboot delay in simulated seconds",
    )
    parser.add_argument(
        "--crashes", type=int, default=1, help="number of farm crashes"
    )
    args = parser.parse_args(argv)

    rc = 0
    if args.mode in ("spmd", "both"):
        rc |= _spmd_report(args)
    if args.mode in ("farm", "both"):
        rc |= _farm_report(args)
    return rc
