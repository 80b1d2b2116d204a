"""``dse-experiments sanitize``: run guests under the sanitizers.

Two modes:

* default — run paper workloads with race + deadlock detection enabled
  and report findings; exits non-zero if any sanitizer fires (the CI
  false-positive guard runs exactly this over all four paper apps).
* ``--demo`` — run the intentionally buggy guests from
  :mod:`repro.sanitize.demo` and exit non-zero if a detector **fails**
  to flag its bug (the end-to-end detection smoke test).

Examples::

    dse-experiments sanitize --all
    dse-experiments sanitize --workload gauss-seidel --batching
    dse-experiments sanitize --demo
"""

from __future__ import annotations

from typing import List

from ..dse.runtime import run_parallel
from ..errors import DSEError
from ..experiments.cli import PLATFORM, PROCESSORS, TRACE_WORKLOADS, cluster_config, command
from . import demo

__all__ = ["sanitize_main"]


def sanitize_main(argv: List[str]) -> int:
    """Entry point for the ``sanitize`` subcommand."""
    parser = command(
        "sanitize",
        "Run guest programs under the race/deadlock sanitizers.",
        [PROCESSORS, PLATFORM],
        workloads=TRACE_WORKLOADS,
        workload=None,
    )
    parser.add_argument(
        "--all", action="store_true", help="run every paper workload (the default)"
    )
    parser.add_argument(
        "--demo", action="store_true",
        help="run the intentionally buggy demo guests instead",
    )
    parser.add_argument(
        "--batching", action="store_true",
        help="also exercise the gmem batching fast path",
    )
    args = parser.parse_args(argv)

    if args.demo:
        # (name, worker, did the sanitizer flag what it should?)
        cases = [
            ("racy-counter", demo.racy_counter_worker, lambda r: bool(r.races)),
            (
                "impossible-barrier",
                demo.impossible_barrier_worker,
                lambda r: bool(r.barrier_faults),
            ),
            ("lock-cycle", demo.lock_cycle_worker, lambda r: bool(r.lock_cycles)),
            ("locked-counter (clean)", demo.locked_counter_worker, lambda r: r.clean),
        ]
        config = cluster_config(args, sanitize=True)
        failures = 0
        for name, worker, check in cases:
            try:
                report = run_parallel(config, worker).cluster.sanitizer.report
            except DSEError as exc:
                # Deadlocked demos drain; the runtime attaches the cluster.
                report = exc.cluster.sanitizer.report
            ok = check(report)
            print(f"[{'OK' if ok else 'MISSED'}] {name}: {report.summary()}")
            failures += 0 if ok else 1
        return 1 if failures else 0

    workloads = sorted(TRACE_WORKLOADS) if (args.all or not args.workload) else [args.workload]
    config = cluster_config(args, gmem_batching=args.batching, sanitize=True)
    dirty = 0
    for key in workloads:
        spec = TRACE_WORKLOADS[key]
        report = run_parallel(config, spec.resolve(), args=spec.args).cluster.sanitizer.report
        if report.clean:
            print(f"[CLEAN] {key} p={args.processors} batching={args.batching}")
        else:
            dirty += 1
            print(f"[FINDINGS] {key} p={args.processors} batching={args.batching}")
            print(report.format())
    return 1 if dirty else 0
