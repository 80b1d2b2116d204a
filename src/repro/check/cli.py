"""``dse-experiments check``: run named model-checking scopes.

Examples::

    dse-experiments check --list
    dse-experiments check                  # every clean scope
    dse-experiments check --smoke          # CI subset (sw/gbn/sr/coherence)
    dse-experiments check --mutants        # must rediscover the known bugs
    dse-experiments check sw sr --no-por   # cross-check without reduction
    dse-experiments check sw-lost-wakeup --save-trace traces/
    dse-experiments check --replay traces/sw-lost-wakeup.json

Clean scopes must explore to exhaustion with zero violations; ``mutant``
scopes carry a reintroduced historical bug and *must* produce one, whose
counterexample is then replayed twice to confirm the trace is a complete,
deterministic schedule.  The exit status reflects both directions.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List

from ..experiments.cli import command
from .scheduler import Counterexample, explore, replay_counterexample
from .scopes import MUTANT_SCOPES, SCOPES, SMOKE_SCOPES, ScopeConfig, make_harness


def _print_trace(counterexample: Counterexample) -> None:
    print(f"  counterexample ({len(counterexample.trace)} steps):")
    for step, action in enumerate(counterexample.trace):
        print(f"    {step:3d}. {' '.join(str(part) for part in action)}")


def _replay_twice(config: ScopeConfig, ce: Counterexample) -> bool:
    """True when two standalone replays observe identical outcomes."""
    runs = []
    for _ in range(2):
        runs.append(
            [
                (step, action, tuple(errors))
                for step, action, errors in replay_counterexample(
                    lambda: make_harness(config), ce
                )
            ]
        )
    return runs[0] == runs[1] and bool(runs[0])


def _save_trace(config: ScopeConfig, ce: Counterexample, save_dir) -> None:
    """Write ``ce`` as ``<save_dir>/<scope>.json`` under ``--save-trace``."""
    if save_dir:
        out = Path(save_dir) / f"{config.name}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        ce.save(out)
        print(f"  saved counterexample to {out}")


def _run_scope(config: ScopeConfig, args) -> bool:
    """Explore one scope; prints the verdict, returns pass/fail."""
    result = explore(
        lambda: make_harness(config),
        scope=config.name,
        max_steps=args.max_steps or config.max_steps,
        max_violations=args.max_violations,
        por=not args.no_por,
    )
    stats = result.stats
    coverage = "exhaustive" if result.complete else "CAPPED"
    print(f"{config.name}: {config.description}")
    print(f"  explored {coverage}: {stats.summary()}")

    if config.expect_violation:
        if not result.violations:
            print("  FAIL: mutant scope produced no violation "
                  "(the checker lost a known-real bug)")
            return False
        ce = result.counterexamples()[0]
        deterministic = _replay_twice(config, ce)
        print(
            f"  rediscovered {config.mutant!r}: [{ce.kind}] {ce.detail}"
        )
        _print_trace(ce)
        print(
            "  replayed twice standalone: "
            + ("identical (deterministic)" if deterministic else "MISMATCH")
        )
        _save_trace(config, ce, args.save_trace)
        return deterministic

    if result.violations:
        for violation in result.violations:
            print(f"  FAIL {violation}")
        for ce in result.counterexamples():
            _print_trace(ce)
            _save_trace(config, ce, args.save_trace)
        return False
    print("  ok: no violations")
    return True


def _replay_file(path: str) -> int:
    ce = Counterexample.load(path)
    config = SCOPES.get(ce.scope)
    if config is None:
        print(f"counterexample names unknown scope {ce.scope!r}", file=sys.stderr)
        return 2
    print(f"replaying {path}: scope {ce.scope!r}, [{ce.kind}] {ce.detail}")
    found = False
    for step, action, errors in replay_counterexample(
        lambda: make_harness(config), ce
    ):
        line = " ".join(str(part) for part in action)
        print(f"  {step:3d}. {line}")
        for error in errors:
            print(f"       !! {error}")
            found = True
    print("violation reproduced" if found else "violation did NOT reproduce")
    return 0 if found else 1


def check_main(argv: List[str]) -> int:
    parser = command(
        "check",
        "Exhaustive small-scope model checking of the transport and DSE "
        "protocol state machines.",
    )
    parser.add_argument("scopes", nargs="*",
                        help="scope names (default: every clean scope)")
    parser.add_argument("--list", action="store_true",
                        help="list the named scopes and exit")
    parser.add_argument("--smoke", action="store_true",
                        help=f"run the CI subset: {', '.join(SMOKE_SCOPES)}")
    parser.add_argument("--mutants", action="store_true",
                        help="also run the reintroduced-bug scopes "
                        "(checker must find their violation)")
    parser.add_argument("--no-por", action="store_true",
                        help="disable sleep-set partial-order reduction "
                        "(cross-check: the verdict must not change)")
    parser.add_argument("--max-steps", type=int, default=None,
                        help="override the per-scope path-depth bound")
    parser.add_argument("--max-violations", type=int, default=1,
                        help="stop a scope after this many findings (default 1)")
    parser.add_argument("--save-trace", metavar="DIR", default=None,
                        help="write counterexample traces as JSON under DIR")
    parser.add_argument("--replay", metavar="FILE", default=None,
                        help="re-execute a saved counterexample and exit")
    args = parser.parse_args(argv)

    if args.replay:
        return _replay_file(args.replay)
    if args.list:
        for name, config in SCOPES.items():
            marker = " [mutant]" if config.expect_violation else ""
            print(f"{name:>16}{marker}: {config.description}")
        return 0

    if args.scopes:
        unknown = [s for s in args.scopes if s not in SCOPES]
        if unknown:
            print(
                f"unknown scope(s) {unknown}; known: {', '.join(SCOPES)}",
                file=sys.stderr,
            )
            return 2
        names = list(args.scopes)
    elif args.smoke:
        names = list(SMOKE_SCOPES)
    else:
        names = [n for n, c in SCOPES.items() if not c.expect_violation]
    if args.mutants:
        names.extend(n for n in MUTANT_SCOPES if n not in names)

    failures = 0
    for name in names:
        if not _run_scope(SCOPES[name], args):
            failures += 1
        print()
    print(
        f"model check: {len(names)} scope(s), "
        f"{len(names) - failures} passed, {failures} failed"
    )
    return 1 if failures else 0
