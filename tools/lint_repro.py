#!/usr/bin/env python3
"""Determinism lint for the simulator kernel (static analysis, stdlib ast).

The whole repository's value rests on one property: a run is a pure
function of its :class:`ClusterConfig` (seed included).  This lint
rejects the constructs that silently break that property:

    python tools/lint_repro.py [paths...]        # default: src/repro

Rules (all reported as ``path:line: [rule] message``):

* **wall-clock** — ``time.time()``, ``time.time_ns()``,
  ``time.monotonic()``, ``datetime.now()`` and friends inject host time
  into the simulation.  ``time.perf_counter`` stays allowed: benchmarks
  measure real wall duration, they never feed it back into simulated
  state.  Exception: inside ``repro/replay`` even ``perf_counter`` /
  ``perf_counter_ns`` are flagged — record/replay must be a pure function
  of the recording, so *any* host-clock read there is a divergence bug.
* **global-random** — module-level ``random.random()`` /
  ``np.random.rand()`` etc. draw from cross-run shared state; all
  randomness must flow through seeded generators
  (``random.Random(seed)``, ``numpy.random.default_rng(seed)``, the
  repo's ``RandomStreams``).
* **unsorted-set-iter** — iterating a ``set``/``frozenset`` (or ``dict``
  built from one) has hash-seed-dependent order; when that order feeds
  event scheduling or message emission, two identical runs diverge.
  Wrap the iterable in ``sorted(...)``.
* **bare-except** — ``except:`` swallows simulator invariant violations
  (including ``GeneratorExit`` in coroutines); name the exception.
* **unseeded-shuffle** — ``random.shuffle`` / ``random.choice`` /
  ``random.choices`` / ``random.sample`` (and the numpy equivalents) on
  the module-level RNG: reordering decisions are exactly the kind of
  nondeterminism that changes event schedules, so they get their own
  rule (and suppression name) rather than hiding inside global-random.
* **mutable-default-arg** — a ``[]`` / ``{}`` / ``{...}`` default is
  built once at import and shared by every call — state leaks across
  *runs* inside one host process, breaking run-to-run purity even with
  identical configs.  Default to ``None`` and construct inside.
* **process-isolation** — ``multiprocessing`` imports and
  ``os.getpid()`` / ``os.fork()`` are confined to the one sanctioned
  host-parallelism layer, the multicore sweep runner
  (``repro/experiments/parallel.py``).  Anywhere else, host process
  identity or topology leaking into model code is a determinism hazard:
  results would depend on how the run was executed, not on the config.
* **identity-order** — every ``id(...)`` call, and every other use of
  the builtin ``id`` (``key=id``), is flagged.  ``id()`` values are heap
  addresses, so a dict keyed by them, or a list sorted by them,
  orders its items differently from run to run (and with whatever else
  the host process allocated first).  Key by the object itself, or keep
  an explicit order such as admission order.

Cross-file **protocol wiring** checks (run against the repo as a whole;
reported with the same ``path:line: [rule] message`` shape):

* **unknown-msg-type** — every ``MsgType.X`` reference under
  ``src/repro`` must name a real enum member (a typo'd type silently
  never matches any dispatch arm).
* **unhandled-request** — every request-classified ``MsgType`` member
  (``*_req`` plus the declared one-way notifications) must be dispatched
  by ``dse/kernel.py`` or installed via ``register_service`` somewhere;
  an unhandled request is a guaranteed runtime ``DSEError``.
* **channel-pairing** — a request and its response must ride the same
  dual-channel lane: ``_DATA_CLASS`` must contain ``*_req``/``*_rsp``
  pairs together, or a retry repairs one direction while the other
  silently reorders.
* **unknown-stat-key** — every ``stats.counter("...")`` /
  ``stats.tally("...")`` / ``LazyStat("...")`` literal must appear in the
  declared registry (:mod:`repro.sim.statreg`); a typo'd key creates a fresh zero counter
  and every reader of the intended key sees stale data.

Suppress a deliberate use with a ``# lint: allow-<rule>`` comment on the
offending line (e.g. ``# lint: allow-wall-clock``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: time-module attributes that read the host clock (simulation poison);
#: ``perf_counter``/``perf_counter_ns`` are deliberately NOT listed
_WALL_CLOCK_TIME = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "clock_gettime",
    "clock_gettime_ns",
}
#: datetime constructors that read the host clock
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}
#: additionally poison under strict clock rules (replay paths): even a
#: benchmark-grade timer is a nondeterminism hazard inside record/replay
_WALL_CLOCK_STRICT = {"perf_counter", "perf_counter_ns", "process_time",
                      "process_time_ns", "thread_time", "thread_time_ns"}
#: path fragments whose files get the strict clock rules
_STRICT_CLOCK_PATHS = ("repro/replay",)

#: the only place allowed to touch host process machinery: the multicore
#: sweep runner
_MP_ALLOWED_PATHS = ("repro/experiments/parallel.py",)
#: os-module calls that expose host process identity/topology
_PROCESS_OS_CALLS = {"getpid", "getppid", "fork", "forkpty"}

#: numpy.random attributes that are fine (seeded-generator constructors)
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}

#: module-level RNG calls that make *ordering* decisions — split out of
#: global-random so they carry a sharper message and suppression name
_SHUFFLE_NAMES = {"shuffle", "choice", "choices", "sample"}
_NP_SHUFFLE_NAMES = {"shuffle", "choice", "permutation", "permuted"}

#: AST nodes that build a fresh mutable object (bad as a default)
_MUTABLE_DEFAULT_NODES = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

#: set-producing method names (on any object — conservative is fine here,
#: these names are set-algebra specific)
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
}


def _attr_chain(node: ast.AST) -> str:
    """Dotted name of an attribute chain (``a.b.c``), '' if not one."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class _Linter(ast.NodeVisitor):
    """One file's worth of determinism checks."""

    def __init__(
        self,
        relpath: str,
        allowed: dict,
        strict_clock: bool = False,
        mp_allowed: bool = False,
    ):
        self.relpath = relpath
        self.allowed = allowed  # lineno -> set of allowed rule names
        self.strict_clock = strict_clock
        self.mp_allowed = mp_allowed
        self.errors: list[str] = []
        #: function-local names currently known to be bound to a set
        self._set_names: list[set] = [set()]

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        if rule in self.allowed.get(node.lineno, ()):
            return
        self.errors.append(f"{self.relpath}:{node.lineno}: [{rule}] {message}")

    # -- rule: wall-clock ---------------------------------------------------
    def _check_wall_clock(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        leaf = chain.rsplit(".", 1)[-1]
        if chain.startswith("time.") and leaf in _WALL_CLOCK_TIME:
            self._report(
                node, "wall-clock",
                f"{chain}() reads the host clock; simulated code must use "
                "sim.now (benchmarks: time.perf_counter)",
            )
        elif (
            self.strict_clock
            and chain.startswith("time.")
            and leaf in _WALL_CLOCK_STRICT
        ):
            self._report(
                node, "wall-clock",
                f"{chain}() reads a host timer; replay code must be a pure "
                "function of the recording — use sim.now only",
            )
        elif leaf in _WALL_CLOCK_DATETIME and (
            "datetime" in chain or "date." in chain
        ):
            self._report(
                node, "wall-clock",
                f"{chain}() reads the host clock; pass timestamps in "
                "explicitly or use sim.now",
            )

    # -- rule: global-random ------------------------------------------------
    def _check_global_random(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if not chain:
            return
        parts = chain.split(".")
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] in _SHUFFLE_NAMES:
                self._report(
                    node, "unseeded-shuffle",
                    f"{chain}() reorders/selects via the shared module-level "
                    "RNG; call it on a seeded random.Random instance",
                )
            elif parts[1] not in ("Random", "SystemRandom"):
                self._report(
                    node, "global-random",
                    f"{chain}() uses the module-level RNG; draw from a "
                    "seeded random.Random / RandomStreams instead",
                )
        elif len(parts) >= 3 and parts[-2] == "random" and parts[0] in (
            "np", "numpy"
        ):
            if parts[-1] in _NP_SHUFFLE_NAMES:
                self._report(
                    node, "unseeded-shuffle",
                    f"{chain}() reorders/selects via numpy's global RNG; "
                    "use a numpy.random.default_rng(seed) instance",
                )
            elif parts[-1] not in _NP_RANDOM_OK:
                self._report(
                    node, "global-random",
                    f"{chain}() uses numpy's global RNG; use "
                    "numpy.random.default_rng(seed)",
                )

    # -- rule: unsorted-set-iter --------------------------------------------
    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set", "frozenset"
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and self._is_set_expr(node.func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # Set algebra on a known set; dict | dict is insertion-ordered
            # (deterministic), so require a *set* on either side.
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_names)
        return False

    def _check_iteration(self, node: ast.AST, iter_expr: ast.AST) -> None:
        if self._is_set_expr(iter_expr):
            self._report(
                node, "unsorted-set-iter",
                "iteration order of a set is hash-seed dependent; wrap it "
                "in sorted(...)",
            )

    # -- rule: process-isolation ----------------------------------------------
    def _check_process_call(self, node: ast.Call) -> None:
        if self.mp_allowed:
            return
        chain = _attr_chain(node.func)
        if chain.startswith("os.") and chain[len("os."):] in _PROCESS_OS_CALLS:
            self._report(
                node, "process-isolation",
                f"{chain}() exposes host process identity; only "
                "repro/experiments/parallel.py may touch process "
                "machinery — results must depend on the config, not on how "
                "the run was executed",
            )

    def _check_process_import(self, node: ast.AST, module: str) -> None:
        if self.mp_allowed:
            return
        if module == "multiprocessing" or module.startswith("multiprocessing."):
            self._report(
                node, "process-isolation",
                "multiprocessing is confined to "
                "repro/experiments/parallel.py (the sanctioned "
                "host-parallelism layer); model code must stay "
                "single-process deterministic",
            )

    # -- rule: identity-order -------------------------------------------------
    def visit_Name(self, node: ast.Name) -> None:
        # Catches ``id(x)`` (the call's func) and ``key=id`` alike.
        if node.id == "id" and isinstance(node.ctx, ast.Load):
            self._report(
                node, "identity-order",
                "id() is a heap address; any key or order built from it "
                "varies from run to run — key by the object itself or keep "
                "an explicit order",
            )

    # -- visitors ------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_wall_clock(node)
        self._check_global_random(node)
        self._check_process_call(node)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_process_import(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._check_process_import(node, node.module or "")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node, node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter, node.iter)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Track local names bound to set expressions so `s = a & b; for x
        # in s:` is caught too (single-scope, last-assignment-wins).
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self._set_names[-1].add(target.id)
                else:
                    self._set_names[-1].discard(target.id)
        self.generic_visit(node)

    # -- rule: mutable-default-arg -------------------------------------------
    def _check_defaults(self, node: ast.AST) -> None:
        args = node.args
        defaults = list(args.defaults)
        defaults.extend(d for d in args.kw_defaults if d is not None)
        for default in defaults:
            if isinstance(default, _MUTABLE_DEFAULT_NODES):
                self._report(
                    default, "mutable-default-arg",
                    "mutable default is built once at import and shared by "
                    "every call (state leaks across runs in one host "
                    "process); default to None and construct inside",
                )

    def _visit_scope(self, node: ast.AST) -> None:
        self._set_names.append(set())
        self.generic_visit(node)
        self._set_names.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._visit_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self._visit_scope(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                node, "bare-except",
                "bare 'except:' hides simulator invariant violations "
                "(and GeneratorExit in coroutines); name the exception",
            )
        self.generic_visit(node)


def _allowed_lines(source: str) -> dict:
    """Map line number -> rules suppressed by ``# lint: allow-<rule>``."""
    allowed: dict = {}
    for lineno, line in enumerate(source.splitlines(), 1):
        marker = line.rsplit("# lint:", 1)
        if len(marker) == 2:
            rules = {
                token[len("allow-"):]
                for token in marker[1].split()
                if token.startswith("allow-")
            }
            if rules:
                allowed[lineno] = rules
    return allowed


def lint_file(path: Path, root: Path) -> list[str]:
    """Lint one Python file; returns the error lines."""
    relpath = str(path.relative_to(root)) if root in path.parents else str(path)
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:  # pragma: no cover - tests would fail first
        return [f"{relpath}: syntax error: {exc}"]
    posix = relpath.replace("\\", "/")
    strict = any(fragment in posix for fragment in _STRICT_CLOCK_PATHS)
    mp_ok = any(fragment in posix for fragment in _MP_ALLOWED_PATHS)
    linter = _Linter(
        relpath, _allowed_lines(source), strict_clock=strict, mp_allowed=mp_ok
    )
    linter.visit(tree)
    return linter.errors


def lint_paths(paths: list, root: Path) -> "tuple[int, list[str]]":
    """Lint files/trees; returns (files checked, error lines)."""
    errors: list[str] = []
    checked = 0
    for target in paths:
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for py in files:
            checked += 1
            errors.extend(lint_file(py, root))
    return checked, errors


class _WiringScan(ast.NodeVisitor):
    """One file's raw material for the cross-file wiring checks."""

    def __init__(self) -> None:
        self.msgtype_refs: list = []  # (member name, lineno)
        self.registered: set = set()  # member names passed to register_service
        self.stat_keys: list = []  # (kind, key literal, lineno)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "MsgType":
            self.msgtype_refs.append((node.attr, node.lineno))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "register_service"
            and node.args
        ):
            first = node.args[0]
            if (
                isinstance(first, ast.Attribute)
                and isinstance(first.value, ast.Name)
                and first.value.id == "MsgType"
            ):
                self.registered.add(first.attr)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("counter", "tally")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            self.stat_keys.append((func.attr, node.args[0].value, node.lineno))
        if (
            isinstance(func, ast.Name)
            and func.id == "LazyStat"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            kind = next(
                (kw.value.value for kw in node.keywords
                 if kw.arg == "kind" and isinstance(kw.value, ast.Constant)),
                "counter",
            )
            self.stat_keys.append((kind, node.args[0].value, node.lineno))
        self.generic_visit(node)


def _msgtype_refs_in(node: ast.AST) -> list:
    """Member names of every ``MsgType.X`` reference under ``node``."""
    return [
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name)
        and n.value.id == "MsgType"
    ]


def _parse_messages(tree: ast.AST) -> "tuple[dict, set, int, set]":
    """Extract (members, _DATA_CLASS names, its lineno, one-way names)."""
    members: dict = {}  # member name -> lineno
    data_class: set = set()
    data_class_line = 0
    oneway: set = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "MsgType":
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Constant)
                ):
                    members[stmt.targets[0].id] = stmt.lineno
        elif (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            name = node.targets[0].id
            if name == "_DATA_CLASS":
                data_class = set(_msgtype_refs_in(node.value))
                data_class_line = node.lineno
            elif name == "_REQUESTS":
                # the explicit one-way notifications unioned into _REQUESTS
                oneway = set(_msgtype_refs_in(node.value))
    return members, data_class, data_class_line, oneway


def _parse_statreg(tree: ast.AST) -> "tuple[set, set]":
    """Extract the declared COUNTERS/TALLIES key sets from statreg.py."""
    registries = {"COUNTERS": set(), "TALLIES": set()}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in registries
        ):
            registries[node.targets[0].id] = {
                n.value
                for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            }
    return registries["COUNTERS"], registries["TALLIES"]


def lint_wiring(root: Path) -> list:
    """Cross-file protocol wiring checks over ``root/src/repro``.

    Returns error lines in the same ``path:line: [rule] message`` shape;
    ``# lint: allow-<rule>`` comments on the reported line suppress them.
    """
    src = root / "src" / "repro"
    messages_py = src / "dse" / "messages.py"
    if not messages_py.exists():
        return []
    errors: list = []

    messages_source = messages_py.read_text()
    members, data_class, data_class_line, oneway = _parse_messages(
        ast.parse(messages_source)
    )
    messages_allowed = _allowed_lines(messages_source)

    scans: dict = {}  # path -> (_WiringScan, allowed-lines map)
    for py in sorted(src.rglob("*.py")):
        source = py.read_text()
        scan = _WiringScan()
        scan.visit(ast.parse(source, filename=str(py)))
        scans[py] = (scan, _allowed_lines(source))

    def report(path: Path, lineno: int, allowed: dict, rule: str, msg: str):
        if rule not in allowed.get(lineno, ()):
            errors.append(f"{path.relative_to(root)}:{lineno}: [{rule}] {msg}")

    # unknown-msg-type: every MsgType.X anywhere must name a real member
    for py, (scan, allowed) in scans.items():
        for name, lineno in scan.msgtype_refs:
            if name not in members:
                report(
                    py, lineno, allowed, "unknown-msg-type",
                    f"MsgType.{name} is not a member of MsgType "
                    "(dse/messages.py); a typo'd type never dispatches",
                )

    # unhandled-request: every request member must reach a handler
    kernel_py = src / "dse" / "kernel.py"
    handled: set = set()
    if kernel_py in scans:
        handled.update(name for name, _ in scans[kernel_py][0].msgtype_refs)
    for scan, _ in scans.values():
        handled.update(scan.registered)
    requests = {m for m in members if m.endswith("_REQ")}
    requests.update(name for name in oneway if name in members)
    for name in sorted(requests - handled):
        report(
            messages_py, members[name], messages_allowed, "unhandled-request",
            f"MsgType.{name} is request-classified but neither dispatched "
            "in dse/kernel.py nor installed via register_service — "
            "sending it raises DSEError at runtime",
        )

    # channel-pairing: _DATA_CLASS carries _REQ/_RSP pairs together
    for name in sorted(data_class):
        partner = None
        if name.endswith("_REQ"):
            partner = name[: -len("_REQ")] + "_RSP"
        elif name.endswith("_RSP"):
            partner = name[: -len("_RSP")] + "_REQ"
        if partner in members and partner not in data_class:
            report(
                messages_py, data_class_line, messages_allowed,
                "channel-pairing",
                f"_DATA_CLASS routes MsgType.{name} over the unreliable "
                f"lane but not its pair MsgType.{partner}; a request and "
                "its response must ride the same channel",
            )

    # unknown-stat-key: counter/tally literals vs the declared registry
    statreg_py = src / "sim" / "statreg.py"
    if statreg_py.exists():
        counters, tallies = _parse_statreg(ast.parse(statreg_py.read_text()))
        for py, (scan, allowed) in scans.items():
            for kind, key, lineno in scan.stat_keys:
                registry = counters if kind == "counter" else tallies
                if key not in registry:
                    report(
                        py, lineno, allowed, "unknown-stat-key",
                        f".{kind}({key!r}) is not declared in "
                        "repro/sim/statreg.py; a typo'd key silently "
                        "creates a fresh zero counter",
                    )
    return errors


def main(argv: list) -> int:
    root = Path(__file__).resolve().parents[1]
    targets = (
        [Path(a).resolve() for a in argv[1:]]
        if len(argv) > 1
        else [root / "src" / "repro"]
    )
    checked, errors = lint_paths(targets, root)
    errors.extend(lint_wiring(root))
    for err in errors:
        print(err)
    print(f"determinism lint: {checked} files checked, {len(errors)} violation(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
