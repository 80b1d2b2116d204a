"""Tests for tools/lint_repro.py, the determinism lint.

Each rule must fire on a minimal offending fixture and stay silent on
the blessed alternative; the repo's own source must lint clean (that is
the CI gate this tool exists for).
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "lint_repro", REPO_ROOT / "tools" / "lint_repro.py"
)
lint_repro = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint_repro)


def lint_source(tmp_path, source):
    """Lint one source string; returns the list of error lines."""
    path = tmp_path / "fixture.py"
    path.write_text(source)
    return lint_repro.lint_file(path, tmp_path)


def rules_of(errors):
    return [err.split("[", 1)[1].split("]", 1)[0] for err in errors]


# -- wall-clock ---------------------------------------------------------------
def test_wall_clock_flags_time_time(tmp_path):
    errors = lint_source(tmp_path, "import time\nt = time.time()\n")
    assert rules_of(errors) == ["wall-clock"]
    assert "fixture.py:2" in errors[0]


def test_wall_clock_flags_monotonic_and_datetime_now(tmp_path):
    source = (
        "import time, datetime\n"
        "a = time.monotonic()\n"
        "b = datetime.datetime.now()\n"
        "c = datetime.date.today()\n"
    )
    assert rules_of(lint_source(tmp_path, source)) == ["wall-clock"] * 3


def test_wall_clock_allows_perf_counter(tmp_path):
    source = "import time\nt0 = time.perf_counter()\nt1 = time.perf_counter_ns()\n"
    assert lint_source(tmp_path, source) == []


def test_strict_clock_bans_perf_counter_in_replay_paths(tmp_path):
    # Inside repro/replay even benchmark-grade timers are divergence bugs.
    replay_dir = tmp_path / "repro" / "replay"
    replay_dir.mkdir(parents=True)
    path = replay_dir / "fixture.py"
    path.write_text(
        "import time\n"
        "a = time.perf_counter()\n"
        "b = time.perf_counter_ns()\n"
        "c = time.process_time()\n"
    )
    errors = lint_repro.lint_file(path, tmp_path)
    assert rules_of(errors) == ["wall-clock"] * 3
    assert "pure function of the recording" in errors[0]


def test_strict_clock_rule_is_suppressible_and_scoped(tmp_path):
    replay_dir = tmp_path / "repro" / "replay"
    replay_dir.mkdir(parents=True)
    allowed = replay_dir / "allowed.py"
    allowed.write_text(
        "import time\nt = time.perf_counter()  # lint: allow-wall-clock\n"
    )
    assert lint_repro.lint_file(allowed, tmp_path) == []
    # ...and the strict rule must not leak outside repro/replay paths.
    outside = tmp_path / "repro" / "bench.py"
    outside.write_text("import time\nt = time.perf_counter()\n")
    assert lint_repro.lint_file(outside, tmp_path) == []


# -- global-random ------------------------------------------------------------
def test_global_random_flags_module_level_draws(tmp_path):
    source = (
        "import random\nimport numpy as np\n"
        "a = random.random()\n"
        "b = random.randint(0, 3)\n"
        "c = np.random.rand(3)\n"
    )
    assert rules_of(lint_source(tmp_path, source)) == ["global-random"] * 3


def test_global_random_allows_seeded_constructors(tmp_path):
    source = (
        "import random\nimport numpy as np\n"
        "rng = random.Random(7)\n"
        "x = rng.random()\n"
        "g = np.random.default_rng(7)\n"
        "ss = np.random.SeedSequence(7)\n"
    )
    assert lint_source(tmp_path, source) == []


# -- unseeded-shuffle ---------------------------------------------------------
def test_unseeded_shuffle_gets_its_own_rule(tmp_path):
    # Ordering decisions on the shared RNG outrank plain global-random:
    # they get a dedicated rule name so suppressions stay precise.
    source = (
        "import random\nimport numpy as np\n"
        "random.shuffle([1, 2])\n"
        "x = random.choice([1, 2])\n"
        "y = random.sample([1, 2], 1)\n"
        "np.random.shuffle([1, 2])\n"
        "z = np.random.permutation(3)\n"
    )
    assert rules_of(lint_source(tmp_path, source)) == ["unseeded-shuffle"] * 5


def test_unseeded_shuffle_allows_seeded_instances(tmp_path):
    source = (
        "import random\nimport numpy as np\n"
        "rng = random.Random(7)\n"
        "rng.shuffle([1, 2])\n"
        "x = rng.choice([1, 2])\n"
        "g = np.random.default_rng(7)\n"
        "g.shuffle([1, 2])\n"
    )
    assert lint_source(tmp_path, source) == []


# -- mutable-default-arg ------------------------------------------------------
def test_mutable_default_arg_flags_literals_and_comprehensions(tmp_path):
    source = (
        "def f(a, xs=[], m={}, s={1}):\n    pass\n"
        "def g(*, ys=[v for v in (1,)]):\n    pass\n"
        "h = lambda zs={}: zs\n"
    )
    assert rules_of(lint_source(tmp_path, source)) == ["mutable-default-arg"] * 5


def test_mutable_default_arg_allows_none_and_immutables(tmp_path):
    source = (
        "def f(a, xs=None, t=(1, 2), fs=frozenset({1}), n=0, s='x'):\n"
        "    xs = [] if xs is None else xs\n"
    )
    assert lint_source(tmp_path, source) == []


def test_mutable_default_arg_suppressible(tmp_path):
    source = "def f(xs=[]):  # lint: allow-mutable-default-arg\n    pass\n"
    assert lint_source(tmp_path, source) == []


# -- unsorted-set-iter --------------------------------------------------------
def test_set_iter_flags_literals_calls_and_methods(tmp_path):
    source = (
        "for x in {1, 2}:\n    pass\n"
        "for y in set([3, 4]):\n    pass\n"
        "for z in {1}.union({2}):\n    pass\n"
        "vals = [v for v in frozenset((5,))]\n"
    )
    assert rules_of(lint_source(tmp_path, source)) == ["unsorted-set-iter"] * 4


def test_set_iter_tracks_local_names_and_set_algebra(tmp_path):
    source = (
        "def f(a, b):\n"
        "    s = set(a) & set(b)\n"
        "    for x in s:\n"
        "        pass\n"
    )
    assert rules_of(lint_source(tmp_path, source)) == ["unsorted-set-iter"]


def test_set_iter_rebinding_to_non_set_clears_tracking(tmp_path):
    source = (
        "def f(a):\n"
        "    s = set(a)\n"
        "    s = sorted(s)\n"
        "    for x in s:\n"
        "        pass\n"
    )
    assert lint_source(tmp_path, source) == []


def test_set_iter_allows_sorted_wrapper_and_dicts(tmp_path):
    source = (
        "for x in sorted({1, 2}):\n    pass\n"
        "for k in {'a': 1}:\n    pass\n"
        "d = {'a': 1} | {'b': 2}\n"
        "for k in d:\n    pass\n"
    )
    assert lint_source(tmp_path, source) == []


# -- bare-except --------------------------------------------------------------
def test_bare_except_flagged_named_allowed(tmp_path):
    source = (
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept Exception:\n    pass\n"
    )
    assert rules_of(lint_source(tmp_path, source)) == ["bare-except"]


# -- identity-order -----------------------------------------------------------
def test_identity_order_flags_id_keyed_sort(tmp_path):
    source = (
        "jobs = {}\n"
        "def admit(clone):\n"
        "    jobs[id(clone)] = clone\n"
        "def lost():\n"
        "    return [jobs[key] for key in sorted(jobs)]\n"
        "order = sorted(jobs.values(), key=id)\n"
        "text = 'id(s) in a string are fine'\n"
    )
    errors = lint_source(tmp_path, source)
    assert rules_of(errors) == ["identity-order"] * 2
    assert "fixture.py:3" in errors[0]
    assert "fixture.py:6" in errors[1]


def test_identity_order_suppressible_and_method_named_id_allowed(tmp_path):
    source = (
        "key = id(object())  # lint: allow-identity-order\n"
        "node = tree.id(3)\n"
    )
    assert lint_source(tmp_path, source) == []


def test_repo_source_has_no_identity_order():
    _, errors = lint_repro.lint_paths([REPO_ROOT / "src" / "repro"], REPO_ROOT)
    assert not [err for err in errors if "[identity-order]" in err]


# -- process-isolation --------------------------------------------------------
def test_process_isolation_flags_mp_imports_and_pid_reads(tmp_path):
    source = (
        "import multiprocessing\n"
        "from multiprocessing import Process\n"
        "from multiprocessing.connection import Connection\n"
        "import os\n"
        "pid = os.getpid()\n"
        "child = os.fork()\n"
    )
    errors = lint_source(tmp_path, source)
    assert rules_of(errors) == ["process-isolation"] * 5
    assert "fixture.py:1" in errors[0]
    assert "host process identity" in errors[-1]


def test_process_isolation_exempts_the_sanctioned_layers(tmp_path):
    source = "import multiprocessing\nimport os\npid = os.getpid()\n"
    path = tmp_path / "repro" / "experiments" / "parallel.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    assert lint_repro.lint_file(path, tmp_path) == []
    # ...but a sibling experiments module gets no exemption.
    other = tmp_path / "repro" / "experiments" / "scaling.py"
    other.write_text(source)
    assert rules_of(lint_repro.lint_file(other, tmp_path)) == (
        ["process-isolation"] * 2
    )


def test_process_isolation_allows_benign_os_calls_and_suppression(tmp_path):
    clean = "import os\nn = os.cpu_count()\npath = os.getcwd()\n"
    assert lint_source(tmp_path, clean) == []
    suppressed = "import os\npid = os.getpid()  # lint: allow-process-isolation\n"
    assert lint_source(tmp_path, suppressed) == []


# -- suppression --------------------------------------------------------------
def test_allow_comment_suppresses_only_named_rule(tmp_path):
    source = (
        "import time\n"
        "t = time.time()  # lint: allow-wall-clock\n"
        "u = time.time()  # lint: allow-unsorted-set-iter\n"
    )
    errors = lint_source(tmp_path, source)
    assert rules_of(errors) == ["wall-clock"]
    assert "fixture.py:3" in errors[0]


def test_allow_comment_on_wrong_line_does_not_suppress(tmp_path):
    # Suppression is strictly per-line: a comment on the line above (or
    # below) the violation must not silence it.
    source = (
        "import time\n"
        "# lint: allow-wall-clock\n"
        "t = time.time()\n"
        "u = time.time()\n"
        "# lint: allow-wall-clock\n"
    )
    errors = lint_source(tmp_path, source)
    assert rules_of(errors) == ["wall-clock"] * 2
    assert "fixture.py:3" in errors[0] and "fixture.py:4" in errors[1]


def test_multiple_rules_fire_and_suppress_on_one_line(tmp_path):
    # One line can violate two rules; one allow comment can name both.
    source = "import time\nvals = [time.time() for v in {1, 2}]\n"
    assert sorted(rules_of(lint_source(tmp_path, source))) == [
        "unsorted-set-iter", "wall-clock",
    ]
    suppressed = (
        "import time\n"
        "vals = [time.time() for v in {1, 2}]"
        "  # lint: allow-wall-clock allow-unsorted-set-iter\n"
    )
    assert lint_source(tmp_path, suppressed) == []


def test_strict_clock_set_matches_nested_replay_paths(tmp_path):
    # The strict-clock rules key on the "repro/replay" path fragment, so
    # the real layout (src/repro/replay/...) must be covered too.
    replay_dir = tmp_path / "src" / "repro" / "replay"
    replay_dir.mkdir(parents=True)
    path = replay_dir / "fixture.py"
    path.write_text(
        "import time\n"
        "a = time.process_time()\n"
        "b = time.thread_time_ns()\n"
    )
    assert rules_of(lint_repro.lint_file(path, tmp_path)) == ["wall-clock"] * 2


# -- protocol wiring ----------------------------------------------------------
def wiring_tree(tmp_path, *, messages=None, kernel=None, statreg=None, extra=None):
    """Build a minimal src/repro tree and run the wiring pass over it."""
    dse = tmp_path / "src" / "repro" / "dse"
    sim = tmp_path / "src" / "repro" / "sim"
    dse.mkdir(parents=True)
    sim.mkdir(parents=True)
    (dse / "messages.py").write_text(messages if messages is not None else (
        "class MsgType(Enum):\n"
        "    GM_READ_REQ = 'gm_read_req'\n"
        "    GM_READ_RSP = 'gm_read_rsp'\n"
        "    PROC_DONE = 'proc_done'\n"
        "_REQUESTS = {t for t in MsgType if t.value.endswith('_req')} | "
        "{MsgType.PROC_DONE}\n"
        "_DATA_CLASS = frozenset({MsgType.GM_READ_REQ, MsgType.GM_READ_RSP})\n"
    ))
    (dse / "kernel.py").write_text(kernel if kernel is not None else (
        "def dispatch(t):\n"
        "    if t is MsgType.GM_READ_REQ: pass\n"
        "    if t is MsgType.PROC_DONE: pass\n"
    ))
    (sim / "statreg.py").write_text(statreg if statreg is not None else (
        "COUNTERS = frozenset({'delivered'})\nTALLIES = frozenset({'rtt'})\n"
    ))
    for name, source in (extra or {}).items():
        (tmp_path / "src" / "repro" / name).write_text(source)
    return lint_repro.lint_wiring(tmp_path)


def test_wiring_clean_fixture_passes(tmp_path):
    assert wiring_tree(tmp_path) == []


def test_wiring_flags_unknown_msgtype_reference(tmp_path):
    errors = wiring_tree(
        tmp_path, extra={"gmem.py": "x = MsgType.GM_RAED_RSP\n"}
    )
    assert rules_of(errors) == ["unknown-msg-type"]
    assert "GM_RAED_RSP" in errors[0]


def test_wiring_flags_unhandled_request_and_oneway(tmp_path):
    errors = wiring_tree(tmp_path, kernel="def dispatch(t):\n    pass\n")
    assert rules_of(errors) == ["unhandled-request"] * 2
    assert "GM_READ_REQ" in errors[0] and "PROC_DONE" in errors[1]


def test_wiring_accepts_register_service_as_handler(tmp_path):
    errors = wiring_tree(
        tmp_path,
        kernel="def dispatch(t):\n    if t is MsgType.GM_READ_REQ: pass\n",
        extra={
            "svc.py": "kernel.register_service(MsgType.PROC_DONE, handler)\n"
        },
    )
    assert errors == []


def test_wiring_flags_split_channel_pair(tmp_path):
    errors = wiring_tree(tmp_path, messages=(
        "class MsgType(Enum):\n"
        "    GM_READ_REQ = 'gm_read_req'\n"
        "    GM_READ_RSP = 'gm_read_rsp'\n"
        "_REQUESTS = {t for t in MsgType if t.value.endswith('_req')}\n"
        "_DATA_CLASS = frozenset({MsgType.GM_READ_REQ})\n"
    ), kernel="def dispatch(t):\n    if t is MsgType.GM_READ_REQ: pass\n")
    assert rules_of(errors) == ["channel-pairing"]
    assert "GM_READ_RSP" in errors[0]


def test_wiring_flags_undeclared_stat_key_and_suppression(tmp_path):
    errors = wiring_tree(tmp_path, extra={
        "gmem.py": (
            "def f(stats):\n"
            "    stats.counter('deliverd').increment()\n"
            "    stats.tally('rtt').record(1)\n"
            "    stats.counter('adhoc').increment()  # lint: allow-unknown-stat-key\n"
        ),
    })
    assert rules_of(errors) == ["unknown-stat-key"]
    assert "'deliverd'" in errors[0]


def test_wiring_checks_lazy_stat_keys(tmp_path):
    errors = wiring_tree(tmp_path, extra={
        "gmem.py": (
            "class G:\n"
            "    _c_ok = LazyStat('rtt', kind='tally')\n"
            "    _c_typo = LazyStat('deliverd', stats='machine.stats')\n"
        ),
    })
    assert rules_of(errors) == ["unknown-stat-key"]
    assert "'deliverd'" in errors[0]


def test_repo_wiring_is_clean():
    assert lint_repro.lint_wiring(REPO_ROOT) == []


# -- whole-tree gate ----------------------------------------------------------
def test_repo_source_lints_clean():
    targets = [
        REPO_ROOT / "src" / "repro",
        REPO_ROOT / "tools",
        REPO_ROOT / "benchmarks",
    ]
    checked, errors = lint_repro.lint_paths(targets, REPO_ROOT)
    assert checked > 50
    assert errors == []


def test_main_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    assert lint_repro.main(["lint_repro.py", str(clean)]) == 0
    assert lint_repro.main(["lint_repro.py", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "1 violation(s)" in out
