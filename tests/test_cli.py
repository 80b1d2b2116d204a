"""Tests for the ``dse-experiments`` command surface: the subcommand
registry, its help, knob refusals, and the lazy-import boundary."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import SUBCOMMANDS, main

REPO = Path(__file__).resolve().parents[1]


def _exit_code(argv):
    """``main(argv)``'s status, whether it returns or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_every_subcommand_answers_help(name, capsys):
    assert _exit_code([name, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: dse-experiments {name} ")


def test_top_level_help_lists_every_subcommand(capsys):
    assert _exit_code(["--help"]) == 0
    out = capsys.readouterr().out
    assert [name for name in SUBCOMMANDS if name not in out] == []


def test_list_output_is_unchanged(capsys):
    assert main(["--list"]) == 0
    assert capsys.readouterr().out == (
        "available figures: table1 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 "
        "fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["live", "--platform", "bogus", "--out", "unused.jsonl"],
        ["scale", "--platform", "bogus", "--nodes", "2", "--size", "8", "--no-cache"],
        ["replay", "--platform", "bogus"],
        ["traffic", "--cluster", "--transport", "bogus", "--requests", "4"],
        ["trace", "--processors", "0", "--out", "unused.json"],
    ],
)
def test_bad_knob_values_are_refused_with_a_reason(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert f"dse-experiments {argv[0]}: error: " in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_traffic_cluster_keeps_an_explicit_request_count(monkeypatch):
    seen = _fake_cluster_run(monkeypatch)
    assert main(["traffic", "--cluster", "--requests", "120000"]) == 0
    assert main(["traffic", "--cluster"]) == 0
    assert [kw["n_requests"] for kw in seen] == [120_000, 200]


#: a valid value for each mode flag of ``traffic`` (None: a switch)
_MODE_FLAG_VALUES = {
    "--crashes": "1", "--policies": "jsq", "--jobs": "2", "--fast": None,
    "--loads": "0.5", "--elastic": None, "--no-cache": None,
    "--transport": "sr", "--loss": "0.02", "--p-exit": "0.5", "--rate": "10",
    "--mean-service": "0.1", "--placement": "least-loaded", "--payload": "8",
}


def _fake_cluster_run(monkeypatch):
    """Replace the full-stack run; returns the list of its keyword sets."""
    from repro.traffic import cluster_backend

    seen = []

    def fake_run(**kwargs):
        seen.append(kwargs)
        return {"transport": kwargs["transport"], "count": kwargs["n_requests"],
                "mean": 0.0, "p50": 0.0, "p99": 0.0, "goodput_rps": 0.0,
                "elapsed": 0.0}

    monkeypatch.setattr(cluster_backend, "run_cluster_traffic", fake_run)
    return seen


def test_mode_flag_table_covers_every_value():
    from repro.traffic.cli import MODE_FLAGS

    assert sorted(MODE_FLAGS["sweep"] + MODE_FLAGS["cluster"]) == sorted(_MODE_FLAG_VALUES)


@pytest.mark.parametrize("flag", sorted(_MODE_FLAG_VALUES))
def test_traffic_refuses_the_other_modes_flags(flag, capsys, tmp_path, monkeypatch):
    from repro.traffic.cli import MODE_FLAGS

    monkeypatch.chdir(tmp_path)
    seen = _fake_cluster_run(monkeypatch)
    value = _MODE_FLAG_VALUES[flag]
    given = [flag] if value is None else [flag, value]
    cluster_flag = flag in MODE_FLAGS["cluster"]
    argv = ["traffic", "--requests", "4", *given] + ([] if cluster_flag else ["--cluster"])
    assert _exit_code(argv) == 2
    other = "cluster" if cluster_flag else "sweep"
    assert capsys.readouterr().err == (
        f"dse-experiments traffic: error: {flag} applies to {other} mode only\n"
    )
    assert seen == [] and not list(tmp_path.iterdir())


def test_traffic_cluster_mode_flags_and_their_defaults(monkeypatch):
    seen = _fake_cluster_run(monkeypatch)
    assert main(["traffic", "--cluster", "--requests", "4"]) == 0
    argv = ["traffic", "--cluster", "--requests", "4"]
    for flag in ("--transport", "--loss", "--placement", "--payload"):
        argv += [flag, _MODE_FLAG_VALUES[flag]]
    assert main(argv) == 0
    pick = ("transport", "p_enter_bad", "p_exit_bad", "placement", "payload_words")
    assert [tuple(kw[k] for k in pick) for kw in seen] == [
        ("datagram", 0.0, 0.25, "rr", 0),
        ("sr", 0.02, 0.25, "least-loaded", 8),
    ]


def test_replay_refusal_goes_to_stderr(capsys):
    argv = ["replay", "--workload", "gauss-seidel", "--worst", "no.such.span"]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "dse-experiments replay: error: no spans named 'no.such.span'"
    )
    assert "no.such.span" not in captured.out


def test_replay_load_of_a_missing_file_goes_to_stderr(tmp_path, capsys):
    missing = tmp_path / "missing.replay"
    assert _exit_code(["replay", "--load", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"dse-experiments replay: error: {missing}: No such file or directory"
    )
    assert "Traceback" not in captured.err


def test_simulation_packages_do_not_import_the_cli():
    code = (
        "import sys, repro.dse, repro.apps, repro.traffic\n"
        "bad = [m for m in sys.modules if m == 'argparse'"
        " or m.startswith(('repro.experiments', 'repro.replay'))]\n"
        "assert not bad, bad\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        check=True,
    )
