"""CI keeps running the paper's figure and table benchmarks.

Each ``benchmarks/bench_fig*.py`` and ``benchmarks/bench_table*.py`` holds
the paper-shape checks of one figure group; a file no CI job names is an
assertion nobody re-executes.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_figure_and_table_bench_runs_in_ci():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    benches = sorted(
        p.relative_to(ROOT).as_posix()
        for pattern in ("bench_fig*.py", "bench_table*.py")
        for p in (ROOT / "benchmarks").glob(pattern)
    )
    assert benches, "no figure benchmarks found"
    missing = [b for b in benches if b not in workflow]
    assert not missing, f"benchmarks no CI job runs: {missing}"
