"""Tests of the benchmark itself (not of repro).

Run from the repository root::

    python3 -m pytest -q hostbench/test_hostbench.py

The seed and cache tests run every workload three times, about a minute
and a half in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (HERE, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

import spec  # noqa: E402
import workloads  # noqa: E402
from layertrace import HOST, LayerTracer  # noqa: E402

CACHE_DIR = os.path.join(ROOT, ".repro_cache")


def _cache_state():
    """(path, size, mtime) of everything under .repro_cache/."""
    state = []
    for base, dirs, files in os.walk(CACHE_DIR):
        for name in dirs + files:
            path = os.path.join(base, name)
            st = os.stat(path)
            state.append((path, st.st_size, st.st_mtime_ns))
    return sorted(state)


@pytest.fixture
def cache_sentinel():
    """Make sure .repro_cache/ exists with one entry, like a used checkout."""
    os.makedirs(CACHE_DIR, exist_ok=True)
    sentinel = os.path.join(CACHE_DIR, "hostbench-sentinel.json")
    created = not os.path.exists(sentinel)
    if created:
        with open(sentinel, "w") as fh:
            fh.write("{}\n")
    yield
    if created:
        os.remove(sentinel)


def test_spec_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(spec.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spec.PER_LAYER


def test_reference_kernel_never_imports_repro():
    code = (
        "import sys, refkernel; p = refkernel.SpeedProbe(); p.measure(1); "
        "assert p.scale() > 0; "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'repro'], sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True, timeout=60)


def test_block_reference_with_one_block_is_gauss_seidel():
    from repro.apps.gauss_seidel import gauss_seidel_seq, make_system

    a, b = make_system(40, 3)
    want, _ = gauss_seidel_seq(a, b, 4)
    got = workloads.block_gauss_seidel(a, b, [(0, 40)], 4)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_layer_tracer_charges_repro_packages_and_keeps_results():
    from repro.apps.gauss_seidel import gauss_seidel_worker
    from repro.dse import ClusterConfig, run_parallel

    def run():
        res = run_parallel(ClusterConfig(n_processors=3), gauss_seidel_worker, args=(24, 2))
        return res.sim_events, res.elapsed, res.returns[0]["x"].tolist()

    plain = run()
    tracer = LayerTracer(os.path.join(ROOT, "src", "repro"))
    tracer.start()
    try:
        traced = run()
    finally:
        tracer.stop()
    assert traced == plain
    for layer in ("sim", "dse", "osmodel", "network", "protocol", "apps"):
        assert tracer.calls[layer] > 0, layer
        assert tracer.self_s[layer] > 0.0, layer
    assert HOST not in tracer.calls
    assert tracer.repro_total() > 0.0


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_seeds_fix_the_simulated_fingerprint(name, cache_sentinel, monkeypatch):
    """Same seed, same fingerprint; another seed, another; no sweep runner
    or result cache involved, and .repro_cache/ left as it was."""
    from repro.experiments import parallel

    def refuse(*args, **kwargs):
        raise AssertionError("the benchmark must not use the sweep runner or its cache")

    monkeypatch.setattr(parallel, "run_tasks", refuse)
    monkeypatch.setattr(parallel.ResultCache, "__init__", refuse)
    before = _cache_state()
    wl = workloads.WORKLOADS[name]()
    seeds = [workloads.op_seed(1, 0), workloads.op_seed(1, 0), workloads.op_seed(2, 0)]
    prints = []
    for seed in seeds:
        out = wl.run(seed)
        assert wl.check(out, seed) == []
        prints.append(wl.fingerprint(out))
    assert prints[0] == prints[1]
    assert prints[0] != prints[2]
    assert _cache_state() == before


def test_run_prints_result_and_leaves_repro_cache_untouched(cache_sentinel):
    before = _cache_state()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "traffic_sweep",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    log, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: m["unit"] for k, m in result["metrics"].items()} == spec.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert {"machine", "python", "cpus"} <= set(log["stamp"])
    assert all(p["cpu_s"] > 0 and p["wall_s"] > 0 for p in log["passes"])
    assert _cache_state() == before


def test_run_refuses_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "paper_bus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
