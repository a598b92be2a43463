"""Smoke tests of the benchmark itself, at a tiny training length.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY_ITERS = 25


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run(name, trace, sites=None):
    return run.run_workload(name, seed=0, seconds=0, trace=trace, iterations=TINY_ITERS, sites=sites)


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name):
    result, lines = _run(name, trace=0)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 3  # gradcheck + 2 cycles
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name):
    # correct also means the traced cycle's metrics trace equals the untraced one's
    result, lines = _run(name, trace=1)
    assert result["correct"], lines
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    assert metrics["tensor.nodes_per_step"]["value"] > 0
    assert metrics["networks.forward.calls_per_step"]["value"] >= 10


def test_rescaling_cancels_a_uniformly_slower_machine():
    run.import_program()
    import numpy as np
    import workloads

    rng = np.random.default_rng(0)
    segments = rng.uniform(3e-3, 8e-3, 2 * workloads.SPEED_BLOCK + 1)
    refs = rng.uniform(1e-4, 2e-4, 2 * workloads.SPEED_BLOCK)
    scaled = workloads.scale_segments(segments, refs)
    assert np.allclose(workloads.scale_segments(1.6 * segments, 1.6 * refs), scaled)
    first = slice(0, workloads.SPEED_BLOCK)
    assert np.allclose(
        scaled[first], segments[first] * workloads.REFERENCE_S / np.median(refs[first])
    )


def test_ablation_selects_nothing():
    result, lines = _run("blobs-ablation", trace=1)
    assert result["correct"], lines
    metrics = result["metrics"]
    assert metrics["pseudo_label.select_high_confidence.self_ms_per_step"]["value"] == 0
    assert metrics["pseudo_label.selected_frac"]["value"] == 0


def test_wrapper_where_no_caller_looks_fails_the_traced_run():
    dcp = run.import_program()
    import tracer

    sites = [
        tracer.Site(dcp.pseudo_label, s.attr, s.span) if s.attr == "kmeans_assign" else s
        for s in tracer.default_sites(dcp)
    ]
    result, lines = _run("blobs", trace=1, sites=sites)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("pseudo_label.kmeans_assign recorded zero calls" in line for line in lines)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    argv = [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "0",
            "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert "correct" not in out.stdout
