"""Smoke tests of the scripts the README points to: each runs and prints its summary."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from dcp.datasets import ShiftSpec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, summary",
    [
        ("run_transfer_benchmark.py", ["--seeds", "1", "--iters", "30", "--probe-t", "10"],
         "gap per seed"),
        ("run_moons_demo.py", ["--iters", "30"], "T      src_acc"),
    ],
)
def test_script_runs_and_prints_summary(script, args, summary):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert summary in result.stdout


@pytest.mark.parametrize(
    "args, message",
    [
        (["--translation", "1,x"], "--translation must be comma-separated numbers"),
        (["--seeds", "0"], "--seeds must be at least 1"),
        (["--iters", "0"], "--iters must be at least 1"),
        (["--k", "1"], "need at least 2 classes"),
    ],
)
def test_transfer_benchmark_rejects_bad_arguments(args, message):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_transfer_benchmark.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("usage: run_transfer_benchmark.py ")
    assert message in result.stderr and "Traceback" not in result.stderr


def _import_script(name):
    sys.path.insert(0, str(SCRIPTS))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(SCRIPTS))


@pytest.mark.parametrize("full", [True, False], ids=["full", "baseline"])
def test_run_arm_returns_accuracy_runtime_and_probe(full):
    run_arm = _import_script("run_transfer_benchmark").run_arm
    result = run_arm(ShiftSpec(n_per_class=30, seed=0), full, iterations=30, probe_t=10)
    assert set(result) == {
        "target_acc", "runtime", "pseudo_precision", "adv_precision", "clu_precision"
    }
    assert 0.0 <= result["target_acc"] <= 1.0 and result["runtime"] > 0.0
    # the baseline selects no pseudo-labels, so their precision is absent
    assert (result["pseudo_precision"] is None) is not full


def _perfbench_stdout(seed, train_s, correct=True):
    """The shape of one ``perfbench/run.py --trace 0`` stdout."""
    result = {
        "correct": correct,
        "attempted": 3,
        "failed": 0 if correct else 1,
        "metrics": {"train_s": {"value": train_s, "unit": "s"}},
    }
    return "\n".join(
        [
            f"perfbench workload=blobs seed={seed} seconds=55 trace=0",
            'env {"blas": {"threads": 2}, "python": "3.11"}',
            "cycles untraced=3 traced=0 iterations_timed=4500",
            f"metrics_trace_sha256 hash{seed}",
            f"metric train_s {train_s!r} s",
            "wall train_s 7.5 s",
            "wall reference_s 0.0003 s",
            f"quality target_acc 0.95 fraction (seed {seed}; reported, not gated)",
            "quality pseudo_precision_t200 None fraction",
            "fail_frac 0.0 fraction (0 of 3 operations)",
            json.dumps(result),
        ]
    )


def test_bench_record_summarizes_perfbench_stdout():
    bench_record = _import_script("bench_record")
    runs = {
        seed: bench_record.parse_run(_perfbench_stdout(seed, t, correct=seed != 2))
        for seed, t in enumerate([6.0, 5.0, 7.0, 9.0])
    }
    assert runs[0]["env"]["blas"]["threads"] == 2
    assert runs[0]["quality"] == {"target_acc": 0.95, "pseudo_precision_t200": None}
    summary = bench_record.summarize(runs)
    train_s = summary["end_to_end"]["train_s"]
    assert train_s["median"] == 6.5 and train_s["iqr"] == 7.5 - 5.75
    assert train_s["values"] == {0: 6.0, 1: 5.0, 2: 7.0, 3: 9.0}
    assert summary["correct_runs"] == 3 and summary["runs"] == 4
    assert summary["metrics_trace_sha256"][3] == "hash3"
    assert summary["fail_frac"][0] == 0.0
    assert runs[0]["wall"] == {"train_s": 7.5, "reference_s": 0.0003}


def test_bench_record_step_shares_do_not_move_with_the_machine_speed():
    bench_record = _import_script("bench_record")
    run = bench_record.parse_run(_perfbench_stdout(0, 5.0))
    times = dict(zip(bench_record.STEP_LAYERS, [0.3, 0.35, 0.37, 0.25, 0.2, 0.1, 0.3, 0.4, 0.9]))
    shares = []
    for factor in (1.0, 1.7):
        metrics = {name: {"value": t * factor, "unit": "ms"} for name, t in times.items()}
        # outside the step: neither a share nor part of the sum
        metrics["networks.branch_outputs.ms_per_call"] = {"value": 9.0, "unit": "ms"}
        run["result"]["metrics"] = metrics
        shares.append(bench_record.step_shares(run))
    plain, slower = shares
    assert list(plain) == list(bench_record.STEP_LAYERS)
    assert plain["tensor.backward.main_ms_per_step"] == pytest.approx(0.9 / 3.17)
    assert slower == pytest.approx(plain)
    assert sum(plain.values()) == pytest.approx(1.0)


def test_bench_record_times_the_cli_train_and_eval():
    bench_record = _import_script("bench_record")
    times = bench_record.cli_wall_times(SCRIPTS.parent, iterations=3)
    assert set(times) == {"train_s", "eval_s", "checkpoint_bytes"}
    for entry in times.values():
        assert len(entry["values"]) == bench_record.CLI_RUNS == 3
        assert all(t > 0.0 for t in entry["values"])
        assert entry["median"] == sorted(entry["values"])[1]
    # training is deterministic, so every run writes the same checkpoint
    sizes = times["checkpoint_bytes"]
    assert sizes["unit"] == "B" and len(set(sizes["values"])) == 1
    assert isinstance(sizes["median"], int)


def test_bench_record_times_and_counts_a_pytest_run(tmp_path):
    bench_record = _import_script("bench_record")
    (tmp_path / "test_tiny.py").write_text(
        "def test_passes():\n    pass\n\n\n"
        "def test_also_passes():\n    pass\n\n\n"
        "def test_fails():\n    assert False\n",
        encoding="utf-8",
    )
    run = bench_record.pytest_wall(tmp_path, ["test_tiny.py"])
    assert run["paths"] == ["test_tiny.py"]
    assert (run["passed"], run["failed"], run["errors"]) == (2, 1, 0)
    assert run["exit_code"] == 1
    assert run["wall_s"] > 0.0


def test_bench_record_runs_pytest_on_a_forced_blas_kernel(tmp_path):
    bench_record = _import_script("bench_record")
    (tmp_path / "test_kernel.py").write_text(
        "import os\n\n\n"
        "def test_kernel_is_forced():\n    assert os.environ['OPENBLAS_CORETYPE'] == 'Haswell'\n",
        encoding="utf-8",
    )
    run = bench_record.pytest_wall(tmp_path, ["test_kernel.py"], coretype="Haswell")
    assert run["openblas_coretype"] == "Haswell"
    assert (run["passed"], run["failed"], run["errors"]) == (1, 0, 0)


def test_bench_record_reports_an_uncommitted_edit(tmp_path, capsys):
    bench_record = _import_script("bench_record")

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), *args], capture_output=True, check=True)

    git("init", "-q")
    (tmp_path / "tracked.txt").write_text("one\n", encoding="utf-8")
    git("add", "tracked.txt")
    git("-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "-m", "one")
    commit, status = bench_record.git_state(tmp_path)
    assert len(commit) == 40 and status == []
    assert capsys.readouterr().err == ""
    (tmp_path / "tracked.txt").write_text("two\n", encoding="utf-8")
    assert bench_record.git_state(tmp_path) == (commit, [" M tracked.txt"])
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and " M tracked.txt" in err


@pytest.mark.parametrize("kernel, expected", [("Haswell", "hash0"), ("SkylakeX", None)])
def test_bench_record_hashes_seed_zero_on_the_haswell_kernel(monkeypatch, kernel, expected):
    bench_record = _import_script("bench_record")
    calls = []

    def fake_run_perfbench(checkout, workload, seed, seconds, trace, env=None):
        calls.append((workload, seed, seconds, trace, env))
        run = bench_record.parse_run(_perfbench_stdout(seed, 5.0))
        run["env"]["blas"]["config"] = f"OpenBLAS 0.3 DYNAMIC_ARCH {kernel} MAX_THREADS=64"
        return run

    monkeypatch.setattr(bench_record, "run_perfbench", fake_run_perfbench)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert bench_record.haswell_trace_sha256(SCRIPTS.parent, "blobs") == expected
    ((workload, seed, seconds, trace, env),) = calls
    assert (workload, seed, seconds, trace) == ("blobs", 0, 1, 0)
    # the caller's environment, with the kernel forced
    assert env["OPENBLAS_CORETYPE"] == "Haswell" and env["OPENBLAS_NUM_THREADS"] == "2"


def test_bench_record_compares_trace_hashes_with_the_previous_record(capsys):
    bench_record = _import_script("bench_record")
    # a loaded BENCH file keys seeds by string; a fresh record by int
    previous = {"label": "pr13", "workloads": {
        "blobs": {"metrics_trace_sha256": {"0": "a0", "1": "a1"}, "haswell_trace_sha256": "h"},
        "blobs-ablation": {"metrics_trace_sha256": {"0": "b0", "1": "b1"},
                           "haswell_trace_sha256": "g"},
    }}
    workloads = {
        "blobs": {"metrics_trace_sha256": {0: "a0", 1: "a1"}, "haswell_trace_sha256": "h"},
        "blobs-ablation": {"metrics_trace_sha256": {0: "b0", 1: "new"},
                           "haswell_trace_sha256": None},
    }
    comparison = bench_record.compare_traces(workloads, previous)
    assert comparison["against"] == "pr13" and comparison["compared"] == 6
    assert comparison["mismatches"] == [
        {"workload": "blobs-ablation", "hash": "seed 1", "this": "new", "previous": "b1"},
        {"workload": "blobs-ablation", "hash": "haswell", "this": None, "previous": "g"},
    ]
    bench_record.print_comparison(comparison)
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "trace mismatch against pr13: blobs-ablation seed 1: new != b1"
    assert lines[-1] == "traces: 2 of 6 differ from pr13"
    assert len(lines) == 3
    written = json.loads(json.dumps({"label": "pr14", "workloads": workloads}))
    same = bench_record.compare_traces(workloads, written)
    assert same["mismatches"] == [] and same["compared"] == 6


@pytest.mark.parametrize("label, expected", [
    ("pr14", "BENCH_pr13.json"), ("pr10", "BENCH_pr9.json"), ("pr5", None), ("main", None),
])
def test_bench_record_finds_the_newest_committed_record_below_its_label(label, expected):
    bench_record = _import_script("bench_record")
    found = bench_record.previous_record(label)
    assert (found and found.name) == expected


def _pairs_run(seed, train_s, eval_s, sha="same", correct=True):
    run = _import_script("bench_record").parse_run(_perfbench_stdout(seed, train_s, correct))
    run["result"]["metrics"]["eval_s"] = {"value": eval_s, "unit": "s"}
    run["metrics_trace_sha256"] = sha
    return run


def test_bench_pairs_alternates_sides_and_counts_wins(monkeypatch, tmp_path, capsys):
    bench_pairs = _import_script("bench_pairs")
    # a repository whose HEAD is the parent and whose working tree is faster
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-C", str(repo), *args], capture_output=True, check=True)

    git("init", "-q")
    spec = {"run_seconds": 2, "workloads": [{"name": "blobs"}], "end_to_end": [
        {"name": "train_s", "better": "lower", "bound": 0.5},
        {"name": "eval_s", "better": "lower", "bound": 0.1}]}
    (repo / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    (repo / "side.txt").write_text("parent\n", encoding="utf-8")
    git("add", ".")
    git("-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "-m", "one")
    (repo / "side.txt").write_text("tree\n", encoding="utf-8")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)

    calls = []
    parent_train = [6.0, 5.0, 7.0, 9.0, 8.0, 6.5, 5.5, 7.5, 4.0, 6.0]

    def fake_run_perfbench(checkout, workload, seed, seconds, trace, env=None):
        side = (checkout / "side.txt").read_text(encoding="utf-8").strip()
        calls.append((side, workload, seed, seconds, trace))
        i = seed - 40
        if side == "parent":
            return _pairs_run(seed, parent_train[i], 1.0)
        # faster on nine pairs of ten, and the same eval time
        return _pairs_run(seed, parent_train[i] - (1.0 if i < 9 else -1.0), 1.0)

    monkeypatch.setattr(bench_pairs, "run_perfbench", fake_run_perfbench)
    assert bench_pairs.main(["--parent", "HEAD", "--label", "t", "--first-seed", "40"]) == 0
    # ten pairs of BENCHMARK.json's run length; the parent first on even
    # pairs, the tree first on odd ones; one seed a pair
    assert [(side, seed) for side, _, seed, _, _ in calls] == [
        (side, 40 + i) for i in range(10)
        for side in (("parent", "tree") if i % 2 == 0 else ("tree", "parent"))
    ]
    assert {(w, s, t) for _, w, _, s, t in calls} == {("blobs", 2, 0)}

    record = json.loads((repo / "PAIRS_t.json").read_text(encoding="utf-8"))
    assert len(record["parent_commit"]) == 40 and record["tree_git_status"] == [" M side.txt"]
    assert record["seconds"] == 2
    blobs = record["workloads"]["blobs"]
    assert blobs["seeds"] == list(range(40, 50))
    assert blobs["first"] == ["parent", "tree"] * 5
    assert blobs["all_correct"] and blobs["same_trace_hash"]
    train_s = blobs["metrics"]["train_s"]
    assert train_s["parent_median"] == 6.25 and train_s["tree_median"] == 5.75
    assert train_s["parent_iqr"] == 7.375 - 5.625
    assert (train_s["wins"], train_s["pairs"]) == (9, 10)
    # equal values are not wins
    assert blobs["metrics"]["eval_s"]["wins"] == 0
    assert set(blobs["metrics"]) == {"train_s", "eval_s"}
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "blobs: every run correct: True; every pair's trace hash equal: True"
    assert out[1] == ("blobs train_s: parent 6.25 tree 5.75 (-8.0%), parent IQR 28.0%, "
                      "tree lower in 9 of 10 pairs; verdicts: none")


def test_bench_pairs_flags_a_failed_run_and_a_changed_trace():
    bench_pairs = _import_script("bench_pairs")
    pairs = [
        {"seed": 0, "first": "parent", "parent": _pairs_run(0, 5.0, 1.0),
         "tree": _pairs_run(0, 4.0, 1.0, sha="other")},
        {"seed": 1, "first": "tree", "parent": _pairs_run(1, 5.0, 1.0),
         "tree": _pairs_run(1, 4.0, 1.0, correct=False)},
    ]
    comparison = bench_pairs.compare(pairs, {"train_s": {"better": "higher", "bound": 0.1}})
    assert not comparison["all_correct"] and not comparison["same_trace_hash"]
    assert comparison["metrics"]["train_s"]["wins"] == 0


def test_bench_pairs_verdicts_gain_worse_and_unresolved():
    bench_pairs = _import_script("bench_pairs")
    spec = {"train_s": {"better": "lower", "bound": 0.15}, "eval_s": {"better": "lower", "bound": 0.25}}

    def verdicts(parent, tree, metric="eval_s"):
        pairs = [
            {"seed": i, "first": "parent", "parent": _pairs_run(i, p, p), "tree": _pairs_run(i, t, t)}
            for i, (p, t) in enumerate(zip(parent, tree))
        ]
        m = bench_pairs.compare(pairs, spec)["metrics"][metric]
        return {v for v in bench_pairs.VERDICTS if m[v]}, m

    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    # 10% lower in nine pairs of ten, against a 2% IQR
    held, m = verdicts(steady, [v * 0.9 for v in steady[:9]] + [1.1])
    assert held == {"gain_met"} and m["wins"] == 9
    # lower in every pair but by less than the parent's IQR
    assert verdicts(steady, [v - 0.005 for v in steady])[0] == set()
    # a median past the gain but lower in only eight pairs
    assert verdicts(steady, [v * 0.9 for v in steady[:8]] + [1.1, 1.1])[0] == set()
    # 30% slower against eval_s's 25% bound, and 20% slower within it
    assert verdicts(steady, [v * 1.3 for v in steady])[0] == {"worse"}
    assert verdicts(steady, [v * 1.2 for v in steady])[0] == set()
    # train_s's 15% bound holds the same 20% as worse
    assert verdicts(steady, [v * 1.2 for v in steady], "train_s")[0] == {"worse"}
    # the parent spreads over 40% between its quartiles: wider than the bound
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.6, 1.4, 1.0, 1.0]
    held, m = verdicts(wide, wide)
    assert held == {"unresolved"} and m["parent_iqr"] > 0.25 * m["parent_median"]
    line = bench_pairs.report_lines("blobs", {"all_correct": True, "same_trace_hash": True,
                                              "metrics": {"eval_s": m}})[1]
    assert line.endswith("tree lower in 0 of 10 pairs; verdicts: unresolved")
    # a higher-is-better metric counts the gain upwards
    spec["eval_s"]["better"] = "higher"
    assert verdicts(steady, [v * 1.1 for v in steady])[0] == {"gain_met"}
    assert verdicts(steady, [v * 0.7 for v in steady])[0] == {"worse"}
