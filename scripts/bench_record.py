#!/usr/bin/env python3
"""Record the benchmark's numbers for one commit in ``BENCH_<label>.json``.

    python3 scripts/bench_record.py --label pr6
    python3 scripts/bench_record.py --label pr5 --checkout /path/to/parent/checkout

Runs ``perfbench/run.py`` of the checkout (default: the repository this
script sits in): ``--trace 0`` on seeds 0-9 of every workload that
``BENCHMARK.json`` declares, then ``--trace 1`` on seed 0. Every number in
the file comes from perfbench's stdout: the median and IQR over seeds of each
end-to-end metric, the per-layer metrics of the traced run and its ``wall``
lines, the quality report lines, each seed's metrics-trace hash, and the
environment line with the BLAS thread count. The traced run's per-layer
times are wall times, so they move with the machine's speed; the file also
keeps each in-step layer's share of the step (``STEP_LAYERS``), which a
uniformly slower machine does not move, so two records' layers compare. A
short run of seed 0 per workload with
``OPENBLAS_CORETYPE=Haswell`` adds its trace hash under that kernel. The
commit is the checkout's git HEAD. The file also holds the median wall time,
over three runs, of ``dcp train`` and ``dcp eval`` at their defaults on the
blob pair that ``dcp gen-data`` writes by default, each run a fresh
interpreter on the checkout's sources (``cli_wall``), the size of the
checkpoint that ``dcp train`` wrote, and the wall time and pass/fail counts
of one run of the tier-1 test command, of one more with
``OPENBLAS_CORETYPE=Haswell`` (a test that pins bits of one BLAS kernel
fails there), and of one run of the acceptance suite alone (``tests/test_acceptance.py``). Next to the
commit it keeps the checkout's ``git status --porcelain`` lines, empty for a
clean tree. For a label ``pr<N>``, every seed's metrics-trace hash and each
workload's Haswell hash are compared with those of the newest committed
``BENCH_pr<M>.json`` with M < N; each mismatch prints a line, and the
comparison is kept as ``trace_comparison``. The file is written at the root
of the repository this script sits in.

``cli_wall``'s runs are neither alternated with a parent's nor rescaled to a
reference speed, so they move with the machine and cannot back a claim:
``BENCH_pr28.json`` read ``dcp eval`` +32% on a slowed machine, while
alternating runs of both sides read 0.282 s against 0.281 s. Compare
revisions with ``bench_pairs.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)
CLI_RUNS = 3
HASWELL_SECONDS = 1
# The tier-1 test command (see ROADMAP.md), without the paths it is given.
PYTEST_ARGS = ("-m", "pytest", "-q", "--continue-on-collection-errors")
ACCEPTANCE_TESTS = ("tests/test_acceptance.py",)
# The traced run's in-step times, in ms per step: every traced layer's self
# time inside ``train_step`` and both backward passes, which run the graph's
# rules. Together they cover the step.
STEP_LAYERS = (
    "trainer.train_step.self_ms_per_step",
    "networks.forward.self_ms_per_step",
    "losses.self_ms_per_step",
    "centroids.self_ms_per_step",
    "pseudo_label.kmeans_assign.self_ms_per_step",
    "pseudo_label.select_high_confidence.self_ms_per_step",
    "trainer.apply_sgd_update.self_ms_per_step",
    "tensor.backward.disc_ms_per_step",
    "tensor.backward.main_ms_per_step",
)


def parse_run(stdout: str) -> dict:
    """The parts of one perfbench run's stdout that the record keeps."""
    lines = stdout.strip().splitlines()
    run = {"result": json.loads(lines[-1]), "quality": {}}
    for line in lines[:-1]:
        head, _, rest = line.partition(" ")
        if head == "env":
            run["env"] = json.loads(rest)
        elif head == "metrics_trace_sha256":
            run["metrics_trace_sha256"] = rest
        elif head == "quality":
            name, value = rest.split()[:2]
            run["quality"][name] = None if value == "None" else float(value)
        elif head == "fail_frac":
            run["fail_frac"] = float(rest.split()[0])
        elif head == "wall":
            name, value = rest.split()[:2]
            run.setdefault("wall", {})[name] = float(value)
    return run


def step_shares(run: dict) -> dict:
    """Each of the traced run's ``STEP_LAYERS`` times divided by their sum."""
    times = {name: run["result"]["metrics"][name]["value"] for name in STEP_LAYERS}
    total = sum(times.values())
    return {name: t / total for name, t in times.items()}


def summarize(runs: dict[int, dict]) -> dict:
    """Median and IQR over seeds of every end-to-end metric, plus per-seed lines."""
    metrics: dict[str, dict] = {}
    for seed, run in runs.items():
        for name, m in run["result"]["metrics"].items():
            entry = metrics.setdefault(name, {"unit": m["unit"], "values": {}})
            entry["values"][seed] = m["value"]
    for entry in metrics.values():
        q1, median, q3 = np.percentile(list(entry["values"].values()), [25, 50, 75])
        entry.update(median=float(median), iqr=float(q3 - q1))
    return {
        "end_to_end": metrics,
        "correct_runs": sum(run["result"]["correct"] for run in runs.values()),
        "runs": len(runs),
        "quality": {seed: run["quality"] for seed, run in runs.items()},
        "fail_frac": {seed: run.get("fail_frac") for seed, run in runs.items()},
        "metrics_trace_sha256": {seed: run.get("metrics_trace_sha256") for seed, run in runs.items()},
    }


def run_perfbench(
    checkout: Path, workload: str, seed: int, seconds: float, trace: int, env: dict | None = None
) -> dict:
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    run = parse_run(proc.stdout)
    status = "correct" if run["result"]["correct"] else "NOT correct"
    print(f"{workload} seed={seed} trace={trace}: {status}", file=sys.stderr, flush=True)
    return run


def haswell_trace_sha256(checkout: Path, workload: str) -> str | None:
    """Seed 0's metrics-trace hash with OpenBLAS forced to its Haswell kernel.

    A trace hash pins the bits for one BLAS kernel only, and every AVX2 CPU
    can run this one, so the hash can be checked on another machine. One
    short run (``HASWELL_SECONDS``, perfbench's minimum of two cycles) is
    enough: every cycle trains the same seeded run. ``None``, with a warning,
    when the BLAS does not report that kernel.
    """
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    run = run_perfbench(checkout, workload, 0, HASWELL_SECONDS, 0, env=env)
    if "Haswell" not in run["env"]["blas"].get("config", ""):
        print(f"warning: OPENBLAS_CORETYPE=Haswell was not honoured: {run['env']['blas']}",
              file=sys.stderr, flush=True)
        return None
    return run["metrics_trace_sha256"]


def cli_wall_times(checkout: Path, iterations: int | None = None) -> dict:
    """Wall seconds of ``dcp train`` and ``dcp eval`` on a ``dcp gen-data`` pair.

    ``CLI_RUNS`` runs of each; ``iterations`` shortens training (default: the
    CLI's own). Every command runs the checkout's ``src/`` in a new process.
    ``checkpoint_bytes`` is the size of the checkpoint each training run wrote.
    """
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))

    def dcp(*args: str) -> float:
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-m", "dcp.cli", *args],
            cwd=checkout, env=env, capture_output=True, text=True, check=True,
        )
        return perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        data, run = Path(tmp, "data"), Path(tmp, "run")
        dcp("gen-data", "--out-dir", str(data))
        train_args = ["train", "--source", str(data / "source.csv"),
                      "--target", str(data / "target.csv"), "--out-dir", str(run)]
        if iterations is not None:
            train_args += ["--iters", str(iterations)]
        eval_args = ["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--data", str(data / "target.csv"), "--out-dir", str(run)]
        times: dict[str, list[float]] = {"train_s": [], "eval_s": []}
        sizes = []
        for _ in range(CLI_RUNS):
            times["train_s"].append(dcp(*train_args))
            sizes.append((run / "checkpoint.json").stat().st_size)
            times["eval_s"].append(dcp(*eval_args))
    record = {
        name: {"unit": "s", "values": values, "median": statistics.median(values)}
        for name, values in times.items()
    }
    record["checkpoint_bytes"] = {"unit": "B", "values": sizes, "median": statistics.median(sizes)}
    return record


def pytest_wall(checkout: Path, paths=(), coretype: str | None = None) -> dict:
    """Wall seconds and outcome counts of one tier-1 pytest run over ``paths``.

    No paths runs the whole tier-1 suite. The run uses the checkout's ``src/``
    in a new process, from the checkout's root, with OpenBLAS forced to the
    kernel ``coretype`` if one is given; a failing test does not stop the
    record. The counts are parsed from pytest's closing summary line, such as
    ``1 failed, 435 passed in 130.02s``.
    """
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *PYTEST_ARGS, *paths], cwd=checkout, env=env, capture_output=True, text=True
    )
    wall_s = perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)\b", summary)}
    return {
        "paths": list(paths),
        "openblas_coretype": coretype,
        "wall_s": wall_s,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "errors": counts.get("error", 0) + counts.get("errors", 0),
        "exit_code": proc.returncode,
    }


def git_state(checkout: Path) -> tuple[str, list[str]]:
    """The checkout's HEAD commit and its ``git status --porcelain`` lines.

    The benchmark, the CLI and the tests run on the working tree, so an
    uncommitted edit enters the numbers under a commit that lacks it. Any
    such line is also printed to stderr as a warning.
    """

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
        ).stdout

    commit = git("rev-parse", "HEAD").strip()
    status = git("status", "--porcelain").splitlines()
    if status:
        print(f"warning: the checkout differs from commit {commit}; the record keeps its "
              "git status lines:", *status, sep="\n  ", file=sys.stderr, flush=True)
    return commit, status


def previous_record(label: str) -> Path | None:
    """The committed ``BENCH_pr<M>.json`` with the largest M below ``label``'s N.

    ``None`` when the label is not ``pr<N>`` or no such file is committed.
    """
    match = re.fullmatch(r"pr(\d+)", label)
    if match is None:
        return None
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "BENCH_pr*.json"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    numbered = [(int(m.group(1)), name) for name in listed
                if (m := re.fullmatch(r"BENCH_pr(\d+)\.json", name))]
    below = [entry for entry in numbered if entry[0] < int(match.group(1))]
    return ROOT / max(below)[1] if below else None


def compare_traces(workloads: dict, previous: dict) -> dict:
    """This record's trace hashes against ``previous``'s, a loaded BENCH file.

    Compares each seed's ``metrics_trace_sha256`` and each workload's
    ``haswell_trace_sha256``; a hash that ``previous`` lacks is a mismatch.
    """
    mismatches = []
    compared = 0
    for name, workload in workloads.items():
        old = previous["workloads"].get(name, {})
        old_seeds = old.get("metrics_trace_sha256", {})
        pairs = [(f"seed {seed}", sha, old_seeds.get(str(seed)))
                 for seed, sha in workload["metrics_trace_sha256"].items()]
        pairs.append(("haswell", workload["haswell_trace_sha256"], old.get("haswell_trace_sha256")))
        for which, sha, old_sha in pairs:
            compared += 1
            if sha != old_sha:
                mismatches.append(
                    {"workload": name, "hash": which, "this": sha, "previous": old_sha})
    return {"against": previous["label"], "compared": compared, "mismatches": mismatches}


def print_comparison(comparison: dict) -> None:
    for m in comparison["mismatches"]:
        print(f"trace mismatch against {comparison['against']}: {m['workload']} {m['hash']}: "
              f"{m['this']} != {m['previous']}", file=sys.stderr, flush=True)
    print(f"traces: {len(comparison['mismatches'])} of {comparison['compared']} differ from "
          f"{comparison['against']}", file=sys.stderr, flush=True)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Record perfbench results in BENCH_<label>.json.")
    parser.add_argument("--label", required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    checkout = args.checkout.resolve()
    commit, git_status = git_state(checkout)

    workloads = {}
    env = None
    for w in spec["workloads"]:
        name = w["name"]
        runs = {seed: run_perfbench(checkout, name, seed, seconds, 0) for seed in SEEDS}
        traced = run_perfbench(checkout, name, 0, seconds, 1)
        env = env or runs[0]["env"]
        workloads[name] = summarize(runs)
        workloads[name]["per_layer_seed0"] = traced["result"]["metrics"]
        workloads[name]["traced_wall_seed0"] = traced["wall"]
        workloads[name]["per_layer_seed0_step_shares"] = step_shares(traced)
        workloads[name]["traced_correct"] = traced["result"]["correct"]
        workloads[name]["haswell_trace_sha256"] = haswell_trace_sha256(checkout, name)

    previous = previous_record(args.label)
    comparison = None
    if previous is not None:
        comparison = compare_traces(workloads, json.loads(previous.read_text()))
        print_comparison(comparison)

    cli = cli_wall_times(checkout)
    print(f"cli train_s={cli['train_s']['median']:.2f} eval_s={cli['eval_s']['median']:.2f} "
          f"checkpoint_bytes={cli['checkpoint_bytes']['median']}", file=sys.stderr, flush=True)

    tests = {
        "tier1": pytest_wall(checkout),
        "tier1_haswell": pytest_wall(checkout, coretype="Haswell"),
        "acceptance": pytest_wall(checkout, ACCEPTANCE_TESTS),
    }
    for name, run in tests.items():
        print(f"{name} wall_s={run['wall_s']:.1f} passed={run['passed']} failed={run['failed']}",
              file=sys.stderr, flush=True)

    record = {
        "label": args.label,
        "commit": commit,
        "git_status": git_status,
        "seconds": seconds,
        "seeds": list(SEEDS),
        "environment": env,
        "blas_threads": env["blas"]["threads"],
        "workloads": workloads,
        "trace_comparison": comparison,
        "cli_wall": cli,
        "test_wall": tests,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
