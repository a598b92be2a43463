#!/usr/bin/env python3
"""Time the working tree against a parent revision in alternating pairs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --label pr20 [--first-seed 200]

Extracts the parent revision with ``git archive`` into a temporary directory
and runs ``perfbench/run.py --trace 0`` of that copy and of the working tree
in ten pairs for each workload that ``BENCHMARK.json`` declares. Both runs
of a pair train the same seed; the seeds run on from ``--first-seed``
across pairs and workloads. The parent runs first on even pairs and the
working tree on odd ones, so neither side always runs on a warmer machine.
Each run lasts ``BENCHMARK.json``'s ``run_seconds``.

For each workload and end-to-end metric it prints both sides' medians, the
parent's spread between quartiles (IQR), and in how many pairs the working
tree did better, by the metric's direction in ``BENCHMARK.json``. From these
and the metric's bound there (a fraction of the parent's median) it prints
the verdicts that hold:

- ``gain met``: the tree did better in at least nine pairs of ten, and its
  median is better than the parent's by more than the parent's IQR;
- ``worse``: the tree's median is worse than the parent's by more than the
  bound;
- ``unresolved``: the parent's IQR is wider than the bound.

It also prints whether every run was correct and whether both runs of every
pair wrote the same metrics-trace hash, and writes every run's numbers and
the verdicts to ``PAIRS_<label>.json`` at the root of the repository.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

from bench_record import git_state, run_perfbench

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "tree")
PAIRS = 10
VERDICTS = ("gain_met", "worse", "unresolved")


def archive(checkout: Path, revision: str, dest: Path) -> str:
    """Extract ``revision`` of the repository at ``checkout`` into ``dest``;
    returns the revision's full commit hash."""
    commit = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "--verify", f"{revision}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    tar = subprocess.run(
        ["git", "-C", str(checkout), "archive", commit], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return commit


def run_pairs(checkouts: dict, workload: str, first_seed: int, seconds: float) -> list:
    """``PAIRS`` alternating pairs of runs of ``checkouts["parent"]`` and
    ``checkouts["tree"]``; each pair is ``{"seed", "first", "parent", "tree"}``
    with every run as ``bench_record.parse_run`` returns it."""
    out = []
    for i in range(PAIRS):
        seed = first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_perfbench(checkouts[side], workload, seed, seconds, 0)
        out.append(pair)
    return out


def verdicts(m: dict) -> dict:
    """Which of the gain, worse and unresolved verdicts hold for one metric's
    comparison ``m``, as ``compare`` builds it."""
    base = m["parent_median"]
    # how much the tree's median is better than the parent's, in the metric's units
    gain = base - m["tree_median"] if m["better"] == "lower" else m["tree_median"] - base
    bound = m["bound"] * abs(base)
    return {
        "gain_met": m["wins"] * 10 >= m["pairs"] * 9 and gain > m["parent_iqr"],
        "worse": -gain > bound,
        "unresolved": m["parent_iqr"] > bound,
    }


def compare(pairs: list, end_to_end: dict) -> dict:
    """Per metric: both sides' medians and values, the parent's IQR, the
    working tree's wins and the verdicts; ``end_to_end`` maps each metric to
    its ``BENCHMARK.json`` entry, which gives its direction and bound."""
    metrics = {}
    for name, spec in end_to_end.items():
        values = {
            side: [p[side]["result"]["metrics"][name]["value"] for p in pairs] for side in SIDES
        }
        parent, tree = (np.array(values[side]) for side in SIDES)
        q1, q3 = np.percentile(parent, [25, 75])
        wins = tree < parent if spec["better"] == "lower" else tree > parent
        m = {
            "better": spec["better"],
            "bound": spec["bound"],
            "parent_median": float(np.median(parent)),
            "tree_median": float(np.median(tree)),
            "parent_iqr": float(q3 - q1),
            "wins": int(wins.sum()),
            "pairs": len(pairs),
            "parent": values["parent"],
            "tree": values["tree"],
        }
        metrics[name] = {**m, **verdicts(m)}
    runs = [p[side] for p in pairs for side in SIDES]
    return {
        "metrics": metrics,
        "all_correct": all(r["result"]["correct"] for r in runs),
        "same_trace_hash": all(
            p["parent"].get("metrics_trace_sha256") == p["tree"].get("metrics_trace_sha256")
            for p in pairs
        ),
    }


def report_lines(workload: str, comparison: dict) -> list[str]:
    lines = [
        f"{workload}: every run correct: {comparison['all_correct']}; "
        f"every pair's trace hash equal: {comparison['same_trace_hash']}"
    ]
    for name, m in comparison["metrics"].items():
        base = m["parent_median"]
        change = (m["tree_median"] - base) / base * 100.0 if base else float("nan")
        iqr = m["parent_iqr"] / base * 100.0 if base else float("nan")
        held = [v.replace("_", " ") for v in VERDICTS if m[v]]
        lines.append(
            f"{workload} {name}: parent {base:.6g} tree {m['tree_median']:.6g} ({change:+.1f}%), "
            f"parent IQR {iqr:.1f}%, tree {m['better']} in {m['wins']} of {m['pairs']} pairs; "
            f"verdicts: {', '.join(held) or 'none'}"
        )
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Alternating perfbench pairs: parent vs tree.")
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    commit, git_status = git_state(ROOT)

    record = {
        "label": args.label,
        "tree_commit": commit,
        "tree_git_status": git_status,
        "seconds": seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        record["parent_commit"] = archive(ROOT, args.parent, Path(tmp))
        checkouts = {"parent": Path(tmp), "tree": ROOT}
        for i, workload in enumerate(names):
            first_seed = args.first_seed + i * PAIRS
            pairs = run_pairs(checkouts, workload, first_seed, seconds)
            comparison = compare(pairs, end_to_end)
            record["workloads"][workload] = {
                "seeds": [p["seed"] for p in pairs],
                "first": [p["first"] for p in pairs],
                **comparison,
            }
            print(*report_lines(workload, comparison), sep="\n", flush=True)

    out = ROOT / f"PAIRS_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
