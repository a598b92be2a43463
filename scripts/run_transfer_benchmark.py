#!/usr/bin/env python3
"""Compare full training against the alpha=0/no-pseudo baseline on blob shifts.

Runs both arms over several seeds, reports final target accuracy per arm, the
gap of each seed next to the mean gap (so a mean carried by one seed shows),
and the precision of the double-threshold selection at a probe iteration. The
shift is configurable, so harder rotations/translations than the defaults can
be explored, e.g.:

    python3 scripts/run_transfer_benchmark.py --rotation 50 --translation 2,-1 --noise-sigma 0.9
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dcp.datasets import ShiftSpec, gen_blobs
from dcp.trainer import TrainConfig, derived_seeds, train

# the plain adversarial arm; the full arm is the default config
BASELINE = {"alpha": 0.0, "use_pseudo_labels": False}


def run_arm(spec: ShiftSpec, full: bool, iterations: int, probe_t: int) -> dict:
    """One training run on the blob pair of ``spec``, seeded from ``spec.seed``.

    Returns the final target accuracy and the wall time. If the run reaches
    iteration ``probe_t``, it also returns that step's precision of the
    selected pseudo-labels and of each branch's labels for the whole target
    batch.
    """
    source, target = gen_blobs(spec)
    config = TrainConfig(
        iterations=iterations,
        eval_every=max(1, iterations // 3),
        **derived_seeds(spec.seed),
        **({} if full else BASELINE),
    )
    probe = {}

    def on_step(state, record, info):
        if record.T == probe_t:
            truth = info.target_batch_true_labels
            probe["pseudo_precision"] = record.pseudo_precision
            probe["adv_precision"] = float((info.y_adv_target == truth).mean())
            probe["clu_precision"] = float((info.y_clu_target == truth).mean())

    started = time.time()
    _, records = train(config, source, target, on_step=on_step)
    return {
        "target_acc": records[-1].target_acc,
        "runtime": time.time() - started,
        **probe,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--iters", type=int, default=1500)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--n-per-class", type=int, default=200)
    parser.add_argument("--rotation", type=float, default=35.0)
    parser.add_argument("--translation", default="1,0")
    parser.add_argument("--noise-sigma", type=float, default=0.6)
    parser.add_argument("--probe-t", type=int, default=200)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    if args.iters < 1:
        parser.error(f"--iters must be at least 1, got {args.iters}")
    try:
        translation = tuple(float(v) for v in args.translation.split(","))
    except ValueError:
        parser.error(f"--translation must be comma-separated numbers, got {args.translation!r}")
    try:
        specs = [
            ShiftSpec(
                k=args.k,
                n_per_class=args.n_per_class,
                rotation=args.rotation,
                translation=translation,
                noise_sigma=args.noise_sigma,
                seed=seed,
            )
            for seed in range(args.seeds)
        ]
    except ValueError as exc:
        parser.error(str(exc))
    results = {}
    for arm, full in (("full", True), ("baseline", False)):
        runs = [run_arm(spec, full, args.iters, args.probe_t) for spec in specs]
        results[arm] = runs
        accs = [r["target_acc"] for r in runs]
        print(
            f"{arm:<9} target acc per seed: "
            + " ".join(f"{a:.3f}" for a in accs)
            + f"   mean {np.mean(accs):.4f}   slowest run {max(r['runtime'] for r in runs):.1f}s"
        )
    gaps = [
        100 * (f["target_acc"] - b["target_acc"])
        for f, b in zip(results["full"], results["baseline"])
    ]
    print(
        "gap per seed (full - baseline): "
        + " ".join(f"{g:+.1f}" for g in gaps)
        + f"   mean {np.mean(gaps):+.1f} accuracy points"
    )
    precisions = [
        r["pseudo_precision"] for r in results["full"] if r.get("pseudo_precision") is not None
    ]
    if precisions:
        print(
            f"selection precision at T={args.probe_t} (full arm, {len(precisions)} seeds with "
            f"selections): mean {np.mean(precisions):.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
