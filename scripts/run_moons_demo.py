#!/usr/bin/env python3
"""Train on the two-moons shift and print the metrics trajectory.

A quick nonlinear sanity check: generates rotated moons, trains with the
default config, and prints accuracy plus selection statistics at the
evaluation cadence.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dcp.datasets import gen_two_moons_shift
from dcp.trainer import TrainConfig, derived_seeds, train


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-per-class", type=int, default=200)
    parser.add_argument("--rotation", type=float, default=30.0)
    parser.add_argument("--noise-sigma", type=float, default=0.08)
    parser.add_argument("--iters", type=int, default=800)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    source, target = gen_two_moons_shift(
        n_per_class=args.n_per_class,
        rotation=args.rotation,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    config = TrainConfig(
        iterations=args.iters,
        eval_every=100,
        **derived_seeds(args.seed),
    )
    _, records = train(config, source, target)
    print("T      src_acc  tgt_acc  selected  pseudo_precision")
    for record in records:
        if record.source_acc is None:
            continue
        precision = "-" if record.pseudo_precision is None else f"{record.pseudo_precision:.3f}"
        print(
            f"{record.T:<6} {record.source_acc:.4f}   {record.target_acc:.4f}   "
            f"{record.n_selected:<9} {precision}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
