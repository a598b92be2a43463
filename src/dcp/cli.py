"""Command-line surface: gen-data, train, eval, gradcheck, schedule.

Exit codes: 0 success, 1 missing input file (or a directory where a file
should be), 2 usage error (bad flags or config, an output directory that
cannot be created or an output file's path that is not a regular file, or a
malformed or out-of-range input file), 3 numeric failure during training, 4
checkpoint version mismatch, 141 stdout closed by its reader (128 + SIGPIPE).
A gradcheck failure also exits 1.
Every training run writes exactly one manifest describing the config and
dataset fingerprints needed to reproduce its outputs. A checkpoint holds the
weights and biases of the two networks that eval reads, the adversarial
extractor and head; it has no clustering branch, discriminator, optimizer or
centroid state, so runs are not resumable.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .datasets import ShiftSpec, gen_blobs, gen_two_moons_shift, load_embeddings, save_embeddings
from .pseudo_label import tau_adv, tau_clu
from .trainer import (
    Checkpoint,
    CheckpointVersionError,
    NumericsError,
    TrainConfig,
    derived_seeds,
    evaluate,
    train,
    write_metrics_csv,
)
from .verify import DEFAULT_THRESHOLD, rows_to_csv, run_gradcheck

EXIT_OK = 0
EXIT_MISSING_INPUT = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERSION = 4
EXIT_BROKEN_PIPE = 141


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, payload: dict) -> None:
    payload = {"tool": "dcp", "version": __version__, **payload}
    (out_dir / "manifest.json").write_text(json.dumps(payload, indent=1), encoding="utf-8")


def _out_dir(text: str, parser: argparse.ArgumentParser, *names: str) -> Path:
    """``--out-dir``, created with its parents, to hold the output files ``names``.

    A directory that cannot be created, or an output path in it that exists
    and is not a regular file, is a usage error.
    """
    out_dir = Path(text)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot create --out-dir {text}: {exc.strerror}")
    for name in names:
        path = out_dir / name
        if path.exists() and not path.is_file():
            parser.error(f"output path {path} exists and is not a regular file")
    return out_dir


def _parse_translation(text: str, parser: argparse.ArgumentParser) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        parser.error(f"--translation must be comma-separated numbers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcp",
        description="Double-classifier adversarial domain adaptation on synthetic or embedded data.",
    )
    parser.add_argument("--version", action="version", version=f"dcp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic source/target dataset pair")
    p.set_defaults(handler=cmd_gen_data, parser=p)
    p.add_argument("--kind", choices=("blobs", "moons"), default="blobs")
    p.add_argument("--k", type=int, help="number of classes (blobs only; default 3)")
    p.add_argument("--dim", type=int, default=2, help="feature dimension (blobs only)")
    p.add_argument("--n-per-class", type=int, default=200)
    p.add_argument("--rotation", type=float, default=35.0, help="target rotation in degrees")
    p.add_argument("--translation", default="1,0", help="target translation, comma-separated")
    p.add_argument("--noise-sigma", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("train", help="train on a source/target CSV pair")
    p.set_defaults(handler=cmd_train, parser=p)
    p.add_argument("--source", required=True, help="source embedding CSV")
    p.add_argument("--target", required=True, help="target embedding CSV")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--config", help="JSON file overriding training defaults")
    p.add_argument(
        "--iters", dest="iterations", metavar="ITERS", type=int,
        help="number of training iterations",
    )
    p.add_argument("--alpha", type=float, help="weight of the alignment losses")
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--ema-momentum", type=float)
    p.add_argument("--kmeans-max-iters", type=int)
    p.add_argument("--eval-every", type=int)
    p.add_argument("--seed", type=int, help="base seed; branch seeds derive from it")
    p.add_argument(
        "--no-pseudo", dest="use_pseudo_labels", action="store_false", default=None,
        help="disable pseudo-labeling (ablation)",
    )

    p = sub.add_parser("eval", help="score a checkpoint on a labeled CSV")
    p.set_defaults(handler=cmd_eval, parser=p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("gradcheck", help="verify analytic gradients of every loss")
    p.set_defaults(handler=cmd_gradcheck, parser=p)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--d-f", type=int, default=4)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n-b", type=int, default=8)
    p.add_argument("--out-dir", help="also write gradcheck.csv here")

    p = sub.add_parser("schedule", help="print the threshold schedules as CSV")
    p.set_defaults(handler=cmd_schedule, parser=p)
    p.add_argument("--t-max", type=int, default=100)
    p.add_argument("--out-dir", help="also write schedule.csv here")

    return parser


def cmd_gen_data(args, parser) -> int:
    if args.kind == "moons":
        if args.k not in (None, 2):
            parser.error("moons data always has 2 classes; drop --k or pass --k 2")
        if args.dim != 2:
            parser.error("moons data is 2-D; drop --dim or pass --dim 2")
    try:
        if args.kind == "blobs":
            spec = ShiftSpec(
                k=ShiftSpec.k if args.k is None else args.k,
                d=args.dim,
                n_per_class=args.n_per_class,
                rotation=args.rotation,
                translation=_parse_translation(args.translation, parser),
                noise_sigma=args.noise_sigma,
                seed=args.seed,
            )
            source, target = gen_blobs(spec)
            spec_dict = {"kind": "blobs", **dataclasses.asdict(spec)}
        else:
            source, target = gen_two_moons_shift(
                n_per_class=args.n_per_class,
                rotation=args.rotation,
                noise_sigma=args.noise_sigma,
                seed=args.seed,
            )
            spec_dict = {
                "kind": "moons",
                "n_per_class": args.n_per_class,
                "rotation": args.rotation,
                "noise_sigma": args.noise_sigma,
                "seed": args.seed,
            }
    except ValueError as exc:
        parser.error(str(exc))
    out_dir = _out_dir(args.out_dir, parser, "source.csv", "target.csv", "manifest.json")
    source_path = out_dir / "source.csv"
    target_path = out_dir / "target.csv"
    save_embeddings(source, source_path)
    save_embeddings(target, target_path)
    _write_manifest(
        out_dir,
        {
            "command": "gen-data",
            "spec": spec_dict,
            "outputs": {
                "source": {"path": source_path.name, "sha256": _sha256(source_path)},
                "target": {"path": target_path.name, "sha256": _sha256(target_path)},
            },
        },
    )
    print(f"wrote {source_path} ({source.n} rows) and {target_path} ({target.n} rows)")
    return EXIT_OK


def _load_train_config(args, parser) -> TrainConfig:
    merged = TrainConfig().to_dict()
    if args.config:
        config_path = Path(args.config)
        if not config_path.is_file():
            raise FileNotFoundError(config_path)
        try:
            overrides = json.loads(config_path.read_text(encoding="utf-8"))
            TrainConfig.from_dict({**TrainConfig().to_dict(), **overrides})
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            parser.error(f"bad config file {config_path}: {exc}")
        merged.update(overrides)
    # a flag's dest is the config field it sets; an absent flag is None
    merged.update((key, value) for key, value in vars(args).items()
                  if key in merged and value is not None)
    if args.seed is not None:
        merged.update(derived_seeds(args.seed))
    try:
        return TrainConfig.from_dict(merged)
    except ValueError as exc:
        parser.error(str(exc))


def cmd_train(args, parser) -> int:
    source_path, target_path = Path(args.source), Path(args.target)
    for path in (source_path, target_path):
        if not path.is_file():
            raise FileNotFoundError(path)
    config = _load_train_config(args, parser)
    source = load_embeddings(source_path)
    target = load_embeddings(target_path)
    out_dir = _out_dir(args.out_dir, parser, "checkpoint.json", "metrics.csv", "manifest.json")

    checkpoint, records = train(config, source, target)

    ckpt_path = out_dir / "checkpoint.json"
    metrics_path = out_dir / "metrics.csv"
    checkpoint.save(ckpt_path)
    write_metrics_csv(records, metrics_path)
    _write_manifest(
        out_dir,
        {
            "command": "train",
            "config": config.to_dict(),
            "inputs": {
                "source": {"path": str(source_path), "sha256": _sha256(source_path)},
                "target": {"path": str(target_path), "sha256": _sha256(target_path)},
            },
            "outputs": {"checkpoint": ckpt_path.name, "metrics": metrics_path.name},
        },
    )
    if records:
        last = records[-1]
        # absent when the target carries unknown labels
        target_acc = "absent" if last.target_acc is None else f"{last.target_acc:.4f}"
        print(
            f"trained {config.iterations} iterations; "
            f"source_acc={last.source_acc:.4f} target_acc={target_acc}"
        )
    else:
        print("trained 0 iterations; wrote initialized checkpoint")
    return EXIT_OK


def cmd_eval(args, parser) -> int:
    ckpt_path, data_path = Path(args.checkpoint), Path(args.data)
    for path in (ckpt_path, data_path):
        if not path.is_file():
            raise FileNotFoundError(path)
    checkpoint = Checkpoint.load(ckpt_path)
    dataset = load_embeddings(data_path)
    out_dir = _out_dir(args.out_dir, parser, "report.json")
    report = evaluate(checkpoint, dataset)
    report_path = out_dir / "report.json"
    payload = {
        "checkpoint": str(ckpt_path),
        "data": str(data_path),
        **report.to_dict(),
    }
    report_path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    print(f"accuracy {report.accuracy:.4f}")
    counts = report.confusion.sum(axis=1)
    for cls, (acc, n) in enumerate(zip(report.per_class_accuracy, counts)):
        print(f"class {cls}: accuracy {acc:.4f} ({int(n)} samples)")
    return EXIT_OK


def cmd_gradcheck(args, parser) -> int:
    if not (math.isfinite(args.threshold) and args.threshold > 0.0):
        parser.error(f"--threshold must be a positive number, got {args.threshold}")
    # run_gradcheck also rejects zero seeds, but only after the output directory
    # exists; checking here keeps every usage error free of side effects.
    for flag, least in (("--seeds", 1), ("--k", 2), ("--n-b", 1), ("--d-f", 1)):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < least:
            parser.error(f"{flag} must be at least {least}, got {value}")
    out_dir = _out_dir(args.out_dir, parser, "gradcheck.csv") if args.out_dir else None
    rows = run_gradcheck(
        n_seeds=args.seeds, threshold=args.threshold, d_f=args.d_f, k=args.k, n_b=args.n_b
    )
    csv_text = rows_to_csv(rows)
    # the file first, so a closed stdout loses nothing
    if out_dir is not None:
        (out_dir / "gradcheck.csv").write_text(csv_text, encoding="utf-8")
    print(csv_text, end="")
    return EXIT_OK if all(r.passed for r in rows) else 1


def cmd_schedule(args, parser) -> int:
    if args.t_max < 0:
        parser.error("--t-max must be nonnegative")
    out_dir = _out_dir(args.out_dir, parser, "schedule.csv") if args.out_dir else None
    lines = ["T,tau_adv,tau_clu"]
    lines += [f"{t},{tau_adv(t):.6f},{tau_clu(t):.6f}" for t in range(args.t_max + 1)]
    text = "\n".join(lines) + "\n"
    if out_dir is not None:
        (out_dir / "schedule.csv").write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # each subcommand's own parser, so a usage error prints its usage
        code = args.handler(args, args.parser)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: send what is left to devnull, as
        # Python's signal docs advise, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except FileNotFoundError as exc:
        print(f"missing input: {exc.args[0]}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CheckpointVersionError as exc:
        print(f"checkpoint version mismatch: {exc}", file=sys.stderr)
        return EXIT_VERSION
    except ValueError as exc:
        # after CheckpointVersionError, which is a ValueError with its own code
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
