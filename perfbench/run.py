#!/usr/bin/env python3
"""Run one workload of the dcp benchmark and print its metrics.

    python3 perfbench/run.py --workload blobs --seed 0 --seconds 40 --trace 0

Imports dcp from ``src/`` of the checkout this file sits in, runs the
gradient check, then repeats the workload's cycle (prepare data, train,
evaluate) with the given seed for about ``--seconds`` seconds, at least
twice. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced cycles and reports the per-layer metrics.
Readable report lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 2 without a result if the checkout holds no dcp sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MIN_CYCLES = 2


class MissingProgram(RuntimeError):
    """The checkout has no importable dcp sources."""


def import_program():
    """Import dcp from this checkout's ``src/``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "dcp" / "__init__.py").is_file():
        raise MissingProgram(f"no dcp sources at {src / 'dcp'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import dcp

    if not Path(dcp.__file__).resolve().is_relative_to(src):
        raise MissingProgram(f"dcp was imported from {dcp.__file__}, not from {src}")
    return dcp


def _median(values):
    return statistics.median(values) if values else None


def run_workload(name, seed, seconds, trace, iterations=None, sites=None):
    """Measure one workload; returns (result dict, readable report lines)."""
    dcp = import_program()
    import envinfo
    import tracer as tracing
    from workloads import COMMON_SPANS, WORKLOADS, gradcheck, run_cycle

    workload = WORKLOADS[name](seed=seed, iterations=iterations)
    tracer = tracing.Tracer(dcp.tensor.Tensor) if trace else None
    sites = tracing.default_sites(dcp) if sites is None else sites

    def tracing_if(on):
        return tracer.installed(sites) if on else contextlib.nullcontext()

    with tracing_if(trace):
        check = gradcheck()

    untraced: list = []
    traced: list = []
    peak_rss_mb = None
    start = perf_counter()
    while True:
        use_trace = trace and len(untraced) > len(traced)
        with tracing_if(use_trace):
            cycle = run_cycle(workload)
        (traced if use_trace else untraced).append(cycle)
        if len(untraced) == MIN_CYCLES and not use_trace:
            # Garbage from the autodiff graph keeps the heap growing for a few
            # cycles, so the peak is taken after a fixed number of them: a
            # faster machine running more cycles must not read as a bigger one.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = perf_counter() - start
        mean_cycle = elapsed / (len(untraced) + len(traced))
        enough = len(traced) >= 1 if trace else len(untraced) >= MIN_CYCLES
        # stop where the run's expected length is closest to ``seconds``
        if enough and elapsed + mean_cycle / 2 > seconds:
            break

    cycles = untraced + traced
    fingerprints = [c.fingerprint for c in cycles if c.fingerprint]
    for c in cycles:
        if c.fingerprint and c.fingerprint != fingerprints[0]:
            c.fail("train", "metrics trace differs from the run's first cycle")
    if tracer:
        expected = COMMON_SPANS + workload.expected_spans_extra
        for span in tracer.zero_call_spans(expected):
            for c in traced:
                c.fail("train", f"traced span {span} recorded zero calls")
        for span in workload.forbidden_spans:
            if tracer.span(span).calls:
                for c in traced:
                    c.fail("train", f"span {span} was called but this workload must skip it")

    attempted = check.attempted + sum(c.attempted for c in cycles)
    failed = len(check.failed_ops) + sum(len(c.failed_ops) for c in cycles)
    errors = check.errors + [e for c in cycles for e in c.errors]

    if trace:
        metrics = layer_metrics(tracer, traced, untraced)
    else:
        metrics = end_to_end_metrics(untraced, peak_rss_mb)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if v is not None},
    }

    quality = untraced[0]
    iterations_timed = sum(len(c.iter_ms) for c in untraced)
    lines = [
        f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(bool(trace))}",
        "env " + json.dumps(envinfo.environment(bool(trace)), sort_keys=True),
        f"cycles untraced={len(untraced)} traced={len(traced)} "
        f"iterations_timed={iterations_timed}",
        # equal across runs of one workload and seed, traced or not
        f"metrics_trace_sha256 {fingerprints[0] if fingerprints else None}",
    ]
    lines += [f"metric {k} {v!r} {u}" for k, (v, u) in metrics.items() if v is not None]
    lines += [f"absent {k}" for k, (v, _) in metrics.items() if v is None]
    lines += [f"wall {k} {v!r} {u}" for k, (v, u) in wall_times(untraced).items() if v is not None]
    lines += [
        f"quality target_acc {quality.target_acc!r} fraction (seed {seed}; reported, not gated)",
        f"quality pseudo_precision_t200 {quality.precision_t200!r} fraction",
        f"fail_frac {failed / attempted!r} fraction ({failed} of {attempted} operations)",
    ]
    lines += [f"error {e}" for e in errors]
    return result, lines


def iteration_profile(cycles):
    """Median over cycles of each iteration's rescaled time, in ms.

    Every cycle of a run does identical work, so taking the median of
    iteration t across cycles removes a machine stall that hit one cycle only.
    """
    series = [c.iter_ms for c in cycles if c.iter_ms]
    if not series:
        return None
    n = min(len(s) for s in series)
    return np.median(np.array([s[:n] for s in series]), axis=0)


def _cycle_median(cycles, attr):
    return _median([getattr(c, attr) for c in cycles if getattr(c, attr) is not None])


def end_to_end_metrics(cycles, peak_rss_mb) -> dict:
    """The gated metrics; every time is at the reference speed (workloads.py)."""
    profile = iteration_profile(cycles)
    return {
        "setup_s": (_cycle_median(cycles, "setup_s"), "s"),
        "train_s": (_cycle_median(cycles, "train_s"), "s"),
        "iter_ms_p50": (None if profile is None else float(np.percentile(profile, 50)), "ms"),
        "iter_ms_p99": (None if profile is None else float(np.percentile(profile, 99)), "ms"),
        "eval_s": (_cycle_median(cycles, "eval_s"), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def wall_times(cycles) -> dict:
    """The same times as wall time, and the reference run's median (not gated)."""
    return {
        "setup_s": (_cycle_median(cycles, "setup_wall_s"), "s"),
        "train_s": (_cycle_median(cycles, "train_wall_s"), "s"),
        "eval_s": (_cycle_median(cycles, "eval_wall_s"), "s"),
        "reference_s": (_median([r for c in cycles for r in c.reference_s]), "s"),
    }


def _ratio(x, base):
    return x / base if base else None


def layer_metrics(tracer, traced, untraced) -> dict:
    """Per-layer metrics of the traced cycles; see README.md for each one."""
    steps = tracer.steps

    def in_train(*names, inclusive=False):
        total = 0.0
        for name in names:
            stats = tracer.span(name, in_train=True)
            total += stats.total if inclusive else stats.self_time
        return 1e3 * total / steps if steps else None

    def per_call(name):
        stats = tracer.span(name)
        return 1e3 * stats.total / stats.calls if stats.calls else None

    losses = ("discriminator_loss", "generator_loss", "source_classification_loss")
    centroids = (
        "compute_centroids",
        "update_centroids_ema",
        "centroid_centroid_matrix",
        "centroid_sample_matrix",
        "loss_cc",
        "loss_cs",
    )
    untraced_train = _cycle_median(untraced, "train_s")
    traced_train = _cycle_median(traced, "train_s")
    overhead = (
        traced_train / untraced_train - 1.0 if untraced_train and traced_train else None
    )
    return {
        "tensor.nodes_per_step": (_ratio(tracer.nodes_in_step, steps), "count"),
        "tensor.backward.disc_ms_per_step": (in_train("tensor.backward.disc", inclusive=True), "ms"),
        "tensor.backward.main_ms_per_step": (in_train("tensor.backward.main", inclusive=True), "ms"),
        "tensor.gc_pause_ms_per_step": (_ratio(1e3 * tracer.gc_pause, steps), "ms"),
        "tensor.gc_collections_per_step": (_ratio(tracer.gc_collections, steps), "count"),
        "tensor.gc_max_pause_ms": (1e3 * tracer.gc_max_pause, "ms"),
        "networks.forward.self_ms_per_step": (in_train("networks.forward"), "ms"),
        "networks.forward.calls_per_step": (
            _ratio(tracer.span("networks.forward", in_train=True).calls, steps), "count"),
        "networks.branch_outputs.ms_per_call": (per_call("networks.branch_outputs"), "ms"),
        "losses.self_ms_per_step": (in_train(*(f"losses.{x}" for x in losses)), "ms"),
        "centroids.self_ms_per_step": (in_train(*(f"centroids.{x}" for x in centroids)), "ms"),
        "centroids.alignment_skipped_frac": (_ratio(tracer.alignment_skipped, steps), "fraction"),
        "pseudo_label.kmeans_assign.self_ms_per_step": (
            in_train("pseudo_label.kmeans_assign"), "ms"),
        "pseudo_label.select_high_confidence.self_ms_per_step": (
            in_train("pseudo_label.select_high_confidence"), "ms"),
        "pseudo_label.selected_frac": (_ratio(tracer.selected, tracer.target_rows), "fraction"),
        "trainer.apply_sgd_update.self_ms_per_step": (in_train("trainer.apply_sgd_update"), "ms"),
        "trainer.train_step.self_ms_per_step": (in_train("trainer.train_step"), "ms"),
        "trainer.evaluate_ms": (per_call("trainer.evaluate"), "ms"),
        "datasets.gen_blobs_ms": (per_call("datasets.gen_blobs"), "ms"),
        "verify.run_gradcheck_ms": (per_call("verify.run_gradcheck"), "ms"),
        "trace.overhead_frac": (overhead, "fraction"),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one dcp benchmark workload.")
    parser.add_argument("--workload", required=True, choices=("blobs", "blobs-ablation"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
