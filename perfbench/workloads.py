"""The benchmark's workloads and one measured cycle of each.

A cycle is what a user does once: prepare data, train, evaluate. Every cycle
of a run uses the run's seed, so all cycles do identical work; the spread
between them is the machine's, and their metrics traces must match exactly.

Every timed stretch of the program sits next to a timed run of ``reference``,
fixed work that no change to dcp touches. The machine this benchmark was
defined on switches between a fast and a ~1.6x slower speed every few
seconds, for minutes at a time, and the program and the reference slow down
together. Each time is therefore reported twice: as wall time, and rescaled
to the speed at which ``reference`` takes ``REFERENCE_S`` (the gated figure).
Import this module only after ``dcp`` is importable (see ``run.py``).
"""

from __future__ import annotations

import gc
import hashlib
import math
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import dcp
import dcp.datasets
import dcp.trainer
import dcp.verify

# The README's harder shift. On the default shift (rotation 35) both arms
# reach 1.000 target accuracy, so a speed change that costs quality would not
# show there.
HARD_SHIFT = {
    "k": 3,
    "d": 2,
    "n_per_class": 200,
    "rotation": 50.0,
    "translation": (2.0, -1.0),
    "noise_sigma": 0.9,
}
# gen_blobs takes ~0.15 ms and evaluate() on the 600-row target ~1 ms, too
# short to time one at a time. A cycle times CHUNKS loops of each, every loop
# as one interval next to its own reference run (see ``per_call``).
SETUP_CALLS_PER_CHUNK = 20
EVAL_CALLS_PER_CHUNK = 4
CHUNKS = 40
# Training iterations rescaled by the median reference run of their block.
# eval_every is 50 at the default config, so each block holds one evaluation.
SPEED_BLOCK = 50
# What ``reference`` takes at the speed the gated times are given at; about
# its median on the machine the benchmark was defined on (0.11 to 0.17 ms).
REFERENCE_S = 1.5e-4
PRECISION_PROBE_T = 200
LOSS_FIELDS = ("l_d", "l_g", "l_c1", "l_c2", "l_cc", "l_cs")
GRADCHECK_THRESHOLD = 1e-4  # acceptance criterion 1


@dataclass
class Cycle:
    """Timings and outcomes of one cycle; ``failed_ops`` names failed operations."""

    setup_s: float | None = None
    train_s: float | None = None
    eval_s: float | None = None
    iter_ms: list[float] = field(default_factory=list)
    # the same times as wall time, and the seconds of every reference run
    setup_wall_s: float | None = None
    train_wall_s: float | None = None
    eval_wall_s: float | None = None
    reference_s: list[float] = field(default_factory=list)
    fingerprint: str | None = None
    target_acc: float | None = None
    precision_t200: float | None = None
    attempted: int = 0
    failed_ops: set[str] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)

    def fail(self, op: str, message: str) -> None:
        self.failed_ops.add(op)
        self.errors.append(f"{op}: {message}")


def gradcheck() -> Cycle:
    """The correctness pre-check, as one operation: every loss within 1e-4."""
    check = Cycle(attempted=1)
    for row in dcp.verify.run_gradcheck(threshold=GRADCHECK_THRESHOLD):
        if not row.passed:
            check.fail("gradcheck", f"{row.loss} max rel error {row.max_rel_error:.3e}")
    return check


def run_cycle(workload) -> Cycle:
    """One cycle; an unexpected exception fails it, and the run goes on."""
    try:
        return workload.cycle()
    except Exception:  # the run reports every failure and keeps measuring
        traceback.print_exc(file=sys.stderr)
        failed = Cycle(attempted=1)
        failed.fail("cycle", traceback.format_exc().strip().splitlines()[-1])
        return failed


_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((36, 16))
_REF_W = 0.3 * _REF_RNG.standard_normal((16, 16))


def reference() -> float:
    """Seconds that one run of the fixed reference work takes now.

    Small numpy operations and an interpreter loop, the mix a training step
    is made of. The cyclic GC is off meanwhile, so a collection of the
    program's garbage cannot land in it.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    x = _REF_X
    for _ in range(6):
        h = np.maximum(x @ _REF_W, 0.0)
        x = h - h.mean(axis=0)
    total = float((x * x).sum())
    for i in range(300):
        total += i
    elapsed = perf_counter() - start
    if gc_was_enabled:
        gc.enable()
    return elapsed


def per_call(call, calls_per_chunk: int, check, cycle: Cycle) -> tuple[float, float]:
    """Seconds per call of ``call``, at the reference speed and as wall time.

    Times ``CHUNKS`` loops of ``calls_per_chunk`` calls, each as one interval
    right after a reference run, and takes the median over loops of each.
    ``check`` sees each loop's results after its interval is taken.
    """
    scaled, wall = [], []
    for _ in range(CHUNKS):
        ref = reference()
        results = []
        start = perf_counter()
        for _ in range(calls_per_chunk):
            results.append(call())
        elapsed = perf_counter() - start
        check(results)
        cycle.reference_s.append(ref)
        scaled.append(elapsed * REFERENCE_S / ref)
        wall.append(elapsed)
    return float(np.median(scaled)) / calls_per_chunk, float(np.median(wall)) / calls_per_chunk


def scale_segments(segments: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Rescale training segments by the median reference run of their block."""
    scaled = np.empty_like(segments)
    for lo in range(0, len(segments), SPEED_BLOCK):
        hi = lo + SPEED_BLOCK
        block_refs = refs[lo:hi] if lo < len(refs) else refs[-SPEED_BLOCK:]
        scaled[lo:hi] = segments[lo:hi] * REFERENCE_S / np.median(block_refs)
    return scaled


def _check_trace(records, cycle: Cycle) -> None:
    """Fingerprint a metrics trace (the bytes of ``metrics.csv``) and check it."""
    lines = [",".join(dcp.trainer.METRICS_FIELDS)] + [",".join(r.csv_row()) for r in records]
    cycle.fingerprint = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    for record in records:
        for name in LOSS_FIELDS:
            value = getattr(record, name)
            if value is not None and not math.isfinite(value):
                cycle.fail("train", f"{name}={value} at T={record.T}")
    if len(records) > PRECISION_PROBE_T:
        cycle.precision_t200 = records[PRECISION_PROBE_T].pseudo_precision


class Blobs:
    """``dcp.train`` in-process on the harder blob shift, at the default config."""

    expected_spans_extra: tuple[str, ...] = ("pseudo_label.select_high_confidence",)
    forbidden_spans: tuple[str, ...] = ()
    overrides: dict = {}

    def __init__(self, seed: int, iterations: int | None = None):
        self.spec = dcp.ShiftSpec(seed=seed, **HARD_SHIFT)
        overrides = dict(self.overrides)
        if iterations is not None:
            overrides["iterations"] = iterations
        # the seed derivation of `dcp train --seed`
        self.config = dcp.TrainConfig(
            adv_seed=seed, clu_seed=seed + 1, disc_seed=seed + 2, data_seed=seed + 3, **overrides
        )

    def cycle(self) -> Cycle:
        c = Cycle()
        source, target = data = dcp.datasets.gen_blobs(self.spec)

        def same_inputs(generated):
            if not all(np.array_equal(a.X, b.X) for g in generated for a, b in zip(data, g)):
                c.fail("train", "gen_blobs gave different inputs for the same spec")

        c.setup_s, c.setup_wall_s = per_call(
            lambda: dcp.datasets.gen_blobs(self.spec), SETUP_CALLS_PER_CHUNK, same_inputs, c
        )

        # An iteration runs from one on_step return to the next on_step call;
        # the reference run in between is no part of it.
        c.attempted += 1
        stops: list[float] = []
        resumes: list[float] = []
        refs: list[float] = []

        def on_step(*_):
            stops.append(perf_counter())
            refs.append(reference())
            resumes.append(perf_counter())

        start = perf_counter()
        try:
            checkpoint, records = dcp.trainer.train(self.config, source, target, on_step=on_step)
        except dcp.NumericsError as exc:
            c.fail("train", str(exc))
            return c
        end = perf_counter()
        if not records:
            c.fail("train", "no iterations ran")
            return c
        # the last segment is the work train() does after its last iteration
        segments = np.array(stops + [end]) - np.array([start] + resumes)
        scaled = scale_segments(segments, np.array(refs))
        c.train_s = float(scaled.sum())
        c.train_wall_s = float(segments.sum())
        c.iter_ms = (scaled[: len(stops)] * 1e3).tolist()
        c.reference_s += refs
        _check_trace(records, c)
        c.target_acc = records[-1].target_acc

        def same_accuracy(reports):
            for report in reports:
                if report.accuracy != c.target_acc:
                    c.fail("train", f"evaluate gives {report.accuracy}, last record {c.target_acc}")

        c.eval_s, c.eval_wall_s = per_call(
            lambda: dcp.trainer.evaluate(checkpoint, target), EVAL_CALLS_PER_CHUNK, same_accuracy, c
        )
        return c


class BlobsAblation(Blobs):
    """The ``--alpha 0 --no-pseudo`` arm on the same data."""

    expected_spans_extra = ()
    forbidden_spans = ("pseudo_label.select_high_confidence",)
    overrides = {"alpha": 0.0, "use_pseudo_labels": False}


WORKLOADS = {"blobs": Blobs, "blobs-ablation": BlobsAblation}

# Spans every workload must record in a traced run; a zero means a wrapper
# sits where no caller looks.
COMMON_SPANS = (
    "trainer.train",
    "trainer.train_step",
    "trainer.apply_sgd_update",
    "trainer.evaluate",
    "pseudo_label.kmeans_assign",
    "networks.branch_outputs",
    "networks.forward",
    "losses.discriminator_loss",
    "losses.generator_loss",
    "losses.source_classification_loss",
    "centroids.compute_centroids",
    "centroids.update_centroids_ema",
    "centroids.centroid_centroid_matrix",
    "centroids.centroid_sample_matrix",
    "centroids.loss_cc",
    "centroids.loss_cs",
    "tensor.backward.disc",
    "tensor.backward.main",
    "datasets.gen_blobs",
    "verify.run_gradcheck",
)
