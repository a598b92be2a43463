"""Finite-difference verification of every differentiable training loss.

Each named loss gets fresh random instances per seed; the analytic gradient
must match central differences within the threshold on every instance. The
centroid losses are checked through the full chain: centroids, pairwise
distances, relativization, and the discrepancy itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .centroids import centroid_centroid_matrix, centroid_sample_matrix, loss_cc, loss_cs
from .losses import discriminator_loss, generator_loss, source_classification_loss
from .tensor import Tensor, grad_check

DEFAULT_THRESHOLD = 1e-4

# Each builder returns (function, probe-point) pairs; grad_check runs on each.
Instance = tuple[Callable[[Tensor], Tensor], Tensor]
Builder = Callable[[np.random.Generator, int, int, int], list[Instance]]


def _verdicts(rng: np.random.Generator, n: int) -> Tensor:
    return Tensor(rng.uniform(0.05, 0.95, size=(n, 1)))


def _build_l_d(rng, d_f, k, n_b) -> list[Instance]:
    ds, dt = _verdicts(rng, n_b), _verdicts(rng, n_b)
    return [
        (lambda x: discriminator_loss(x, dt), ds),
        (lambda x: discriminator_loss(ds, x), dt),
    ]


def _build_l_g(rng, d_f, k, n_b) -> list[Instance]:
    return [(generator_loss, _verdicts(rng, n_b))]


def _build_l_c1(rng, d_f, k, n_b) -> list[Instance]:
    logits = Tensor(rng.normal(size=(n_b, k)))
    labels = rng.integers(0, k, size=n_b)
    return [(lambda x: source_classification_loss(x, labels), logits)]


def _build_l_cc(rng, d_f, k, n_b) -> list[Instance]:
    c1 = Tensor(rng.normal(size=(k, d_f)))
    c2 = Tensor(rng.normal(size=(k, d_f)))

    def wrt_first(x):
        return loss_cc(centroid_centroid_matrix(x), centroid_centroid_matrix(c2))

    def wrt_second(x):
        return loss_cc(centroid_centroid_matrix(c1), centroid_centroid_matrix(x))

    return [(wrt_first, c1), (wrt_second, c2)]


def _build_l_cs(rng, d_f, k, n_b) -> list[Instance]:
    c1 = Tensor(rng.normal(size=(k, d_f)))
    c2 = Tensor(rng.normal(size=(k, d_f)))
    f1 = Tensor(rng.normal(size=(n_b, d_f)))
    f2 = Tensor(rng.normal(size=(n_b, d_f)))

    def wrt_centroids(x):
        return loss_cs(centroid_sample_matrix(x, f1), centroid_sample_matrix(c2, f2))

    def wrt_features(x):
        return loss_cs(centroid_sample_matrix(c1, x), centroid_sample_matrix(c2, f2))

    return [(wrt_centroids, c1), (wrt_features, f1)]


LOSS_BUILDERS: dict[str, Builder] = {
    "l_d": _build_l_d,
    "l_g": _build_l_g,
    "l_c1": _build_l_c1,
    "l_cc": _build_l_cc,
    "l_cs": _build_l_cs,
}


@dataclass(frozen=True)
class GradCheckRow:
    loss: str
    max_rel_error: float
    threshold: float
    passed: bool


def run_gradcheck(
    n_seeds: int = 20,
    threshold: float = DEFAULT_THRESHOLD,
    d_f: int = 4,
    k: int = 3,
    n_b: int = 8,
    h: float = 1e-6,
    builders: dict[str, Builder] | None = None,
) -> list[GradCheckRow]:
    """One row per loss with the worst relative error over all seeded instances."""
    builders = LOSS_BUILDERS if builders is None else builders
    rows = []
    for name, builder in builders.items():
        worst = 0.0
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed)
            for f, x in builder(rng, d_f, k, n_b):
                report = grad_check(f, x, h=h)
                worst = max(worst, report.max_rel_error)
        rows.append(
            GradCheckRow(loss=name, max_rel_error=worst, threshold=threshold, passed=worst < threshold)
        )
    return rows


def rows_to_csv(rows: list[GradCheckRow]) -> str:
    lines = ["loss,max_rel_error,threshold,status"]
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        lines.append(f"{row.loss},{row.max_rel_error:.3e},{row.threshold:.0e},{status}")
    return "\n".join(lines) + "\n"
