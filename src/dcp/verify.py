"""Finite-difference verification of every differentiable training loss.

Each named loss gets fresh random instances per seed; the analytic gradient
must match central differences within the threshold on every instance.
L_C1 is also checked with rows labeled -1, and as two blocks of one
cross-entropy node on those labels, the form L_PL takes. The
centroid losses are checked through the distance matrices, relativization
and the discrepancy, with respect to the stacked bank of both branches'
centroids and to one branch's sample features.
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


def _logits(rng: np.random.Generator, n: int) -> Tensor:
    """Discriminator logits whose verdicts are drawn from (0.05, 0.95)."""
    p = rng.uniform(0.05, 0.95, size=(n, 1))
    return Tensor(np.log(p / (1.0 - p)))


def _build_l_d(rng, d_f, k, n_b) -> list[Instance]:
    ss, st = _logits(rng, n_b), _logits(rng, n_b)
    return [
        (lambda x: discriminator_loss(x, st), ss),
        (lambda x: discriminator_loss(ss, x), st),
    ]


def _build_l_g(rng, d_f, k, n_b) -> list[Instance]:
    return [(generator_loss, _logits(rng, n_b))]


def _build_l_c1(rng, d_f, k, n_b) -> list[Instance]:
    logits = Tensor(rng.normal(size=(n_b, k)))
    labels = rng.integers(0, k, size=n_b)
    # L_PL's form: about half the rows unlabeled (-1), the first one labeled,
    # and both heads' logits as two blocks of one node on those labels
    masked = np.where(rng.random(n_b) < 0.5, -1, labels)
    masked[0] = labels[0]
    other = Tensor(rng.normal(size=(n_b, k)))

    def one_block(given):
        return lambda x: source_classification_loss([x], [given])[0]

    return [
        (one_block(labels), logits),
        (one_block(masked), logits),
        (lambda x: source_classification_loss([x, other], [masked, masked])[0], logits),
        (lambda x: source_classification_loss([logits, x], [masked, masked])[0], other),
    ]


def _build_l_cc(rng, d_f, k, n_b) -> list[Instance]:
    # both branches' centroids, adversarial rows first
    banks = Tensor(rng.normal(size=(2 * k, d_f)))
    return [(lambda x: loss_cc(centroid_centroid_matrix(x)), banks)]


def _build_l_cs(rng, d_f, k, n_b) -> list[Instance]:
    banks = Tensor(rng.normal(size=(2 * k, d_f)))
    f_adv = Tensor(rng.normal(size=(n_b, d_f)))
    f_clu = Tensor(rng.normal(size=(n_b, d_f)))

    def wrt_banks(x):
        return loss_cs(centroid_sample_matrix(x, f_adv, f_clu))

    def wrt_features(x):
        return loss_cs(centroid_sample_matrix(banks, x, f_clu))

    return [(wrt_banks, banks), (wrt_features, f_adv)]


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
    builders: dict[str, Builder] | None = None,
) -> list[GradCheckRow]:
    """One row per loss with the worst relative error over all seeded instances."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be at least 1, got {n_seeds}: no instance would be checked")
    builders = LOSS_BUILDERS if builders is None else builders
    rows = []
    for name, builder in builders.items():
        worst = 0.0
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed)
            for f, x in builder(rng, d_f, k, n_b):
                report = grad_check(f, x)
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
