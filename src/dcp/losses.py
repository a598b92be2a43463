"""The three-part adversarial objective and its minimax update contract.

The discriminator's log-likelihood is implemented negated, so every
optimizer step in the trainer is a minimization. The generator uses the
non-saturating form, which keeps gradients usable when the discriminator
dominates early. Source classification is plain softmax cross entropy and is
reused verbatim for the clustering branch's head and for both heads on
accepted target pseudo-labels. Each loss is one graph node whose operations
run in a fixed order, on which the pinned metrics traces depend.
"""

from __future__ import annotations

import numpy as np

from .tensor import DomainError, Tensor, softmax_cross_entropy

# Verdicts are squeezed into [CLAMP_EPS, 1 - CLAMP_EPS] before any log, so the
# losses stay finite for every input in [0, 1].
CLAMP_EPS = 1e-7


def _clamp(d: Tensor, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Verdicts clipped into [CLAMP_EPS, 1 - CLAMP_EPS], and where none was clipped."""
    v = d.values
    if ((v < 0.0) | (v > 1.0)).any():
        bad = v[(v < 0.0) | (v > 1.0)][0]
        raise DomainError(f"{name} entries must lie in [0, 1]; found {bad}")
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    return np.clip(v, lo, hi), (v >= lo) & (v <= hi)


def discriminator_loss(d_source: Tensor, d_target: Tensor) -> Tensor:
    """Negated discriminator log-likelihood (a quantity to minimize).

    -(mean log ds + mean log(1 - dt)) over the clamped verdicts, one graph node.
    Zero at perfect discrimination (source verdicts near 1, target near 0).
    """
    ds, ds_unclipped = _clamp(d_source, "d_source")
    dt, dt_unclipped = _clamp(d_target, "d_target")
    dt_complement = 1.0 - dt
    loss = -(np.log(ds).sum() * (1.0 / ds.size) + np.log(dt_complement).sum() * (1.0 / dt.size))

    def bw(g: np.ndarray) -> None:
        g_neg = g[0, 0] * -1.0
        d_source._accumulate(g_neg * (1.0 / ds.size) / ds * ds_unclipped)
        d_target._accumulate(-(g_neg * (1.0 / dt.size) / dt_complement) * dt_unclipped)

    return Tensor._node(np.array([[loss]]), (d_source, d_target), bw)


def generator_loss(d_target: Tensor) -> Tensor:
    """Non-saturating generator loss -mean log dt: drives target verdicts toward 1."""
    dt, unclipped = _clamp(d_target, "d_target")
    loss = -(np.log(dt).sum() * (1.0 / dt.size))

    def bw(g: np.ndarray) -> None:
        d_target._accumulate(g[0, 0] * -1.0 * (1.0 / dt.size) / dt * unclipped)

    return Tensor._node(np.array([[loss]]), (d_target,), bw)


def source_classification_loss(logits: Tensor, labels) -> Tensor:
    """Cross entropy of labeled rows: source labels or accepted pseudo-labels."""
    return softmax_cross_entropy(logits, labels)
