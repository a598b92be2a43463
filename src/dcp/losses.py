"""The three-part adversarial objective and its minimax update contract.

The discriminator's log-likelihood is implemented negated, so every
optimizer step in the trainer is a minimization. The generator uses the
non-saturating form, which keeps gradients usable when the discriminator
dominates early. Source classification is plain softmax cross entropy and is
reused verbatim for the clustering branch's head and for both heads on
accepted target pseudo-labels.
"""

from __future__ import annotations

from .tensor import DomainError, Tensor, softmax_cross_entropy

# Verdicts are squeezed into [CLAMP_EPS, 1 - CLAMP_EPS] before any log, so the
# losses stay finite for every input in [0, 1].
CLAMP_EPS = 1e-7


def _check_verdicts(d: Tensor, name: str) -> None:
    v = d.values
    if ((v < 0.0) | (v > 1.0)).any():
        bad = v[(v < 0.0) | (v > 1.0)][0]
        raise DomainError(f"{name} entries must lie in [0, 1]; found {bad}")


def discriminator_loss(d_source: Tensor, d_target: Tensor) -> Tensor:
    """Negated discriminator log-likelihood (a quantity to minimize).

    Zero at perfect discrimination (source verdicts near 1, target near 0).
    """
    _check_verdicts(d_source, "d_source")
    _check_verdicts(d_target, "d_target")
    ds = d_source.clamp(CLAMP_EPS, 1.0 - CLAMP_EPS)
    dt = d_target.clamp(CLAMP_EPS, 1.0 - CLAMP_EPS)
    return -(ds.log().mean() + (1.0 - dt).log().mean())


def generator_loss(d_target: Tensor) -> Tensor:
    """Non-saturating generator loss: drives target verdicts toward 1."""
    _check_verdicts(d_target, "d_target")
    dt = d_target.clamp(CLAMP_EPS, 1.0 - CLAMP_EPS)
    return -dt.log().mean()


def source_classification_loss(logits: Tensor, labels) -> Tensor:
    """Cross entropy of labeled rows: source labels or accepted pseudo-labels."""
    return softmax_cross_entropy(logits, labels)
