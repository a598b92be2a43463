"""Class centroids, relativized distance matrices, and the alignment losses.

The two classifier branches, adversarial and clustering, are one batch axis
here: a centroid bank is a (2K x d_f) Tensor, the adversarial branch's K
class rows first, then the clustering branch's. Each function builds both
branches' values in one graph node, and the alignment losses compare the two
halves of a stacked matrix.

Distance matrices are relativized (each branch's divided by its own mean
entry) so the losses compare the shape of the class geometry, not its scale.
Centroid computation is a constant-weight matrix product, so gradients flow
from the losses all the way back to the features that produced the
centroids; the clustering branch is a learned regularizer, not a frozen
teacher.

Each formula here is one graph node: the centroids, the EMA blend, each
relativized distance matrix (over the plain-array kernel
:func:`distance_values`), each discrepancy. Per branch, their operations run
in a fixed order, on which the pinned metrics traces depend.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensor import ShapeError, Tensor

# Shift applied inside square roots on the gradient path so that distances and
# alignment losses keep finite gradients when their argument hits zero
# (coincident points, perfectly aligned matrices).
SQRT_SHIFT = 1e-12
# Shift under the square root of both alignment losses; keeps their gradients
# finite when the two matrices coincide.
LOSS_EPS = 1e-12


class DegenerateGeometryError(ValueError):
    """All relevant distances are zero, so relativization is undefined."""


def _branch_count(t: Tensor, what: str) -> int:
    """Rows per branch of ``t``, which stacks the adversarial half on the clustering half."""
    if t.rows % 2:
        raise ShapeError(f"{what} stacks two branches, so its row count is even; got {t.shape}")
    return t.rows // 2


def compute_centroids(
    adv: Sequence[Tensor], clu: Sequence[Tensor], labels, k: int
) -> Tensor:
    """Per-class means of both branches' labeled rows: a (2K x d_f) bank.

    ``adv`` and ``clu`` are each branch's feature blocks (source, then
    target) in the row order of ``labels``, where -1 means unlabeled; block
    i of one branch has the shape of block i of the other. The adversarial
    branch's K rows come first. Every class needs at least one labeled row.
    Differentiable with respect to every block.
    """
    adv, clu = tuple(adv), tuple(clu)
    if [t.shape for t in adv] != [t.shape for t in clu]:
        raise ShapeError(
            f"branch feature blocks differ: {[t.shape for t in adv]} vs {[t.shape for t in clu]}"
        )
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n = sum(t.rows for t in adv)
    if labels.shape[0] != n:
        raise ShapeError(f"{labels.shape[0]} labels for {n} feature rows")
    if ((labels < -1) | (labels >= k)).any():
        bad = labels[(labels < -1) | (labels >= k)][0]
        raise IndexError(f"label {bad} out of range [-1, {k})")
    counts = np.bincount(labels[labels >= 0], minlength=k)
    if (counts == 0).any():
        raise ValueError(
            f"cannot compute centroids: class {int(np.argmin(counts))} has no labeled row; "
            "unlabeled rows (-1) belong to no class"
        )
    # row c is 1/count_c on class c's rows and 0 elsewhere
    weights = (np.arange(k)[:, None] == labels) / counts[:, None]
    blocks = adv + clu
    features = np.concatenate([t.values for t in blocks]).reshape(2, n, -1)

    def bw(g: np.ndarray) -> None:
        # the weights are constant: only the features' gradient is computed.
        # Each block takes its own rows of this fresh product, which no
        # other block's gradient overlaps.
        g_rows = (weights.T @ g.reshape(2, k, -1)).reshape(2 * n, -1)
        start = 0
        for t in blocks:
            t._accumulate(g_rows[start : start + t.rows])
            start += t.rows

    return Tensor._node((weights @ features).reshape(2 * k, -1), blocks, bw)


def update_centroids_ema(bank: Tensor, fresh: Tensor, theta: float) -> Tensor:
    """Blend fresh centroids into the bank: c <- theta*c_old + (1-theta)*c_new.

    ``theta`` is the trainer's ``ema_momentum``, validated there. The old
    centroids enter as constants, so gradients reach only the fresh side.
    """
    if bank.shape != fresh.shape:
        raise ShapeError(f"bank shape {bank.shape} does not match fresh {fresh.shape}")
    blend = 1.0 - theta

    def bw(g: np.ndarray) -> None:
        fresh._accumulate(g * blend)

    # 1 - blend, not theta: the two can differ in the last bit
    return Tensor._node(fresh.values * blend + bank.values * (1.0 - blend), (fresh,), bw)


def distance_values(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean distances between rows, per branch, and their squares, on plain arrays.

    ``a`` is (B x M x d) and ``b`` is (B x N x d); entry (i, j, l) of each
    result is for the rows ``a[i, j]`` and ``b[i, l]``. The distance is
    exact, zero for coincident points; the squares are what a backward rule
    shifts by ``SQRT_SHIFT`` to keep its gradient finite there.
    """
    diff = a[:, :, None, :] - b[:, None, :, :]
    sq = np.einsum("bijd,bijd->bij", diff, diff)
    return np.sqrt(sq), sq


def _relative_distances(
    banks: Tensor, samples: tuple[Tensor, Tensor] | None, degenerate: str
) -> Tensor:
    """Each branch's centroid distances divided by their own mean, as one node.

    The distances are to the branch's own centroids when ``samples`` is
    None, else to its sample rows. Raises ``degenerate`` if any branch's
    distances are all zero.
    """
    k = banks.rows // 2
    c = banks.values.reshape(2, k, -1)
    b = c if samples is None else np.array([t.values for t in samples])
    d, sq = distance_values(c, b)
    scale = 1.0 / (k * k - k) if samples is None else 1.0 / (k * b.shape[1])
    # The diagonal of a centroid-centroid matrix is exactly zero, so the full
    # sum is its off-diagonal sum.
    norm = np.add.reduce(d.reshape(2, -1), axis=1)[:, None, None] * scale
    if (norm == 0.0).any():
        raise DegenerateGeometryError(degenerate)

    def bw(g: np.ndarray) -> None:
        g = g.reshape(d.shape)
        g_norm = (-g * d / (norm * norm)).sum(axis=1, keepdims=True).sum(axis=2, keepdims=True)
        w = (g / norm + g_norm * scale) / np.sqrt(sq + SQRT_SHIFT)
        g_c = w.sum(axis=2, keepdims=True) * c - w @ b
        g_b = w.sum(axis=1)[:, :, None] * b - w.transpose(0, 2, 1) @ c
        banks._accumulate(g_c.reshape(banks.shape))
        if samples is None:
            # both operands of the distances are the bank
            banks._accumulate(g_b.reshape(banks.shape))
        else:
            for t, g_t in zip(samples, g_b):
                t._accumulate(g_t)

    parents = (banks,) if samples is None else (banks, *samples)
    return Tensor._node((d / norm).reshape(2 * k, -1), parents, bw)


def centroid_centroid_matrix(banks: Tensor) -> Tensor:
    """Relativized pairwise distances between each branch's class centroids (2K x K).

    Each branch's K x K block is divided by its mean off-diagonal entry, so
    the result is invariant under uniform scaling of the feature space.
    """
    if _branch_count(banks, "a centroid bank") < 2:
        raise ValueError(f"need at least 2 classes, got {banks.rows // 2}")
    return _relative_distances(banks, None, "all centroids coincide; relative distances undefined")


def centroid_sample_matrix(banks: Tensor, features_adv: Tensor, features_clu: Tensor) -> Tensor:
    """Relativized centroid-to-sample distances of each branch (2K x N_b), mean-normalized."""
    _branch_count(banks, "a centroid bank")
    if features_adv.shape != features_clu.shape or features_adv.cols != banks.cols:
        raise ShapeError(
            f"features of shapes {features_adv.shape} and {features_clu.shape} "
            f"for centroids with {banks.cols} columns"
        )
    return _relative_distances(
        banks,
        (features_adv, features_clu),
        "every sample coincides with every centroid; relative distances undefined",
    )


def _matrix_discrepancy(m: Tensor, scale: float) -> Tensor:
    """Scaled Frobenius distance between the adversarial and the clustering half of ``m``."""
    half = m.rows // 2
    diff = m.values[:half] - m.values[half:]
    # the 1 x 1 arithmetic on Python floats: the same IEEE operations, in order
    shifted = (diff * diff).sum().item() + LOSS_EPS

    def bw(g: np.ndarray) -> None:
        g_shifted = g.item() * scale / (2.0 * math.sqrt(shifted + SQRT_SHIFT))
        half_diff = g_shifted * diff
        g_diff = half_diff + half_diff
        m._accumulate(np.concatenate([g_diff, -g_diff]))

    return Tensor._node(np.array([[math.sqrt(shifted) * scale]]), (m,), bw)


def loss_cc(m: Tensor) -> Tensor:
    """Centroid-centroid alignment loss between the two branches' halves of ``m`` (2K x K)."""
    k = _branch_count(m, "a centroid-centroid matrix")
    if m.cols != k:
        raise ShapeError(f"centroid-centroid matrices have 2K x K entries, got {m.shape}")
    return _matrix_discrepancy(m, 1.0 / (k * k))


def loss_cs(m: Tensor) -> Tensor:
    """Centroid-sample alignment loss between the two branches' halves of ``m`` (2K x N_b)."""
    k = _branch_count(m, "a centroid-sample matrix")
    return _matrix_discrepancy(m, 1.0 / (k * m.cols))
