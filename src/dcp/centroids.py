"""Class centroids, relativized distance matrices, and the alignment losses.

Distance matrices are relativized (divided by their mean entry) so the losses
compare the shape of the class geometry, not its scale. Centroid computation
is a constant-weight matrix product, so gradients flow from the losses all the
way back to the features that produced the centroids; the clustering branch is
a learned regularizer, not a frozen teacher. A centroid bank is a plain
(K x d_f) Tensor, one row per class.

Each formula here is one graph node: the EMA blend, the relativization of a
``pairwise_euclidean`` distance matrix, the discrepancy of two matrices. Their
operations run in a fixed order, on which the pinned metrics traces depend.
"""

from __future__ import annotations

import numpy as np

from .tensor import SQRT_SHIFT, ShapeError, Tensor, matmul, pairwise_euclidean

# Shift under the square root of both alignment losses; keeps their gradients
# finite when the two matrices coincide.
LOSS_EPS = 1e-12


class DegenerateGeometryError(ValueError):
    """All relevant distances are zero, so relativization is undefined."""


def compute_centroids(features: Tensor, labels, k: int) -> Tensor:
    """Per-class mean of the labeled feature rows (K x d_f); label -1 means unlabeled.

    Every class needs at least one labeled row. Differentiable with respect
    to ``features``.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.shape[0] != features.rows:
        raise ShapeError(f"{labels.shape[0]} labels for {features.rows} feature rows")
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
    return matmul(Tensor(weights), features)


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


def _relativize(dists: Tensor, scale: float, degenerate: str) -> Tensor:
    """``dists`` over ``scale`` times its entry sum; raises ``degenerate`` if that is zero."""
    d = dists.values
    norm = np.array([[d.sum()]]) * scale
    if norm[0, 0] == 0.0:
        raise DegenerateGeometryError(degenerate)

    def bw(g: np.ndarray) -> None:
        g_norm = (-g * d / (norm * norm)).sum(axis=0, keepdims=True).sum(axis=1, keepdims=True)
        dists._accumulate(g / norm + g_norm[0, 0] * scale)

    return Tensor._node(d / norm, (dists,), bw)


def centroid_centroid_matrix(centroids: Tensor) -> Tensor:
    """Relativized pairwise distances between class centroids (K x K).

    Divided by the mean off-diagonal entry, so the result is invariant under
    uniform scaling of the feature space.
    """
    k = centroids.rows
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    # The diagonal is exactly zero, so the full sum is the off-diagonal sum.
    return _relativize(
        pairwise_euclidean(centroids, centroids),
        1.0 / (k * k - k),
        "all centroids coincide; relative distances undefined",
    )


def centroid_sample_matrix(centroids: Tensor, features: Tensor) -> Tensor:
    """Relativized centroid-to-sample distances (K x N_b), mean-normalized."""
    if features.cols != centroids.cols:
        raise ShapeError(
            f"features have {features.cols} columns, centroids have {centroids.cols}"
        )
    return _relativize(
        pairwise_euclidean(centroids, features),
        1.0 / (centroids.rows * features.rows),
        "every sample coincides with every centroid; relative distances undefined",
    )


def _matrix_discrepancy(m_cluster: Tensor, m_adv: Tensor, scale: float) -> Tensor:
    if m_cluster.shape != m_adv.shape:
        raise ShapeError(f"matrix shapes differ: {m_cluster.shape} vs {m_adv.shape}")
    diff = m_adv.values - m_cluster.values
    shifted = np.array([[(diff * diff).sum()]]) + LOSS_EPS

    def bw(g: np.ndarray) -> None:
        g_shifted = g * scale / (2.0 * np.sqrt(shifted + SQRT_SHIFT))
        half = g_shifted[0, 0] * diff
        g_diff = half + half
        m_adv._accumulate(g_diff)
        m_cluster._accumulate(-g_diff)

    return Tensor._node(np.sqrt(shifted) * scale, (m_adv, m_cluster), bw)


def loss_cc(m_cluster: Tensor, m_adv: Tensor) -> Tensor:
    """Centroid-centroid alignment loss between the two branches' matrices."""
    k = m_cluster.rows
    if m_cluster.cols != k:
        raise ShapeError(f"centroid-centroid matrices must be square, got {m_cluster.shape}")
    return _matrix_discrepancy(m_cluster, m_adv, 1.0 / (k * k))


def loss_cs(m_cluster: Tensor, m_adv: Tensor) -> Tensor:
    """Centroid-sample alignment loss between the two branches' matrices."""
    k, n_b = m_cluster.shape
    return _matrix_discrepancy(m_cluster, m_adv, 1.0 / (k * n_b))
