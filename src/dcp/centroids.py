"""Class centroids, relativized distance matrices, and the alignment losses.

Distance matrices are relativized (divided by their mean entry) so the losses
compare the shape of the class geometry, not its scale. Centroid computation
is a constant-weight matrix product, so gradients flow from the losses all the
way back to the features that produced the centroids; the clustering branch is
a learned regularizer, not a frozen teacher.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, matmul, pairwise_euclidean

# Shift under the square root of both alignment losses; keeps their gradients
# finite when the two matrices coincide.
LOSS_EPS = 1e-12


class DegenerateGeometryError(ValueError):
    """All relevant distances are zero, so relativization is undefined."""


@dataclass
class CentroidBank:
    """Per-class centroids with how many samples have shaped each of them.

    ``counts`` accumulates across EMA updates; a class with count 0 has never
    been observed and retains its placeholder centroid.
    """

    centroids: Tensor
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64).reshape(-1)
        if self.centroids.rows < 2:
            raise ValueError(f"need at least 2 classes, got {self.centroids.rows}")
        if self.counts.shape[0] != self.centroids.rows:
            raise ShapeError(
                f"{self.counts.shape[0]} counts for {self.centroids.rows} centroids"
            )

    @property
    def k(self) -> int:
        return self.centroids.rows

    @property
    def d_f(self) -> int:
        return self.centroids.cols

    def detached(self) -> "CentroidBank":
        return CentroidBank(centroids=self.centroids.detached(), counts=self.counts.copy())


def compute_centroids(features: Tensor, labels, k: int) -> CentroidBank:
    """Per-class mean of the labeled feature rows; label -1 means unlabeled.

    Classes absent from the batch get count 0 and a zero placeholder row.
    Differentiable with respect to ``features``.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.shape[0] != features.rows:
        raise ShapeError(f"{labels.shape[0]} labels for {features.rows} feature rows")
    if ((labels < -1) | (labels >= k)).any():
        bad = labels[(labels < -1) | (labels >= k)][0]
        raise IndexError(f"label {bad} out of range [-1, {k})")
    if (labels == -1).all():
        raise ValueError("cannot compute centroids: every sample is unlabeled")
    counts = np.bincount(labels[labels >= 0], minlength=k)
    weights = np.zeros((k, features.rows))
    for cls in range(k):
        members = labels == cls
        if counts[cls]:
            weights[cls, members] = 1.0 / counts[cls]
    return CentroidBank(centroids=matmul(Tensor(weights), features), counts=counts)


def update_centroids_ema(
    bank: CentroidBank, fresh: CentroidBank, theta: float
) -> CentroidBank:
    """Blend fresh centroids into the bank: c <- theta*c_old + (1-theta)*c_new.

    ``theta`` is the trainer's ``ema_momentum``, validated there. Classes with
    no fresh samples keep their previous centroid. The old centroids enter as
    constants, so gradients reach only the fresh side.
    """
    if (bank.k, bank.d_f) != (fresh.k, fresh.d_f):
        raise ShapeError(
            f"bank shape {(bank.k, bank.d_f)} does not match fresh {(fresh.k, fresh.d_f)}"
        )
    # one constant blend weight per row: 1 - theta where fresh samples
    # arrived, 0 where none did
    blend = np.where(fresh.counts > 0, 1.0 - theta, 0.0)
    blend = np.repeat(blend[:, None], bank.d_f, axis=1)
    kept = bank.centroids.values * (1.0 - blend)
    centroids = fresh.centroids * Tensor(blend) + Tensor(kept)
    return CentroidBank(centroids=centroids, counts=bank.counts + fresh.counts)


def centroid_centroid_matrix(bank: CentroidBank) -> Tensor:
    """Relativized pairwise distances between class centroids (K x K).

    Divided by the mean off-diagonal entry, so the result is invariant under
    uniform scaling of the feature space.
    """
    dists = pairwise_euclidean(bank.centroids, bank.centroids)
    k = bank.k
    # The diagonal is exactly zero, so the full sum is the off-diagonal sum.
    mean_off_diagonal = dists.sum() * (1.0 / (k * k - k))
    if mean_off_diagonal.item() == 0.0:
        raise DegenerateGeometryError("all centroids coincide; relative distances undefined")
    return dists / mean_off_diagonal


def centroid_sample_matrix(bank: CentroidBank, features: Tensor) -> Tensor:
    """Relativized centroid-to-sample distances (K x N_b), mean-normalized."""
    if features.cols != bank.d_f:
        raise ShapeError(
            f"features have {features.cols} columns, centroids have {bank.d_f}"
        )
    dists = pairwise_euclidean(bank.centroids, features)
    mean_entry = dists.mean()
    if mean_entry.item() == 0.0:
        raise DegenerateGeometryError(
            "every sample coincides with every centroid; relative distances undefined"
        )
    return dists / mean_entry


def _matrix_discrepancy(m_cluster: Tensor, m_adv: Tensor, scale: float) -> Tensor:
    if m_cluster.shape != m_adv.shape:
        raise ShapeError(f"matrix shapes differ: {m_cluster.shape} vs {m_adv.shape}")
    diff = m_adv - m_cluster
    return ((diff * diff).sum() + LOSS_EPS).sqrt() * scale


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
