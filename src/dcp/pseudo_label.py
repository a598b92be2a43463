"""K-means assignment and double-threshold high-confidence pseudo-labeling.

A target sample earns a pseudo-label only when both branches predict the same
class AND the sample ranks inside each branch's per-class quota of
nearest-to-centroid samples. Quotas grow with the iteration count on two
logistic schedules, so labeling starts conservative and loosens as training
stabilizes. Quotas are identical for every class, which stops the selector
from feasting on easy classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centroids import CentroidBank
from .tensor import Tensor


def tau_adv(t: int) -> float:
    """Adversarial-branch threshold fraction at iteration ``t``.

    Rises from 0.4 toward 0.9 on a slow logistic in t^2.
    """
    if t < 0:
        raise ValueError(f"iteration must be nonnegative, got {t}")
    return 1.0 / (1.0 + math.exp(-0.0001 * t * t)) - 0.1


def tau_clu(t: int) -> float:
    """Clustering-branch threshold fraction: 0.5 toward 1.0, faster ramp."""
    if t < 0:
        raise ValueError(f"iteration must be nonnegative, got {t}")
    return 1.0 / (1.0 + math.exp(-0.01 * t))


@dataclass(frozen=True)
class ThresholdState:
    """Iteration counter with the two schedule values derived from it."""

    iteration: int = 0

    def __post_init__(self):
        if self.iteration < 0:
            raise ValueError(f"iteration must be nonnegative, got {self.iteration}")

    @property
    def tau_adv(self) -> float:
        return tau_adv(self.iteration)

    @property
    def tau_clu(self) -> float:
        return tau_clu(self.iteration)

    def advanced(self) -> "ThresholdState":
        return ThresholdState(self.iteration + 1)


def per_class_quota(tau: float, n_b: int, k: int) -> int:
    """floor(tau * N_b / K); identical for every class. Zero is legal."""
    return int(math.floor(tau * n_b / k))


def kmeans_assign(
    features, init_centroids, max_iters: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm from the given centroids.

    Assignment ties break toward the lower cluster index; a cluster that
    empties keeps its previous centroid. Because the trainer seeds the
    centroids from per-class source means, cluster index k means class k.
    """
    x = features.values if isinstance(features, Tensor) else np.asarray(features, dtype=np.float64)
    centroids = (
        init_centroids.values if isinstance(init_centroids, Tensor) else np.asarray(init_centroids, dtype=np.float64)
    ).copy()
    n, k = x.shape[0], centroids.shape[0]
    if k > n:
        raise ValueError(f"cannot form {k} clusters from {n} samples")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        sq = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = sq.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for cls in range(k):
            members = labels == cls
            if members.any():
                centroids[cls] = x[members].mean(axis=0)
    return labels, centroids


@dataclass
class PseudoLabelBatch:
    """Target-batch samples that passed the double-threshold filter."""

    indices: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    @classmethod
    def empty(cls) -> "PseudoLabelBatch":
        return cls(indices=np.zeros(0, dtype=np.int64), labels=np.zeros(0, dtype=np.int64))


def _distances_to_predicted_centroid(
    features: np.ndarray, labels: np.ndarray, bank: CentroidBank
) -> np.ndarray:
    diffs = features - bank.centroids.values[labels]
    return np.sqrt((diffs * diffs).sum(axis=1))


def _admitted(labels: np.ndarray, dists: np.ndarray, bank: CentroidBank, quota: int, k: int) -> np.ndarray:
    admitted = np.zeros(labels.shape[0], dtype=bool)
    if quota <= 0:
        return admitted
    for cls in range(k):
        if bank.counts[cls] == 0:
            continue  # never-observed class: no trustworthy centroid to rank against
        members = np.flatnonzero(labels == cls)
        ranked = members[np.lexsort((members, dists[members]))]
        admitted[ranked[:quota]] = True
    return admitted


def select_high_confidence(
    features_adv,
    features_clu,
    labels_adv,
    labels_clu,
    bank_adv: CentroidBank,
    bank_clu: CentroidBank,
    state: ThresholdState,
    k: int,
) -> PseudoLabelBatch:
    """Double-threshold screening of one target mini-batch.

    Per branch and per predicted class, samples are ranked by distance to
    that class's centroid (ties break toward the lower batch index) and only
    the top ``floor(tau * N_b / K)`` are admitted. A sample is selected iff
    both branches admit it and agree on its label.
    """
    f_adv = features_adv.values if isinstance(features_adv, Tensor) else np.asarray(features_adv)
    f_clu = features_clu.values if isinstance(features_clu, Tensor) else np.asarray(features_clu)
    y_adv = np.asarray(labels_adv, dtype=np.int64).reshape(-1)
    y_clu = np.asarray(labels_clu, dtype=np.int64).reshape(-1)
    n_b = y_adv.shape[0]
    if not (f_adv.shape[0] == f_clu.shape[0] == y_clu.shape[0] == n_b):
        raise ValueError("branch outputs must cover the same target batch in the same order")

    dist_adv = _distances_to_predicted_centroid(f_adv, y_adv, bank_adv)
    dist_clu = _distances_to_predicted_centroid(f_clu, y_clu, bank_clu)

    quota_adv = per_class_quota(state.tau_adv, n_b, k)
    quota_clu = per_class_quota(state.tau_clu, n_b, k)
    adm_adv = _admitted(y_adv, dist_adv, bank_adv, quota_adv, k)
    adm_clu = _admitted(y_clu, dist_clu, bank_clu, quota_clu, k)

    selected = np.flatnonzero(adm_adv & adm_clu & (y_adv == y_clu))
    return PseudoLabelBatch(indices=selected, labels=y_adv[selected])
