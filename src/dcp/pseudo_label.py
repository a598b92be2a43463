"""K-means assignment and double-threshold high-confidence pseudo-labeling.

A target sample earns a pseudo-label only when both branches predict the same
class AND the sample ranks inside each branch's per-class quota of
nearest-to-centroid samples. Quotas grow with the iteration count on two
logistic schedules, so labeling starts conservative and loosens as training
stabilizes. Quotas are identical for every class, which stops the selector
from feasting on easy classes. Selection takes numpy arrays: the features,
the predicted labels, each branch's (K x d_f) centroids, and the iteration
count t from which both thresholds follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def per_class_quota(tau: float, n_b: int, k: int) -> int:
    """floor(tau * N_b / K); identical for every class. Zero is legal."""
    return int(math.floor(tau * n_b / k))


def class_means(x: np.ndarray, labels: np.ndarray, counts: np.ndarray, out: np.ndarray) -> None:
    """Set ``out[c]`` to the mean of the rows of ``x`` labeled ``c``, for every c counted.

    ``counts`` is ``np.bincount(labels)``; a class with count 0 keeps its row
    of ``out``. Each mean is the row sum over the count, which is how
    ``mean(axis=0)`` computes it, so the bits are the same.
    """
    for cls in np.flatnonzero(counts):
        out[cls] = np.add.reduce(x[labels == cls], axis=0) / counts[cls]


def kmeans_assign(
    features: np.ndarray, init_centroids: np.ndarray, max_iters: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm from the given centroids.

    Assignment ties break toward the lower cluster index; a cluster that
    empties keeps its previous centroid. Because the trainer seeds the
    centroids from per-class source means, cluster index k means class k.
    """
    x = np.asarray(features, dtype=np.float64)
    centroids = np.array(init_centroids, dtype=np.float64)
    n, k = x.shape[0], centroids.shape[0]
    if k > n:
        raise ValueError(f"cannot form {k} clusters from {n} samples")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    labels = np.full(n, -1, dtype=np.int64)
    rows = x[:, None, :]
    for _ in range(max_iters):
        diff = rows - centroids[None, :, :]
        new_labels = np.add.reduce(diff * diff, axis=2).argmin(axis=1)
        if (new_labels == labels).all():
            break
        labels = new_labels
        class_means(x, labels, np.bincount(labels, minlength=k), centroids)
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
    features: np.ndarray, labels: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    diffs = features - centroids[labels]
    return np.sqrt((diffs * diffs).sum(axis=1))


def _admitted(labels: np.ndarray, dists: np.ndarray, quota: int, k: int) -> np.ndarray:
    """Per class, the ``quota`` rows nearest its centroid; ties go to the lower index.

    ``labels`` must lie in [0, k). One sort ranks every class at once: rows
    ordered by label, then distance, then index, where a row's rank within
    its class is its position minus the count of rows in lower classes.
    """
    n = labels.shape[0]
    admitted = np.zeros(n, dtype=bool)
    if quota <= 0:
        return admitted
    positions = np.arange(n)
    order = np.lexsort((positions, dists, labels))
    counts = np.bincount(labels, minlength=k)
    class_start = np.cumsum(counts) - counts
    admitted[order[positions - class_start[labels[order]] < quota]] = True
    return admitted


def select_high_confidence(
    features_adv: np.ndarray,
    features_clu: np.ndarray,
    labels_adv: np.ndarray,
    labels_clu: np.ndarray,
    centroids_adv: np.ndarray,
    centroids_clu: np.ndarray,
    t: int,
) -> PseudoLabelBatch:
    """Double-threshold screening of one target mini-batch at iteration ``t``.

    Each branch's centroids are a (K x d_f) array, one row per class. Per
    branch and per predicted class, samples are ranked by distance to that
    class's centroid (ties break toward the lower batch index) and only the
    top ``floor(tau * N_b / K)`` are admitted. A sample is selected iff both
    branches admit it and agree on its label.
    """
    if centroids_adv.shape != centroids_clu.shape:
        raise ValueError(
            f"centroid shapes differ: {centroids_adv.shape} vs {centroids_clu.shape}"
        )
    k = centroids_adv.shape[0]
    y_adv = np.asarray(labels_adv, dtype=np.int64).reshape(-1)
    y_clu = np.asarray(labels_clu, dtype=np.int64).reshape(-1)
    n_b = y_adv.shape[0]
    if not (features_adv.shape[0] == features_clu.shape[0] == y_clu.shape[0] == n_b):
        raise ValueError("branch outputs must cover the same target batch in the same order")
    for name, y in (("labels_adv", y_adv), ("labels_clu", y_clu)):
        out_of_range = (y < 0) | (y >= k)
        if out_of_range.any():
            raise ValueError(f"{name} holds label {y[out_of_range][0]}, outside [0, {k})")

    dist_adv = _distances_to_predicted_centroid(features_adv, y_adv, centroids_adv)
    dist_clu = _distances_to_predicted_centroid(features_clu, y_clu, centroids_clu)

    adm_adv = _admitted(y_adv, dist_adv, per_class_quota(tau_adv(t), n_b, k), k)
    adm_clu = _admitted(y_clu, dist_clu, per_class_quota(tau_clu(t), n_b, k), k)

    selected = np.flatnonzero(adm_adv & adm_clu & (y_adv == y_clu))
    return PseudoLabelBatch(indices=selected, labels=y_adv[selected])
