"""K-means assignment and double-threshold high-confidence pseudo-labeling.

A target sample earns a pseudo-label only when both branches predict the same
class AND the sample ranks inside each branch's per-class quota of
nearest-to-centroid samples. Quotas grow with the iteration count on two
logistic schedules, so labeling starts conservative and loosens as training
stabilizes. Quotas are identical for every class, which stops the selector
from feasting on easy classes. Selection takes numpy arrays: the features,
the predicted labels, each branch's (K x d_f) centroids, and the iteration
count t from which both thresholds follow.

K-means assigns each row to the argmin over clusters of |c|^2 - 2 x.c^T, one
matrix product per iteration (|x|^2 is the same for every cluster), and a
tie in that computed score goes to the lower cluster index. Rounding can
decide a row that is equidistant, in real arithmetic, from two clusters'
means otherwise than the direct form sum((x - c)^2) would: that happened in
9 of 9000 seeded cases of the reference test's generator, all on
integer-valued data.
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
    of ``out``. The counted classes' row sums are one product of their
    one-hot indicator rows with ``x``, the construction of
    ``centroids.compute_centroids``.
    """
    counted = np.flatnonzero(counts)
    onehot = labels == counted[:, None]
    out[counted] = onehot @ x / counts[counted, None]


def kmeans_assign(
    features: np.ndarray, init_centroids: np.ndarray, max_iters: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm from the given centroids.

    Each row goes to the argmin over clusters of ``|c|^2 - 2 x.c^T``, and a
    tie in that computed score goes to the lower cluster index. A row that is
    equidistant in real arithmetic from two centroids can go the other way
    than under the direct form ``sum((x - c)^2)``; see the module docstring
    for how often. A cluster that empties keeps its previous centroid.
    Because the trainer seeds the centroids from per-class source means,
    cluster index k means class k.
    """
    x = np.asarray(features, dtype=np.float64)
    centroids = np.array(init_centroids, dtype=np.float64)
    n, k = x.shape[0], centroids.shape[0]
    if k > n:
        raise ValueError(f"cannot form {k} clusters from {n} samples")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        scores = (centroids * centroids).sum(axis=1) - 2.0 * (x @ centroids.T)
        new_labels = scores.argmin(axis=1)
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
