"""K-means assignment and double-threshold high-confidence pseudo-labeling.

A target sample earns a pseudo-label only when both branches predict the same
class AND the sample ranks inside each branch's per-class quota of
nearest-to-centroid samples. Quotas grow with the iteration count on two
logistic schedules, so labeling starts conservative and loosens as training
stabilizes. Quotas are identical for every class, which stops the selector
from feasting on easy classes. Selection treats the two branches as one
batch axis, as ``centroids`` does: it takes both branches' features and
predicted labels stacked on a leading axis, their (2K x d_f) centroid bank
and the iteration count t from which both thresholds follow, and ranks every
(branch, class) group in one sort. It returns one label per batch row, -1
where none was accepted.

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
    of ``out``. The row sums are one product of every class's one-hot
    indicator row with ``x``, the construction of
    ``centroids.compute_centroids``, divided into ``out`` where a class is
    counted.
    """
    onehot = labels == np.arange(counts.size)[:, None]
    column = counts[:, None]
    np.divide(np.dot(onehot, x), column, out=out, where=column > 0)


def kmeans_assign(
    features: np.ndarray, init_centroids: np.ndarray, max_iters: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm from the given centroids.

    Each row goes to the argmin over clusters of ``|c|^2 - 2 x.c^T``, and a
    tie in that computed score goes to the lower cluster index. The score is
    computed in place as ``-2 x.c^T + |c|^2``, which has the same bits:
    doubling is exact, and ``a + (-b)`` is ``a - b``. A row that is
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
        # |c|^2 - 2 x.c^T, in place
        scores = np.dot(x, centroids.T)
        scores *= -2.0
        scores += np.add.reduce(centroids * centroids, axis=1)
        new_labels = scores.argmin(axis=1)
        if (new_labels == labels).all():
            break
        labels = new_labels
        class_means(x, labels, np.bincount(labels, minlength=k), centroids)
    return labels, centroids


def _admitted(groups: np.ndarray, dists: np.ndarray, quotas: np.ndarray) -> np.ndarray:
    """Per group g, the ``quotas[g]`` rows nearest its centroid; ties go to the lower index.

    ``groups`` must lie in [0, len(quotas)). One sort ranks every group at once:
    rows ordered by group, then distance, then index, where a row's rank
    within its group is its position minus the count of rows in lower groups.
    """
    n = groups.shape[0]
    positions = np.arange(n)
    order = np.lexsort((positions, dists, groups))
    counts = np.bincount(groups, minlength=quotas.shape[0])
    group_start = np.cumsum(counts) - counts
    ordered = groups[order]
    admitted = np.zeros(n, dtype=bool)
    admitted[order[positions - group_start[ordered] < quotas[ordered]]] = True
    return admitted


def select_high_confidence(
    features: np.ndarray, labels: np.ndarray, banks: np.ndarray, t: int
) -> np.ndarray:
    """Double-threshold screening of one target mini-batch at iteration ``t``.

    ``features`` (2 x N_b x d_f) and ``labels`` (2 x N_b) are both branches'
    target features and predicted labels, and ``banks`` is their (2K x d_f)
    centroid bank; the adversarial branch comes first in all three. Per
    branch and per predicted class, samples are ranked by distance to that
    class's centroid (ties break toward the lower batch index) and only the
    top ``floor(tau * N_b / K)`` are admitted, with tau_adv(t) for the
    adversarial branch and tau_clu(t) for the clustering branch. A sample is
    selected iff both branches admit it and agree on its label.

    Returns the (N_b,) pseudo-label of each batch row, -1 where none was
    accepted: the form of ``compute_centroids``' union labels.
    """
    labels = np.asarray(labels, dtype=np.int64)
    k = banks.shape[0] // 2
    if banks.ndim != 2 or banks.shape[0] != 2 * k:
        raise ValueError(f"centroid bank of shape {banks.shape} is not (2K x d_f)")
    expected = (2, labels.shape[-1], banks.shape[1])
    if labels.shape != expected[:2] or features.shape != expected:
        raise ValueError(
            f"features {features.shape} and labels {labels.shape} must cover one target batch "
            f"for both branches, as (2, N_b, {banks.shape[1]}) and (2, N_b)"
        )
    out_of_range = (labels < 0) | (labels >= k)
    if out_of_range.any():
        branch, row = np.argwhere(out_of_range)[0]
        name = ("adversarial", "clustering")[branch]
        raise ValueError(f"{name} branch holds label {labels[branch, row]}, outside [0, {k})")

    n_b = labels.shape[1]
    # each row's centroid is bank row label + K * branch, and so is its group
    groups = labels + np.array([[0], [k]])
    diffs = features - banks[groups]
    dists = np.sqrt((diffs * diffs).sum(axis=2))
    quota_adv = per_class_quota(tau_adv(t), n_b, k)
    quota_clu = per_class_quota(tau_clu(t), n_b, k)
    quotas = np.array([quota_adv] * k + [quota_clu] * k)
    adv, clu = _admitted(groups.ravel(), dists.ravel(), quotas).reshape(2, n_b)
    return np.where(adv & clu & (labels[0] == labels[1]), labels[0], -1)
