"""Test-only graph pieces and reference implementations shared by the test modules."""

import numpy as np

from dcp.centroids import LOSS_EPS, DegenerateGeometryError, update_centroids_ema
from dcp.losses import CLAMP_EPS
from dcp.networks import Mlp, forward
from dcp.pseudo_label import per_class_quota, tau_adv, tau_clu
from dcp.tensor import SQRT_SHIFT, ShapeError, Tensor, linear_values, sigmoid_values


def contract(t: Tensor, weights) -> Tensor:
    """``sum(t * weights)`` as one 1 x 1 node: a scalar loss over a matrix output.

    ``t`` receives ``g * weights``, so a backward from here hands ``t`` exactly
    ``weights`` as its upstream gradient.
    """
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), t.shape)

    def bw(g):
        t._accumulate(g[0, 0] * w)

    return Tensor._node(np.array([[(t.values * w).sum()]]), (t,), bw)


def network(x: Tensor, weights, biases) -> Tensor:
    """``networks.forward`` over the given layer tensors: one graph node.

    Layer widths come from the weights, each (out x in); hidden layers are relu.
    """
    return forward(Mlp(list(weights), list(biases)), x)


# -- the per-layer chain the network node replaced ----------------------------
# One node per layer, with the rules the network node runs in one backward;
# tests compare the two bit for bit.


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """One layer as one node: ``x @ w.T + b.T``, then relu if asked."""
    h = linear_values(x.values, np.ascontiguousarray(w.values.T), b.values, relu)

    def bw(g):
        if relu:
            g = g * (h > 0.0)
        if x.requires_grad:
            x._accumulate(g @ w.values)
        w._accumulate((x.values.T @ g).T)
        b._accumulate(g.sum(axis=0, keepdims=True).T)

    return Tensor._node(h, (x, w, b), bw)


def layer_chain(net: Mlp, x: Tensor) -> Tensor:
    """The network forward as one node per layer."""
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = linear(h, w, b, relu=i < last)
    return h


# -- the discriminator with a sigmoid output and the verdict losses -----------
# The discriminator once ended in a sigmoid, with the rule
# ``g * out * (1 - out)``, and the adversarial losses took its verdicts. The
# losses now take its logits; tests require the same bits from both designs.


def sigmoid(t: Tensor) -> Tensor:
    """The logistic function as its own node, with the old network's sigmoid rule."""
    s = sigmoid_values(t.values)

    def bw(g):
        t._accumulate(g * s * (1.0 - s))

    return Tensor._node(s, (t,), bw)


def _clamp(v):
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    return np.clip(v, lo, hi), (v >= lo) & (v <= hi)


def verdict_discriminator_loss(d_source: Tensor, d_target: Tensor) -> Tensor:
    """The discriminator loss on verdicts in [0, 1], as one node."""
    ds, ds_unclipped = _clamp(d_source.values)
    dt, dt_unclipped = _clamp(d_target.values)
    dt_complement = 1.0 - dt
    loss = -(np.log(ds).sum() * (1.0 / ds.size) + np.log(dt_complement).sum() * (1.0 / dt.size))

    def bw(g):
        g_neg = g[0, 0] * -1.0
        d_source._accumulate(g_neg * (1.0 / ds.size) / ds * ds_unclipped)
        d_target._accumulate(-(g_neg * (1.0 / dt.size) / dt_complement) * dt_unclipped)

    return Tensor._node(np.array([[loss]]), (d_source, d_target), bw)


def verdict_generator_loss(d_target: Tensor) -> Tensor:
    """The generator loss on verdicts in [0, 1], as one node."""
    dt, unclipped = _clamp(d_target.values)
    loss = -(np.log(dt).sum() * (1.0 / dt.size))

    def bw(g):
        d_target._accumulate(g[0, 0] * -1.0 * (1.0 / dt.size) / dt * unclipped)

    return Tensor._node(np.array([[loss]]), (d_target,), bw)


# -- the per-branch alignment chain ------------------------------------------
# The centroids and alignment losses were once built branch by branch: each
# branch's centroids as a product of constant weights with a ``vstack`` of its
# source and target features, an EMA blend, a ``pairwise_euclidean`` node
# under a relativization for each matrix, and a discrepancy of two matrices.
# These are those nodes; tests require the stacked-bank nodes of
# ``centroids`` to give the same bits.


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with the standard gradient rules."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")

    def bw(g):
        a._accumulate(g @ b.values.T)
        b._accumulate(a.values.T @ g)

    return Tensor._node(a.values @ b.values, (a, b), bw)


def vstack(tensors) -> Tensor:
    """Stack tensors with equal column counts into one tall matrix."""
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeError("vstack of nothing")
    cols = tensors[0].cols
    for t in tensors[1:]:
        if t.cols != cols:
            raise ShapeError(f"vstack column mismatch: {t.shape} vs (*, {cols})")

    def bw(g):
        offset = 0
        for t in tensors:
            # a copy: a slice is a view of this node's gradient
            t._accumulate(g[offset : offset + t.rows].copy())
            offset += t.rows

    return Tensor._node(np.vstack([t.values for t in tensors]), tensors, bw)


def pairwise_euclidean(a: Tensor, b: Tensor) -> Tensor:
    """Matrix of Euclidean distances: entry (i, j) = ||a_i - b_j||.

    The forward value is exact (zero for coincident points); the backward rule
    uses the ``SQRT_SHIFT``-stabilized root so gradients stay finite there.
    """
    if a.cols != b.cols:
        raise ShapeError(f"feature dimensions differ: {a.shape} vs {b.shape}")
    diff = a.values[:, None, :] - b.values[None, :, :]
    sq = np.einsum("ijd,ijd->ij", diff, diff)

    def bw(g):
        w = g / np.sqrt(sq + SQRT_SHIFT)
        a._accumulate(w.sum(axis=1, keepdims=True) * a.values - w @ b.values)
        b._accumulate(w.sum(axis=0)[:, None] * b.values - w.T @ a.values)

    return Tensor._node(np.sqrt(sq), (a, b), bw)


def branch_centroids(features: Tensor, labels, k: int) -> Tensor:
    """One branch's (K x d_f) class means, every class labeled at least once."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    counts = np.bincount(labels[labels >= 0], minlength=k)
    weights = (np.arange(k)[:, None] == labels) / counts[:, None]
    return matmul(Tensor(weights), features)


def _relativize(dists: Tensor, scale: float) -> Tensor:
    d = dists.values
    norm = np.array([[d.sum()]]) * scale
    if norm[0, 0] == 0.0:
        raise DegenerateGeometryError("all distances are zero")

    def bw(g):
        g_norm = (-g * d / (norm * norm)).sum(axis=0, keepdims=True).sum(axis=1, keepdims=True)
        dists._accumulate(g / norm + g_norm[0, 0] * scale)

    return Tensor._node(d / norm, (dists,), bw)


def branch_cc_matrix(bank: Tensor) -> Tensor:
    """One branch's relativized centroid-centroid distances (K x K)."""
    k = bank.rows
    return _relativize(pairwise_euclidean(bank, bank), 1.0 / (k * k - k))


def branch_cs_matrix(bank: Tensor, features: Tensor) -> Tensor:
    """One branch's relativized centroid-sample distances (K x N_b)."""
    return _relativize(pairwise_euclidean(bank, features), 1.0 / (bank.rows * features.rows))


def discrepancy(m_cluster: Tensor, m_adv: Tensor) -> Tensor:
    """The alignment loss between two branches' matrices, scaled by 1 / their size."""
    scale = 1.0 / (m_adv.rows * m_adv.cols)
    diff = m_adv.values - m_cluster.values
    shifted = np.array([[(diff * diff).sum()]]) + LOSS_EPS

    def bw(g):
        g_shifted = g * scale / (2.0 * np.sqrt(shifted + SQRT_SHIFT))
        half = g_shifted[0, 0] * diff
        g_diff = half + half
        m_adv._accumulate(g_diff)
        m_cluster._accumulate(-g_diff)

    return Tensor._node(np.sqrt(shifted) * scale, (m_adv, m_cluster), bw)


def per_branch_alignment(features, labels, k, banks=None, theta=0.7):
    """L_CC, L_CS and both branches' banks, built as a training step built them.

    ``features`` is ``(fs_adv, ft_adv, fs_clu, ft_clu)``; ``banks`` is the
    previous ``(bank_adv, bank_clu)``, or None at the first step.
    """
    fs_adv, ft_adv, fs_clu, ft_clu = features
    fresh_adv = branch_centroids(vstack([fs_adv, ft_adv]), labels, k)
    fresh_clu = branch_centroids(vstack([fs_clu, ft_clu]), labels, k)
    if banks is None:
        bank_adv, bank_clu = fresh_adv, fresh_clu
    else:
        bank_adv = update_centroids_ema(banks[0], fresh_adv, theta)
        bank_clu = update_centroids_ema(banks[1], fresh_clu, theta)
    m_cc_adv = branch_cc_matrix(bank_adv)
    m_cc_clu = branch_cc_matrix(bank_clu)
    m_cs_adv = branch_cs_matrix(bank_adv, ft_adv)
    m_cs_clu = branch_cs_matrix(bank_clu, ft_clu)
    return discrepancy(m_cc_clu, m_cc_adv), discrepancy(m_cs_clu, m_cs_adv), bank_adv, bank_clu


# -- the per-branch selection that the stacked selection replaced ------------
# Two calls of the distance and ranking code, one per branch, each on its own
# (K x d_f) half of the bank; tests require the stacked selection to accept
# the same rows with the same labels.


def _distances_to_predicted_centroid(features, labels, centroids):
    diffs = features - centroids[labels]
    return np.sqrt((diffs * diffs).sum(axis=1))


def _branch_admitted(labels, dists, quota, k):
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


def per_branch_selection(
    features_adv, features_clu, labels_adv, labels_clu, centroids_adv, centroids_clu, t
):
    """Double-threshold screening, branch by branch; returns (indices, labels).

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

    adm_adv = _branch_admitted(y_adv, dist_adv, per_class_quota(tau_adv(t), n_b, k), k)
    adm_clu = _branch_admitted(y_clu, dist_clu, per_class_quota(tau_clu(t), n_b, k), k)

    selected = np.flatnonzero(adm_adv & adm_clu & (y_adv == y_clu))
    return selected, y_adv[selected]


# -- the per-class loops and kernels that whole-batch ops replaced ------------
# Each is the earlier code, kept as a reference; tests require the code that
# replaced it to give the same bits (np.array_equal) on randomized inputs.


def admitted_reference(labels, dists, quota, k):
    """Per class, the ``quota`` rows nearest its centroid, one class at a time."""
    admitted = np.zeros(labels.shape[0], dtype=bool)
    if quota <= 0:
        return admitted
    for cls in range(k):
        members = np.flatnonzero(labels == cls)
        ranked = members[np.lexsort((members, dists[members]))]
        admitted[ranked[:quota]] = True
    return admitted


def kmeans_reference(features, init_centroids, max_iters=20):
    """Lloyd's algorithm with a per-cluster ``mean`` update."""
    x = np.asarray(features, dtype=np.float64)
    centroids = np.array(init_centroids, dtype=np.float64)
    labels = np.full(x.shape[0], -1, dtype=np.int64)
    for _ in range(max_iters):
        sq = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = sq.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for cls in range(centroids.shape[0]):
            members = labels == cls
            if members.any():
                centroids[cls] = x[members].mean(axis=0)
    return labels, centroids


def seed_centroids_reference(features, labels, k):
    """The k-means seeds of a training step: each class's mean source feature."""
    seeds = np.zeros((k, features.shape[1]))
    for cls in range(k):
        seeds[cls] = features[labels == cls].mean(axis=0)
    return seeds


def centroid_weights_reference(labels, k):
    """The (K x N) weights of ``compute_centroids``: 1/count on a class's rows."""
    counts = np.bincount(labels[labels >= 0], minlength=k)
    weights = np.zeros((k, labels.shape[0]))
    for cls in range(k):
        weights[cls, labels == cls] = 1.0 / counts[cls]
    return weights


def sigmoid_reference(x):
    """The logistic function with ``exp(-|x|)`` evaluated three times."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def cross_entropy_reference(logits, labels):
    """Mean softmax cross entropy and its gradient by the logits, through ``log_probs``."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    log_probs = z - np.log(sez)
    loss = -log_probs[np.arange(n), labels].mean()
    local = ez / sez
    local[np.arange(n), labels] -= 1.0
    local /= n
    return loss, local
