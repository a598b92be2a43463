"""Test-only graph pieces and reference implementations shared by the test modules."""

import numpy as np

from dcp.losses import CLAMP_EPS
from dcp.networks import Mlp, forward
from dcp.tensor import Tensor, linear_values, sigmoid_values


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
