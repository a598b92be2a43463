"""Test-only graph pieces and reference implementations shared by the test modules."""

import numpy as np

from dcp.centroids import LOSS_EPS, SQRT_SHIFT, DegenerateGeometryError, update_centroids_ema
from dcp.losses import (
    CLAMP_EPS,
    discriminator_loss,
    generator_loss,
    sigmoid_values,
    source_classification_loss,
)
from dcp.networks import Mlp, forward
from dcp.pseudo_label import per_class_quota, tau_adv, tau_clu
from dcp.tensor import ShapeError, Tensor, weighted_sum
from dcp.trainer import MetricsRecord, StepInfo, _check_finite


def contract(t: Tensor, weights) -> Tensor:
    """``sum(t * weights)`` as one 1 x 1 node: a scalar loss over a matrix output.

    ``t`` receives ``g * weights``, so a backward from here hands ``t`` exactly
    ``weights`` as its upstream gradient.
    """
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), t.shape)

    def bw(g):
        t._accumulate(g[0, 0] * w)

    return Tensor._node(np.array([[(t.values * w).sum()]]), (t,), bw)


def squared_norm(x: Tensor) -> Tensor:
    """``sum(x * x)`` as one 1 x 1 node, with the gradient ``2x``: the quadratic
    the engine's tests differentiate."""

    def bw(g):
        x._accumulate(g[0, 0] * 2.0 * x.values)

    return Tensor._node(np.array([[(x.values * x.values).sum()]]), (x,), bw)


def network(x: Tensor, weights, biases) -> Tensor:
    """``networks.forward`` over the given layer tensors: one graph node.

    Layer widths come from the weights, each (in x out), and each bias is
    (1 x out); hidden layers are relu.
    """
    return forward(Mlp(list(weights), list(biases)), x)


# -- the per-layer chain the network node replaced ----------------------------
# One node per layer, with the rules the network node runs in one backward;
# tests compare the two bit for bit.


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """One layer as one node: ``x @ w + b``, then relu if asked, on an
    (in x out) weight and a (1 x out) bias.

    The forward is its own ``@`` expression, not ``linear_values``, so the
    reference shares no kernel with the network node it is compared with.
    """
    h = x.values @ w.values + b.values
    if relu:
        h = np.maximum(h, 0.0)

    def bw(g):
        if relu:
            g = g * (h > 0.0)
        if x.requires_grad:
            x._accumulate(g @ w.values.T)
        w._accumulate(x.values.T @ g)
        b._accumulate(g.sum(axis=0, keepdims=True))

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


def per_branch_banks(features, labels, k, banks=None, theta=0.7):
    """Both branches' banks, fresh or blended into the previous ones.

    ``features`` is ``(fs_adv, ft_adv, fs_clu, ft_clu)``; ``banks`` is the
    previous ``(bank_adv, bank_clu)``, or None at the first step.
    """
    fs_adv, ft_adv, fs_clu, ft_clu = features
    fresh_adv = branch_centroids(vstack([fs_adv, ft_adv]), labels, k)
    fresh_clu = branch_centroids(vstack([fs_clu, ft_clu]), labels, k)
    if banks is None:
        return fresh_adv, fresh_clu
    return (
        update_centroids_ema(banks[0], fresh_adv, theta),
        update_centroids_ema(banks[1], fresh_clu, theta),
    )


def per_branch_alignment(features, labels, k, banks=None, theta=0.7):
    """L_CC, L_CS and both branches' banks, built as a training step built them.

    The arguments are those of ``per_branch_banks``.
    """
    _, ft_adv, _, ft_clu = features
    bank_adv, bank_clu = per_branch_banks(features, labels, k, banks, theta)
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


# -- the row gather that the -1-masked cross entropy replaced -----------------
# L_PL once gathered the selected target rows before each cross entropy; the
# cross entropy now skips the rows labeled -1 itself. Tests require the same
# bits from both where the rows are the same.


def gather_rows(t: Tensor, indices) -> Tensor:
    """The rows of ``t`` at ``indices``, which must be strictly increasing.

    A selection mask's ``np.flatnonzero`` gives such indices. Because no row
    repeats, the gradient is the upstream rows added into zeros at
    ``indices``; every other row gets zero.
    """
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    if indices.size and (indices[0] < 0 or indices[-1] >= t.rows):
        raise IndexError(f"rows {indices[0]}..{indices[-1]} out of range [0, {t.rows})")
    if (indices[1:] <= indices[:-1]).any():
        raise ValueError("gather_rows needs strictly increasing row indices")

    def bw(g):
        scattered = np.zeros(t.shape)
        scattered[indices] += g
        t._accumulate(scattered)

    return Tensor._node(t.values[indices], (t,), bw)


def gathered_pseudo_label_loss(logits_t_adv: Tensor, clu_head: Mlp, ft_clu: Tensor, pseudo):
    """L_PL through row gathers: the adversarial logits' selected rows, and the
    clustering head run on the selected rows of its target features only."""
    picked = np.flatnonzero(pseudo >= 0)
    labels = pseudo[picked]
    loss, _ = source_classification_loss(
        [gather_rows(logits_t_adv, picked), clu_head(gather_rows(ft_clu, picked))], [labels, labels]
    )
    return loss


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


class ListCycleSampler:
    """The batch sampler with its queues as Python lists: an equal share of
    each pool per batch, a pool's fresh permutation appended whenever its
    queue runs short."""

    def __init__(self, pools, batch_size, rng):
        self._rng = rng
        self._pools = pools
        self._queues = [[] for _ in pools]
        base, extra = divmod(batch_size, len(pools))
        self._per_pool = [base + (1 if i < extra else 0) for i in range(len(pools))]

    def next_batch(self):
        chosen = []
        for pool, queue, want in zip(self._pools, self._queues, self._per_pool):
            while len(queue) < want:
                queue.extend(self._rng.permutation(pool).tolist())
            chosen.extend(queue[:want])
            del queue[:want]
        return np.array(chosen, dtype=np.int64)


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


# -- a whole training step from the references ---------------------------------
# ``trainer.train_step`` rebuilt from the pieces above: ``layer_chain`` for
# every network call, ``seed_centroids_reference`` and ``kmeans_reference``
# for the clustering, ``per_branch_selection`` and ``per_branch_alignment``
# for the two branches, and cross entropies over ``cross_entropy_reference``.
# Tests run ``train`` with it in place of ``train_step`` and require the same
# records and weights, bit for bit.


def reference_cross_entropy(logits: Tensor, labels) -> Tensor:
    """The cross entropy of the labeled rows (label >= 0) as one node.

    The loss and the labeled rows' gradient come from
    ``cross_entropy_reference`` on those rows alone; the gradient is scattered
    into zeros, so every row labeled -1 gets a zero one.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    picked = np.flatnonzero(labels >= 0)
    loss, local = cross_entropy_reference(logits.values[picked], labels[picked])

    def bw(g):
        full = np.zeros(logits.shape)
        full[picked] = g[0, 0] * local
        logits._accumulate(full)

    return Tensor._node(np.array([[loss]]), (logits,), bw)


def flat_views(group, flat):
    """``flat``, one of an update group's flat arrays, cut into writable views
    of its tensors' shapes, in the group's order."""
    bounds = np.cumsum([0] + [p.values.size for p in group.tensors])
    return [flat[a:b].reshape(p.shape) for p, a, b in zip(group.tensors, bounds, bounds[1:])]


def write_parameter(state, p, values) -> None:
    """Store ``values`` as the parameter ``p`` of one of ``state``'s networks:
    written in place into its update group's flat parameter array."""
    for group in state.groups.values():
        for t, view in zip(group.tensors, flat_views(group, group.params)):
            if t is p:
                view[...] = values
                return
    raise ValueError("not a parameter of any update group")


def reference_sgd_update(state, names) -> None:
    """Momentum SGD on the named networks, one parameter at a time.

    ``v *= momentum; v += g``, then ``p - lr * v`` is stored as the new
    parameter, and ``g`` is zeroed; a parameter without a gradient takes a
    zero one. The reference keeps its own velocity, one array per
    parameter, in ``state.reference_velocity``, made at its first update.
    """
    cfg = state.config
    velocity = vars(state).setdefault("reference_velocity", {})
    for name in names:
        tensors = state.networks[name].tensors()
        for p, v in zip(tensors, velocity.setdefault(name, [np.zeros(p.shape) for p in tensors])):
            v *= cfg.momentum
            v += 0.0 if p.grad is None else p.grad
            write_parameter(state, p, p.values - cfg.lr * v)
            p.grad = None


def reference_train_step(state, source_batch, target_batch, target_batch_true_labels=None):
    """One iteration of ``train_step``'s method from the reference pieces.

    It changes ``state`` as ``train_step`` does and returns the same record and
    step info. ``state.banks`` holds the previous ``(bank_adv, bank_clu)``
    here, not their stack. Inputs are not checked, and a non-finite loss
    raises ``NumericsError`` without undoing the discriminator's update,
    which no checkpoint keeps.
    """
    cfg, k = state.config, state.k
    xs_values, ys = source_batch
    ys = np.asarray(ys, dtype=np.int64).reshape(-1)
    xs, xt = Tensor(xs_values), Tensor(target_batch)
    nets = state.networks
    disc = nets["discriminator"]

    fs_adv, ft_adv = layer_chain(nets["adv_extractor"], xs), layer_chain(nets["adv_extractor"], xt)
    fs_clu, ft_clu = layer_chain(nets["clu_extractor"], xs), layer_chain(nets["clu_extractor"], xt)
    logits_t_adv = layer_chain(nets["adv_head"], ft_adv)
    y_adv = logits_t_adv.values.argmax(axis=1)
    seeds = seed_centroids_reference(fs_clu.values, ys, k)
    y_clu, _ = kmeans_reference(ft_clu.values, seeds, cfg.kmeans_max_iters)

    pseudo = np.full(xt.rows, -1, dtype=np.int64)
    if cfg.use_pseudo_labels and state.banks is not None:
        bank_adv, bank_clu = state.banks
        rows, labels = per_branch_selection(
            ft_adv.values, ft_clu.values, y_adv, y_clu, bank_adv.values, bank_clu.values, state.t
        )
        pseudo[rows] = labels
    picked = np.flatnonzero(pseudo >= 0)

    union = np.concatenate([ys, pseudo])
    features = (fs_adv, ft_adv, fs_clu, ft_clu)
    try:
        l_cc, l_cs, *banks = per_branch_alignment(features, union, k, state.banks, cfg.ema_momentum)
        skipped = False
    except DegenerateGeometryError:
        # the banks still advance; only the alignment losses are skipped
        l_cc = l_cs = None
        banks = per_branch_banks(features, union, k, state.banks, cfg.ema_momentum)
        skipped = True

    l_d = discriminator_loss(
        layer_chain(disc, fs_adv.detached()), layer_chain(disc, ft_adv.detached())
    )
    _check_finite(state, l_d=l_d.item())
    l_d.backward()
    reference_sgd_update(state, ("discriminator",))

    l_c1 = reference_cross_entropy(layer_chain(nets["adv_head"], fs_adv), ys)
    l_c2 = reference_cross_entropy(layer_chain(nets["clu_head"], fs_clu), ys)
    l_g = generator_loss(layer_chain(disc.detached(), ft_adv))
    terms, l_pl = [l_c1, l_c2, l_g], None
    if picked.size:
        ce_adv = reference_cross_entropy(logits_t_adv, pseudo)
        ce_clu = reference_cross_entropy(layer_chain(nets["clu_head"], ft_clu), pseudo)
        l_pl = ce_adv.item() + ce_clu.item()
        terms += [ce_adv, ce_clu]
    weights = [1.0] * len(terms)
    if not skipped and cfg.alpha > 0.0:
        terms += [l_cc, l_cs]
        weights += [cfg.alpha, cfg.alpha]
    main_losses = {
        "l_g": l_g.item(),
        "l_c1": l_c1.item(),
        "l_c2": l_c2.item(),
        "l_cc": None if skipped else l_cc.item(),
        "l_cs": None if skipped else l_cs.item(),
        "l_pl": l_pl,
    }
    _check_finite(state, **main_losses)
    weighted_sum(terms, weights).backward()
    reference_sgd_update(state, ("adv_extractor", "adv_head", "clu_extractor", "clu_head"))

    precision = None
    if target_batch_true_labels is not None and picked.size:
        true_labels = np.asarray(target_batch_true_labels, dtype=np.int64).reshape(-1)
        precision = float(np.mean(pseudo[picked] == true_labels[picked]))
    record = MetricsRecord(
        T=state.t,
        l_d=l_d.item(),
        **main_losses,
        tau_adv=tau_adv(state.t),
        tau_clu=tau_clu(state.t),
        n_selected=picked.size,
        pseudo_precision=precision,
    )
    state.banks = tuple(bank.detached() for bank in banks)
    state.t += 1
    info = StepInfo(pseudo, y_adv, y_clu, skipped, target_batch_true_labels)
    return record, info
