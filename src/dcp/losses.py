"""The three-part adversarial objective and its minimax update contract.

The discriminator emits one domain logit per row, and the two adversarial
losses apply the logistic function to it: the verdict that a row comes from
the source. The discriminator's log-likelihood is implemented negated, so
every optimizer step in the trainer is a minimization. The generator uses the
non-saturating form, which keeps gradients usable when the discriminator
dominates early. Source classification is plain softmax cross entropy, and
one node takes every classification term of a step as a block of stacked
rows: both heads on the source labels (L_C1, L_C2), and both heads on the
accepted target pseudo-labels (L_PL), whose unselected rows (label -1) it
leaves out of the mean and the gradient. It returns each block's mean
beside the node. Each loss node is defined here with its formula, and its
operations run in a fixed order, on which the pinned metrics traces depend.

The kernels are written for the trainer's small batches, where a numpy call
costs more than its arithmetic, so they make few calls and few temporaries,
and each has one path for every input: a row labeled -1 takes the same
operations as the others, and only the result leaves it out. Every element
still takes the roundings of the formula, in its order.
"""

from __future__ import annotations

from itertools import groupby
from typing import Sequence

import numpy as np

from .tensor import ShapeError, Tensor

# Verdicts are squeezed into [CLAMP_EPS, 1 - CLAMP_EPS] before any log, so the
# losses stay finite for every logit, saturated ones included.
CLAMP_EPS = 1e-7


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function on a plain array."""
    # Split by sign to avoid overflow in exp for large |x|: e / (1 + e) with
    # e = exp(-|x|) below zero, and 1 / (1 + e) from zero up, divided into e.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=e, where=x >= 0)
    return e


def _verdicts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clipped verdicts of the logits, where none was clipped, and the unclipped verdicts."""
    p = sigmoid_values(x)
    clipped = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    # a verdict is left as it is exactly where it lies inside the clamp
    return clipped, clipped == p, p


def discriminator_loss(s_source: Tensor, s_target: Tensor) -> Tensor:
    """Negated discriminator log-likelihood (a quantity to minimize).

    -(mean log ds + mean log(1 - dt)) over the clamped verdicts of the source
    and target logits, one graph node. Zero at perfect discrimination
    (source verdicts near 1, target near 0). The logits are stacked by rows,
    source first, so one pass takes every verdict and its log, and both
    gradients are row slices of one fresh array.
    """
    ns, n_source, n_target = s_source.rows, s_source.values.size, s_target.values.size
    d, unclipped, p = _verdicts(np.concatenate((s_source.values, s_target.values)))
    # the target rows become 1 - dt, so one log covers both halves
    np.subtract(1.0, d[ns:], out=d[ns:])
    logs = np.log(d)
    loss = -(logs[:ns].sum() * (1.0 / n_source) + logs[ns:].sum() * (1.0 / n_target))

    def bw(g: np.ndarray) -> None:
        g_neg = g[0, 0] * -1.0
        grad = np.empty(d.shape)
        np.divide(g_neg * (1.0 / n_source), d[:ns], out=grad[:ns])
        # -(c / x) is (-c) / x exactly: rounding is symmetric in the sign
        np.divide(-(g_neg * (1.0 / n_target)), d[ns:], out=grad[ns:])
        grad *= unclipped
        grad *= p
        grad *= 1.0 - p
        s_source._accumulate(grad[:ns])
        s_target._accumulate(grad[ns:])

    return Tensor._node(np.array([[loss]]), (s_source, s_target), bw)


def generator_loss(s_target: Tensor) -> Tensor:
    """Non-saturating generator loss -mean log dt: drives target verdicts toward 1."""
    dt, unclipped, p = _verdicts(s_target.values)
    loss = -(np.log(dt).sum() * (1.0 / dt.size))

    def bw(g: np.ndarray) -> None:
        grad = g[0, 0] * -1.0 * (1.0 / dt.size) / dt
        grad *= unclipped
        grad *= p
        grad *= 1.0 - p
        s_target._accumulate(grad)

    return Tensor._node(np.array([[loss]]), (s_target,), bw)


def _checked_labels(given, n: int, k: int) -> tuple[np.ndarray, int]:
    """``given`` as int64 labels of ``n`` rows of ``k`` logits, and its labeled count."""
    labels = np.asarray(given, dtype=np.int64).reshape(-1)
    if labels.shape[0] != n:
        raise ShapeError(f"{labels.shape[0]} labels for {n} logit rows")
    if labels.min() < -1 or labels.max() >= k:
        bad = labels[(labels < -1) | (labels >= k)][0]
        raise IndexError(f"label {bad} out of range [-1, {k})")
    m = np.count_nonzero(labels >= 0)
    if m == 0:
        raise ValueError(f"all {n} labels are -1; the cross entropy needs a labeled row")
    return labels, m


def source_classification_loss(
    logits: Sequence[Tensor], labels: Sequence
) -> tuple[Tensor, list[float]]:
    """Softmax cross entropies of logit blocks as one node, and each block's mean.

    Block i's mean is the mean over its labeled rows of
    -log softmax(logits[i])[row, labels[i][row]], and the node's value is the
    means added left to right. The blocks have the same column count and
    may differ in rows. Blocks may share one label array, which is then
    checked once. Source labels label every row; pseudo-labels mark a row
    that was not selected with -1, as in ``centroids.compute_centroids``, and
    such a row is left out of its block's mean and its gradient row is zero.
    A block with no labeled row raises.

    The blocks are stacked by rows, so the softmax runs once for all of
    them, and every row takes the same operations. Each mean adds its
    block's labeled rows' terms alone, in row order; consecutive blocks on
    one label array are summed as the rows of one 2-D array. So each mean
    and each block's gradient equal the one-block call's, and the cross
    entropy of the labeled rows alone, bit for bit, whatever the -1 rows
    hold. Numerically stabilized by row-max subtraction, so saturated logits
    do not overflow.
    """
    blocks = tuple(logits)
    label_arrays = tuple(labels)
    if not blocks or len(label_arrays) != len(blocks):
        raise ShapeError(f"{len(label_arrays)} label arrays for {len(blocks)} logit blocks")
    k = blocks[0].cols
    # each distinct label array, checked once: (labels, labeled count)
    checked: dict[int, tuple[np.ndarray, int]] = {}
    stacked, counts = [], []
    for t, given in zip(blocks, label_arrays):
        if t.cols != k:
            raise ShapeError(f"logit blocks of {k} and {t.cols} columns")
        if id(given) not in checked:
            checked[id(given)] = _checked_labels(given, t.rows, k)
        arr, m = checked[id(given)]
        if arr.shape[0] != t.rows:
            raise ShapeError(f"{arr.shape[0]} labels for {t.rows} logit rows")
        stacked.append(arr)
        counts.append(m)
    lab = np.concatenate(stacked)
    unlabeled = lab < 0
    rows = np.flatnonzero(~unlabeled)
    hit = lab[rows]
    v = np.concatenate([t.values for t in blocks])
    z = v - np.maximum.reduce(v, axis=1, keepdims=True)
    ez = np.exp(z)
    sez = np.add.reduce(ez, axis=1)
    # the labeled rows' entries of z - log(sez), block after block, and
    # each block's mean of them; consecutive blocks on one label array are
    # the rows of one 2-D array
    terms = z[rows, hit] - np.log(sez[rows])
    means: list[float] = []
    start = 0
    for key, run in groupby(map(id, label_arrays)):
        m = checked[key][1]
        end = start + len(tuple(run)) * m
        means += (-(np.add.reduce(terms[start:end].reshape(-1, m), axis=1) / m)).tolist()
        start = end
    total = means[0]
    for mean in means[1:]:
        total = total + mean
    local = ez / sez[:, None]
    local[rows, hit] -= 1.0
    # each row divided by its own block's labeled count
    local /= np.repeat(counts, [t.rows for t in blocks])[:, None]
    local[unlabeled] = 0.0

    def bw(g: np.ndarray) -> None:
        g0 = g[0, 0]
        start = 0
        for t in blocks:
            t._accumulate(g0 * local[start : start + t.rows])
            start += t.rows

    return Tensor._node(np.array([[total]]), blocks, bw), means
