"""Small fully connected networks: feature extractors, heads, discriminator.

A network is its weights: each layer is a C-contiguous weight (in x out) and
a bias (1 x out), the layout its products read (``x @ W`` forward, and
``a.T @ g`` and ``g @ W.T`` in the backward rule, which calls ``np.dot`` for
them), so no network call copies a weight; checkpoint files keep (out x in)
and transpose at load and save. Every network ends in a linear
layer, so it gives logits: the heads' class logits and the discriminator's
domain logit. Both branches of the model use structurally identical
extractors with independent parameters; architecture defaults live in the
trainer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor

# Rows per block of the graph-free forward. The size must be a multiple of
# the BLAS kernel's row unroll, or a block's last rows take the kernel's
# remainder path and round differently from the graph forward: on OpenBLAS's
# SkylakeX kernel, blocks of 150, 250 or 255 rows change the logits' bits in
# the last one to three rows of a block, and blocks of 128, 200 or 256 rows do
# not. At the trainer's feature width a block's widest intermediate (200 x 64
# doubles, 100 KiB) must also stay below glibc's 128 KiB mmap threshold, so
# repeated evaluations reuse heap memory instead of faulting in fresh pages.
# Fewer blocks cost less dispatch. ``evaluate`` on the 600-row ``blobs``
# target, in alternating in-process rounds on a 2-vCPU Xeon, took these
# median times relative to 128 rows (60 rounds per kernel):
#
#     rows       128    160    192    200    240    248    256
#     SkylakeX  1.000  0.966  0.976  0.929  0.929  1.116  1.105
#     Haswell   1.000  0.984  0.959  0.941  0.912  0.916  0.895
#
# 200 rows run a 600-row set as three equal blocks, and its logits keep the
# bits of 128-row blocks under both kernels. Sets of other sizes may not:
# under the Haswell kernel, sets of 257 or 601 rows change in the last bits of
# one or two rows, because other rows fall into a block's remainder.
EVAL_BLOCK_ROWS = 200


@dataclass
class Mlp:
    """Per-layer weight and bias tensors; callable on a batch tensor.

    Hidden layers are relu and the output layer is linear. The layer shapes
    are checked here, and no forward checks them again: a parameter is only
    ever written in place, so they cannot change later.
    """

    weights: list[Tensor]
    biases: list[Tensor]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ShapeError(f"{len(self.weights)} weights but {len(self.biases)} biases")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if i > 0 and w.rows != self.weights[i - 1].cols:
                raise ShapeError(
                    f"weights do not chain: weight {i} takes {w.rows} inputs "
                    f"but weight {i - 1} gives {self.weights[i - 1].cols}"
                )
            if b.shape != (1, w.cols):
                raise ShapeError(f"bias {i} has shape {b.shape} but weight {i} is {w.shape}")

    @classmethod
    def create(cls, widths: tuple[int, ...], seed: int) -> "Mlp":
        """Glorot-uniform weights and zero biases from a seeded generator.

        ``widths`` runs from the input width to the output width. Fewer than
        two widths give no layer and a zero width an empty weight, and both
        raise ``ShapeError``.
        """
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for w_in, w_out in zip(widths[:-1], widths[1:]):
            bound = np.sqrt(6.0 / (w_in + w_out))
            # drawn (out x in), the order in which a seed's numbers fill a weight
            w = rng.uniform(-bound, bound, size=(w_out, w_in))
            weights.append(Tensor(w.T, requires_grad=True))
            biases.append(Tensor(np.zeros((1, w_out)), requires_grad=True))
        return cls(weights, biases)

    @property
    def d_in(self) -> int:
        return self.weights[0].rows

    @property
    def d_out(self) -> int:
        return self.weights[-1].cols

    def tensors(self) -> list[Tensor]:
        """``[W1, b1, W2, b2, ...]``: the parameters in layer order."""
        return [t for layer in zip(self.weights, self.biases) for t in layer]

    def __call__(self, x: Tensor) -> Tensor:
        # ``forward`` is looked up at each call, so a wrapper installed on
        # ``networks.forward`` (perfbench's tracer) sees every network call
        return forward(self, x)

    def detached(self) -> "Mlp":
        """This network on constant parameters that share its values: frozen."""
        return Mlp([w.detached() for w in self.weights], [b.detached() for b in self.biases])


def linear_values(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool) -> np.ndarray:
    """``x @ w + b``, then relu if asked, on plain arrays.

    ``w`` is a layer's (in x out) weight and ``b`` its (1 x out) bias. The
    bias add and the relu work in place on the fresh product, with the same
    operations in the same order as ``np.maximum(x @ w + b, 0.0)``. This is
    the layer of the graph node and of the graph-free forward, so both give
    the same bits. The product stays the ``@`` ufunc: ``np.dot``, which the
    backward rule calls, gives the same bits at the model's layer shapes but
    is slower on the graph-free forward's 200-row blocks. A block's three
    products (2 -> 64, 64 -> 64, 64 -> 3) took 39.2 us with ``@`` and 44.1 us
    with ``np.dot`` on OpenBLAS's SkylakeX kernel, and 50.8 and 65.5 us on
    its Haswell kernel (alternating in-process ``timeit``, 2-vCPU Xeon).
    """
    h = x @ w
    h += b
    if relu:
        np.maximum(h, 0.0, out=h)
    return h


def _activations(net: Mlp, x: np.ndarray) -> list[np.ndarray]:
    """The input, then each layer's output: the one layer loop of both forwards."""
    acts = [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        acts.append(linear_values(acts[-1], w.values, b.values, i < last))
    return acts


def forward(net: Mlp, x: Tensor) -> Tensor:
    """Run the batch (rows = samples) through every layer as one graph node.

    The node's parents are ``(x, W1, b1, W2, b2, ...)``. Its backward walks the
    layers in reverse with the per-layer rules (relu mask, then the input,
    weight and bias gradients of each layer, in that order). A parameter's
    gradient is computed only where it takes one, and the first layer's
    input gradient only where ``x`` takes one; every other layer passes its
    input gradient down. It masks in place only the input gradients it made
    itself; the gradient it is handed and the saved activations are left as
    they are.
    """
    if x.cols != net.d_in:
        raise ShapeError(f"input has {x.cols} columns, the network takes {net.d_in}")
    acts = _activations(net, x.values)
    layers = tuple(zip(net.weights, net.biases))
    last = len(layers) - 1

    def bw(g: np.ndarray) -> None:
        for i in range(last, -1, -1):
            w, b = layers[i]
            if i < last:
                # g is the input gradient made by the layer above: masked in
                # place, never the caller's gradient
                g *= acts[i + 1] > 0.0
            g_in = np.dot(g, w.values.T) if i > 0 or x.requires_grad else None
            if i == 0 and g_in is not None:
                x._accumulate(g_in)
            if w.requires_grad:
                w._accumulate(np.dot(acts[i].T, g))
            if b.requires_grad:
                b._accumulate(np.add.reduce(g, axis=0, keepdims=True))
            g = g_in

    # (x, W1, b1, W2, b2, ...)
    return Tensor._node(acts[-1], sum(layers, (x,)), bw)


def branch_outputs(extractor: Mlp, head: Mlp, x: np.ndarray) -> np.ndarray:
    """The logits of extractor then head on the rows of ``x``.

    Evaluation only: records no graph, and runs on plain arrays in blocks of
    ``EVAL_BLOCK_ROWS`` rows; a last block of one row joins the block before
    it. Every layer adds its bias and applies its relu in place, and the
    layer loop is the graph forward's, so each block's logits equal, bit for
    bit, those of the graph forward on that block's rows. A graph forward on
    more rows than a block can round differently: OpenBLAS may split its
    products between threads, and on some kernels the rows at a split round
    differently.
    """
    for net, d_in in ((extractor, x.shape[1]), (head, extractor.d_out)):
        if d_in != net.d_in:
            raise ShapeError(f"input has {d_in} columns, the network takes {net.d_in}")
    n = x.shape[0]
    logits = np.empty((n, head.d_out))
    lo = 0
    while lo < n:
        hi = lo + EVAL_BLOCK_ROWS
        if hi == n - 1:
            # numpy multiplies a one-row block as a matrix-vector product,
            # which rounds differently from a row of a matrix product: the
            # last row joins its block instead
            hi = n
        features = _activations(extractor, x[lo:hi])[-1]
        logits[lo:hi] = _activations(head, features)[-1]
        lo = hi
    return logits
