"""Test-only graph pieces shared by the test modules."""

import numpy as np

from dcp.networks import MlpSpec, Params, forward
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


def network(x: Tensor, weights, biases, output_activation="none") -> Tensor:
    """``networks.forward`` over the given layer tensors: one graph node.

    Layer widths come from the weights, each (out x in); hidden layers are relu.
    """
    widths = (weights[0].cols,) + tuple(w.rows for w in weights)
    spec = MlpSpec(widths, output_activation)
    return forward(Params(weights=list(weights), biases=list(biases)), spec, x)


def sigmoid(x: Tensor) -> Tensor:
    """The logistic function of ``x`` as a network node: an identity layer, then sigmoid."""
    identity = Tensor(np.eye(x.cols))
    return network(x, [identity], [Tensor(np.zeros((x.cols, 1)))], "sigmoid")


# -- the per-layer chain the network node replaced ----------------------------
# One node per layer and one for the sigmoid, with the rules the network node
# runs in one backward; tests compare the two bit for bit.


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """One layer as one node: ``x @ w.T + b.T``, then relu if asked."""
    h = linear_values(x.values, w.values, b.values, relu)

    def bw(g):
        if relu:
            g = g * (h > 0.0)
        if x.requires_grad:
            x._accumulate(g @ w.values)
        w._accumulate((x.values.T @ g).T)
        b._accumulate(g.sum(axis=0, keepdims=True).T)

    return Tensor._node(h, (x, w, b), bw)


def sigmoid_layer(t: Tensor) -> Tensor:
    """The logistic function as its own node."""
    s = sigmoid_values(t.values)

    def bw(g):
        t._accumulate(g * s * (1.0 - s))

    return Tensor._node(s, (t,), bw)


def layer_chain(params: Params, spec: MlpSpec, x: Tensor) -> Tensor:
    """The network forward as one node per layer plus one for the sigmoid."""
    h = x
    last = spec.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = linear(h, w, b, relu=i < last)
    return sigmoid_layer(h) if spec.output_activation == "sigmoid" else h
