"""Test-only graph pieces shared by the test modules."""

import numpy as np

from dcp.tensor import Tensor


def contract(t: Tensor, weights) -> Tensor:
    """``sum(t * weights)`` as one 1 x 1 node: a scalar loss over a matrix output.

    ``t`` receives ``g * weights``, so a backward from here hands ``t`` exactly
    ``weights`` as its upstream gradient.
    """
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), t.shape)

    def bw(g):
        t._accumulate(g[0, 0] * w)

    return Tensor._node(np.array([[(t.values * w).sum()]]), (t,), bw)
