"""Dense 2-D float64 matrices with reverse-mode automatic differentiation.

Every numeric value in the training stack is a :class:`Tensor`: a read-only
rows-by-cols matrix of doubles that, when marked differentiable, records the
operations applied to it and accumulates ``grad`` during
:meth:`Tensor.backward`. A tensor sums the deltas of its consumers, and a
leaf's ``grad`` adds up across backward calls until explicitly zeroed, as
the trainer's update does. The trainer's two passes share no graph: the
discriminator loss reaches only the discriminator, and the main loss reaches
it only through ``Mlp.detached()``, which takes no gradient.

Gradient ownership: a rule hands ``_accumulate`` a fresh array it never
touches again. The first delta a tensor receives becomes its ``grad`` as is,
with no copy, and later deltas are added into it in place; so no two tensors'
gradients share memory, and adding into one never changes another.

A node's backward rule receives the node's gradient as its argument, so no
rule refers to its own output node and a graph holds no reference cycle: it
is freed by reference counting as soon as the last tensor of it is dropped,
without waiting for the cyclic garbage collector.

This module is the engine only, with :func:`weighted_sum` its one node type
and no elementwise arithmetic; the trainer's whole objective is one weighted
sum, over every loss term. A whole network call is one node
(``networks.forward``), and so is each loss (``losses``): the cross entropy
takes every classification term of a step, both heads on the source labels
and on the pseudo-labels, as blocks of one node. So are the centroids of
both classifier branches, stacked as one (2K x d_f) bank, each of their
relativized distance matrices and each alignment loss (``centroids``).
All are built through :meth:`Tensor._node` in the module that states their
formula.

A tensor's values are always C-contiguous, whatever the memory order of the
array it was built from: BLAS may round a product differently when an
operand's order differs.

Who writes a value: nothing writes through a tensor, and a node's values
never change. A trained parameter's values are a read-only view into its
update group's flat parameter array (``trainer.UpdateGroup``). Only that
group's optimizer step writes them, in place, after the backward pass that
reads them; so the values a caller holds change when the group steps, and a
caller that needs them later copies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class EvaluationError(RuntimeError):
    """A checked function evaluated to a non-finite value."""


def _as_matrix(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D, got array of shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError("tensors must be non-empty")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class Tensor:
    """A rows x cols matrix of doubles, optionally recorded on a compute graph.

    ``values`` is read-only. Only a parameter's update group writes it, in
    place, through the group's own writable array (module docstring); a
    checkpoint or any other caller that keeps a parameter's values copies
    them. ``grad`` is ``None`` until a backward pass deposits into it.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _freeze(_as_matrix(values))
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    @classmethod
    def _node(
        cls,
        values: np.ndarray,
        parents: tuple["Tensor", ...],
        backward_fn: Callable[[np.ndarray], None] | None,
    ) -> "Tensor":
        # Internal constructor for op outputs: the array is freshly computed
        # and owned by the node, so no defensive copy is needed.
        # ``backward_fn(g)`` gets the output's gradient ``g`` and accumulates
        # into the parents; it must not capture the output node itself.
        out = cls.__new__(cls)
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ShapeError(f"graph nodes must be non-empty matrices, got {arr.shape}")
        out.values = _freeze(arr)
        out.grad = None
        requires_grad = False
        for p in parents:
            if p.requires_grad:
                requires_grad = True
                break
        out.requires_grad = requires_grad
        out._parents = tuple(parents)
        out._backward_fn = backward_fn if requires_grad else None
        return out

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def item(self) -> float:
        if self.values.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])

    def detached(self) -> "Tensor":
        """A constant tensor over the same read-only values, cut off from the graph."""
        out = Tensor.__new__(Tensor)
        out.values = self.values
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
        return out

    def _accumulate(self, delta: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # kept, not copied: a rule hands _accumulate a fresh array it
            # never touches again, so this tensor owns ``delta`` from here on
            self.grad = delta
        else:
            self.grad += delta

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- backward pass ----------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every differentiable ancestor of this scalar.

        The graph is traversed once in reverse topological order. Repeated
        calls accumulate into existing ``grad`` buffers; zero them between
        optimization phases.
        """
        if self.shape != (1, 1):
            raise ShapeError(f"backward() needs a scalar (1x1) loss, got {self.shape}")
        if not self.requires_grad:
            return  # constant loss: no differentiable ancestors, nothing to do
        # Only nodes with a backward rule are ordered: a leaf has nothing to
        # run, and leaving it out does not change the order of the others.
        # Depth first, each stack entry a node and the iterator over its
        # parents left to visit; a node is ordered once its parents are.
        order: list[Tensor] = []
        seen: set[int] = {id(self)}
        stack = [(self, iter(self._parents))] if self._backward_fn is not None else []
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if parent._backward_fn is not None and id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    break
            else:
                order.append(node)
                stack.pop()
        # Derived nodes get a fresh gradient each pass; leaves keep accumulating
        # across passes until explicitly zeroed.
        for node in order:
            node.grad = None
        self._accumulate(np.ones((1, 1)))
        for node in reversed(order):
            node._backward_fn(node.grad)


# -- free-standing primitives ---------------------------------------------


def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """``weights[0] * terms[0] + weights[1] * terms[1] + ...`` over 1 x 1 terms,
    added left to right. Each term's gradient is the output's times its weight.
    The forward adds Python floats: the same double roundings as the 1 x 1
    arrays, with no array made per term.
    """
    terms = tuple(terms)
    weights = tuple(float(w) for w in weights)
    shapes = [t.shape for t in terms]
    if not terms or len(terms) != len(weights) or set(shapes) != {(1, 1)}:
        raise ShapeError(f"weighted_sum needs 1x1 terms, one weight each; got {shapes}, {weights}")
    total = terms[0].values.item() * weights[0]
    for t, w in zip(terms[1:], weights[1:]):
        total = total + t.values.item() * w

    def bw(g: np.ndarray) -> None:
        for t, w in zip(terms, weights):
            t._accumulate(g * w)

    return Tensor._node(np.array([[total]]), terms, bw)


# -- finite-difference verification ----------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    worst_index: tuple[int, int]


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-6) -> GradCheckReport:
    """Compare the analytic gradient of ``f`` at ``x`` to central differences.

    ``f`` must build a fresh graph on each call; relative error uses
    max(|analytic|, |numeric|, 1e-8) as denominator.
    """
    probe = Tensor(x.values, requires_grad=True)
    out = f(probe)
    if out.shape != (1, 1):
        raise ShapeError(f"grad_check needs a scalar-valued f, got {out.shape}")
    if not np.isfinite(out.values).all():
        raise EvaluationError("f evaluated to a non-finite value at x")
    out.backward()
    analytic = np.zeros(x.shape) if probe.grad is None else probe.grad

    def f_at(values: np.ndarray) -> float:
        y = f(Tensor(values)).item()
        if not np.isfinite(y):
            raise EvaluationError("f evaluated to a non-finite value at a probe point")
        return y

    max_rel = 0.0
    worst = (0, 0)
    base = x.values
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            bumped = base.copy()
            bumped[i, j] = base[i, j] + h
            fp = f_at(bumped)
            bumped[i, j] = base[i, j] - h
            fm = f_at(bumped)
            numeric = (fp - fm) / (2.0 * h)
            a = analytic[i, j]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > max_rel:
                max_rel = rel
                worst = (i, j)
    return GradCheckReport(max_rel_error=max_rel, worst_index=worst)
