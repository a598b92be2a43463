"""Small fully connected networks: feature extractors, heads, discriminator.

Both branches of the model use structurally identical extractors with
independent parameters; architecture defaults live in the trainer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError, Tensor, linear_values, sigmoid_values

OUTPUT_ACTIVATIONS = ("none", "sigmoid")

# Rows per block of the graph-free forward. At the trainer's feature width a
# block's widest intermediate (128 x 64 doubles) stays below glibc's 128 KiB
# mmap threshold, so repeated evaluations reuse heap memory instead of
# faulting in fresh pages.
EVAL_BLOCK_ROWS = 128


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (first entry = input dim) plus the output nonlinearity.

    Hidden layers are always relu; the output layer is linear or sigmoid.
    """

    layer_widths: tuple[int, ...]
    output_activation: str = "none"

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ValueError(f"need at least input and output widths, got {widths}")
        if any(w <= 0 for w in widths):
            raise ValueError(f"layer widths must be positive, got {widths}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(
                f"output_activation must be one of {OUTPUT_ACTIVATIONS}, got {self.output_activation!r}"
            )

    @property
    def d_in(self) -> int:
        return self.layer_widths[0]

    @property
    def d_out(self) -> int:
        return self.layer_widths[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1


@dataclass
class Params:
    """Per-layer weight (w_out x w_in) and bias (w_out x 1) tensors."""

    weights: list[Tensor]
    biases: list[Tensor]

    def tensors(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def init_params(spec: MlpSpec, seed: int) -> Params:
    """Glorot-uniform weights and zero biases from a seeded generator."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for w_in, w_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
        bound = np.sqrt(6.0 / (w_in + w_out))
        weights.append(Tensor(rng.uniform(-bound, bound, size=(w_out, w_in)), requires_grad=True))
        biases.append(Tensor(np.zeros((w_out, 1)), requires_grad=True))
    return Params(weights=weights, biases=biases)


def forward(params: Params, spec: MlpSpec, x: Tensor) -> Tensor:
    """Run the batch (rows = samples) through every layer as one graph node.

    The node's parents are ``(x, W1, b1, W2, b2, ...)``. Its backward walks the
    layers in reverse with the per-layer rules (sigmoid, relu mask, then the
    input, weight and bias gradients of each layer, in that order), and
    computes only the gradients some parent can take.
    """
    if x.cols != spec.d_in:
        raise ShapeError(f"input has {x.cols} columns, spec expects {spec.d_in}")
    layers = tuple(zip(params.weights, params.biases))
    last = spec.n_layers - 1
    if len(layers) != spec.n_layers:
        raise ShapeError(f"{len(layers)} weight-bias pairs for {spec.n_layers} layers")
    acts = [x.values]  # the input, then each layer's output
    parents = [x]
    # layer i passes a gradient down when x or a parameter below it takes one
    takes_input_grad = [x.requires_grad]
    for i, (w, b) in enumerate(layers):
        if w.cols != acts[-1].shape[1] or b.shape != (w.rows, 1):
            raise ShapeError(
                f"layer {i}: weight {w.shape} and bias {b.shape} do not fit "
                f"{acts[-1].shape[1]} inputs"
            )
        acts.append(linear_values(acts[-1], w.values, b.values, relu=i < last))
        parents += (w, b)
        takes_input_grad.append(takes_input_grad[-1] or w.requires_grad or b.requires_grad)
    sigmoid = spec.output_activation == "sigmoid"
    out = sigmoid_values(acts[-1]) if sigmoid else acts[-1]

    def bw(g: np.ndarray) -> None:
        if sigmoid:
            g = g * out * (1.0 - out)
        for i in range(last, -1, -1):
            w, b = layers[i]
            if i < last:
                g = g * (acts[i + 1] > 0.0)
            g_in = g @ w.values if takes_input_grad[i] else None
            if i == 0 and g_in is not None:
                x._accumulate(g_in)
            if w.requires_grad:
                w._accumulate((acts[i].T @ g).T)
            if b.requires_grad:
                b._accumulate(np.add.reduce(g, axis=0, keepdims=True).T)
            if g_in is None:
                return
            g = g_in

    return Tensor._node(out, tuple(parents), bw)


def _forward_values(params: Params, spec: MlpSpec, x: np.ndarray) -> np.ndarray:
    """The same forward on a plain array, recording no graph; identical bits."""
    if x.shape[1] != spec.d_in:
        raise ShapeError(f"input has {x.shape[1]} columns, spec expects {spec.d_in}")
    h = x
    last = spec.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = linear_values(h, w.values, b.values, relu=i < last)
    return sigmoid_values(h) if spec.output_activation == "sigmoid" else h


@dataclass
class Mlp:
    """A spec bundled with its parameters; callable on a batch tensor."""

    spec: MlpSpec
    params: Params

    @classmethod
    def create(cls, spec: MlpSpec, seed: int) -> "Mlp":
        return cls(spec=spec, params=init_params(spec, seed))

    def __call__(self, x: Tensor) -> Tensor:
        return forward(self.params, self.spec, x)

    def detached(self) -> "Mlp":
        """This network on constant parameters that share its values: frozen."""
        params = Params(
            weights=[w.detached() for w in self.params.weights],
            biases=[b.detached() for b in self.params.biases],
        )
        return Mlp(spec=self.spec, params=params)


@dataclass
class BranchOutputs:
    """Logits and the hard labels derived from them."""

    logits: np.ndarray = field(repr=False)
    predicted_labels: np.ndarray = field(repr=False)


def branch_outputs(extractor: Mlp, head: Mlp, x: Tensor) -> BranchOutputs:
    """Extractor then head; argmax ties break toward the lowest index.

    Evaluation only: runs on plain arrays in blocks of ``EVAL_BLOCK_ROWS``
    rows and records no graph. Both forwards use the same kernel, so the
    logits equal the graph forward's bit for bit.
    """
    logits = np.empty((x.rows, head.spec.d_out))
    for lo in range(0, x.rows, EVAL_BLOCK_ROWS):
        block = x.values[lo : lo + EVAL_BLOCK_ROWS]
        features = _forward_values(extractor.params, extractor.spec, block)
        logits[lo : lo + EVAL_BLOCK_ROWS] = _forward_values(head.params, head.spec, features)
    return BranchOutputs(logits=logits, predicted_labels=logits.argmax(axis=1))
