from dataclasses import fields

import numpy as np
import pytest
from graph_helpers import contract, layer_chain

from dcp import networks
from dcp.networks import EVAL_BLOCK_ROWS, Mlp, branch_outputs, forward
from dcp.tensor import ShapeError, Tensor, grad_check
from dcp.trainer import FEATURE_DIM


def _zeros(*shapes):
    return [Tensor(np.zeros(shape)) for shape in shapes]


class TestMlp:
    def test_no_layers(self):
        with pytest.raises(ShapeError, match="0 weights but 0 biases"):
            Mlp([], [])

    def test_weight_and_bias_counts_differ(self):
        with pytest.raises(ShapeError, match="2 weights but 1 biases"):
            Mlp(_zeros((3, 4), (4, 2)), _zeros((1, 4)))

    def test_weights_do_not_chain(self):
        with pytest.raises(ShapeError, match="weight 1 takes 5 inputs but weight 0 gives 4"):
            Mlp(_zeros((3, 4), (5, 2)), _zeros((1, 4), (1, 2)))

    # a weight is (in x out) and its bias (1 x out)
    @pytest.mark.parametrize("bias_shape", [(1, 3), (4, 1), (2, 4)])
    def test_bias_does_not_match_its_weight(self, bias_shape):
        with pytest.raises(ShapeError, match="bias 0 has shape"):
            Mlp(_zeros((3, 4)), _zeros(bias_shape))

    def test_a_network_is_its_weights_and_biases(self):
        assert [f.name for f in fields(Mlp)] == ["weights", "biases"]

    def test_widths_read_off_the_weights(self):
        net = Mlp(_zeros((3, 4), (4, 2)), _zeros((1, 4), (1, 2)))
        assert (net.d_in, net.d_out) == (3, 2)
        assert net.tensors() == [net.weights[0], net.biases[0], net.weights[1], net.biases[1]]

    def test_too_few_widths(self):
        with pytest.raises(ShapeError, match="0 weights"):
            Mlp.create((3,), seed=0)

    def test_nonpositive_width(self):
        with pytest.raises(ShapeError, match="non-empty"):
            Mlp.create((3, 0), seed=0)


class TestInitParams:
    """The initial weights and biases ``Mlp.create`` draws."""

    def test_deterministic_per_seed(self):
        a = Mlp.create((4, 8, 2), seed=3)
        b = Mlp.create((4, 8, 2), seed=3)
        for ta, tb in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta.values, tb.values)

    def test_biases_zero(self):
        net = Mlp.create((4, 8, 2), seed=0)
        for b in net.biases:
            assert np.array_equal(b.values, np.zeros_like(b.values))

    def test_different_seeds_differ(self):
        a = Mlp.create((4, 8, 2), seed=1)
        b = Mlp.create((4, 8, 2), seed=2)
        assert any(
            not np.array_equal(ta.values, tb.values)
            for ta, tb in zip(a.tensors(), b.tensors())
        )

    def test_glorot_bounds(self):
        net = Mlp.create((10, 6), seed=0)
        bound = np.sqrt(6.0 / 16.0)
        assert np.abs(net.weights[0].values).max() <= bound


class TestForward:
    def test_identity_network(self):
        net = Mlp(
            weights=[Tensor(np.eye(2), requires_grad=True)],
            biases=[Tensor(np.zeros((1, 2)), requires_grad=True)],
        )
        x = np.random.default_rng(0).normal(size=(5, 2))
        out = forward(net, Tensor(x))
        np.testing.assert_allclose(out.values, x, atol=0)

    def test_relu_kills_negative_preactivations(self):
        net = Mlp.create((2, 3, 2), seed=0)
        net = Mlp(net.weights, [Tensor(np.full((1, 3), -100.0), requires_grad=True), net.biases[1]])
        out = forward(net, Tensor([[0.1, -0.2]]))
        # hidden layer is all zeros, so the output is exactly the final bias
        np.testing.assert_array_equal(out.values, net.biases[1].values)

    def test_batch_decomposable(self):
        mlp = Mlp.create((3, 5, 2), seed=4)
        x = np.random.default_rng(1).normal(size=(2, 3))
        batched = mlp(Tensor(x)).values
        rows = np.vstack([mlp(Tensor(x[i : i + 1])).values for i in range(2)])
        assert np.abs(batched - rows).max() <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            forward(Mlp.create((3, 2), 0), Tensor(np.ones((4, 5))))


# layer widths: one layer; relu hidden layers; relu hidden layers and one
# output, the discriminator's form
NODE_SPECS = [(3, 4), (3, 5, 4), (3, 5, 4, 1)]


def _trainable_layers(params_grad, n_layers):
    """Per layer, whether its weight and bias take a gradient: every layer's
    when ``params_grad`` is a bool, else all but the first or the last one."""
    if params_grad == "first_constant":
        return [i > 0 for i in range(n_layers)]
    if params_grad == "last_constant":
        return [i < n_layers - 1 for i in range(n_layers)]
    return [params_grad] * n_layers


def _node_operands(widths, seed, x_grad=False, params_grad=False):
    """x (5 rows), a network with nonzero biases, and upstream weights for ``contract``."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(5, widths[0])), requires_grad=x_grad)
    net = Mlp.create(widths, seed)
    trainable = _trainable_layers(params_grad, len(net.weights))
    net = Mlp(
        weights=[Tensor(w.values, requires_grad=t) for w, t in zip(net.weights, trainable)],
        biases=[
            Tensor(rng.normal(size=b.shape), requires_grad=t) for b, t in zip(net.biases, trainable)
        ],
    )
    return x, net, rng.normal(size=(5, widths[-1]))


class TestNetworkNode:
    """``forward`` builds one node whose backward runs the per-layer rules."""

    @pytest.mark.parametrize("spec", NODE_SPECS)
    def test_one_node_per_call(self, spec, monkeypatch):
        real_node = Tensor.__dict__["_node"].__func__
        built = []

        def counted(cls, *args):
            built.append(args[1])
            return real_node(cls, *args)

        monkeypatch.setattr(Tensor, "_node", classmethod(counted))
        x, net, _ = _node_operands(spec, seed=0, params_grad=True)
        forward(net, x)
        assert len(built) == 1
        parents = built[0]
        assert parents[0] is x
        assert list(parents[1:]) == net.tensors()  # (x, W1, b1, W2, b2, ...)

    @pytest.mark.parametrize("spec", NODE_SPECS)
    @pytest.mark.parametrize(
        "x_grad, params_grad",
        [
            (True, True),
            (False, True),
            (True, False),
            # mixed networks: every layer above the first passes a gradient down
            (False, "first_constant"),
            (True, "first_constant"),
            (False, "last_constant"),
            (True, "last_constant"),
        ],
    )
    def test_bit_identical_to_layer_chain(self, spec, x_grad, params_grad):
        grads = []
        for build in (forward, layer_chain):
            x, net, upstream = _node_operands(spec, 1, x_grad, params_grad)
            out = build(net, x)
            contract(out, upstream).backward()
            grads.append([out.values] + [t.grad for t in (x, *net.tensors())])
        node, chain = grads
        for a, b in zip(node, chain):
            assert (a is None and b is None) or np.array_equal(a, b)
        # a gradient exactly where a parent takes one: no constant gets a grad
        layers = _trainable_layers(params_grad, len(net.weights))
        takes = [x_grad] + [t for t in layers for _ in range(2)]
        assert [g is not None for g in node[1:]] == takes

    @pytest.mark.parametrize("spec", NODE_SPECS)
    def test_backward_writes_only_into_its_own_arrays(self, spec, monkeypatch):
        # the rule masks its input gradients in place; the gradient it is
        # handed and the activations it saved must come through unchanged
        saved = []
        activations = networks._activations

        def keep(net, x):
            acts = activations(net, x)
            saved.append(acts)
            return acts

        x, net, upstream = _node_operands(spec, 3, x_grad=True, params_grad=True)
        with monkeypatch.context() as m:
            m.setattr(networks, "_activations", keep)
            out = forward(net, x)
        (acts,) = saved
        kept = [a.copy() for a in acts]
        g = upstream.copy()
        out._backward_fn(g)
        assert np.array_equal(g, upstream)
        assert all(np.array_equal(a, k) for a, k in zip(acts, kept))
        assert all(t.grad is not None for t in (x, *net.tensors()))

    @pytest.mark.parametrize("spec", NODE_SPECS)
    def test_gradient_matches_finite_differences(self, spec):
        x, net, upstream = _node_operands(spec, seed=2)
        operands = [x, *net.tensors()]
        for wrt, base in enumerate(operands):

            def f(probe, wrt=wrt):
                args = list(operands)
                args[wrt] = probe
                probed = Mlp(weights=args[1::2], biases=args[2::2])
                return contract(forward(probed, args[0]), upstream)

            report = grad_check(f, base)
            assert report.max_rel_error < 1e-6, wrt

    def test_shared_input_and_weight_sum_both_gradients(self):
        # x @ x through one layer: x is the input and the weight, so the sum's
        # gradient is ones @ x.T (as input) plus x.T @ ones (as weight)
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        contract(forward(Mlp(weights=[x], biases=[Tensor([[0.0, 0.0]])]), x), 1.0).backward()
        np.testing.assert_array_equal(x.grad, [[3.0 + 4.0, 7.0 + 4.0], [3.0 + 6.0, 7.0 + 6.0]])

    def test_detached_network_shares_values_and_takes_no_gradient(self):
        mlp = Mlp.create((3, 5, 1), seed=0)
        frozen = mlp.detached()
        assert len(frozen.weights) == len(mlp.weights)
        for p, q in zip(mlp.tensors(), frozen.tensors()):
            assert q.values is p.values and not q.requires_grad
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        contract(frozen(x), 1.0).backward()
        assert x.grad is not None
        assert all(p.grad is None for p in (*mlp.tensors(), *frozen.tensors()))


def _identity_network():
    return Mlp(
        weights=[Tensor(np.eye(2), requires_grad=True)],
        biases=[Tensor(np.zeros((1, 2)), requires_grad=True)],
    )


class TestBranchOutputs:
    def test_hand_softmax_confidence(self):
        logits = branch_outputs(_identity_network(), _identity_network(), np.array([[2.0, 1.0]]))
        assert logits.argmax(axis=1)[0] == 0

    def test_tie_breaks_to_lowest_index(self):
        extractor = _identity_network()
        logits = branch_outputs(extractor, extractor, np.array([[1.0, 1.0]]))
        assert logits.argmax(axis=1)[0] == 0

    # 600 and 601 rows cross several evaluation blocks, and 50 and 127 to 129
    # fit in one; the sizes around a block's edge are one block each (a last
    # row joins it)
    ROWS = [600, 50, 1, 127, 128, 129,
            EVAL_BLOCK_ROWS - 1, EVAL_BLOCK_ROWS, EVAL_BLOCK_ROWS + 1, 601]

    @staticmethod
    def _assert_logits_equal_graph_forward(widths, rows):
        # The reference is the graph forward on each of branch_outputs'
        # blocks of rows. One graph forward over all rows is not: OpenBLAS
        # may split a large product between its threads, and on some of its
        # kernels the rows at a split round differently.
        extractor = Mlp.create(widths, seed=3)
        head = Mlp.create((64, 3), seed=4)
        x = np.random.default_rng(5).normal(size=(rows, 2))
        logits = branch_outputs(extractor, head, x)
        edges = [*range(0, rows, EVAL_BLOCK_ROWS), rows]
        if len(edges) > 2 and edges[-1] - edges[-2] == 1:
            del edges[-2]  # a last block of one row joins the block before it
        blocks = [head(extractor(Tensor(x[lo:hi]))).values for lo, hi in zip(edges, edges[1:])]
        assert np.array_equal(logits, np.vstack(blocks))

    @pytest.mark.parametrize("rows", ROWS)
    def test_logits_bit_identical_to_graph_forward(self, rows):
        self._assert_logits_equal_graph_forward((2, 64, 64), rows)

    @pytest.mark.parametrize("rows", ROWS)
    def test_three_layer_extractor_bit_identical_to_graph_forward(self, rows):
        self._assert_logits_equal_graph_forward((2, 16, 32, 64), rows)

    def test_forwards_leave_parameters_unchanged_and_read_only(self):
        extractor = Mlp.create((2, 16, 32, 8), seed=6)
        head = Mlp.create((8, 3), seed=7)
        params = [*extractor.tensors(), *head.tensors()]
        before = [p.values.copy() for p in params]
        x = np.random.default_rng(8).normal(size=(2 * EVAL_BLOCK_ROWS + 3, 2))
        branch_outputs(extractor, head, x)
        contract(head(extractor(Tensor(x))), 1.0).backward()
        for p, values in zip(params, before):
            assert np.array_equal(p.values, values)
            assert not p.values.flags.writeable

    def test_block_is_a_row_unroll_multiple_below_the_mmap_threshold(self):
        # a multiple of the BLAS kernels' row unroll, so no row of a block
        # takes a remainder path; and the widest intermediate, a block of
        # features, below glibc's 128 KiB mmap threshold
        assert EVAL_BLOCK_ROWS % 8 == 0
        assert EVAL_BLOCK_ROWS * FEATURE_DIM * 8 < 128 * 1024

    def test_input_width_checked(self):
        extractor = Mlp.create((2, 4), seed=0)
        with pytest.raises(ShapeError, match="input has 3 columns, the network takes 2"):
            branch_outputs(extractor, Mlp.create((4, 3), seed=1), np.ones((5, 3)))
        with pytest.raises(ShapeError, match="input has 4 columns, the network takes 5"):
            branch_outputs(extractor, Mlp.create((5, 3), seed=1), np.ones((5, 2)))
