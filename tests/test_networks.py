import numpy as np
import pytest
from graph_helpers import contract, layer_chain

from dcp.networks import Mlp, MlpSpec, Params, branch_outputs, forward, init_params
from dcp.tensor import ShapeError, Tensor, grad_check


class TestMlpSpec:
    def test_too_few_widths(self):
        with pytest.raises(ValueError):
            MlpSpec(layer_widths=(3,))

    def test_nonpositive_width(self):
        with pytest.raises(ValueError):
            MlpSpec(layer_widths=(3, 0))

    def test_bad_output_activation(self):
        with pytest.raises(ValueError):
            MlpSpec(layer_widths=(3, 2), output_activation="tanh")


class TestInitParams:
    def test_deterministic_per_seed(self):
        spec = MlpSpec(layer_widths=(4, 8, 2))
        a = init_params(spec, seed=3)
        b = init_params(spec, seed=3)
        for ta, tb in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta.values, tb.values)

    def test_biases_zero(self):
        spec = MlpSpec(layer_widths=(4, 8, 2))
        params = init_params(spec, seed=0)
        for b in params.biases:
            assert np.array_equal(b.values, np.zeros_like(b.values))

    def test_different_seeds_differ(self):
        spec = MlpSpec(layer_widths=(4, 8, 2))
        a = init_params(spec, seed=1)
        b = init_params(spec, seed=2)
        assert any(
            not np.array_equal(ta.values, tb.values)
            for ta, tb in zip(a.tensors(), b.tensors())
        )

    def test_glorot_bounds(self):
        spec = MlpSpec(layer_widths=(10, 6))
        params = init_params(spec, seed=0)
        bound = np.sqrt(6.0 / 16.0)
        assert np.abs(params.weights[0].values).max() <= bound


class TestForward:
    def test_identity_network(self):
        spec = MlpSpec(layer_widths=(2, 2))
        params = Params(
            weights=[Tensor(np.eye(2), requires_grad=True)],
            biases=[Tensor(np.zeros((2, 1)), requires_grad=True)],
        )
        x = np.random.default_rng(0).normal(size=(5, 2))
        out = forward(params, spec, Tensor(x))
        np.testing.assert_allclose(out.values, x, atol=0)

    def test_relu_kills_negative_preactivations(self):
        spec = MlpSpec(layer_widths=(2, 3, 2))
        params = init_params(spec, seed=0)
        params.biases[0] = Tensor(np.full((3, 1), -100.0), requires_grad=True)
        out = forward(params, spec, Tensor([[0.1, -0.2]]))
        # hidden layer is all zeros, so the output is exactly the final bias
        np.testing.assert_array_equal(out.values, params.biases[1].values.T)

    def test_batch_decomposable(self):
        spec = MlpSpec(layer_widths=(3, 5, 2), output_activation="sigmoid")
        mlp = Mlp.create(spec, seed=4)
        x = np.random.default_rng(1).normal(size=(2, 3))
        batched = mlp(Tensor(x)).values
        rows = np.vstack([mlp(Tensor(x[i : i + 1])).values for i in range(2)])
        assert np.abs(batched - rows).max() <= 1e-12

    def test_shape_mismatch(self):
        spec = MlpSpec(layer_widths=(3, 2))
        with pytest.raises(ShapeError):
            forward(init_params(spec, 0), spec, Tensor(np.ones((4, 5))))


# one layer; relu hidden layers; relu hidden layers and a sigmoid output
NODE_SPECS = [
    MlpSpec((3, 4)),
    MlpSpec((3, 5, 4)),
    MlpSpec((3, 5, 4, 1), output_activation="sigmoid"),
]


def _node_operands(spec, seed, x_grad=False, params_grad=False):
    """x (5 rows), parameters with nonzero biases, and upstream weights for ``contract``."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(5, spec.d_in)), requires_grad=x_grad)
    params = init_params(spec, seed)
    params = Params(
        weights=[Tensor(w.values, requires_grad=params_grad) for w in params.weights],
        biases=[
            Tensor(rng.normal(size=b.shape), requires_grad=params_grad) for b in params.biases
        ],
    )
    return x, params, rng.normal(size=(5, spec.d_out))


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
        x, params, _ = _node_operands(spec, seed=0, params_grad=True)
        forward(params, spec, x)
        assert len(built) == 1
        parents = built[0]
        assert parents[0] is x
        assert list(parents[1:]) == params.tensors()  # (x, W1, b1, W2, b2, ...)

    @pytest.mark.parametrize("spec", NODE_SPECS)
    @pytest.mark.parametrize(
        "x_grad, params_grad", [(True, True), (False, True), (True, False)]
    )
    def test_bit_identical_to_layer_chain(self, spec, x_grad, params_grad):
        grads = []
        for build in (forward, layer_chain):
            x, params, upstream = _node_operands(spec, 1, x_grad, params_grad)
            out = build(params, spec, x)
            contract(out, upstream).backward()
            grads.append([out.values] + [t.grad for t in (x, *params.tensors())])
        node, chain = grads
        for a, b in zip(node, chain):
            assert (a is None and b is None) or np.array_equal(a, b)
        # a gradient exactly where a parent takes one
        takes = [x_grad] + [params_grad] * (2 * spec.n_layers)
        assert [g is not None for g in node[1:]] == takes

    @pytest.mark.parametrize("spec", NODE_SPECS)
    def test_gradient_matches_finite_differences(self, spec):
        x, params, upstream = _node_operands(spec, seed=2)
        operands = [x, *params.tensors()]
        for wrt, base in enumerate(operands):

            def f(probe, wrt=wrt):
                args = list(operands)
                args[wrt] = probe
                p = Params(weights=args[1::2], biases=args[2::2])
                return contract(forward(p, spec, args[0]), upstream)

            report = grad_check(f, base)
            assert report.max_rel_error < 1e-6, wrt

    def test_shared_input_and_weight_sum_both_gradients(self):
        # x @ x.T through one layer: x is the input and the weight, gradient 2x
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        params = Params(weights=[x], biases=[Tensor([[0.0]])])
        forward(params, MlpSpec((2, 1)), x).backward()
        np.testing.assert_array_equal(x.grad, [[2.0, 4.0]])

    def test_detached_network_shares_values_and_takes_no_gradient(self):
        mlp = Mlp.create(MlpSpec((3, 5, 1), output_activation="sigmoid"), seed=0)
        frozen = mlp.detached()
        for p, q in zip(mlp.params.tensors(), frozen.params.tensors()):
            assert q.values is p.values and not q.requires_grad
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        contract(frozen(x), 1.0).backward()
        assert x.grad is not None
        assert all(p.grad is None for p in (*mlp.params.tensors(), *frozen.params.tensors()))


class TestBranchOutputs:
    def test_hand_softmax_confidence(self):
        extractor = Mlp(
            spec=MlpSpec(layer_widths=(2, 2)),
            params=Params(
                weights=[Tensor(np.eye(2), requires_grad=True)],
                biases=[Tensor(np.zeros((2, 1)), requires_grad=True)],
            ),
        )
        head = Mlp(
            spec=MlpSpec(layer_widths=(2, 2)),
            params=Params(
                weights=[Tensor(np.eye(2), requires_grad=True)],
                biases=[Tensor(np.zeros((2, 1)), requires_grad=True)],
            ),
        )
        out = branch_outputs(extractor, head, Tensor([[2.0, 1.0]]))
        assert out.predicted_labels[0] == 0

    def test_tie_breaks_to_lowest_index(self):
        extractor = Mlp(
            spec=MlpSpec(layer_widths=(2, 2)),
            params=Params(
                weights=[Tensor(np.eye(2), requires_grad=True)],
                biases=[Tensor(np.zeros((2, 1)), requires_grad=True)],
            ),
        )
        out = branch_outputs(extractor, extractor, Tensor([[1.0, 1.0]]))
        assert out.predicted_labels[0] == 0

    @pytest.mark.parametrize("rows", [600, 50])
    def test_logits_bit_identical_to_graph_forward(self, rows):
        # 600 rows cross several evaluation blocks; 50 fit in one
        extractor = Mlp.create(MlpSpec(layer_widths=(2, 64, 64)), seed=3)
        head = Mlp.create(MlpSpec(layer_widths=(64, 3)), seed=4)
        x = Tensor(np.random.default_rng(5).normal(size=(rows, 2)))
        out = branch_outputs(extractor, head, x)
        assert np.array_equal(out.logits, head(extractor(x)).values)
