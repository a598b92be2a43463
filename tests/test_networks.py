import numpy as np
import pytest

from dcp.networks import Mlp, MlpSpec, Params, branch_outputs, forward, init_params
from dcp.tensor import ShapeError, Tensor


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
