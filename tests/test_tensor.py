import numpy as np
import pytest

from dcp.tensor import (
    DomainError,
    EvaluationError,
    ShapeError,
    Tensor,
    grad_check,
    linear,
    matmul,
    pairwise_euclidean,
    softmax_cross_entropy,
    vstack,
)


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def pairwise_oracle(a, b):
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            s = 0.0
            for d in range(a.shape[1]):
                s += (a[i, d] - b[j, d]) ** 2
            out[i, j] = np.sqrt(s)
    return out


class TestMatmul:
    def test_hand_product(self):
        out = matmul(Tensor([[1, 2], [3, 4]]), Tensor([[1], [1]]))
        np.testing.assert_array_equal(out.values, [[3], [7]])

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        out = matmul(Tensor(a), Tensor(np.eye(4)))
        np.testing.assert_allclose(out.values, a, atol=0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_triple_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = matmul(Tensor(a), Tensor(b))
        assert np.abs(out.values - matmul_oracle(a, b)).max() <= 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestActivations:
    def test_relu_definition(self):
        out = Tensor([[-2.0, 3.0]]).relu()
        np.testing.assert_array_equal(out.values, [[0.0, 3.0]])

    def test_sigmoid_at_zero(self):
        assert Tensor([[0.0]]).sigmoid().item() == 0.5

    def test_sigmoid_gradient_at_zero(self):
        report = grad_check(lambda x: x.sigmoid().sum(), Tensor([[0.0]]), h=1e-6)
        x = Tensor([[0.0]], requires_grad=True)
        x.sigmoid().sum().backward()
        assert abs(x.grad[0, 0] - 0.25) < 1e-8
        assert report.max_rel_error < 1e-8

    def test_sigmoid_extreme_inputs_finite(self):
        out = Tensor([[-800.0, 800.0]]).sigmoid()
        assert np.isfinite(out.values).all()

    def test_log_domain_error_reports_index(self):
        with pytest.raises(DomainError, match=r"\(0, 1\)"):
            Tensor([[1.0, -3.0]]).log()


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_two_classes(self):
        loss = softmax_cross_entropy(Tensor([[1.0, 1.0]]), [0])
        assert abs(loss.item() - 0.69314718055994531) < 1e-12

    def test_hand_softmax(self):
        loss = softmax_cross_entropy(Tensor([[0.0, np.log(3.0)]]), [1])
        assert abs(loss.item() - 0.28768207245178093) < 1e-9

    def test_saturated_logits_no_overflow(self):
        loss = softmax_cross_entropy(Tensor([[50.0, 0.0], [0.0, 50.0]]), [0, 1])
        assert loss.item() < 1e-20
        assert np.isfinite(loss.item())

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            softmax_cross_entropy(Tensor([[0.0, 0.0]]), [2])

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        report = grad_check(lambda x: softmax_cross_entropy(x, labels), Tensor(logits))
        assert report.max_rel_error < 1e-4


class TestPairwiseEuclidean:
    def test_three_four_five(self):
        out = pairwise_euclidean(Tensor([[0.0, 0.0]]), Tensor([[3.0, 4.0]]))
        assert out.item() == 5.0

    def test_self_distance_zero_diagonal(self):
        a = np.random.default_rng(3).normal(size=(4, 3))
        out = pairwise_euclidean(Tensor(a), Tensor(a))
        np.testing.assert_array_equal(np.diag(out.values), np.zeros(4))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_pair_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(5, 3))
        out = pairwise_euclidean(Tensor(a), Tensor(b))
        assert np.abs(out.values - pairwise_oracle(a, b)).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            pairwise_euclidean(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))

    def test_gradient_finite_at_coincident_points(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        out = pairwise_euclidean(a, Tensor([[1.0, 2.0]])).sum()
        out.backward()
        assert np.isfinite(a.grad).all()


class TestBackward:
    def test_quadratic(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [[2.0, 4.0]])

    def test_constant_loss_is_noop(self):
        loss = Tensor([[3.0]])
        loss.backward()
        assert loss.grad is None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            Tensor([[1.0, 2.0]], requires_grad=True).backward()

    def test_accumulation_across_calls(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        loss.backward()
        np.testing.assert_allclose(x.grad, [[4.0, 8.0]])
        x.zero_grad()
        assert x.grad is None

    def test_shared_subexpression_counted_twice(self):
        x = Tensor([[3.0]], requires_grad=True)
        y = x + x
        y.backward()
        np.testing.assert_allclose(x.grad, [[2.0]])

    def test_relu_matmul_chain_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(3, 3)))

        def f(x):
            return matmul(x, w).relu().sum()

        report = grad_check(f, Tensor(rng.normal(size=(2, 3))), h=1e-6)
        assert report.max_rel_error < 1e-6


class TestCompositionGradients:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_composition_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        p = int(rng.integers(1, 8))
        w = Tensor(rng.normal(size=(n, p)))
        bias = Tensor(rng.normal(size=(1, p)))
        anchors = Tensor(rng.normal(size=(3, p)) + 3.0)

        def f(x):
            h = (matmul(x, w) + bias).sigmoid()
            d = pairwise_euclidean(h, anchors)
            scale = d.mean() + 1.0
            return ((x * x).sum() + 2.0).sqrt() + (d / scale).sum() + matmul(x, w).relu().mean()

        report = grad_check(f, Tensor(rng.normal(size=(m, n))), h=1e-6)
        assert report.max_rel_error < 1e-4

    def test_division_and_log_gradients(self):
        rng = np.random.default_rng(11)

        def f(x):
            y = (x * x + 1.0).log()
            return (y / y.sum()).sum() + (3.0 / (x * x + 2.0)).sum()

        report = grad_check(f, Tensor(rng.normal(size=(3, 3))))
        assert report.max_rel_error < 1e-4


class TestBroadcasting:
    def test_row_vector_add(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) + Tensor([[10.0, 20.0]])
        np.testing.assert_array_equal(out.values, [[11.0, 22.0], [13.0, 24.0]])

    def test_col_vector_add_gradient_reduces(self):
        b = Tensor([[1.0], [2.0]], requires_grad=True)
        (Tensor(np.ones((2, 3))) + b).sum().backward()
        np.testing.assert_allclose(b.grad, [[3.0], [3.0]])

    def test_cross_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 1))) + Tensor(np.ones((1, 3)))

    def test_scalar_tensor_division(self):
        a = Tensor([[2.0, 4.0]], requires_grad=True)
        s = a.sum()
        (a / s).sum().backward()
        # d/da_i sum(a/sum(a)) = 0 for all i
        np.testing.assert_allclose(a.grad, [[0.0, 0.0]], atol=1e-15)


class TestVstackAndTranspose:
    def test_vstack_values_and_gradient(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0, 4.0], [5.0, 6.0]], requires_grad=True)
        out = vstack([a, b])
        np.testing.assert_array_equal(out.values, [[1, 2], [3, 4], [5, 6]])
        (out * out).sum().backward()
        np.testing.assert_allclose(a.grad, [[2.0, 4.0]])
        np.testing.assert_allclose(b.grad, [[6.0, 8.0], [10.0, 12.0]])

    def test_transpose_gradient(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        (a.T * Tensor([[1.0, 0.0], [0.0, 0.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, [[1.0, 0.0], [0.0, 0.0]])


class TestLinear:
    def _operands(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 1))
        return x, w, b, rng.normal(size=(5, 4))

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("wrt", ["x", "w", "b"])
    def test_gradient_matches_finite_differences(self, relu, wrt):
        x, w, b, weights = self._operands()
        operands = {"x": x, "w": w, "b": b}

        def f(probe):
            args = {name: Tensor(v) for name, v in operands.items()}
            args[wrt] = probe
            return (linear(args["x"], args["w"], args["b"], relu=relu) * Tensor(weights)).sum()

        report = grad_check(f, Tensor(operands[wrt]))
        assert report.max_rel_error < 1e-6

    @pytest.mark.parametrize("relu", [False, True])
    def test_bit_identical_to_transpose_matmul_add_chain(self, relu):
        x, w, b, weights = self._operands(seed=1)
        results = []
        for fused in (True, False):
            tx, tw, tb = (Tensor(v, requires_grad=True) for v in (x, w, b))
            if fused:
                out = linear(tx, tw, tb, relu=relu)
            else:
                out = matmul(tx, tw.T) + tb.T
                out = out.relu() if relu else out
            (out * Tensor(weights)).sum().backward()
            results.append([out.values, tx.grad, tw.grad, tb.grad])
        for fused_value, chain_value in zip(*results):
            assert np.array_equal(fused_value, chain_value)

    def test_shape_errors(self):
        x, w, b, _ = self._operands()
        with pytest.raises(ShapeError, match="columns"):
            linear(Tensor(x), Tensor(w.T), Tensor(b))
        with pytest.raises(ShapeError, match="bias"):
            linear(Tensor(x), Tensor(w), Tensor(b.T))


class TestGradCheck:
    def test_quadratic_is_tight(self):
        report = grad_check(lambda x: (x * x).sum(), Tensor([[1.0, 2.0]]), h=1e-6)
        assert report.max_rel_error < 1e-8

    def test_non_finite_value_raises(self):
        def f(x):
            with np.errstate(divide="ignore"):
                return (1.0 / (x - 0.5)).sum()

        with pytest.raises(EvaluationError):
            grad_check(f, Tensor([[0.5]]))

    def test_worst_index_points_at_broken_coordinate(self):
        def f(x):
            # Forward identity, backward sign flip on column 1 only.
            flip = np.array([[1.0, -1.0]])

            def bw(g):
                x._accumulate(g * flip)

            out = Tensor._node(x.values.copy(), (x,), bw)
            return (out * out).sum()

        report = grad_check(f, Tensor([[1.0, 2.0]]))
        assert report.worst_index == (0, 1)
        assert report.max_rel_error > 0.5


class TestDeterminismAndImmutability:
    def test_identical_inputs_bit_identical_outputs(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        first = matmul(Tensor(a), Tensor(b)).values
        second = matmul(Tensor(a), Tensor(b)).values
        assert np.array_equal(first, second)

    def test_values_are_frozen(self):
        t = Tensor([[1.0]])
        with pytest.raises(ValueError):
            t.values[0, 0] = 2.0

    def test_constructor_copies_input(self):
        src = np.ones((2, 2))
        t = Tensor(src)
        src[0, 0] = 5.0
        assert t.values[0, 0] == 1.0
