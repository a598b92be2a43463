import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_helpers import centroid_weights_reference, contract, network, sigmoid

from dcp.centroids import (
    LOSS_EPS,
    DegenerateGeometryError,
    centroid_centroid_matrix,
    centroid_sample_matrix,
    compute_centroids,
    loss_cc,
    loss_cs,
    update_centroids_ema,
)
from dcp.tensor import SQRT_SHIFT, ShapeError, Tensor, grad_check, weighted_sum


def centroid_oracle(features, labels, k):
    out = np.zeros((k, features.shape[1]))
    for cls in range(k):
        members = [features[i] for i in range(len(labels)) if labels[i] == cls]
        acc = np.zeros(features.shape[1])
        for row in members:
            acc += row
        out[cls] = acc / len(members)
    return out


def pairwise_chain(a, b):
    """``pairwise_euclidean`` (a node that stays) in numpy, and its backward."""
    diff = a[:, None, :] - b[None, :, :]
    sq = np.einsum("ijd,ijd->ij", diff, diff)

    def backward(g):
        w = g / np.sqrt(sq + SQRT_SHIFT)
        return w.sum(axis=1, keepdims=True) * a - w @ b, w.sum(axis=0)[:, None] * b - w.T @ a

    return np.sqrt(sq), backward


def relativize_chain(a, b, scale, upstream):
    """The deleted chain ``d / (d.sum() * scale)`` over ``d = pairwise_euclidean(a, b)``.

    Returns its value and the gradients of ``a`` and ``b`` for ``upstream``.
    """
    d, pairwise_backward = pairwise_chain(a, b)
    norm = np.array([[d.sum()]]) * scale
    # division: the dividend's gradient, and the divisor's reduced to 1 x 1
    g_d = upstream / norm
    g_norm = -upstream * d / (norm * norm)
    if g_norm.shape[0] != 1:
        g_norm = g_norm.sum(axis=0, keepdims=True)
    if g_norm.shape[1] != 1:
        g_norm = g_norm.sum(axis=1, keepdims=True)
    # the scale, then the sum, which hands every entry the same gradient
    g_d = g_d + np.full(d.shape, (g_norm * scale)[0, 0])
    return (d / norm, *pairwise_backward(g_d))


def discrepancy_chain(m_cluster, m_adv, scale, upstream):
    """The deleted chain ``((diff * diff).sum() + LOSS_EPS).sqrt() * scale``.

    ``diff = m_adv - m_cluster``. Returns its value and the gradients of
    ``m_cluster`` and ``m_adv``.
    """
    diff = m_adv - m_cluster
    sq = diff * diff
    shifted = np.array([[sq.sum()]]) + LOSS_EPS
    g_root = np.full((1, 1), upstream) * scale
    g_shifted = g_root / (2.0 * np.sqrt(shifted + SQRT_SHIFT))
    g_sq = np.full(sq.shape, g_shifted[0, 0])
    g_diff = g_sq * diff
    g_diff = g_diff + g_sq * diff  # diff is both factors of the product
    return np.sqrt(shifted) * scale, -g_diff, g_diff


class TestComputeCentroids:
    def test_arithmetic_mean(self):
        bank = compute_centroids(Tensor([[1.0, 1.0], [3.0, 3.0], [7.0, 9.0]]), [0, 0, 1], k=2)
        np.testing.assert_allclose(bank.values[0], [2.0, 2.0])
        np.testing.assert_allclose(bank.values[1], [7.0, 9.0])

    def test_singleton_class_equals_sample(self):
        bank = compute_centroids(Tensor([[1.0, 5.0], [2.0, 6.0]]), [0, 1], k=2)
        np.testing.assert_allclose(bank.values, [[1.0, 5.0], [2.0, 6.0]])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(50, 4))
        labels = rng.integers(-1, 3, size=50)
        bank = compute_centroids(Tensor(features), labels, k=3)
        expected = centroid_oracle(features, labels, 3)
        assert np.abs(bank.values - expected).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_weights_bit_identical_to_per_class_loop(self, seed):
        rng = np.random.default_rng(seed)
        k = rng.integers(2, 5)
        # every class labeled at least once, the last exactly once
        labels = np.concatenate([np.arange(k), rng.integers(-1, k - 1, size=rng.integers(0, 40))])
        labels = rng.permutation(labels)
        features = Tensor(rng.normal(size=(labels.shape[0], 3)))
        weights = compute_centroids(features, labels, k)._parents[0].values
        assert np.array_equal(weights, centroid_weights_reference(labels, k))

    def test_all_unlabeled_rejected(self):
        with pytest.raises(ValueError, match="unlabeled"):
            compute_centroids(Tensor(np.ones((3, 2))), [-1, -1, -1], k=2)

    def test_class_without_labeled_row_rejected(self):
        with pytest.raises(ValueError, match="class 1 has no labeled row"):
            compute_centroids(Tensor(np.ones((3, 2))), [0, 0, -1], k=2)

    def test_gradient_flows_to_features(self):
        features = Tensor(np.random.default_rng(0).normal(size=(6, 3)), requires_grad=True)
        bank = compute_centroids(features, [0, 0, 1, 1, 1, -1], k=2)
        contract(bank, 1.0).backward()
        # unlabeled row receives no gradient; labeled rows get 1/count
        np.testing.assert_allclose(features.grad[5], np.zeros(3))
        np.testing.assert_allclose(features.grad[0], np.full(3, 0.5))
        np.testing.assert_allclose(features.grad[2], np.full(3, 1.0 / 3.0))


class TestEmaUpdate:
    def test_formula(self):
        bank = Tensor([[2.0, 2.0], [0.0, 0.0]])
        fresh = Tensor([[4.0, 4.0], [1.0, 1.0]])
        out = update_centroids_ema(bank, fresh, theta=0.7)
        np.testing.assert_allclose(out.values[0], [2.6, 2.6])

    def test_theta_zero_takes_fresh(self):
        bank = Tensor([[2.0, 2.0], [5.0, 5.0]])
        fresh = Tensor([[4.0, 4.0], [1.0, 1.0]])
        out = update_centroids_ema(bank, fresh, theta=0.0)
        np.testing.assert_array_equal(out.values, fresh.values)

    def test_shape_mismatch(self):
        bank = Tensor([[2.0, 2.0], [5.0, 5.0]])
        fresh = Tensor(np.ones((3, 2)))
        with pytest.raises(ShapeError):
            update_centroids_ema(bank, fresh, theta=0.7)

    def test_gradient_reaches_fresh_side_only(self):
        rng = np.random.default_rng(6)
        bank = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        weights = rng.normal(size=(3, 4))
        report = grad_check(
            lambda x: contract(update_centroids_ema(bank, x, theta=0.7), weights),
            Tensor(rng.normal(size=(3, 4))),
        )
        assert report.max_rel_error < 1e-6
        contract(update_centroids_ema(bank, Tensor(np.ones((3, 4))), theta=0.7), weights).backward()
        assert bank.grad is None

    @pytest.mark.parametrize("theta", [0.7, 0.3])
    def test_bit_identical_to_deleted_chain(self, theta):
        # fresh * (1 - theta) + Tensor(bank * (1 - (1 - theta)))
        rng = np.random.default_rng(7)
        bank, fresh, upstream = (rng.normal(size=(3, 4)) for _ in range(3))
        t_fresh = Tensor(fresh, requires_grad=True)
        out = update_centroids_ema(Tensor(bank), t_fresh, theta)
        contract(out, upstream).backward()
        blend = 1.0 - theta
        assert np.array_equal(out.values, fresh * blend + bank * (1.0 - blend))
        assert np.array_equal(t_fresh.grad, upstream * blend)


class TestDistanceMatrices:
    def test_two_centroids_relativize_to_unit(self):
        bank = Tensor([[0.0, 0.0], [2.0, 0.0]])
        out = centroid_centroid_matrix(bank)
        np.testing.assert_allclose(out.values, [[0.0, 1.0], [1.0, 0.0]])

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(4, 3))
        a = centroid_centroid_matrix(Tensor(pts))
        b = centroid_centroid_matrix(Tensor(pts * 10.0))
        assert np.abs(a.values - b.values).max() <= 1e-12

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(4)
        bank = Tensor(rng.normal(size=(5, 2)))
        out = centroid_centroid_matrix(bank).values
        np.testing.assert_array_equal(np.diag(out), np.zeros(5))
        np.testing.assert_allclose(out, out.T)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="at least 2 classes"):
            centroid_centroid_matrix(Tensor([[1.0, 2.0]]))

    def test_identical_centroids_degenerate(self):
        bank = Tensor(np.ones((3, 2)))
        with pytest.raises(DegenerateGeometryError):
            centroid_centroid_matrix(bank)

    def test_centroid_sample_hand_case(self):
        # Park the second centroid far away and check row 0.
        bank = Tensor([[0.0, 0.0], [3.0, 4.0]])
        out = centroid_sample_matrix(bank, Tensor([[3.0, 4.0], [3.0, 4.0]]))
        raw = np.array([[5.0, 5.0], [0.0, 0.0]])
        np.testing.assert_allclose(out.values, raw / raw.mean())
        np.testing.assert_allclose(out.values[0], [2.0, 2.0])

    def test_sample_on_centroid_contributes_zero(self):
        bank = Tensor([[0.0, 0.0], [1.0, 1.0]])
        out = centroid_sample_matrix(bank, Tensor([[0.0, 0.0]]))
        assert out.values[0, 0] == 0.0

    def test_entries_nonnegative(self):
        rng = np.random.default_rng(5)
        bank = Tensor(rng.normal(size=(3, 4)))
        out = centroid_sample_matrix(bank, Tensor(rng.normal(size=(7, 4))))
        assert (out.values >= 0).all()

    def test_degenerate_samples(self):
        bank = Tensor(np.zeros((2, 2)))
        with pytest.raises(DegenerateGeometryError):
            centroid_sample_matrix(bank, Tensor(np.zeros((3, 2))))

    def test_cc_gradient_through_shared_argument(self):
        # pairwise_euclidean(c, c): both of its operands are the centroids
        rng = np.random.default_rng(8)
        weights = rng.normal(size=(4, 4))
        report = grad_check(
            lambda c: contract(centroid_centroid_matrix(c), weights), Tensor(rng.normal(size=(4, 3)))
        )
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("wrt", ["centroids", "features"])
    def test_cs_gradient_matches_finite_differences(self, wrt):
        rng = np.random.default_rng(9)
        operands = {"centroids": rng.normal(size=(3, 2)), "features": rng.normal(size=(5, 2))}
        weights = rng.normal(size=(3, 5))

        def f(probe):
            args = {name: Tensor(v) for name, v in operands.items()}
            args[wrt] = probe
            return contract(centroid_sample_matrix(args["centroids"], args["features"]), weights)

        report = grad_check(f, Tensor(operands[wrt]))
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_cc_bit_identical_to_deleted_chain(self, seed):
        rng = np.random.default_rng(10 + seed)
        c, upstream = rng.normal(size=(3, 4)), rng.normal(size=(3, 3))
        t_c = Tensor(c, requires_grad=True)
        out = centroid_centroid_matrix(t_c)
        contract(out, upstream).backward()
        value, g_a, g_b = relativize_chain(c, c, 1.0 / (3 * 3 - 3), upstream)
        assert np.array_equal(out.values, value)
        assert np.array_equal(t_c.grad, g_a + g_b)

    @pytest.mark.parametrize("seed", range(3))
    def test_cs_bit_identical_to_deleted_chain(self, seed):
        rng = np.random.default_rng(20 + seed)
        c, f, upstream = rng.normal(size=(3, 4)), rng.normal(size=(7, 4)), rng.normal(size=(3, 7))
        t_c, t_f = Tensor(c, requires_grad=True), Tensor(f, requires_grad=True)
        out = centroid_sample_matrix(t_c, t_f)
        contract(out, upstream).backward()
        value, g_c, g_f = relativize_chain(c, f, 1.0 / (3 * 7), upstream)
        for fused, expected in zip([out.values, t_c.grad, t_f.grad], [value, g_c, g_f]):
            assert np.array_equal(fused, expected)


class TestAlignmentLosses:
    def test_equal_matrices_near_zero(self):
        m = Tensor(np.random.default_rng(0).normal(size=(3, 3)))
        assert loss_cc(m, m).item() <= 1e-5
        assert loss_cs(m, m).item() <= 1e-5

    def test_cc_hand_value(self):
        a = Tensor([[0.0, 3.0], [3.0, 0.0]])
        b = Tensor([[0.0, 1.0], [1.0, 0.0]])
        assert abs(loss_cc(a, b).item() - 0.70710678118654752) < 1e-6

    def test_cs_hand_value(self):
        a = Tensor([[2.0, 2.0]])
        b = Tensor([[0.0, 0.0]])
        assert abs(loss_cs(a, b).item() - 1.414213562373095) < 1e-6

    def test_symmetric_in_argument_order(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 3)))
        b = Tensor(rng.normal(size=(3, 3)))
        assert loss_cc(a, b).item() == loss_cc(b, a).item()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_cc(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 3))))
        with pytest.raises(ShapeError):
            loss_cc(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_cc_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        other = Tensor(rng.normal(size=(3, 3)))
        report = grad_check(lambda m: loss_cc(m, other), Tensor(rng.normal(size=(3, 3))))
        assert report.max_rel_error < 1e-4

    def test_cs_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        other = Tensor(rng.normal(size=(2, 5)))
        report = grad_check(lambda m: loss_cs(m, other), Tensor(rng.normal(size=(2, 5))))
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("loss", [loss_cc, loss_cs])
    def test_gradient_wrt_adversarial_matrix(self, loss):
        rng = np.random.default_rng(4)
        m_cluster = Tensor(rng.normal(size=(3, 3)))
        report = grad_check(lambda m: loss(m_cluster, m), Tensor(rng.normal(size=(3, 3))))
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("loss,shape", [(loss_cc, (3, 3)), (loss_cs, (3, 7))])
    @pytest.mark.parametrize("upstream", [1.0, 0.1])
    def test_bit_identical_to_deleted_chain(self, loss, shape, upstream):
        rng = np.random.default_rng(5)
        m_cluster, m_adv = rng.normal(size=shape), rng.normal(size=shape)
        t_cluster, t_adv = Tensor(m_cluster, requires_grad=True), Tensor(m_adv, requires_grad=True)
        out = loss(t_cluster, t_adv)
        weighted_sum([out], [upstream]).backward()
        chain = discrepancy_chain(m_cluster, m_adv, 1.0 / (shape[0] * shape[1]), upstream)
        for fused, expected in zip([out.values, t_cluster.grad, t_adv.grad], chain):
            assert np.array_equal(fused, expected)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(2, 5))
    def test_permutation_invariance(self, seed, k):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(k, k))
        b = rng.normal(size=(k, k))
        perm = rng.permutation(k)
        base = loss_cc(Tensor(a), Tensor(b)).item()
        permuted = loss_cc(Tensor(a[perm][:, perm]), Tensor(b[perm][:, perm])).item()
        assert abs(base - permuted) < 1e-12


class TestEndToEndGradient:
    def test_alignment_losses_differentiate_to_extractor_weights(self):
        """Finite differences through centroids, matrices, and both losses."""
        rng = np.random.default_rng(9)
        n_b, d_in, d_f, k = 6, 3, 4, 2
        x = Tensor(rng.normal(size=(n_b, d_in)))
        labels = np.array([0, 1, 0, 1, 0, 1])
        w_other = Tensor(rng.normal(size=(d_in, d_f)).T)
        zero_bias = Tensor(np.zeros((d_f, 1)))
        identity = Tensor(np.eye(d_f))

        def alignment(w):
            feats = network(x, [w, identity], [zero_bias, zero_bias])  # relu(x @ w.T)
            feats_other = sigmoid(network(x, [w_other], [zero_bias]))
            bank = compute_centroids(feats, labels, k)
            bank_other = compute_centroids(feats_other, labels, k)
            cc = loss_cc(centroid_centroid_matrix(bank_other), centroid_centroid_matrix(bank))
            cs = loss_cs(
                centroid_sample_matrix(bank_other, feats_other),
                centroid_sample_matrix(bank, feats),
            )
            return weighted_sum([cc, cs], [0.1, 0.1])

        report = grad_check(alignment, Tensor(rng.normal(size=(d_f, d_in))), h=1e-6)
        assert report.max_rel_error < 1e-4
