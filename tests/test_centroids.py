import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcp.centroids import (
    DegenerateGeometryError,
    centroid_centroid_matrix,
    centroid_sample_matrix,
    compute_centroids,
    loss_cc,
    loss_cs,
    update_centroids_ema,
)
from dcp.tensor import ShapeError, Tensor, grad_check, matmul


def centroid_oracle(features, labels, k):
    out = np.zeros((k, features.shape[1]))
    for cls in range(k):
        members = [features[i] for i in range(len(labels)) if labels[i] == cls]
        acc = np.zeros(features.shape[1])
        for row in members:
            acc += row
        out[cls] = acc / len(members)
    return out


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

    def test_all_unlabeled_rejected(self):
        with pytest.raises(ValueError, match="unlabeled"):
            compute_centroids(Tensor(np.ones((3, 2))), [-1, -1, -1], k=2)

    def test_class_without_labeled_row_rejected(self):
        with pytest.raises(ValueError, match="class 1 has no labeled row"):
            compute_centroids(Tensor(np.ones((3, 2))), [0, 0, -1], k=2)

    def test_gradient_flows_to_features(self):
        features = Tensor(np.random.default_rng(0).normal(size=(6, 3)), requires_grad=True)
        bank = compute_centroids(features, [0, 0, 1, 1, 1, -1], k=2)
        bank.sum().backward()
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
        w_other = Tensor(rng.normal(size=(d_in, d_f)))

        def alignment(w):
            feats = matmul(x, w).relu()
            feats_other = matmul(x, w_other).sigmoid()
            bank = compute_centroids(feats, labels, k)
            bank_other = compute_centroids(feats_other, labels, k)
            cc = loss_cc(centroid_centroid_matrix(bank_other), centroid_centroid_matrix(bank))
            cs = loss_cs(
                centroid_sample_matrix(bank_other, feats_other),
                centroid_sample_matrix(bank, feats),
            )
            return (cc + cs) * 0.1

        report = grad_check(alignment, Tensor(rng.normal(size=(d_in, d_f))), h=1e-6)
        assert report.max_rel_error < 1e-4
