import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_helpers import (
    centroid_weights_reference,
    contract,
    network,
    per_branch_alignment,
    sigmoid,
    vstack,
)

from dcp.centroids import (
    LOSS_EPS,
    SQRT_SHIFT,
    DegenerateGeometryError,
    centroid_centroid_matrix,
    centroid_sample_matrix,
    compute_centroids,
    distance_values,
    loss_cc,
    loss_cs,
    update_centroids_ema,
)
from dcp.tensor import ShapeError, Tensor, grad_check, weighted_sum


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
    """The deleted ``pairwise_euclidean`` node in numpy, and its backward."""
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


def stacked(adv, clu) -> Tensor:
    """The adversarial rows on top of the clustering rows, as one constant tensor."""
    return Tensor(np.vstack([adv, clu]))


# one block of 3 x 2 ones for each branch
ONES_3X2 = ((Tensor(np.ones((3, 2))),), (Tensor(np.ones((3, 2))),))


class TestComputeCentroids:
    def test_arithmetic_mean(self):
        adv = (Tensor([[1.0, 1.0], [3.0, 3.0]]), Tensor([[7.0, 9.0]]))
        clu = (Tensor([[0.0, 2.0], [0.0, 4.0]]), Tensor([[5.0, 5.0]]))
        bank = compute_centroids(adv, clu, [0, 0, 1], k=2)
        np.testing.assert_allclose(bank.values, [[2.0, 2.0], [7.0, 9.0], [0.0, 3.0], [5.0, 5.0]])

    def test_singleton_class_equals_sample(self):
        bank = compute_centroids(
            (Tensor([[1.0, 5.0], [2.0, 6.0]]),), (Tensor([[3.0, 7.0], [4.0, 8.0]]),), [0, 1], k=2
        )
        np.testing.assert_allclose(bank.values, [[1.0, 5.0], [2.0, 6.0], [3.0, 7.0], [4.0, 8.0]])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(50, 4))
        labels = rng.integers(-1, 3, size=50)
        other = rng.normal(size=(50, 4))
        bank = compute_centroids(
            (Tensor(features[:20]), Tensor(features[20:])),
            (Tensor(other[:20]), Tensor(other[20:])),
            labels,
            k=3,
        )
        expected = np.vstack([centroid_oracle(f, labels, 3) for f in (features, other)])
        assert np.abs(bank.values - expected).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_weights_bit_identical_to_per_class_loop(self, seed):
        rng = np.random.default_rng(seed)
        k = rng.integers(2, 5)
        # every class labeled at least once, the last exactly once
        labels = np.concatenate([np.arange(k), rng.integers(-1, k - 1, size=rng.integers(0, 40))])
        labels = rng.permutation(labels)
        n_s = labels.shape[0] // 2
        adv = [Tensor(rng.normal(size=(rows, k)), requires_grad=True)
               for rows in (n_s, labels.shape[0] - n_s)]
        clu = [Tensor(rng.normal(size=t.shape), requires_grad=True) for t in adv]
        # an upstream of the identity on the adversarial half hands its
        # features the transposed weights, exactly
        upstream = np.vstack([np.eye(k), np.zeros((k, k))])
        contract(compute_centroids(adv, clu, labels, k), upstream).backward()
        weights = np.vstack([t.grad for t in adv]).T
        assert np.array_equal(weights, centroid_weights_reference(labels, k))
        assert all(not t.grad.any() for t in clu)

    def test_all_unlabeled_rejected(self):
        with pytest.raises(ValueError, match="unlabeled"):
            compute_centroids(*ONES_3X2, [-1, -1, -1], k=2)

    def test_class_without_labeled_row_rejected(self):
        with pytest.raises(ValueError, match="class 1 has no labeled row"):
            compute_centroids(*ONES_3X2, [0, 0, -1], k=2)

    def test_branch_blocks_must_match(self):
        with pytest.raises(ShapeError, match="branch feature blocks differ"):
            compute_centroids(
                (Tensor(np.ones((2, 2))), Tensor(np.ones((1, 2)))),
                (Tensor(np.ones((1, 2))), Tensor(np.ones((2, 2)))),
                [0, 1, 1],
                k=2,
            )
        with pytest.raises(ShapeError, match="2 labels for 3 feature rows"):
            compute_centroids(*ONES_3X2, [0, 1], k=2)

    def test_gradient_flows_to_features(self):
        rng = np.random.default_rng(0)
        source, target = (Tensor(rng.normal(size=(3, 3)), requires_grad=True) for _ in range(2))
        other = (Tensor(np.zeros((3, 3)), requires_grad=True), Tensor(np.zeros((3, 3))))
        bank = compute_centroids((source, target), other, [0, 0, 1, 1, 1, -1], k=2)
        contract(bank, 1.0).backward()
        # unlabeled row receives no gradient; labeled rows get 1/count
        np.testing.assert_allclose(target.grad[2], np.zeros(3))
        np.testing.assert_allclose(source.grad[0], np.full(3, 0.5))
        np.testing.assert_allclose(target.grad[0], np.full(3, 1.0 / 3.0))
        np.testing.assert_allclose(other[0].grad[2], np.full(3, 1.0 / 3.0))


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
        # each branch is divided by its own mean, whatever its scale
        banks = Tensor([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 5.0]])
        out = centroid_centroid_matrix(banks)
        np.testing.assert_allclose(out.values, [[0.0, 1.0], [1.0, 0.0]] * 2)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(4, 3))
        a = centroid_centroid_matrix(stacked(pts, pts))
        b = centroid_centroid_matrix(stacked(pts * 10.0, pts * 0.5))
        assert np.abs(a.values - b.values).max() <= 1e-12

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(4)
        out = centroid_centroid_matrix(Tensor(rng.normal(size=(10, 2)))).values
        for half in (out[:5], out[5:]):
            np.testing.assert_array_equal(np.diag(half), np.zeros(5))
            np.testing.assert_allclose(half, half.T)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="at least 2 classes"):
            centroid_centroid_matrix(Tensor([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ShapeError, match="row count is even"):
            centroid_centroid_matrix(Tensor(np.eye(3)))

    def test_identical_centroids_degenerate(self):
        # one branch's centroids coincide: the other's cannot rescue it
        banks = stacked(np.eye(3)[:, :2], np.ones((3, 2)))
        with pytest.raises(DegenerateGeometryError):
            centroid_centroid_matrix(banks)

    def test_centroid_sample_hand_case(self):
        # Park the second centroid far away and check row 0.
        banks = stacked([[0.0, 0.0], [3.0, 4.0]], [[0.0, 0.0], [3.0, 4.0]])
        samples = Tensor([[3.0, 4.0], [3.0, 4.0]])
        out = centroid_sample_matrix(banks, samples, samples)
        raw = np.array([[5.0, 5.0], [0.0, 0.0]])
        np.testing.assert_allclose(out.values, np.vstack([raw, raw]) / raw.mean())
        np.testing.assert_allclose(out.values[0], [2.0, 2.0])

    def test_sample_on_centroid_contributes_zero(self):
        banks = stacked([[0.0, 0.0], [1.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]])
        out = centroid_sample_matrix(banks, Tensor([[0.0, 0.0]]), Tensor([[1.0, 1.0]]))
        assert out.values[0, 0] == 0.0
        assert out.values[3, 0] == 0.0

    def test_entries_nonnegative(self):
        rng = np.random.default_rng(5)
        banks = Tensor(rng.normal(size=(6, 4)))
        samples = [Tensor(rng.normal(size=(7, 4))) for _ in range(2)]
        out = centroid_sample_matrix(banks, *samples)
        assert out.shape == (6, 7)
        assert (out.values >= 0).all()

    def test_degenerate_samples(self):
        banks = stacked(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(DegenerateGeometryError):
            centroid_sample_matrix(banks, Tensor(np.zeros((3, 2))), Tensor(np.ones((3, 2))))

    def test_sample_shapes_checked(self):
        banks = Tensor(np.ones((4, 2)))
        with pytest.raises(ShapeError):
            centroid_sample_matrix(banks, Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError):
            centroid_sample_matrix(banks, Tensor(np.ones((3, 3))), Tensor(np.ones((3, 3))))

    def test_distance_kernel_is_exact_at_coincident_points(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 3, 4))
        dists, sq = distance_values(a, a)
        assert (np.diagonal(dists, axis1=1, axis2=2) == 0.0).all()
        np.testing.assert_array_equal(dists, np.sqrt(sq))

    def test_cc_gradient_through_shared_argument(self):
        # both operands of the distances are the bank
        rng = np.random.default_rng(8)
        weights = rng.normal(size=(8, 4))
        report = grad_check(
            lambda c: contract(centroid_centroid_matrix(c), weights),
            Tensor(rng.normal(size=(8, 3))),
        )
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("wrt", ["centroids", "features"])
    def test_cs_gradient_matches_finite_differences(self, wrt):
        rng = np.random.default_rng(9)
        operands = {
            "centroids": rng.normal(size=(6, 2)),
            "features": rng.normal(size=(5, 2)),
            "other": rng.normal(size=(5, 2)),
        }
        weights = rng.normal(size=(6, 5))

        def f(probe):
            args = {name: Tensor(v) for name, v in operands.items()}
            args[wrt] = probe
            matrix = centroid_sample_matrix(args["centroids"], args["features"], args["other"])
            return contract(matrix, weights)

        report = grad_check(f, Tensor(operands[wrt]))
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_cc_bit_identical_to_deleted_chain(self, seed):
        rng = np.random.default_rng(10 + seed)
        c, upstream = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
        t_c = Tensor(c, requires_grad=True)
        out = centroid_centroid_matrix(t_c)
        contract(out, upstream).backward()
        for half in (slice(0, 3), slice(3, 6)):
            value, g_a, g_b = relativize_chain(c[half], c[half], 1.0 / (3 * 3 - 3), upstream[half])
            assert np.array_equal(out.values[half], value)
            assert np.array_equal(t_c.grad[half], g_a + g_b)

    @pytest.mark.parametrize("seed", range(3))
    def test_cs_bit_identical_to_deleted_chain(self, seed):
        rng = np.random.default_rng(20 + seed)
        c, upstream = rng.normal(size=(6, 4)), rng.normal(size=(6, 7))
        features = [Tensor(rng.normal(size=(7, 4)), requires_grad=True) for _ in range(2)]
        t_c = Tensor(c, requires_grad=True)
        out = centroid_sample_matrix(t_c, *features)
        contract(out, upstream).backward()
        for half, f in zip((slice(0, 3), slice(3, 6)), features):
            value, g_c, g_f = relativize_chain(c[half], f.values, 1.0 / (3 * 7), upstream[half])
            assert np.array_equal(out.values[half], value)
            assert np.array_equal(t_c.grad[half], g_c)
            assert np.array_equal(f.grad, g_f)


class TestAlignmentLosses:
    def test_equal_matrices_near_zero(self):
        m = np.random.default_rng(0).normal(size=(3, 3))
        assert loss_cc(stacked(m, m)).item() <= 1e-5
        assert loss_cs(stacked(m, m)).item() <= 1e-5

    def test_cc_hand_value(self):
        m = stacked([[0.0, 1.0], [1.0, 0.0]], [[0.0, 3.0], [3.0, 0.0]])
        assert abs(loss_cc(m).item() - 0.70710678118654752) < 1e-6

    def test_cs_hand_value(self):
        assert abs(loss_cs(stacked([[0.0, 0.0]], [[2.0, 2.0]])).item() - 1.414213562373095) < 1e-6

    def test_symmetric_in_argument_order(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        assert loss_cc(stacked(a, b)).item() == loss_cc(stacked(b, a)).item()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_cc(Tensor(np.ones((5, 2))))
        with pytest.raises(ShapeError):
            loss_cc(Tensor(np.ones((4, 3))))
        with pytest.raises(ShapeError):
            loss_cs(Tensor(np.ones((3, 4))))

    def test_cc_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        report = grad_check(loss_cc, Tensor(rng.normal(size=(6, 3))))
        assert report.max_rel_error < 1e-4

    def test_cs_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        report = grad_check(loss_cs, Tensor(rng.normal(size=(4, 5))))
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("loss", [loss_cc, loss_cs])
    def test_gradient_wrt_adversarial_matrix(self, loss):
        rng = np.random.default_rng(4)
        m_cluster = Tensor(rng.normal(size=(3, 3)))
        report = grad_check(lambda m: loss(vstack([m, m_cluster])), Tensor(rng.normal(size=(3, 3))))
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("loss,shape", [(loss_cc, (3, 3)), (loss_cs, (3, 7))])
    @pytest.mark.parametrize("upstream", [1.0, 0.1])
    def test_bit_identical_to_deleted_chain(self, loss, shape, upstream):
        rng = np.random.default_rng(5)
        m_cluster, m_adv = rng.normal(size=shape), rng.normal(size=shape)
        t = Tensor(np.vstack([m_adv, m_cluster]), requires_grad=True)
        out = loss(t)
        weighted_sum([out], [upstream]).backward()
        value, g_cluster, g_adv = discrepancy_chain(
            m_cluster, m_adv, 1.0 / (shape[0] * shape[1]), upstream
        )
        assert np.array_equal(out.values, value)
        assert np.array_equal(t.grad, np.vstack([g_adv, g_cluster]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(2, 5))
    def test_permutation_invariance(self, seed, k):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(k, k))
        b = rng.normal(size=(k, k))
        perm = rng.permutation(k)
        base = loss_cc(stacked(a, b)).item()
        permuted = loss_cc(stacked(a[perm][:, perm], b[perm][:, perm])).item()
        assert abs(base - permuted) < 1e-12


class TestBitIdenticalToPerBranchChain:
    """The stacked-bank nodes against the per-branch chain they replaced.

    Each branch once had its own ``vstack``, centroid product, EMA blend,
    two ``pairwise_euclidean`` nodes under relativizations, and the two
    discrepancies compared the branches' matrices; ``graph_helpers`` keeps
    that chain. Losses, banks and the gradients of all four feature blocks
    must be the same bits.
    """

    K, N_S, N_T, D_F = 3, 12, 12, 5

    def _inputs(self, seed):
        rng = np.random.default_rng(seed)
        features = [
            rng.normal(size=(rows, self.D_F)) for rows in (self.N_S, self.N_T, self.N_S, self.N_T)
        ]
        source_labels = rng.permutation(np.arange(self.N_S) % self.K)
        target_labels = np.where(
            rng.random(self.N_T) < 0.5, rng.integers(0, self.K, size=self.N_T), -1
        )
        banks = rng.normal(size=(2 * self.K, self.D_F))
        return features, np.concatenate([source_labels, target_labels]), banks

    @pytest.mark.parametrize("live_bank", [False, True], ids=["first_step", "live_bank"])
    @pytest.mark.parametrize("seed", range(20))
    def test_losses_bank_and_gradients(self, seed, live_bank):
        features, labels, old_banks = self._inputs(seed)
        k = self.K

        def leaves():
            return [Tensor(f, requires_grad=True) for f in features]

        old = leaves()
        previous = (Tensor(old_banks[:k]), Tensor(old_banks[k:])) if live_bank else None
        l_cc, l_cs, bank_adv, bank_clu = per_branch_alignment(old, labels, k, previous)
        weighted_sum([l_cc, l_cs], [0.1, 0.1]).backward()

        new = leaves()
        fresh = compute_centroids(new[:2], new[2:], labels, k)
        banks = update_centroids_ema(Tensor(old_banks), fresh, 0.7) if live_bank else fresh
        new_cc = loss_cc(centroid_centroid_matrix(banks))
        new_cs = loss_cs(centroid_sample_matrix(banks, new[1], new[3]))
        weighted_sum([new_cc, new_cs], [0.1, 0.1]).backward()

        assert new_cc.item() == l_cc.item()
        assert new_cs.item() == l_cs.item()
        assert np.array_equal(banks.values, np.vstack([bank_adv.values, bank_clu.values]))
        for a, b in zip(new, old):
            assert np.array_equal(a.grad, b.grad)

    @pytest.mark.parametrize("collapsed", [0, 2])
    def test_degenerate_geometry_raises_in_both(self, collapsed):
        features, labels, _ = self._inputs(0)
        # one branch's features all zero: its centroids coincide
        features[collapsed] = np.zeros_like(features[collapsed])
        features[collapsed + 1] = np.zeros_like(features[collapsed + 1])
        tensors = [Tensor(f) for f in features]
        with pytest.raises(DegenerateGeometryError):
            per_branch_alignment(tensors, labels, self.K)
        banks = compute_centroids(tensors[:2], tensors[2:], labels, self.K)
        with pytest.raises(DegenerateGeometryError):
            centroid_centroid_matrix(banks)


class TestEndToEndGradient:
    def test_alignment_losses_differentiate_to_extractor_weights(self):
        """Finite differences through centroids, matrices, and both losses."""
        rng = np.random.default_rng(9)
        n_b, d_in, d_f, k = 6, 3, 4, 2
        x = Tensor(rng.normal(size=(n_b, d_in)))
        labels = np.array([0, 1, 0, 1, 0, 1])
        w_other = Tensor(rng.normal(size=(d_in, d_f)))
        zero_bias = Tensor(np.zeros((1, d_f)))
        identity = Tensor(np.eye(d_f))

        def alignment(w):
            feats = network(x, [w, identity], [zero_bias, zero_bias])  # relu(x @ w)
            feats_other = sigmoid(network(x, [w_other], [zero_bias]))
            banks = compute_centroids((feats,), (feats_other,), labels, k)
            cc = loss_cc(centroid_centroid_matrix(banks))
            cs = loss_cs(centroid_sample_matrix(banks, feats, feats_other))
            return weighted_sum([cc, cs], [0.1, 0.1])

        report = grad_check(alignment, Tensor(rng.normal(size=(d_f, d_in)).T), h=1e-6)
        assert report.max_rel_error < 1e-4
