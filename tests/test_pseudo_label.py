import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcp.pseudo_label import (
    PseudoLabelBatch,
    kmeans_assign,
    per_class_quota,
    select_high_confidence,
    tau_adv,
    tau_clu,
)

# Frozen from a 50-digit evaluation of the two closed forms.
TAU_ADV_EXPECTED = {
    0: 0.4,
    1: 0.40002499999997917,
    10: 0.402499979166875,
    100: 0.63105857863000488,
    1000: 0.9,
}
TAU_CLU_EXPECTED = {
    0: 0.5,
    1: 0.502499979166875,
    10: 0.52497918747893999,
    100: 0.73105857863000488,
    1000: 0.99995460213129757,
}


class TestSchedules:
    @pytest.mark.parametrize("t,expected", sorted(TAU_ADV_EXPECTED.items()))
    def test_tau_adv_closed_form(self, t, expected):
        assert abs(tau_adv(t) - expected) < 1e-12

    @pytest.mark.parametrize("t,expected", sorted(TAU_CLU_EXPECTED.items()))
    def test_tau_clu_closed_form(self, t, expected):
        assert abs(tau_clu(t) - expected) < 1e-12

    def test_monotone_nondecreasing(self):
        ts = range(0, 10_001, 10)
        adv = [tau_adv(t) for t in ts]
        clu = [tau_clu(t) for t in ts]
        assert all(b >= a for a, b in zip(adv, adv[1:]))
        assert all(b >= a for a, b in zip(clu, clu[1:]))

    def test_bounded(self):
        for t in (0, 17, 300, 10_000):
            assert 0.4 <= tau_adv(t) <= 0.9
            assert 0.5 <= tau_clu(t) <= 1.0

    def test_clustering_threshold_higher_early(self):
        assert tau_clu(0) >= tau_adv(0) + 0.1

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            tau_adv(-1)
        with pytest.raises(ValueError):
            tau_clu(-3)


class TestQuota:
    def test_floor(self):
        assert per_class_quota(0.4, 4, 2) == 0
        assert per_class_quota(0.5, 4, 2) == 1
        assert per_class_quota(tau_adv(0), 36, 3) == 4

    def test_zero_is_legal(self):
        assert per_class_quota(0.4, 1, 2) == 0


class TestKmeans:
    def test_nearest_assignment(self):
        labels, _ = kmeans_assign(
            np.array([[1.0, 1.0], [9.0, 9.0]]), np.array([[0.0, 0.0], [10.0, 10.0]]), max_iters=1
        )
        assert list(labels) == [0, 1]

    def test_tie_breaks_to_lowest_index(self):
        labels, _ = kmeans_assign(
            np.array([[5.0, 5.0], [5.0, 5.0]]), np.array([[0.0, 0.0], [10.0, 10.0]]), max_iters=1
        )
        assert list(labels) == [0, 0]

    @pytest.mark.parametrize("seed", range(20))
    def test_converged_assignment_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(30, 2)) + np.array([5.0, 0.0])
        b = rng.normal(size=(30, 2)) - np.array([5.0, 0.0])
        x = np.vstack([a, b])
        labels, centroids = kmeans_assign(x, np.array([[4.0, 0.0], [-4.0, 0.0]]), max_iters=50)
        sq = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(labels, sq.argmin(axis=1))

    def test_empty_cluster_keeps_centroid(self):
        x = np.array([[0.0, 0.0], [0.1, 0.0]])
        far = np.array([50.0, 50.0])
        labels, centroids = kmeans_assign(x, np.array([[0.0, 0.0], far]), max_iters=5)
        assert (labels == 0).all()
        np.testing.assert_array_equal(centroids[1], far)

    def test_more_clusters_than_samples(self):
        with pytest.raises(ValueError):
            kmeans_assign(np.ones((2, 2)), np.ones((3, 2)))


class TestSelection:
    def test_cold_start_quota_zero_selects_nothing(self):
        # N_b=4, K=2 at T=0: adv quota floor(0.4*4/2)=0 gates everything out.
        feats = np.arange(8, dtype=float).reshape(4, 2)
        bank = np.array([[0.0, 0.0], [10.0, 10.0]])
        out = select_high_confidence(feats, feats, [0, 0, 1, 1], [0, 0, 1, 1], bank, bank, 0)
        assert len(out) == 0

    def test_large_t_agreeing_branches_select_quota_per_class(self):
        # N_b=10, K=2, T=1000: quotas floor(0.9*5)=4 and floor(0.99995*5)=4.
        feats = np.array([[d] for d in (0.1, 0.2, 0.3, 0.4, 0.5, 9.1, 9.2, 9.3, 9.4, 9.5)])
        labels = np.array([0] * 5 + [1] * 5)
        bank = np.array([[0.0], [10.0]])
        out = select_high_confidence(feats, feats, labels, labels, bank, bank, 1000)
        assert len(out) == 8
        assert (np.bincount(out.labels, minlength=2) == [4, 4]).all()
        # the farthest sample of each class was dropped
        assert set(out.indices) == {0, 1, 2, 3, 6, 7, 8, 9}

    def test_total_disagreement_selects_nothing(self):
        feats = np.random.default_rng(0).normal(size=(6, 2))
        bank = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 0, 1, 0, 1])
        out = select_high_confidence(feats, feats, y, 1 - y, bank, bank, 5000)
        assert len(out) == 0

    def test_rank_ties_break_by_batch_index(self):
        feats = np.zeros((4, 1))  # all samples equidistant from the centroid
        labels = np.zeros(4, dtype=int)
        bank = np.array([[1.0], [50.0]])
        out = select_high_confidence(feats, feats, labels, labels, bank, bank, 1000)
        # quota floor(0.9*2)=1: only the lowest batch index survives
        assert list(out.indices) == [0]

    def test_batch_size_mismatch_rejected(self):
        bank = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            select_high_confidence(
                np.zeros((3, 1)), np.zeros((2, 1)), [0, 0, 0], [0, 0], bank, bank, 0
            )

    def test_centroid_shape_mismatch_rejected(self):
        feats = np.zeros((4, 1))
        labels = np.zeros(4, dtype=int)
        with pytest.raises(ValueError, match="centroid shapes differ"):
            select_high_confidence(
                feats, feats, labels, labels, np.zeros((2, 1)), np.zeros((3, 1)), 1000
            )

    def test_empty_batch_constructor(self):
        assert len(PseudoLabelBatch.empty()) == 0


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_b=st.integers(1, 40),
    k=st.integers(2, 5),
    t=st.integers(0, 5000),
)
def test_selection_invariants_fuzzed(seed, n_b, k, t):
    rng = np.random.default_rng(seed)
    d_f = 3
    f_adv = rng.normal(size=(n_b, d_f))
    f_clu = rng.normal(size=(n_b, d_f))
    y_adv = rng.integers(0, k, size=n_b)
    y_clu = rng.integers(0, k, size=n_b)
    # two unused draws, kept so that each seed fuzzes a fixed set of inputs
    rng.integers(0, 3, size=k)
    rng.integers(0, 3, size=k)
    bank_adv = rng.normal(size=(k, d_f))
    bank_clu = rng.normal(size=(k, d_f))

    out = select_high_confidence(f_adv, f_clu, y_adv, y_clu, bank_adv, bank_clu, t)

    agreement = set(np.flatnonzero(y_adv == y_clu))
    assert set(out.indices) <= agreement
    assert np.array_equal(out.labels, y_adv[out.indices])
    quota = min(per_class_quota(tau_adv(t), n_b, k), per_class_quota(tau_clu(t), n_b, k))
    per_class = np.bincount(out.labels, minlength=k) if len(out) else np.zeros(k, dtype=int)
    assert (per_class <= quota).all()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n_b=st.integers(2, 20), t=st.integers(0, 3000))
def test_selection_equivariant_under_batch_permutation(seed, n_b, t):
    rng = np.random.default_rng(seed)
    k, d_f = 3, 2
    f_adv = rng.normal(size=(n_b, d_f))
    f_clu = rng.normal(size=(n_b, d_f))
    y_adv = rng.integers(0, k, size=n_b)
    y_clu = rng.integers(0, k, size=n_b)
    bank_adv = rng.normal(size=(k, d_f))
    bank_clu = rng.normal(size=(k, d_f))

    base = select_high_confidence(f_adv, f_clu, y_adv, y_clu, bank_adv, bank_clu, t)
    perm = rng.permutation(n_b)
    permuted = select_high_confidence(
        f_adv[perm], f_clu[perm], y_adv[perm], y_clu[perm], bank_adv, bank_clu, t
    )
    # distances are continuous so ties have probability zero; map indices back
    assert set(perm[permuted.indices]) == set(base.indices)
