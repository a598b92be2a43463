import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_helpers import (
    admitted_reference,
    kmeans_reference,
    per_branch_selection,
    seed_centroids_reference,
)

from dcp.pseudo_label import (
    _admitted,
    class_means,
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

    @pytest.mark.parametrize("seed", range(12))
    def test_bit_identical_to_per_cluster_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, k, d = rng.integers(4, 40), rng.integers(2, 5), rng.integers(1, 6)
        x = rng.normal(size=(n, d))
        init = rng.normal(size=(k, d))
        if seed % 3 == 0:
            init[-1] = 100.0  # a cluster that is empty from the start
        if seed % 3 == 1:
            x = np.round(x)  # duplicate rows: tied distances
        # a BLAS product sums a class's rows in another order than numpy's
        # reduce, so the centroids may differ within the summation bound
        bound = 2 * n * np.finfo(float).eps * np.abs(x).max()
        for max_iters in (1, 2, 20):
            labels, centroids = kmeans_assign(x, init, max_iters=max_iters)
            ref_labels, ref_centroids = kmeans_reference(x, init, max_iters=max_iters)
            assert np.array_equal(labels, ref_labels)
            assert np.abs(centroids - ref_centroids).max() <= bound

    def test_cluster_that_empties_keeps_its_last_centroid_like_the_loop(self):
        # cluster 0 takes {3, 7} and moves to 5; then 3 and 7 both leave it
        x = np.array([[8.0], [3.0], [9.0], [7.0], [2.0]])
        init = np.array([[4.0], [11.0], [1.0]])
        labels, centroids = kmeans_assign(x, init)
        ref_labels, ref_centroids = kmeans_reference(x, init)
        assert not (labels == 0).any() and centroids[0, 0] == 5.0
        assert np.array_equal(labels, ref_labels) and np.array_equal(centroids, ref_centroids)

    @pytest.mark.parametrize("seed", range(8))
    def test_class_means_bit_identical_to_mean_per_class(self, seed):
        rng = np.random.default_rng(seed)
        k = rng.integers(2, 5)
        # every class present, one of them with a single member
        labels = np.concatenate([np.arange(k), rng.integers(1, k, size=rng.integers(0, 30))])
        x = rng.normal(scale=10.0, size=(labels.shape[0], 64))
        out = np.zeros((k, 64))
        class_means(x, labels, np.bincount(labels, minlength=k), out)
        # a BLAS product sums a class's rows in an order that depends on the
        # BLAS kernel, numpy's reduce in its own: the means agree within the
        # summation bound, and exactly for the class with a single member
        bound = 2 * labels.shape[0] * np.finfo(float).eps * np.abs(x).max()
        reference = seed_centroids_reference(x, labels, k)
        assert np.abs(out - reference).max() <= bound
        assert np.array_equal(out[0], reference[0])

    def test_class_means_leaves_uncounted_rows(self):
        out = np.full((3, 1), 7.0)
        class_means(np.array([[1.0], [3.0]]), np.array([0, 0]), np.array([2, 0, 0]), out)
        np.testing.assert_array_equal(out, [[2.0], [7.0], [7.0]])


def select(f_adv, f_clu, y_adv, y_clu, bank_adv, bank_clu, t):
    """``select_high_confidence`` on per-branch inputs, stacked as the trainer stacks them."""
    return select_high_confidence(
        np.stack([f_adv, f_clu]), np.stack([y_adv, y_clu]), np.vstack([bank_adv, bank_clu]), t
    )


def accepted(pseudo):
    """The selected batch rows and their labels."""
    indices = np.flatnonzero(pseudo >= 0)
    return indices, pseudo[indices]


class TestSelection:
    def test_cold_start_quota_zero_selects_nothing(self):
        # N_b=4, K=2 at T=0: adv quota floor(0.4*4/2)=0 gates everything out.
        feats = np.arange(8, dtype=float).reshape(4, 2)
        bank = np.array([[0.0, 0.0], [10.0, 10.0]])
        out = select(feats, feats, [0, 0, 1, 1], [0, 0, 1, 1], bank, bank, 0)
        assert out.shape == (4,) and (out == -1).all()

    def test_large_t_agreeing_branches_select_quota_per_class(self):
        # N_b=10, K=2, T=1000: quotas floor(0.9*5)=4 and floor(0.99995*5)=4.
        feats = np.array([[d] for d in (0.1, 0.2, 0.3, 0.4, 0.5, 9.1, 9.2, 9.3, 9.4, 9.5)])
        labels = np.array([0] * 5 + [1] * 5)
        bank = np.array([[0.0], [10.0]])
        indices, picked = accepted(select(feats, feats, labels, labels, bank, bank, 1000))
        assert len(indices) == 8
        assert (np.bincount(picked, minlength=2) == [4, 4]).all()
        # the farthest sample of each class was dropped
        assert set(indices) == {0, 1, 2, 3, 6, 7, 8, 9}

    def test_total_disagreement_selects_nothing(self):
        feats = np.random.default_rng(0).normal(size=(6, 2))
        bank = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 0, 1, 0, 1])
        out = select(feats, feats, y, 1 - y, bank, bank, 5000)
        assert (out == -1).all()

    def test_rank_ties_break_by_batch_index(self):
        feats = np.zeros((4, 1))  # all samples equidistant from the centroid
        labels = np.zeros(4, dtype=int)
        bank = np.array([[1.0], [50.0]])
        indices, _ = accepted(select(feats, feats, labels, labels, bank, bank, 1000))
        # quota floor(0.9*2)=1: only the lowest batch index survives
        assert list(indices) == [0]

    def test_batch_size_mismatch_rejected(self):
        bank = np.zeros((4, 1))
        with pytest.raises(ValueError, match="must cover one target batch"):
            select_high_confidence(np.zeros((2, 3, 1)), np.zeros((2, 2), dtype=int), bank, 0)

    def test_centroid_shape_mismatch_rejected(self):
        # a 2-row and a 3-row half make a bank with no K
        feats = np.zeros((2, 4, 1))
        labels = np.zeros((2, 4), dtype=int)
        message = r"centroid bank of shape \(5, 1\) is not \(2K x d_f\)"
        with pytest.raises(ValueError, match=message):
            select_high_confidence(feats, labels, np.zeros((5, 1)), 1000)

    @pytest.mark.parametrize(
        "branch", ["adversarial", "clustering"], ids=["labels_adv", "labels_clu"]
    )
    @pytest.mark.parametrize("bad", [-1, 2])
    def test_label_outside_class_range_rejected(self, branch, bad):
        feats = np.zeros((4, 1))
        bank = np.array([[0.0], [1.0]])
        labels = {"adversarial": np.array([0, 1, 0, 1]), "clustering": np.array([0, 1, 0, 1])}
        labels[branch] = np.array([0, 1, bad, 1])
        message = f"{branch} branch holds label {bad}, outside \\[0, 2\\)"
        with pytest.raises(ValueError, match=message):
            select(feats, feats, labels["adversarial"], labels["clustering"], bank, bank, 1000)

    def test_same_selection_as_the_per_branch_reference(self):
        # the stacked selection against the branch-by-branch code it replaced;
        # odd cases are integer-valued, so that distances tie
        quota_zero = quota_above_class = ties = 0
        for case in range(5000):
            rng = np.random.default_rng(case)
            n_b, k = int(rng.integers(1, 48)), int(rng.integers(2, 6))
            d_f, t = int(rng.integers(1, 70)), int(rng.integers(0, 5000))
            feats = rng.normal(size=(2, n_b, d_f))
            bank = rng.normal(size=(2 * k, d_f))
            if case % 2:
                feats, bank = np.round(2.0 * feats), np.round(2.0 * bank)
            labels = rng.integers(0, k, size=(2, n_b))
            if case % 3 == 0:
                labels[1] = labels[0]  # agreeing branches select more
            out = select_high_confidence(feats, labels, bank, t)
            indices, picked = per_branch_selection(
                feats[0], feats[1], labels[0], labels[1], bank[:k], bank[k:], t
            )
            expected = np.full(n_b, -1)
            expected[indices] = picked
            assert np.array_equal(out, expected), case
            quotas = (per_class_quota(tau_adv(t), n_b, k), per_class_quota(tau_clu(t), n_b, k))
            groups = labels + np.array([[0], [k]])
            sizes = np.bincount(groups.ravel())
            dists = np.sqrt(((feats - bank[groups]) ** 2).sum(axis=2))
            quota_zero += min(quotas) == 0
            quota_above_class += min(quotas) > sizes[sizes > 0].min()
            ties += len(set(zip(groups.ravel(), dists.ravel()))) < 2 * n_b
        # every case kind is well represented
        kinds = (quota_zero, quota_above_class, ties)
        assert min(kinds) >= 200, kinds


class TestAdmitted:
    @pytest.mark.parametrize("seed", range(30))
    def test_bit_identical_to_per_class_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, k = rng.integers(1, 40), rng.integers(2, 6)
        labels = rng.integers(0, k, size=n)
        # few distinct distances, so ties are common
        dists = rng.integers(0, 4, size=n).astype(np.float64)
        if seed % 2:
            dists += rng.normal(size=n)
        for quota in range(0, n + 2):
            assert np.array_equal(
                _admitted(labels, dists, np.full(k, quota)),
                admitted_reference(labels, dists, quota, k),
            )

    def test_single_member_and_absent_classes(self):
        labels = np.array([2, 0, 0, 0])  # class 1 absent, class 2 one member
        dists = np.array([5.0, 1.0, 1.0, 0.5])
        expected = admitted_reference(labels, dists, 2, 3)
        assert np.array_equal(_admitted(labels, dists, np.full(3, 2)), expected)
        assert list(np.flatnonzero(expected)) == [0, 1, 3]


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

    indices, labels = accepted(select(f_adv, f_clu, y_adv, y_clu, bank_adv, bank_clu, t))

    agreement = set(np.flatnonzero(y_adv == y_clu))
    assert set(indices) <= agreement
    assert np.array_equal(labels, y_adv[indices])
    quota = min(per_class_quota(tau_adv(t), n_b, k), per_class_quota(tau_clu(t), n_b, k))
    per_class = np.bincount(labels, minlength=k) if len(indices) else np.zeros(k, dtype=int)
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

    base, _ = accepted(select(f_adv, f_clu, y_adv, y_clu, bank_adv, bank_clu, t))
    perm = rng.permutation(n_b)
    permuted, _ = accepted(
        select(f_adv[perm], f_clu[perm], y_adv[perm], y_clu[perm], bank_adv, bank_clu, t)
    )
    # distances are continuous so ties have probability zero; map indices back
    assert set(perm[permuted]) == set(base)
