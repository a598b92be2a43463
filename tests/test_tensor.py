import re
import warnings

import numpy as np
import pytest
from graph_helpers import (
    contract,
    cross_entropy_reference,
    gather_rows,
    matmul,
    network,
    pairwise_euclidean,
    sigmoid,
    sigmoid_reference,
    squared_norm,
    vstack,
)

from dcp.centroids import centroid_centroid_matrix, centroid_sample_matrix, compute_centroids
from dcp.losses import (
    discriminator_loss,
    generator_loss,
    sigmoid_values,
    source_classification_loss,
)
from dcp.networks import Mlp, forward, linear_values
from dcp.tensor import EvaluationError, ShapeError, Tensor, grad_check, weighted_sum


def relu_layer(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """relu(x @ w + b): a relu hidden layer followed by an identity layer."""
    out_width = w.cols
    identity = Tensor(np.eye(out_width))
    return network(x, [w, identity], [b, Tensor(np.zeros((1, out_width)))])


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
    """The matrix-product node, a test-only reference in ``graph_helpers``."""

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
        out = relu_layer(Tensor([[-2.0, 3.0]]), Tensor(np.eye(2)), Tensor(np.zeros((1, 2))))
        np.testing.assert_array_equal(out.values, [[0.0, 3.0]])

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([[0.0]])).item() == 0.5

    def test_sigmoid_gradient_at_zero(self):
        report = grad_check(sigmoid, Tensor([[0.0]]), h=1e-6)
        x = Tensor([[0.0]], requires_grad=True)
        sigmoid(x).backward()
        assert abs(x.grad[0, 0] - 0.25) < 1e-8
        assert report.max_rel_error < 1e-8

    def test_sigmoid_extreme_inputs_finite(self):
        out = sigmoid(Tensor([[-800.0, 800.0]]))
        assert np.isfinite(out.values).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_sigmoid_bit_identical_to_three_exp_reference(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=10.0 ** rng.integers(0, 4), size=(7, 5))
        x[0, :] = [0.0, -0.0, 800.0, -800.0, -40.0]  # zero and saturated entries
        assert np.array_equal(sigmoid_values(x), sigmoid_reference(x))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_two_classes(self):
        loss = source_classification_loss([Tensor([[1.0, 1.0]])], [[0]])[0]
        assert abs(loss.item() - 0.69314718055994531) < 1e-12

    def test_hand_softmax(self):
        loss = source_classification_loss([Tensor([[0.0, np.log(3.0)]])], [[1]])[0]
        assert abs(loss.item() - 0.28768207245178093) < 1e-9

    def test_saturated_logits_no_overflow(self):
        loss = source_classification_loss([Tensor([[50.0, 0.0], [0.0, 50.0]])], [[0, 1]])[0]
        assert loss.item() < 1e-20
        assert np.isfinite(loss.item())

    def test_label_out_of_range(self):
        # -1 marks an unlabeled row; -2 is out of range
        for label in (2, -2):
            with pytest.raises(IndexError, match=f"label {label} out of range"):
                source_classification_loss([Tensor([[0.0, 0.0], [0.0, 0.0]])], [[0, label]])

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_to_log_probs_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, k = rng.integers(1, 40), rng.integers(2, 6)
        logits = rng.normal(scale=10.0 ** rng.integers(0, 4), size=(n, k))
        logits[0] = 1e3 * np.sign(logits[0])  # a saturated row
        labels = rng.integers(0, k, size=n)
        x = Tensor(logits, requires_grad=True)
        loss = source_classification_loss([x], [labels])[0]
        loss.backward()
        expected_loss, expected_grad = cross_entropy_reference(logits, labels)
        assert np.array_equal(loss.values, [[expected_loss]])
        assert np.array_equal(x.grad, expected_grad)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        report = grad_check(lambda x: source_classification_loss([x], [labels])[0], Tensor(logits))
        assert report.max_rel_error < 1e-4


class TestMaskedCrossEntropy:
    """Label -1 marks an unlabeled row: the cross entropy skips it."""

    @staticmethod
    def _case(seed):
        rng = np.random.default_rng(seed)
        n, k = rng.integers(2, 40), rng.integers(2, 6)
        logits = rng.normal(scale=10.0 ** rng.integers(0, 4), size=(n, k))
        labels = rng.integers(0, k, size=n)
        unlabeled = rng.random(n) < rng.uniform(0.1, 0.9)
        unlabeled[rng.integers(n)] = False  # at least one labeled row
        labels[unlabeled] = -1
        return logits, labels

    @pytest.mark.parametrize("seed", range(20))
    def test_bit_identical_to_the_labeled_subset(self, seed):
        logits, labels = self._case(seed)
        upstream = np.random.default_rng(seed + 100).normal(size=(1, 1))
        kept = np.flatnonzero(labels >= 0)
        masked, subset = Tensor(logits, requires_grad=True), Tensor(logits[kept], requires_grad=True)
        masked_loss = source_classification_loss([masked], [labels])[0]
        subset_loss = source_classification_loss([subset], [labels[kept]])[0]
        for loss in (masked_loss, subset_loss):
            contract(loss, upstream).backward()
        assert np.array_equal(masked_loss.values, subset_loss.values)
        assert np.array_equal(masked.grad[kept], subset.grad)
        # unlabeled rows get exactly zero gradient
        assert not masked.grad[labels < 0].any()

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        logits, labels = self._case(seed)
        logits /= np.abs(logits).max()  # unsaturated, so differences resolve the slope
        report = grad_check(lambda x: source_classification_loss([x], [labels])[0], Tensor(logits))
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize(
        "fill",
        [
            [1e300],
            [-1e300],
            [1e300, -1e300],
            [-7.0, 3e5, 0.0],
            [np.inf],
            [-np.inf],
            [np.inf, 0.0],
            [-np.inf, 0.0],
            [np.nan],
            [np.nan, 1.0],
            [np.inf, -np.inf, np.nan],
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_unlabeled_rows_cannot_reach_the_loss(self, seed, fill):
        logits, labels = self._case(seed)
        unlabeled = labels < 0
        # the fill values in turn, along each -1 row and down the rows
        replaced = logits.copy()
        replaced[unlabeled] = np.resize(fill, (np.count_nonzero(unlabeled), logits.shape[1]))
        outcomes = []
        for values in (logits, replaced):
            x = Tensor(values, requires_grad=True)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                loss = source_classification_loss([x], [labels])[0]
                loss.backward()
            outcomes.append((loss.values, x.grad, [str(w.message) for w in caught]))
        (loss, grad, _), (replaced_loss, replaced_grad, warned) = outcomes
        assert np.array_equal(replaced_loss, loss)
        assert np.array_equal(replaced_grad[~unlabeled], grad[~unlabeled])
        assert not replaced_grad[unlabeled].any()
        assert not np.signbit(replaced_grad[unlabeled]).any()  # +0.0, not -0.0
        # numpy flags a row whose max is infinite: inf - inf in the row-max shift
        row_max = replaced[unlabeled].max(axis=1)
        shifted_inf = np.isinf(row_max).any()
        assert warned == (["invalid value encountered in subtract"] if shifted_inf else [])

    def test_every_row_unlabeled_raises(self):
        with pytest.raises(ValueError, match="all 3 labels are -1"):
            source_classification_loss([Tensor(np.zeros((3, 2)))], [[-1, -1, -1]])


class TestPairwiseEuclidean:
    """The distance node, a test-only reference; ``centroids`` runs its kernel per branch."""

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
        pairwise_euclidean(a, Tensor([[1.0, 2.0]])).backward()
        assert np.isfinite(a.grad).all()


class TestBackward:
    def test_quadratic(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        squared_norm(x).backward()
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
        loss = squared_norm(x)
        loss.backward()
        loss.backward()
        np.testing.assert_allclose(x.grad, [[4.0, 8.0]])

    def test_shared_subexpression_counted_twice(self):
        x = Tensor([[3.0]], requires_grad=True)
        y = weighted_sum([x, x], [1.0, 1.0])
        y.backward()
        np.testing.assert_allclose(x.grad, [[2.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_rules_run_in_the_order_of_the_indexed_walk(self, seed):
        # the post-order of a depth-first walk that re-pushes (node, parent
        # index) pairs, run in reverse; parents repeat and are shared
        rng = np.random.default_rng(seed)
        ran: list[int] = []
        nodes = [Tensor([[1.0]], requires_grad=True) for _ in range(4)]
        for i in range(4, 40):
            parents = tuple(nodes[j] for j in rng.integers(0, i, size=rng.integers(1, 4)))

            def bw(g, i=i, parents=parents):
                ran.append(i)
                for parent in parents:
                    parent._accumulate(g.copy())

            nodes.append(Tensor._node(np.array([[float(i)]]), parents, bw))
        index = {id(t): i for i, t in enumerate(nodes)}
        order, seen, stack = [], {id(nodes[-1])}, [(nodes[-1], 0)]
        while stack:
            node, idx = stack[-1]
            if idx < len(node._parents):
                stack[-1] = (node, idx + 1)
                parent = node._parents[idx]
                if parent._backward_fn is not None and id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append((parent, 0))
            else:
                order.append(index[id(node)])
                stack.pop()
        nodes[-1].backward()
        assert ran == order[::-1]

    def test_relu_matmul_chain_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(3, 3)))
        zero = Tensor(np.zeros((1, 3)))

        def f(x):
            return contract(relu_layer(x, w, zero), 1.0)

        report = grad_check(f, Tensor(rng.normal(size=(2, 3))), h=1e-6)
        assert report.max_rel_error < 1e-6


class TestCompositionGradients:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_composition_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        p = int(rng.integers(1, 8))
        w = Tensor(rng.normal(size=(p, n)).T)
        bias = Tensor(rng.normal(size=(p, 1)).T)
        anchors = rng.normal(size=(3, p)) + 3.0
        spread = rng.normal(size=(3, m))
        labels = rng.integers(0, p, size=m)
        # both branches' anchors, and both take h as their samples
        banks = Tensor(np.vstack([anchors, -anchors]))

        def f(x):
            h = sigmoid(network(x, [w], [bias]))
            relative = centroid_sample_matrix(banks, h, h)
            stacked = vstack([x, matmul(Tensor(spread), x)])
            return weighted_sum(
                [
                    contract(relative, np.vstack([spread, spread[::-1]])),
                    source_classification_loss([relu_layer(x, w, bias)], [labels])[0],
                    contract(pairwise_euclidean(stacked, Tensor(np.zeros((1, n)))), 1.0),
                ],
                [1.0, 0.5, 0.25],
            )

        report = grad_check(f, Tensor(rng.normal(size=(m, n))), h=1e-6)
        assert report.max_rel_error < 1e-4

    def test_division_and_log_gradients(self):
        # the logistic function and log of the generator loss and the
        # division of a relativized matrix, composed
        rng = np.random.default_rng(11)
        anchors = rng.normal(size=(2, 3))
        weights = rng.normal(size=(2, 3))
        banks = Tensor(np.vstack([anchors, anchors + 1.0]))

        def f(x):
            relative = centroid_sample_matrix(banks, x, x)
            weights_both = np.vstack([weights, -weights])
            return weighted_sum(
                [generator_loss(x), contract(relative, weights_both)], [1.0, 1.0]
            )

        report = grad_check(f, Tensor(rng.normal(size=(3, 3))))
        assert report.max_rel_error < 1e-4


class TestBroadcasting:
    """The broadcasts the remaining nodes make: a layer's bias, a relativizing divisor."""

    def test_row_vector_add(self):
        bias = Tensor([[10.0, 20.0]])
        out = network(Tensor([[1.0, 2.0], [3.0, 4.0]]), [Tensor(np.eye(2))], [bias])
        np.testing.assert_array_equal(out.values, [[11.0, 22.0], [13.0, 24.0]])

    def test_col_vector_add_gradient_reduces(self):
        b = Tensor([[1.0, 2.0]], requires_grad=True)
        contract(network(Tensor(np.ones((3, 2))), [Tensor(np.zeros((2, 2)))], [b]), 1.0).backward()
        np.testing.assert_allclose(b.grad, [[3.0, 3.0]])

    def test_cross_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            weighted_sum([Tensor(np.ones((2, 1))), Tensor(np.ones((1, 3)))], [1.0, 1.0])

    def test_scalar_tensor_division(self):
        # distances 2 and 4 from the origin, divided by their mean: the
        # entries sum to 2 wherever the points are
        a = Tensor([[2.0, 0.0], [4.0, 0.0]], requires_grad=True)
        origins = Tensor([[0.0, 0.0], [0.0, 0.0]])
        contract(centroid_sample_matrix(origins, a, a), 1.0).backward()
        np.testing.assert_allclose(a.grad, [[0.0, 0.0], [0.0, 0.0]], atol=1e-15)


class TestVstackAndTranspose:
    """The row-stacking node, a test-only reference in ``graph_helpers``."""

    def test_vstack_values_and_gradient(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0, 4.0], [5.0, 6.0]], requires_grad=True)
        out = vstack([a, b])
        np.testing.assert_array_equal(out.values, [[1, 2], [3, 4], [5, 6]])
        contract(out, 2.0 * out.values).backward()  # d/d out of sum(out * out)
        np.testing.assert_allclose(a.grad, [[2.0, 4.0]])
        np.testing.assert_allclose(b.grad, [[6.0, 8.0], [10.0, 12.0]])

    def test_first_gradient_is_a_copy_of_its_slice(self):
        # each row of the stack hands a slice of its gradient to the same
        # tensor: vstack must hand over copies, or adding the second slice
        # would write into the stack's own gradient
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        out = vstack([a, a])
        upstream = np.array([[1.0, 2.0], [10.0, 20.0]])
        contract(out, upstream).backward()
        np.testing.assert_array_equal(a.grad, [[11.0, 22.0]])
        np.testing.assert_array_equal(out.grad, upstream)
        assert not np.shares_memory(a.grad, out.grad)


class TestGradientOwnership:
    """A rule hands ``_accumulate`` a fresh array: gradients never alias."""

    def test_no_two_gradients_share_memory_and_none_changes_after_its_rule(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        s = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        t = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        # each block is both branches' features: it takes two row slices of
        # one product; the bank is both operands of its distances; the
        # discriminator loss hands ``s`` and ``t`` two row slices of one array
        stacked = compute_centroids((a, b), (a, b), [0, 1, 0, 1, 1], k=2)
        dists = centroid_centroid_matrix(c)
        disc = discriminator_loss(s, t)
        # ``a``, ``c`` and ``s`` have a second consumer whose rule runs after
        # the centroids', the distances' and the discriminator loss's: it adds
        # into their gradients in place
        loss = weighted_sum(
            [
                contract(a, rng.normal(size=a.shape)),
                contract(c, rng.normal(size=c.shape)),
                contract(s, rng.normal(size=s.shape)),
                contract(stacked, rng.normal(size=stacked.shape)),
                contract(dists, rng.normal(size=dists.shape)),
                disc,
            ],
            [1.0] * 6,
        )
        # snapshot each node's gradient as its rule receives it
        seen = {}
        nodes = [stacked, dists, loss, *loss._parents]
        for node in nodes:
            rule = node._backward_fn

            def snapshot(g, node=node, rule=rule):
                seen[id(node)] = g.copy()
                rule(g)

            node._backward_fn = snapshot
        loss.backward()
        assert set(seen) == {id(node) for node in nodes}
        for node in nodes:
            assert np.array_equal(node.grad, seen[id(node)])
        tensors = [a, b, c, s, t, *nodes]
        for i, x in enumerate(tensors):
            for u in tensors[i + 1 :]:
                assert not np.shares_memory(x.grad, u.grad)
        # the add into ``s``'s half left ``t``'s half as the loss alone gives it
        s_alone, t_alone = (Tensor(x.values, requires_grad=True) for x in (s, t))
        discriminator_loss(s_alone, t_alone).backward()
        assert np.array_equal(t.grad, t_alone.grad)


class TestGatherRows:
    """The row gather that L_PL used before the cross entropy took -1 labels;
    it is the reference for that change."""

    def test_values_and_gradient_scatter_into_selected_rows(self):
        t = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        out = gather_rows(t, [0, 2])
        np.testing.assert_array_equal(out.values, [[0, 1], [4, 5]])
        contract(out, np.array([[1.0, 2.0], [3.0, 4.0]])).backward()
        np.testing.assert_array_equal(t.grad, [[1, 2], [0, 0], [3, 4], [0, 0]])

    def test_bit_identical_to_pick_matmul(self):
        # the chain it replaced: a constant 0/1 matrix of identity rows times t
        rng = np.random.default_rng(0)
        values, upstream = rng.normal(size=(6, 3)), rng.normal(size=(3, 3))
        idx = np.array([1, 4, 5])
        grads = []
        for pick in (lambda t: gather_rows(t, idx), lambda t: matmul(Tensor(np.eye(6)[idx]), t)):
            t = Tensor(values, requires_grad=True)
            out = pick(t)
            contract(out, upstream).backward()
            grads.append((out.values, t.grad))
        for a, b in zip(*grads):
            assert np.array_equal(a, b)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            gather_rows(Tensor(np.ones((3, 2))), [0, 3])
        with pytest.raises(IndexError, match="out of range"):
            gather_rows(Tensor(np.ones((3, 2))), [-1, 0])

    @pytest.mark.parametrize("idx", [[2, 0], [1, 1]])
    def test_unsorted_or_repeated_rows_rejected(self, idx):
        with pytest.raises(ValueError, match="strictly increasing"):
            gather_rows(Tensor(np.ones((3, 2))), idx)


class TestLinear:
    """The layer kernel ``linear_values`` through the network node: one layer,
    or a relu layer followed by an identity layer."""

    def _operands(self, seed=0, rows=5, w_in=3, w_out=4):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, w_in))
        # (in x out) and (1 x out), C-contiguous, from the numbers once drawn
        # as the (out x in) weight and (out x 1) bias
        w = rng.normal(size=(w_out, w_in)).T.copy()
        b = rng.normal(size=(w_out, 1)).T.copy()
        return x, w, b, rng.normal(size=(rows, w_out))

    @staticmethod
    def _layer(x, w, b, relu):
        return relu_layer(x, w, b) if relu else network(x, [w], [b])

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("wrt", ["x", "w", "b"])
    def test_gradient_matches_finite_differences(self, relu, wrt):
        x, w, b, weights = self._operands()
        operands = {"x": x, "w": w, "b": b}

        def f(probe):
            args = {name: Tensor(v) for name, v in operands.items()}
            args[wrt] = probe
            return contract(self._layer(args["x"], args["w"], args["b"], relu), weights)

        report = grad_check(f, Tensor(operands[wrt]))
        assert report.max_rel_error < 1e-6

    @staticmethod
    def _transpose_matmul_add_chain(x, w, b, weights, relu):
        """The chain the layer replaced, (matmul(x, w) + b).relu(), then
        (out * weights).sum(), as numpy: its value and the gradients of x, w, b.

        With the weight stored (in x out), the chain's transpose nodes are
        gone: it multiplies by ``w`` as stored and by its transposed view.
        """
        pre = x @ w + b
        out = np.maximum(pre, 0.0) if relu else pre
        g = np.full(out.shape, 1.0) * weights  # sum, then product
        if relu:
            g = g * (pre > 0.0)
        return out, g @ w.T, x.T @ g, g.sum(axis=0, keepdims=True)

    # (relu, rows, in, out): the first two cases keep the ids of the one
    # 5-row (3 -> 4) layer these tests pinned at first; the rest are the
    # model's layers (extractor 2 -> 64 -> 64, head 64 -> 3, discriminator
    # 64 -> 32 -> 1) at one and two rows, a training batch and an
    # evaluation block of 128 or 200 rows. The network node multiplies with
    # ``np.dot``, which takes a 1-row or 1-column operand to a vector kernel,
    # and the references multiply with ``@``.
    LAYER_CASES = [pytest.param(relu, 5, 3, 4, id=str(relu)) for relu in (False, True)] + [
        pytest.param(relu, rows, w_in, w_out, id=f"{relu}-{rows}x{w_in}x{w_out}")
        for relu in (False, True)
        for w_in, w_out in ((2, 64), (64, 64), (64, 3), (64, 32), (32, 1))
        for rows in (1, 2, 36, 128, 200)
    ]

    @pytest.mark.parametrize("relu, rows, w_in, w_out", LAYER_CASES)
    def test_bit_identical_to_transpose_matmul_add_chain(self, relu, rows, w_in, w_out):
        x, w, b, weights = self._operands(1, rows, w_in, w_out)
        tx, tw, tb = (Tensor(v, requires_grad=True) for v in (x, w, b))
        out = self._layer(tx, tw, tb, relu)
        contract(out, weights).backward()
        chain = self._transpose_matmul_add_chain(x, w, b, weights, relu)
        for fused_value, chain_value in zip([out.values, tx.grad, tw.grad, tb.grad], chain):
            assert np.array_equal(fused_value, chain_value)

    @pytest.mark.parametrize("relu, rows, w_in, w_out", LAYER_CASES)
    def test_kernel_is_the_expression_and_leaves_operands_alone(self, relu, rows, w_in, w_out):
        x, w, b, _ = self._operands(2, rows, w_in, w_out)
        operands = [v.copy() for v in (x, w, b)]
        pre = x @ w + b
        expected = np.maximum(pre, 0.0) if relu else pre
        assert np.array_equal(linear_values(x, w, b, relu), expected)
        assert all(np.array_equal(v, c) for v, c in zip((x, w, b), operands))

    def test_shape_errors(self):
        x, w, b, _ = self._operands()

        def layer(x, weights, biases):
            net = Mlp([Tensor(v) for v in weights], [Tensor(v) for v in biases])
            return forward(net, Tensor(x))

        with pytest.raises(ShapeError, match="columns"):
            layer(np.ones((5, 4)), [w], [b])
        with pytest.raises(ShapeError, match="columns"):
            layer(x, [w.T], [b[:, :3]])
        with pytest.raises(ShapeError, match=re.escape("bias 0 has shape (4, 1)")):
            layer(x, [w], [b.T])
        with pytest.raises(ShapeError, match="weight 1 takes 3 inputs but weight 0 gives 4"):
            layer(x, [w, w], [b, b])


class TestWeightedSum:
    # an objective with weight 1 on its first four terms and alpha on the
    # last two, as on l_cc and l_cs: each term times its weight, added left
    # to right, and the gradient each term takes from a unit upstream
    @staticmethod
    def _objective_chain(values, alpha):
        c1, c2, g, pl, cc, cs = (np.array([[v]]) for v in values)
        total = c1 * 1.0 + c2 * 1.0 + g * 1.0 + pl * 1.0 + cc * alpha + cs * alpha
        upstream = np.full((1, 1), 1.0)
        return total, [upstream] * 4 + [upstream * alpha] * 2

    def _fused(self, values, weights):
        terms = [Tensor([[v]], requires_grad=True) for v in values]
        out = weighted_sum(terms, weights)
        out.backward()
        return out.values, [t.grad for t in terms]

    @pytest.mark.parametrize("alpha", [0.1, 0.37])
    def test_bit_identical_to_objective_chain(self, alpha):
        values = np.random.default_rng(0).uniform(0.0, 3.0, size=6)
        total, grads = self._fused(values, [1.0] * 4 + [alpha] * 2)
        chain_total, chain_grads = self._objective_chain(values, alpha)
        assert np.array_equal(total, chain_total)
        assert all(np.array_equal(a, b) for a, b in zip(grads, chain_grads))

    def test_alpha_one_is_one_run(self):
        # with every weight 1 the six terms are added left to right as they
        # are; the gradients are still the chain's
        values = np.random.default_rng(1).uniform(0.0, 3.0, size=6)
        total, grads = self._fused(values, [1.0] * 6)
        _, chain_grads = self._objective_chain(values, 1.0)
        left_to_right = values[0]
        for v in values[1:]:
            left_to_right = left_to_right + v
        assert np.array_equal(total, [[left_to_right]])
        assert all(np.array_equal(a, b) for a, b in zip(grads, chain_grads))

    @pytest.mark.parametrize(
        "values, weights",
        [
            ([np.inf, 1.0, 2.0], [1.0, 1.0, 0.1]),
            ([1.0, -np.inf, np.inf], [1.0, 1.0, 1.0]),
            ([np.inf, 2.0], [0.0, 1.0]),
            ([np.nan, 1.0], [1.0, 1.0]),
            ([1.0, -np.nan], [1.0, 0.37]),
            ([-0.0, -0.0, -0.0], [1.0, 1.0, 0.1]),
            ([-0.0, 0.0], [1.0, 1.0]),
            ([0.0, 2.0], [-1.0, 0.0]),
        ],
    )
    def test_forward_bit_identical_to_array_chain_on_special_values(self, values, weights):
        # the forward adds Python floats; the chain is the 1 x 1 array form it
        # replaced, compared as raw bits, so a NaN's sign and a zero's count
        out = weighted_sum([Tensor([[v]]) for v in values], weights)
        with np.errstate(invalid="ignore"):
            chain = np.array([[values[0]]]) * weights[0]
            for v, w in zip(values[1:], weights[1:]):
                chain = chain + np.array([[v]]) * w
        assert np.array_equal(out.values.view(np.uint64), chain.view(np.uint64))

    def test_bit_identical_to_pseudo_label_sum(self):
        a, b = np.random.default_rng(2).uniform(0.0, 3.0, size=2)
        total, grads = self._fused([a, b], [1.0, 1.0])
        assert np.array_equal(total, np.array([[a]]) + np.array([[b]]))
        assert all(np.array_equal(g, [[1.0]]) for g in grads)

    @pytest.mark.parametrize("wrt", range(3))
    def test_gradient_matches_finite_differences(self, wrt):
        rng = np.random.default_rng(3)
        logits = [rng.normal(size=(4, 3)) for _ in range(3)]
        labels = rng.integers(0, 3, size=4)

        def f(probe):
            inputs = [Tensor(v) for v in logits]
            inputs[wrt] = probe
            terms = [source_classification_loss([x], [labels])[0] for x in inputs]
            return weighted_sum(terms, [1.0, 0.3, 0.3])

        report = grad_check(f, Tensor(logits[wrt]))
        assert report.max_rel_error < 1e-6

    def test_shared_term_counted_per_weight(self):
        x = Tensor([[2.0]], requires_grad=True)
        weighted_sum([x, x], [1.0, 0.5]).backward()
        assert x.grad[0, 0] == 1.5

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ShapeError):
            weighted_sum([Tensor([[1.0]])], [1.0, 2.0])
        with pytest.raises(ShapeError):
            weighted_sum([], [])


class TestGradCheck:
    def test_quadratic_is_tight(self):
        report = grad_check(squared_norm, Tensor([[1.0, 2.0]]), h=1e-6)
        assert report.max_rel_error < 1e-8

    def test_non_finite_value_raises(self):
        def f(x):
            return weighted_sum([x], [np.inf])

        with pytest.raises(EvaluationError):
            grad_check(f, Tensor([[0.5]]))

    def test_worst_index_points_at_broken_coordinate(self):
        def f(x):
            # Forward identity, backward sign flip on column 1 only.
            flip = np.array([[1.0, -1.0]])

            def bw(g):
                x._accumulate(g * flip)

            out = Tensor._node(x.values.copy(), (x,), bw)
            return squared_norm(out)

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

    @pytest.mark.parametrize("rows", [5, 36])
    def test_network_bits_do_not_depend_on_the_weights_memory_order(self, rows):
        # weights drawn (out x in) and stored as their transposes: a view, or a
        # copy; an extractor and a head's widths, where a Fortran-ordered
        # weight changes the 5-row input gradient's bits on some kernels
        rng = np.random.default_rng(rows)
        drawn = [rng.normal(size=(64, 2)), rng.normal(size=(64, 64)), rng.normal(size=(3, 64))]
        x, upstream = rng.normal(size=(rows, 2)), rng.normal(size=(rows, 3))
        results = []
        for store in (np.transpose, lambda a: np.ascontiguousarray(a.T)):
            weights = [Tensor(store(a), requires_grad=True) for a in drawn]
            biases = [Tensor(np.zeros((1, w.cols)), requires_grad=True) for w in weights]
            tx = Tensor(x, requires_grad=True)
            out = network(tx, weights, biases)
            contract(out, upstream).backward()
            assert all(w.values.flags.c_contiguous for w in weights)
            results.append([out.values, tx.grad, *(t.grad for t in weights + biases)])
        assert all(np.array_equal(a, b) for a, b in zip(*results, strict=True))

    def test_values_are_frozen(self):
        t = Tensor([[1.0]])
        with pytest.raises(ValueError):
            t.values[0, 0] = 2.0

    def test_constructor_copies_input(self):
        src = np.ones((2, 2))
        t = Tensor(src)
        src[0, 0] = 5.0
        assert t.values[0, 0] == 1.0

    def test_detached_shares_values_and_is_constant(self):
        t = Tensor([[1.0, 2.0]], requires_grad=True)
        d = t.detached()
        assert d.values is t.values
        assert not d.requires_grad
        weighted_sum([squared_norm(d), squared_norm(t)], [1.0, 1.0]).backward()
        assert d.grad is None
        np.testing.assert_array_equal(t.grad, [[2.0, 4.0]])
