import numpy as np
import pytest
from graph_helpers import (
    contract,
    cross_entropy_reference,
    sigmoid,
    verdict_discriminator_loss,
    verdict_generator_loss,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dcp.losses import (
    CLAMP_EPS,
    discriminator_loss,
    generator_loss,
    sigmoid_values,
    source_classification_loss,
)
from dcp.networks import Mlp
from dcp.tensor import ShapeError, Tensor, grad_check, weighted_sum


def _logits(verdicts):
    """The logits whose logistic function gives ``verdicts``."""
    p = np.asarray(verdicts, dtype=np.float64)
    return np.log(p / (1.0 - p))


# Logits on both sides of the clamp, so the chains' masks are exercised: the
# verdicts of -17 and 17 are clipped, those of -16 and 16 are not.
EDGE_LOGITS = [[-800.0], [-40.0], [-17.0], [-16.0], [0.0], [0.3], [16.0], [17.0], [40.0], [800.0]]


def _clamp_chain(v):
    """The deleted ``clamp`` node: clipped values and its gradient mask."""
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    return np.clip(v, lo, hi), (v >= lo) & (v <= hi)


def _mean_log_backward(g_mean, x):
    """Backward of ``x.log().mean()`` (log, sum, scale) for upstream ``g_mean``."""
    g_sum = g_mean * (1.0 / x.size)
    return np.full(x.shape, g_sum[0, 0]) / x


def _sigmoid_backward(g, p):
    """The rule of the sigmoid output the discriminator had."""
    return g * p * (1.0 - p)


def discriminator_chain(ss, st, upstream):
    """-(ds.log().mean() + (1.0 - dt).log().mean()) of the logits' sigmoids, and
    its gradients by the logits, in numpy."""
    ps, pt = sigmoid_values(ss), sigmoid_values(st)
    ds, mask_s = _clamp_chain(ps)
    dt, mask_t = _clamp_chain(pt)
    complement = 1.0 - dt
    mean_s = np.array([[np.log(ds).sum()]]) * (1.0 / ds.size)
    mean_t = np.array([[np.log(complement).sum()]]) * (1.0 / complement.size)
    loss = (mean_s + mean_t) * -1.0
    g_sum = np.full((1, 1), upstream) * -1.0  # negation, then the add passes g on
    g_s = _mean_log_backward(g_sum, ds) * mask_s
    g_t = -_mean_log_backward(g_sum, complement) * mask_t  # rsub negates
    return loss, _sigmoid_backward(g_s, ps), _sigmoid_backward(g_t, pt)


def generator_chain(st, upstream):
    """-dt.log().mean() of the logits' sigmoids and its gradient by the logits, in numpy."""
    pt = sigmoid_values(st)
    dt, mask = _clamp_chain(pt)
    mean = np.array([[np.log(dt).sum()]]) * (1.0 / dt.size)
    g_mean = np.full((1, 1), upstream) * -1.0
    return mean * -1.0, _sigmoid_backward(_mean_log_backward(g_mean, dt) * mask, pt)


class TestDiscriminatorLoss:
    def test_perfect_discrimination_near_zero(self):
        ss = Tensor(np.full((5, 1), 40.0))
        st = Tensor(np.full((4, 1), -40.0))
        assert discriminator_loss(ss, st).item() < 1e-6

    def test_coin_flip_value(self):
        loss = discriminator_loss(Tensor(np.zeros((3, 1))), Tensor(np.zeros((2, 1))))
        assert abs(loss.item() - 1.3862943611198906) < 1e-12

    def test_gradient_wrt_single_source_entry(self):
        n_s = 4
        ss = Tensor(np.zeros((n_s, 1)), requires_grad=True)
        st = Tensor(np.zeros((3, 1)))
        discriminator_loss(ss, st).backward()
        # d(-log p)/dp = -1 / p, times the logistic derivative p (1 - p), at p = 0.5
        assert abs(ss.grad[0, 0] - (-1.0 / (n_s * 0.5)) * 0.25) < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        st = Tensor(_logits(rng.uniform(0.05, 0.95, size=(6, 1))))
        ss = Tensor(_logits(rng.uniform(0.05, 0.95, size=(5, 1))))
        report = grad_check(lambda x: discriminator_loss(x, st), ss)
        assert report.max_rel_error < 1e-4

    def test_gradient_wrt_target_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        ss = Tensor(_logits(rng.uniform(0.05, 0.95, size=(5, 1))))
        st = Tensor(_logits(rng.uniform(0.05, 0.95, size=(6, 1))))
        report = grad_check(lambda x: discriminator_loss(ss, x), st)
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("upstream", [1.0, 0.37])
    def test_bit_identical_to_deleted_chain(self, upstream):
        vs = np.array(EDGE_LOGITS)
        vt = np.random.default_rng(5).normal(scale=20.0, size=(4, 1))
        ss, st = Tensor(vs, requires_grad=True), Tensor(vt, requires_grad=True)
        loss = discriminator_loss(ss, st)
        weighted_sum([loss], [upstream]).backward()
        chain = discriminator_chain(vs, vt, upstream)
        for fused, expected in zip([loss.values, ss.grad, st.grad], chain):
            assert np.array_equal(fused, expected)

    @pytest.mark.parametrize("target_shape", [(7, 2), (2, 2), (1, 2)])
    @pytest.mark.parametrize("upstream", [1.0, 0.37])
    def test_bit_identical_to_deleted_chain_on_multi_column_logits(self, target_shape, upstream):
        # the node stacks both logit arrays by rows: with two columns and
        # unequal row counts, a split by element count would take the wrong
        # rows for either half
        vs = np.array(EDGE_LOGITS).reshape(5, 2)
        vt = np.random.default_rng(6).normal(scale=20.0, size=target_shape)
        ss, st = Tensor(vs, requires_grad=True), Tensor(vt, requires_grad=True)
        loss = discriminator_loss(ss, st)
        weighted_sum([loss], [upstream]).backward()
        chain = discriminator_chain(vs, vt, upstream)
        for fused, expected in zip([loss.values, ss.grad, st.grad], chain):
            assert np.array_equal(fused, expected)

    def test_boundary_inputs_stay_finite(self):
        loss = discriminator_loss(Tensor([[-800.0], [800.0]]), Tensor([[-800.0], [800.0]]))
        assert np.isfinite(loss.item())


class TestGeneratorLoss:
    def test_half_value(self):
        assert abs(generator_loss(Tensor([[0.0]])).item() - 0.69314718055994531) < 1e-12

    def test_fooled_discriminator_near_zero(self):
        assert generator_loss(Tensor([[40.0]])).item() < 1e-6

    def test_monotone_decreasing_in_each_entry(self):
        lo = generator_loss(Tensor([[-0.8], [0.0]])).item()
        hi = generator_loss(Tensor([[-0.4], [0.0]])).item()
        assert hi < lo

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        report = grad_check(generator_loss, Tensor(_logits(rng.uniform(0.05, 0.95, size=(6, 1)))))
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("upstream", [1.0, 0.37])
    def test_bit_identical_to_deleted_chain(self, upstream):
        vt = np.array(EDGE_LOGITS)
        st = Tensor(vt, requires_grad=True)
        loss = generator_loss(st)
        weighted_sum([loss], [upstream]).backward()
        chain = generator_chain(vt, upstream)
        for fused, expected in zip([loss.values, st.grad], chain):
            assert np.array_equal(fused, expected)


class TestOpposingPulls:
    def test_target_gradient_signs_oppose(self):
        st_for_d = Tensor(np.zeros((3, 1)), requires_grad=True)
        discriminator_loss(Tensor(np.zeros((3, 1))), st_for_d).backward()
        st_for_g = Tensor(np.zeros((3, 1)), requires_grad=True)
        generator_loss(st_for_g).backward()
        assert (st_for_d.grad > 0).all()
        assert (st_for_g.grad < 0).all()


# The discriminator's shape in miniature; features at four scales, so that the
# larger ones saturate logits past the clamp.
DISC_WIDTHS = (6, 5, 1)
FEATURE_SCALES = [0.5, 5.0, 50.0, 500.0]


def _discriminator_operands(seed):
    """A discriminator, source and target features that take gradients, and
    fixed logit rows: 0, then ±40 and ±800, where the clamp mask is 0."""
    rng = np.random.default_rng(seed)
    disc = Mlp.create(DISC_WIDTHS, seed)
    biases = [Tensor(rng.normal(size=b.shape), requires_grad=True) for b in disc.biases]
    disc = Mlp(disc.weights, biases)
    scale = FEATURE_SCALES[seed % len(FEATURE_SCALES)]
    fs = Tensor(rng.normal(scale=scale, size=(7, DISC_WIDTHS[0])), requires_grad=True)
    ft = Tensor(rng.normal(scale=scale, size=(5, DISC_WIDTHS[0])), requires_grad=True)
    return disc, fs, ft


def _with_saturated_rows(s: Tensor) -> Tensor:
    """``s`` with rows of logit 0, ±40 and ±800 stacked below it, as one node."""
    fixed = np.array([[0.0], [40.0], [-40.0], [800.0], [-800.0]])

    def bw(g):
        s._accumulate(g[: s.rows].copy())

    return Tensor._node(np.vstack([s.values, fixed]), (s,), bw)


class TestSameBitsAsSigmoidDiscriminator:
    """The losses on logits against the old design: a discriminator with a
    sigmoid output, then the losses on its verdicts. Values and the gradients
    of the discriminator's weights and biases and of its input features must
    be bit-identical."""

    @staticmethod
    def _gradients(loss, disc, features, upstream):
        weighted_sum([loss], [upstream]).backward()
        return [loss.values] + [f.grad for f in features] + [p.grad for p in disc.tensors()]

    @pytest.mark.parametrize("upstream", [1.0, 0.37])
    @pytest.mark.parametrize("seed", range(20))
    def test_discriminator_loss(self, seed, upstream):
        runs = []
        for losses_on_verdicts in (False, True):
            disc, fs, ft = _discriminator_operands(seed)
            ss, st = _with_saturated_rows(disc(fs)), _with_saturated_rows(disc(ft))
            if losses_on_verdicts:
                loss = verdict_discriminator_loss(sigmoid(ss), sigmoid(st))
            else:
                loss = discriminator_loss(ss, st)
            runs.append(self._gradients(loss, disc, (fs, ft), upstream))
        for new, old in zip(*runs):
            assert np.array_equal(new, old)

    @pytest.mark.parametrize("upstream", [1.0, 0.37])
    @pytest.mark.parametrize("seed", range(20))
    def test_generator_loss(self, seed, upstream):
        runs = []
        for losses_on_verdicts in (False, True):
            disc, _, ft = _discriminator_operands(seed)
            st = _with_saturated_rows(disc(ft))
            loss = verdict_generator_loss(sigmoid(st)) if losses_on_verdicts else generator_loss(st)
            runs.append(self._gradients(loss, disc, (ft,), upstream))
        for new, old in zip(*runs):
            assert np.array_equal(new, old)

    def test_operands_reach_the_clamp(self):
        # besides the fixed rows, network logits past |s| >= 40 and verdicts
        # the clamp clips, on some seeds
        logits = np.vstack(
            [np.vstack([disc(fs).values, disc(ft).values])
             for disc, fs, ft in map(_discriminator_operands, range(20))]
        )
        assert (np.abs(logits) >= 40.0).any()
        _, unclipped = _clamp_chain(sigmoid_values(logits))
        assert not unclipped.all() and unclipped.any()


class TestSourceClassificationLoss:
    def test_uniform_three_classes(self):
        loss = source_classification_loss([Tensor([[0.0, 0.0, 0.0]])], [[1]])[0]
        assert abs(loss.item() - 1.0986122886681097) < 1e-12

    def test_confident_correct_saturates(self):
        loss = source_classification_loss([Tensor([[60.0, 0.0, 0.0]])], [[0]])[0]
        assert loss.item() < 1e-20


def _stacked_case(seed, shape):
    """Logit blocks and their label arrays in one of the forms a step takes.

    ``shape`` is "shared" (two blocks on one array with -1 rows, L_PL's form),
    "distinct" (two blocks of different row counts on arrays of their own),
    "step" (two blocks on fully labeled source labels, then two on one
    -1-masked array of another row count, as a step with pseudo-labels
    builds them) or "mixed" (four blocks, four arrays, some rows -1).
    """
    rng = np.random.default_rng(seed)
    k = 3

    def labels(n, unlabeled):
        y = rng.integers(0, k, size=n)
        y[rng.random(n) < unlabeled] = -1
        y[rng.integers(n)] = rng.integers(k)  # at least one labeled row
        return y

    if shape == "shared":
        pseudo = labels(12, 0.5)
        rows, arrays = (12, 12), [pseudo, pseudo]
    elif shape == "distinct":
        rows, arrays = (7, 12), [labels(7, 0.0), labels(12, 0.4)]
    elif shape == "step":
        ys, pseudo = labels(9, 0.0), labels(13, 0.6)
        rows, arrays = (9, 9, 13, 13), [ys, ys, pseudo, pseudo]
    else:
        rows = (5, 11, 8, 1)
        arrays = [labels(5, 0.3), labels(11, 0.0), labels(8, 0.7), labels(1, 0.0)]
    values = [rng.normal(size=(n, k)) * 3.0 for n in rows]
    values[0][0] = 1e3 * np.sign(values[0][0])  # a saturated row
    return values, arrays


STACKED_SHAPES = ["shared", "distinct", "step", "mixed"]


class TestStackedCrossEntropy:
    """Blocks of one cross-entropy node against one-block calls, bit for bit."""

    @pytest.mark.parametrize("upstream", [1.0, 0.37])
    @pytest.mark.parametrize("shape", STACKED_SHAPES)
    @pytest.mark.parametrize("seed", range(4))
    def test_each_block_is_its_own_call(self, seed, shape, upstream):
        values, arrays = _stacked_case(seed, shape)
        blocks = [Tensor(v, requires_grad=True) for v in values]
        node, means = source_classification_loss(blocks, arrays)
        contract(node, upstream).backward()
        total = means[0]
        for mean in means[1:]:
            total = total + mean
        assert node.item() == total and len(means) == len(blocks)
        for v, y, block, mean in zip(values, arrays, blocks, means):
            alone = Tensor(v, requires_grad=True)
            loss, (alone_mean,) = source_classification_loss([alone], [y])
            contract(loss, upstream).backward()
            assert np.array_equal(mean, alone_mean)
            assert np.array_equal(loss.values, [[alone_mean]])
            assert np.array_equal(block.grad, alone.grad)
            assert not block.grad[y < 0].any()
            # and the cross entropy of the labeled rows alone, by the reference
            kept = y >= 0
            expected_mean, expected_local = cross_entropy_reference(v[kept], y[kept])
            assert np.array_equal(mean, expected_mean)
            assert np.array_equal(block.grad[kept], upstream * expected_local)

    def test_equal_arrays_that_are_not_shared_give_the_same_bits(self):
        values, (pseudo, _) = _stacked_case(0, "shared")
        shared = source_classification_loss([Tensor(v) for v in values], [pseudo, pseudo])
        copied = source_classification_loss([Tensor(v) for v in values], [pseudo, pseudo.copy()])
        assert np.array_equal(shared[0].values, copied[0].values)
        assert np.array_equal(shared[1], copied[1])

    @pytest.mark.parametrize("shape", STACKED_SHAPES)
    def test_gradient_matches_finite_differences_wrt_each_block(self, shape):
        values, arrays = _stacked_case(5, shape)
        values = [v / np.abs(v).max() for v in values]  # unsaturated
        for i in range(len(values)):

            def f(x, i=i):
                blocks = [Tensor(v) for v in values]
                blocks[i] = x
                return source_classification_loss(blocks, arrays)[0]

            report = grad_check(f, Tensor(values[i]))
            assert report.max_rel_error < 1e-4, i

    @pytest.mark.parametrize("position", range(4))
    def test_block_with_every_label_minus_one_raises(self, position):
        values, arrays = _stacked_case(1, "mixed")
        arrays[position] = np.full(values[position].shape[0], -1)
        n = values[position].shape[0]
        with pytest.raises(ValueError, match=f"all {n} labels are -1"):
            source_classification_loss([Tensor(v) for v in values], arrays)

    @pytest.mark.parametrize("bad", [3, -2])
    def test_label_out_of_range_in_a_later_block_raises(self, bad):
        values, arrays = _stacked_case(1, "step")
        pseudo = arrays[2].copy()
        pseudo[-1] = bad
        arrays[2:] = [pseudo, pseudo]
        with pytest.raises(IndexError, match=f"label {bad} out of range"):
            source_classification_loss([Tensor(v) for v in values], arrays)

    def test_shape_mismatches_raise(self):
        values, arrays = _stacked_case(2, "distinct")
        blocks = [Tensor(v) for v in values]
        with pytest.raises(ShapeError, match="7 labels for 12 logit rows"):
            source_classification_loss(blocks, [arrays[0], arrays[0]])
        with pytest.raises(ShapeError, match="columns"):
            source_classification_loss([blocks[0], Tensor(np.zeros((12, 4)))], arrays)
        with pytest.raises(ShapeError, match="1 label arrays for 2 logit blocks"):
            source_classification_loss(blocks, arrays[:1])
        with pytest.raises(ShapeError, match="0 label arrays for 0 logit blocks"):
            source_classification_loss([], [])



@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
        elements=st.floats(allow_nan=False),
    )
)
def test_losses_finite_on_any_logits(values):
    s = Tensor(values)
    assert np.isfinite(discriminator_loss(s, s).item())
    assert np.isfinite(generator_loss(s).item())
