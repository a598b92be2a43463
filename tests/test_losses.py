import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dcp.losses import (
    CLAMP_EPS,
    discriminator_loss,
    generator_loss,
    source_classification_loss,
)
from dcp.tensor import DomainError, Tensor, grad_check, softmax_cross_entropy, weighted_sum

# Verdicts on both sides of the clamp, so the chains' masks are exercised.
EDGE_VERDICTS = [[0.0], [CLAMP_EPS / 2], [0.3], [0.5], [0.9], [1.0 - CLAMP_EPS / 2], [1.0]]


def _clamp_chain(v):
    """The deleted ``clamp`` node: clipped values and its gradient mask."""
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    return np.clip(v, lo, hi), (v >= lo) & (v <= hi)


def _mean_log_backward(g_mean, x):
    """Backward of ``x.log().mean()`` (log, sum, scale) for upstream ``g_mean``."""
    g_sum = g_mean * (1.0 / x.size)
    return np.full(x.shape, g_sum[0, 0]) / x


def discriminator_chain(vs, vt, upstream):
    """-(ds.log().mean() + (1.0 - dt).log().mean()) and its input gradients, in numpy."""
    ds, mask_s = _clamp_chain(vs)
    dt, mask_t = _clamp_chain(vt)
    complement = 1.0 - dt
    mean_s = np.array([[np.log(ds).sum()]]) * (1.0 / ds.size)
    mean_t = np.array([[np.log(complement).sum()]]) * (1.0 / complement.size)
    loss = (mean_s + mean_t) * -1.0
    g_sum = np.full((1, 1), upstream) * -1.0  # negation, then the add passes g on
    g_s = _mean_log_backward(g_sum, ds) * mask_s
    g_t = -_mean_log_backward(g_sum, complement) * mask_t  # rsub negates
    return loss, g_s, g_t


def generator_chain(vt, upstream):
    """-dt.log().mean() and its input gradient, in numpy."""
    dt, mask = _clamp_chain(vt)
    mean = np.array([[np.log(dt).sum()]]) * (1.0 / dt.size)
    g_mean = np.full((1, 1), upstream) * -1.0
    return mean * -1.0, _mean_log_backward(g_mean, dt) * mask


class TestDiscriminatorLoss:
    def test_perfect_discrimination_near_zero(self):
        ds = Tensor(np.full((5, 1), 1.0 - CLAMP_EPS))
        dt = Tensor(np.full((4, 1), CLAMP_EPS))
        assert discriminator_loss(ds, dt).item() < 1e-6

    def test_coin_flip_value(self):
        loss = discriminator_loss(Tensor(np.full((3, 1), 0.5)), Tensor(np.full((2, 1), 0.5)))
        assert abs(loss.item() - 1.3862943611198906) < 1e-12

    def test_gradient_wrt_single_source_entry(self):
        n_s = 4
        ds = Tensor(np.full((n_s, 1), 0.5), requires_grad=True)
        dt = Tensor(np.full((3, 1), 0.5))
        discriminator_loss(ds, dt).backward()
        assert abs(ds.grad[0, 0] - (-1.0 / (n_s * 0.5))) < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        dt = Tensor(rng.uniform(0.05, 0.95, size=(6, 1)))
        report = grad_check(
            lambda x: discriminator_loss(x, dt), Tensor(rng.uniform(0.05, 0.95, size=(5, 1)))
        )
        assert report.max_rel_error < 1e-4

    def test_gradient_wrt_target_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        ds = Tensor(rng.uniform(0.05, 0.95, size=(5, 1)))
        report = grad_check(
            lambda x: discriminator_loss(ds, x), Tensor(rng.uniform(0.05, 0.95, size=(6, 1)))
        )
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("upstream", [1.0, 0.37])
    def test_bit_identical_to_deleted_chain(self, upstream):
        vs = np.array(EDGE_VERDICTS)
        vt = np.random.default_rng(5).uniform(0.0, 1.0, size=(4, 1))
        ds, dt = Tensor(vs, requires_grad=True), Tensor(vt, requires_grad=True)
        loss = discriminator_loss(ds, dt)
        weighted_sum([loss], [upstream]).backward()
        chain = discriminator_chain(vs, vt, upstream)
        for fused, expected in zip([loss.values, ds.grad, dt.grad], chain):
            assert np.array_equal(fused, expected)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            discriminator_loss(Tensor([[1.2]]), Tensor([[0.5]]))

    def test_boundary_inputs_stay_finite(self):
        loss = discriminator_loss(Tensor([[0.0], [1.0]]), Tensor([[0.0], [1.0]]))
        assert np.isfinite(loss.item())


class TestGeneratorLoss:
    def test_half_value(self):
        assert abs(generator_loss(Tensor([[0.5]])).item() - 0.69314718055994531) < 1e-12

    def test_fooled_discriminator_near_zero(self):
        assert generator_loss(Tensor([[1.0 - CLAMP_EPS]])).item() < 1e-6

    def test_monotone_decreasing_in_each_entry(self):
        lo = generator_loss(Tensor([[0.3], [0.5]])).item()
        hi = generator_loss(Tensor([[0.4], [0.5]])).item()
        assert hi < lo

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        report = grad_check(generator_loss, Tensor(rng.uniform(0.05, 0.95, size=(6, 1))))
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("upstream", [1.0, 0.37])
    def test_bit_identical_to_deleted_chain(self, upstream):
        vt = np.array(EDGE_VERDICTS)
        dt = Tensor(vt, requires_grad=True)
        loss = generator_loss(dt)
        weighted_sum([loss], [upstream]).backward()
        chain = generator_chain(vt, upstream)
        for fused, expected in zip([loss.values, dt.grad], chain):
            assert np.array_equal(fused, expected)


class TestOpposingPulls:
    def test_target_gradient_signs_oppose(self):
        dt_for_d = Tensor(np.full((3, 1), 0.5), requires_grad=True)
        discriminator_loss(Tensor(np.full((3, 1), 0.5)), dt_for_d).backward()
        dt_for_g = Tensor(np.full((3, 1), 0.5), requires_grad=True)
        generator_loss(dt_for_g).backward()
        assert (dt_for_d.grad > 0).all()
        assert (dt_for_g.grad < 0).all()


class TestSourceClassificationLoss:
    def test_uniform_three_classes(self):
        loss = source_classification_loss(Tensor([[0.0, 0.0, 0.0]]), [1])
        assert abs(loss.item() - 1.0986122886681097) < 1e-12

    def test_confident_correct_saturates(self):
        loss = source_classification_loss(Tensor([[60.0, 0.0, 0.0]]), [0])
        assert loss.item() < 1e-20

    def test_delegates_bit_exactly(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        a = source_classification_loss(Tensor(logits), labels).item()
        b = softmax_cross_entropy(Tensor(logits), labels).item()
        assert a == b


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
        elements=st.floats(min_value=0.0, max_value=1.0),
    )
)
def test_losses_finite_on_any_unit_interval_input(values):
    d = Tensor(values)
    assert np.isfinite(discriminator_loss(d, d).item())
    assert np.isfinite(generator_loss(d).item())
