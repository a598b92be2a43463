import copy
import dataclasses
import gc
import json
import re

import numpy as np
import pytest
from graph_helpers import (
    ListCycleSampler,
    flat_views,
    gathered_pseudo_label_loss,
    kmeans_reference,
    reference_train_step,
    squared_norm,
    write_parameter,
)

from dcp import centroids as cent
from dcp import losses, trainer
from dcp.datasets import TARGET, LabeledDataset, ShiftSpec, gen_blobs
from dcp.networks import Mlp, branch_outputs
from dcp.pseudo_label import kmeans_assign
from dcp.tensor import Tensor, grad_check, weighted_sum
from dcp.trainer import (
    CHECKPOINT_FORMAT,
    FEATURE_DIM,
    METRICS_FIELDS,
    Checkpoint,
    CheckpointVersionError,
    MetricsRecord,
    NumericsError,
    TrainConfig,
    TrainState,
    UnlabeledDatasetError,
    UpdateGroup,
    _CycleSampler,
    _update_groups,
    apply_sgd_update,
    derived_seeds,
    evaluate,
    init_state,
    pseudo_precision,
    train,
    train_step,
    write_metrics_csv,
)


def tiny_datasets(seed=0, rotation=0.0, translation=(0.0, 0.0), n_per_class=40):
    return gen_blobs(
        ShiftSpec(
            k=3,
            n_per_class=n_per_class,
            rotation=rotation,
            translation=translation,
            noise_sigma=0.5,
            seed=seed,
        )
    )


def tiny_config(**overrides) -> TrainConfig:
    defaults = dict(batch_size=12, iterations=5, eval_every=2)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"lr": 0.0},
            {"momentum": 1.0},
            {"batch_size": 1},
            {"ema_momentum": 1.0},
            {"kmeans_max_iters": 0},
            # a NaN alpha trained silently as the alpha = 0 ablation
            {"alpha": np.nan},
            {"lr": np.nan},
            {"alpha": np.inf},
            {"lr": np.inf},
            {"lr": 10**400},  # too large for a double: it used to overflow in training
            # a negative seed used to fail inside numpy's default_rng, naming no field
            {"adv_seed": -1},
            {"clu_seed": -1},
            {"disc_seed": -5},
            {"data_seed": -1},
        ],
    )
    def test_invalid(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must be "):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # each used to train or crash with a TypeError instead of failing here
            {"iterations": 2.5},
            {"batch_size": 36.0},
            {"adv_seed": 1.5},
            {"use_pseudo_labels": "no"},  # truthy: it trained with pseudo-labels
            {"alpha": True},  # ran at alpha = 1
        ],
    )
    def test_field_of_wrong_type(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must be "):
            TrainConfig(**kwargs)

    def test_int_in_a_float_field(self):
        assert TrainConfig(alpha=0, lr=1).alpha == 0

    def test_round_trips_through_dict(self):
        cfg = TrainConfig(alpha=0.2, adv_seed=9)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            TrainConfig.from_dict({"learning_rate": 0.1})


def _sgd_step(values, grad, velocity, lr, momentum):
    """One ``apply_sgd_update`` of a parameter holding ``values`` and ``grad``."""
    p = Tensor(values, requires_grad=True)
    p.grad = None if grad is None else np.array(grad, dtype=np.float64)
    group = UpdateGroup([p])
    group.velocity[...] = np.ravel(velocity)
    apply_sgd_update(group, lr, momentum)
    assert p.grad is None
    return p.values, group.velocity.reshape(p.shape)


class TestSgdMomentum:
    def test_vanilla_when_momentum_zero(self):
        p = np.array([[1.0, 2.0]])
        g = np.array([[0.5, -0.5]])
        new_p, new_v = _sgd_step(p, g, np.zeros_like(p), lr=0.1, momentum=0.0)
        np.testing.assert_allclose(new_p, p - 0.1 * g)
        np.testing.assert_allclose(new_v, g)

    def test_zero_grad_zero_velocity_is_fixed_point(self):
        p = np.array([[3.0]])
        # a parameter without a gradient steps as if it were zero
        for grad in (np.zeros_like(p), None):
            new_p, new_v = _sgd_step(p, grad, np.zeros_like(p), 0.1, 0.5)
            np.testing.assert_array_equal(new_p, p)
            np.testing.assert_array_equal(new_v, np.zeros_like(p))

    def test_two_steps_constant_grad_unrolls(self):
        p = np.array([[0.0]])
        g = np.array([[1.0]])
        v = np.zeros_like(p)
        lr = 0.1
        p1, v = _sgd_step(p, g, v, lr, momentum=0.5)
        p2, v = _sgd_step(p1, g, v, lr, momentum=0.5)
        np.testing.assert_allclose(p2, -lr * g * (1.0 + 1.5))

    @pytest.mark.parametrize("with_grad", [True, False])
    def test_bit_identical_to_momentum_formula_over_layer_shapes(self, with_grad):
        cfg = TrainConfig()
        groups = init_state(cfg, k=3, d_in=2).groups.values()
        rng = np.random.default_rng(7)
        for group in groups:
            group.velocity[...] = rng.normal(size=group.velocity.shape)
            velocity = [v.copy() for v in flat_views(group, group.velocity)]
            params = group.tensors
            grads = [rng.normal(size=p.shape) if with_grad else np.zeros(p.shape) for p in params]
            expected_v = [cfg.momentum * v + g for v, g in zip(velocity, grads)]
            expected_p = [p.values - cfg.lr * v for p, v in zip(params, expected_v)]
            for p, g in zip(params, grads):
                p.grad = g.copy() if with_grad else None
            apply_sgd_update(group, cfg.lr, cfg.momentum)
            velocity = flat_views(group, group.velocity)
            assert all(np.array_equal(v, e) for v, e in zip(velocity, expected_v))
            assert all(np.array_equal(p.values, e) for p, e in zip(params, expected_p))

    def test_flat_update_is_the_per_tensor_formula(self):
        # the trainer's 16 tensors: every parameter, velocity and sign bit is
        # the per-tensor formula's (v *= m; v += g; p - lr * v); a -0.0
        # gradient into a -0.0 velocity stays -0.0, which it would not if the
        # gradients were added into a zeroed buffer (0.0 + -0.0 is 0.0)
        cfg = TrainConfig()
        state = init_state(cfg, k=3, d_in=2)
        rng = np.random.default_rng(11)
        assert sum(len(g.tensors) for g in state.groups.values()) == 16
        for group in state.groups.values():
            group.velocity[...] = rng.normal(size=group.velocity.shape)
            group.velocity[::3] = -0.0
            expected = []
            for i, (p, v) in enumerate(zip(group.tensors, flat_views(group, group.velocity))):
                if i == 1:
                    # no gradient: the parameter steps as if it were zero
                    p.grad, g = None, np.zeros(p.shape)
                else:
                    g = rng.normal(size=p.shape)
                    g[v == 0.0] = -0.0
                    p.grad = g.copy()
                v = v.copy()
                v *= cfg.momentum
                v += g
                expected.append((p.values - cfg.lr * v, v))
            assert np.signbit(group.velocity).any()
            apply_sgd_update(group, cfg.lr, cfg.momentum)
            now = zip(group.tensors, flat_views(group, group.velocity))
            for (p, v), (p_expected, v_expected) in zip(now, expected, strict=True):
                for a, b in ((p.values, p_expected), (v, v_expected)):
                    assert np.array_equal(a, b)
                    assert np.array_equal(np.signbit(a), np.signbit(b))
                assert p.grad is None
                # still a read-only view of the array the group updates
                assert np.shares_memory(p.values, group.params) and not p.values.flags.writeable
            assert (np.signbit(group.velocity) & (group.velocity == 0.0)).any()

    def test_apply_updates_tensor_and_zeroes_grad(self):
        t = Tensor([[1.0, 1.0]], requires_grad=True)
        squared_norm(t).backward()  # the gradient is 2t
        apply_sgd_update(UpdateGroup([t]), lr=0.1, momentum=0.0)
        np.testing.assert_allclose(t.values, [[0.8, 0.8]])
        assert t.grad is None


class TestTrainStep:
    def _setup(self, **cfg_overrides):
        src, tgt = tiny_datasets()
        cfg = tiny_config(**cfg_overrides)
        state = init_state(cfg, k=3, d_in=2)
        rng = np.random.default_rng(0)
        src_idx = np.concatenate([np.flatnonzero(src.y == c)[:4] for c in range(3)])
        tgt_idx = rng.choice(tgt.n, size=cfg.batch_size, replace=False)
        return state, (src.X[src_idx], src.y[src_idx]), tgt.X[tgt_idx], tgt.eval_labels()[tgt_idx]

    def test_cold_start_has_no_selection_and_proceeds(self):
        state, src_b, tgt_b, tgt_y = self._setup()
        record, info = train_step(state, src_b, tgt_b, tgt_y)
        assert record.n_selected == 0
        assert record.pseudo_precision is None
        assert record.T == 0
        assert state.t == 1
        assert state.banks is not None and state.banks.shape == (6, FEATURE_DIM)

    def test_degenerate_geometry_skips_alignment_only(self):
        # the adversarial extractor maps every row to zero, so that branch's
        # centroids coincide and its relativized distances are undefined
        state, src_b, tgt_b, tgt_y = self._setup()
        extractor = state.networks["adv_extractor"]
        for p in (extractor.weights[-1], extractor.biases[-1]):
            write_parameter(state, p, np.zeros(p.shape))
        record, info = train_step(state, src_b, tgt_b, tgt_y)
        assert info.alignment_skipped
        assert record.l_cc is None and record.l_cs is None
        assert np.isfinite(record.l_c1) and np.isfinite(record.l_g)
        assert state.t == 1
        # the step's banks are still kept: the adversarial half is all zero
        assert not state.banks.values[:3].any() and state.banks.values[3:].any()

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_source_label_outside_class_range_rejected(self, bad):
        state, (xs, ys), tgt_b, tgt_y = self._setup()
        ys = ys.copy()
        ys[0] = bad
        with pytest.raises(ValueError, match=f"source label {bad} is outside"):
            train_step(state, (xs, ys), tgt_b, tgt_y)
        assert state.t == 0

    def test_source_batch_missing_a_class_rejected(self):
        state, (xs, ys), tgt_b, tgt_y = self._setup()
        keep = ys != 1
        with pytest.raises(ValueError, match="missing class 1"):
            train_step(state, (xs[keep], ys[keep]), tgt_b, tgt_y)

    @staticmethod
    def _state_snapshot(state):
        return (
            [p.values.copy() for net in state.networks.values() for p in net.tensors()],
            [group.velocity.copy() for group in state.groups.values()],
            state.t,
            None if state.banks is None else state.banks.values.copy(),
        )

    def _assert_state_is(self, state, snapshot):
        weights, velocity, t, banks = snapshot
        now = self._state_snapshot(state)
        assert all(np.array_equal(a, b) for a, b in zip(weights, now[0]))
        assert all(np.array_equal(a, b) for a, b in zip(velocity, now[1]))
        assert now[2] == t
        assert (banks is None and now[3] is None) or np.array_equal(banks, now[3])

    def test_deep_copied_state_trains_on_its_own(self):
        # a copy's parameters view the copy's update groups, so stepping the
        # copy trains it exactly as the original trains, and leaves the
        # original as it was
        state, src_b, tgt_b, tgt_y = self._setup()
        train_step(state, src_b, tgt_b, tgt_y)
        twin = copy.deepcopy(state)
        before = self._state_snapshot(state)
        train_step(twin, src_b, tgt_b, tgt_y)
        self._assert_state_is(state, before)
        train_step(state, src_b, tgt_b, tgt_y)
        self._assert_state_is(twin, self._state_snapshot(state))
        for group in twin.groups.values():
            assert all(np.shares_memory(p.values, group.params) for p in group.tensors)

    @pytest.mark.parametrize("rows", [11, 13])
    def test_source_label_count_must_match_rows(self, rows):
        # a mismatch used to fail inside k-means with numpy's gufunc message
        state, (xs, ys), tgt_b, tgt_y = self._setup()
        train_step(state, (xs, ys), tgt_b, tgt_y)
        before = self._state_snapshot(state)
        labels = np.resize(ys, rows)
        with pytest.raises(ValueError, match=f"^{rows} source labels for 12 source rows$"):
            train_step(state, (xs, labels), tgt_b, tgt_y)
        self._assert_state_is(state, before)

    def test_true_target_labels_must_cover_the_batch(self):
        # a short array used to raise IndexError after both updates had moved
        # the networks, with state.t and state.banks left behind
        state, src_b, tgt_b, tgt_y = self._setup()
        train_step(state, src_b, tgt_b, tgt_y)
        before = self._state_snapshot(state)
        with pytest.raises(ValueError, match="^11 true target labels for 12 target rows$"):
            train_step(state, src_b, tgt_b, tgt_y[:-1])
        self._assert_state_is(state, before)

    def test_second_step_can_select(self):
        state, src_b, tgt_b, tgt_y = self._setup()
        train_step(state, src_b, tgt_b, tgt_y)
        record, info = train_step(state, src_b, tgt_b, tgt_y)
        assert record.T == 1
        assert record.n_selected >= 0  # selection now permitted by a live bank
        assert len(info.y_adv_target) == len(tgt_b)

    def test_discriminator_phase_moves_only_discriminator(self):
        state, src_b, tgt_b, tgt_y = self._setup()
        before = {
            name: [p.values.copy() for p in net.tensors()]
            for name, net in state.networks.items()
        }
        train_step(state, src_b, tgt_b, tgt_y)
        after = {
            name: [p.values.copy() for p in net.tensors()]
            for name, net in state.networks.items()
        }
        # everything moved in one full step (discriminator in (e), rest in (f))
        for name in state.networks:
            assert any(
                not np.array_equal(b, a) for b, a in zip(before[name], after[name])
            ), name

    def test_main_phase_never_touches_discriminator(self):
        # freeze the discriminator update by snapshotting after phase (e):
        # run a step with lr so small D's (e) update is zero-momentum traceable
        state, src_b, tgt_b, tgt_y = self._setup()
        disc_params = state.networks["discriminator"].tensors()
        train_step(state, src_b, tgt_b, tgt_y)
        # after the step every discriminator gradient must be cleared, so a
        # re-run of (f)'s backward cannot have leaked an update into D beyond
        # what (e) applied; verify grads are flushed
        assert all(p.grad is None for p in disc_params)

    def test_alpha_zero_is_plain_adversarial(self):
        state, src_b, tgt_b, tgt_y = self._setup(alpha=0.0)
        record, _ = train_step(state, src_b, tgt_b, tgt_y)
        # alignment losses still measured, but the main update ignores them
        assert record.l_cc is not None
        assert np.isfinite(record.l_d + record.l_g + record.l_c1 + record.l_c2)

    def test_no_pseudo_flag_blocks_selection(self):
        state, src_b, tgt_b, tgt_y = self._setup(use_pseudo_labels=False)
        train_step(state, src_b, tgt_b, tgt_y)
        record, _ = train_step(state, src_b, tgt_b, tgt_y)
        assert record.n_selected == 0

    def test_clustering_sees_target_rows_only(self, monkeypatch):
        # k-means runs on the target batch's clustering features, seeded
        # from the source batch's per-class means; source rows join neither
        import dcp.trainer as trainer_module

        calls = []

        def spy(features, init_centroids, max_iters=20):
            calls.append((np.array(features), np.array(init_centroids)))
            return kmeans_assign(features, init_centroids, max_iters=max_iters)

        monkeypatch.setattr(trainer_module, "kmeans_assign", spy)
        state, src_b, tgt_b, tgt_y = self._setup()
        clu_ext = state.networks["clu_extractor"]
        fs = clu_ext(Tensor(src_b[0])).values
        seeds = np.stack([fs[src_b[1] == cls].mean(axis=0) for cls in range(3)])
        ft = clu_ext(Tensor(tgt_b)).values
        _, info = train_step(state, src_b, tgt_b, tgt_y)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0][0], ft)
        np.testing.assert_array_equal(calls[0][1], seeds)
        want, _ = kmeans_assign(ft, seeds, max_iters=state.config.kmeans_max_iters)
        np.testing.assert_array_equal(info.y_clu_target, want)

    def test_kmeans_labels_match_the_reference_on_every_call(self, monkeypatch):
        # the trainer reads only k-means' labels; pin them to the direct-form
        # reference bit for bit over a seeded run on the harder shift
        import dcp.trainer as trainer_module

        calls = []

        def spy(features, init_centroids, max_iters=20):
            labels, centroids = kmeans_assign(features, init_centroids, max_iters=max_iters)
            want, _ = kmeans_reference(features, init_centroids, max_iters=max_iters)
            calls.append(np.array_equal(labels, want))
            return labels, centroids

        monkeypatch.setattr(trainer_module, "kmeans_assign", spy)
        src, tgt = gen_blobs(ShiftSpec(
            k=3, n_per_class=200, rotation=50.0, translation=(2.0, -1.0), noise_sigma=0.9, seed=0
        ))
        train(TrainConfig(iterations=300), src, tgt)
        assert len(calls) == 300 and all(calls)

    def test_target_batch_smaller_than_k_rejected(self):
        state, src_b, tgt_b, tgt_y = self._setup()
        with pytest.raises(ValueError, match="at least k=3"):
            train_step(state, src_b, tgt_b[:2], tgt_y[:2])

    def test_pseudo_label_loss_absent_without_selection(self):
        state, src_b, tgt_b, tgt_y = self._setup()
        records = [train_step(state, src_b, tgt_b, tgt_y)[0] for _ in range(4)]
        assert any(r.n_selected for r in records)
        for r in records:
            assert (r.l_pl is None) == (r.n_selected == 0)
            assert r.l_pl is None or (np.isfinite(r.l_pl) and r.l_pl >= 0.0)

    def test_pseudo_labels_train_both_heads(self):
        # alpha=0 keeps the alignment out, so the heads can differ only
        # through the pseudo-label loss
        heads = {}
        for use in (False, True):
            state, src_b, tgt_b, tgt_y = self._setup(alpha=0.0, use_pseudo_labels=use)
            records = [train_step(state, src_b, tgt_b, tgt_y)[0] for _ in range(4)]
            heads[use] = (
                sum(r.n_selected for r in records),
                [
                    p.values.copy()
                    for name in ("adv_head", "clu_head")
                    for p in state.networks[name].tensors()
                ],
            )
        assert heads[False][0] == 0 and heads[True][0] > 0
        for off, on in zip(heads[False][1], heads[True][1]):
            assert not np.array_equal(off, on)

    @pytest.mark.parametrize(
        "poisoned, loss_name",
        [
            ("discriminator_loss", "l_d"),
            ("generator_loss", "l_g"),
            ("source_classification_loss", "l_c1"),
        ],
    )
    def test_non_finite_loss_leaves_state_untouched(self, monkeypatch, poisoned, loss_name):
        # l_d fails before the discriminator update; l_g and l_c1 fail after
        # it, before the main update, which must undo the discriminator's
        state, src_b, tgt_b, tgt_y = self._setup()
        for _ in range(2):
            train_step(state, src_b, tgt_b, tgt_y)

        def snapshot():
            return (
                [p.values.copy() for net in state.networks.values() for p in net.tensors()],
                [group.velocity.copy() for group in state.groups.values()],
                [state.banks.values.copy()],
            )

        before, t_before = snapshot(), state.t
        real = getattr(losses, poisoned)

        def nan_loss(*args):
            out = real(*args)
            if poisoned == "source_classification_loss":
                # the cross entropy's node and its block means, L_C1's first
                node, means = out
                return weighted_sum([node], [float("nan")]), [float("nan"), *means[1:]]
            return weighted_sum([out], [float("nan")])

        monkeypatch.setattr(losses, poisoned, nan_loss)
        with pytest.raises(NumericsError, match=f"iteration {t_before}: {loss_name} is nan"):
            train_step(state, src_b, tgt_b, tgt_y)
        assert state.t == t_before
        for kept, now in zip(before, snapshot()):
            assert len(kept) == len(now)
            assert all(np.array_equal(a, b) for a, b in zip(kept, now))
        assert all(
            p.grad is None for net in state.networks.values() for p in net.tensors()
        )

    @staticmethod
    def _nodes_per_step(monkeypatch, config, wanted) -> int:
        """Nodes built by the first of 10 seeded steps for which ``wanted(live_banks, info)``."""
        src, tgt = tiny_datasets(n_per_class=40)
        state = init_state(config, k=3, d_in=2)
        rng = np.random.default_rng(0)
        real_node = Tensor.__dict__["_node"].__func__
        built = []

        def counted(cls, *args):
            built.append(1)
            return real_node(cls, *args)

        monkeypatch.setattr(Tensor, "_node", classmethod(counted))
        for _ in range(10):
            src_idx = np.concatenate([rng.choice(np.flatnonzero(src.y == c), 12) for c in range(3)])
            tgt_idx = rng.choice(tgt.n, size=36, replace=False)
            built.clear()
            live_banks = state.banks is not None
            record, info = train_step(state, (src.X[src_idx], src.y[src_idx]), tgt.X[tgt_idx])
            if wanted(live_banks, info):
                return len(built)
        pytest.fail("no step met the condition")

    def test_one_graph_node_per_layer_and_loss_term(self, monkeypatch):
        # default config, in a step with accepted pseudo-labels and live
        # alignment: 11 network calls (4 extractor, 4 head and 3
        # discriminator passes); 2 for both branches' centroids and their
        # EMA blend; 2 relativized distance matrices; 2 alignment losses;
        # l_d, l_g; 1 cross entropy over L_C1, L_C2 and L_PL's two blocks,
        # which skip the unselected rows themselves; 1 weighted sum for the
        # whole objective
        built = self._nodes_per_step(
            monkeypatch,
            TrainConfig(),
            lambda live, info: (
                live and (info.pseudo_labels >= 0).any() and not info.alignment_skipped
            ),
        )
        assert built == 21

    def test_graph_nodes_without_alignment_weight_or_pseudo_labels(self, monkeypatch):
        # alpha=0 and no pseudo-labels, with live banks: 10 network calls
        # (no head call on the target features selects anything); the 6
        # alignment nodes are still built; l_d, l_g; 1 cross entropy over
        # L_C1's and L_C2's blocks; 1 weighted sum
        config = TrainConfig(alpha=0.0, use_pseudo_labels=False)
        built = self._nodes_per_step(
            monkeypatch, config, lambda live, info: live and not info.alignment_skipped
        )
        assert built == 20

    def test_main_backward_leaves_discriminator_without_gradient(self, monkeypatch):
        # l_g reaches the discriminator through constant parameters, so the
        # main backward computes no discriminator gradient at all
        import dcp.trainer as trainer_module

        real_update = trainer_module.apply_sgd_update
        seen = []

        def spy(group, lr, momentum):
            if group is state.groups["main"]:
                disc = state.networks["discriminator"]
                seen.append([p.grad for p in disc.tensors()])
                extractor = state.networks["adv_extractor"]
                assert all(p.grad is not None for p in extractor.tensors())
            real_update(group, lr, momentum)

        monkeypatch.setattr(trainer_module, "apply_sgd_update", spy)
        state, src_b, tgt_b, tgt_y = self._setup()
        for _ in range(2):
            train_step(state, src_b, tgt_b, tgt_y)
        assert len(seen) == 2
        assert all(grad is None for grads in seen for grad in grads)

    def test_steps_leave_no_cyclic_garbage(self):
        # graphs hold no reference cycles, so reference counting frees them
        state, src_b, tgt_b, tgt_y = self._setup()
        train_step(state, src_b, tgt_b, tgt_y)
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(3):
                train_step(state, src_b, tgt_b, tgt_y)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    def test_deterministic_records(self):
        records = []
        for _ in range(2):
            state, src_b, tgt_b, tgt_y = self._setup()
            r1, _ = train_step(state, src_b, tgt_b, tgt_y)
            r2, _ = train_step(state, src_b, tgt_b, tgt_y)
            records.append((r1, r2))
        assert records[0] == records[1]


class TestMainPhaseIsolation:
    def test_discriminator_phase_cannot_touch_other_networks(self):
        """Phase (e) runs on detached features, so gradients stop at D."""
        from dcp import losses
        from dcp.tensor import Tensor as T

        src, tgt = tiny_datasets()
        state = init_state(tiny_config(), k=3, d_in=2)
        disc = state.networks["discriminator"]
        adv_ext = state.networks["adv_extractor"]
        fs = adv_ext(T(src.X[:6])).detached()
        ft = adv_ext(T(tgt.X[:6])).detached()
        l_d = losses.discriminator_loss(disc(fs), disc(ft))
        l_d.backward()
        for name, net in state.networks.items():
            grads_present = any(p.grad is not None for p in net.tensors())
            assert grads_present == (name == "discriminator"), name

    def test_discriminator_frozen_during_main_update(self):
        """Drive (f) in isolation: l_g through the detached discriminator."""
        from dcp import losses
        from dcp.tensor import Tensor as T

        src, tgt = tiny_datasets()
        cfg = tiny_config()
        state = init_state(cfg, k=3, d_in=2)
        disc = state.networks["discriminator"]
        adv_ext = state.networks["adv_extractor"]
        before = [p.values.copy() for p in disc.tensors()]

        ft = adv_ext(T(tgt.X[:10]))
        l_g = losses.generator_loss(disc.detached()(ft))
        l_g.backward()
        # the gradient reaches the extractor through D, but no D parameter
        assert all(p.grad is not None for p in adv_ext.tensors())
        assert all(p.grad is None for p in disc.tensors())
        apply_sgd_update(state.groups["main"], cfg.lr, cfg.momentum)
        after = [p.values.copy() for p in disc.tensors()]
        assert all(np.array_equal(b, a) for b, a in zip(before, after))


class TestTrain:
    def test_zero_iterations(self):
        src, tgt = tiny_datasets()
        ckpt, records = train(tiny_config(iterations=0), src, tgt)
        assert records == []
        assert [w.shape for w in ckpt.adv_extractor.weights] == [(2, 64), (64, 64)]
        assert [w.shape for w in ckpt.adv_head.weights] == [(64, 3)]
        assert ckpt.k == 3

    def test_metrics_t_column_is_contiguous(self):
        src, tgt = tiny_datasets()
        _, records = train(tiny_config(iterations=4), src, tgt)
        assert [r.T for r in records] == [0, 1, 2, 3]

    def test_determinism_of_full_run(self):
        src, tgt = tiny_datasets()
        cfg = tiny_config(iterations=6)
        _, a = train(cfg, src, tgt)
        _, b = train(cfg, src, tgt)
        assert a == b

    def test_losses_finite_and_eval_cadence(self):
        src, tgt = tiny_datasets()
        _, records = train(tiny_config(iterations=5, eval_every=2), src, tgt)
        for r in records:
            assert np.isfinite([r.l_d, r.l_g, r.l_c1, r.l_c2]).all()
        assert records[0].source_acc is not None
        assert records[1].source_acc is None
        assert records[-1].target_acc is not None

    def test_numeric_failure_carries_the_good_iterations(self):
        src, tgt = tiny_datasets()
        cfg = tiny_config(lr=1e150, iterations=6)
        with np.errstate(all="ignore"), pytest.raises(NumericsError) as caught:
            train(cfg, src, tgt)
        exc = caught.value
        assert exc.iteration >= 1
        assert exc.loss in METRICS_FIELDS and not np.isfinite(exc.value)
        assert str(exc) == f"iteration {exc.iteration}: {exc.loss} is {exc.value}"
        # the same as a run that stops before the failing iteration
        with np.errstate(all="ignore"):
            ckpt, records = train(dataclasses.replace(cfg, iterations=exc.iteration), src, tgt)
        assert exc.records[:-1] == records[:-1]
        assert [r.T for r in exc.records] == list(range(exc.iteration))
        for net in ("adv_extractor", "adv_head"):
            for a, b in zip(getattr(exc.checkpoint, net).tensors(), getattr(ckpt, net).tensors()):
                assert np.array_equal(a.values, b.values)

    def test_no_shift_transfer_gap_small(self):
        src, tgt = gen_blobs(
            ShiftSpec(k=3, n_per_class=60, rotation=0.0, translation=(0.0, 0.0), noise_sigma=0.5, seed=2)
        )
        _, records = train(
            TrainConfig(batch_size=18, iterations=220, eval_every=219), src, tgt
        )
        final = records[-1]
        assert final.source_acc is not None and final.target_acc is not None
        assert abs(final.source_acc - final.target_acc) <= 0.05

    def test_unlabeled_target_reports_absent_accuracy_and_precision(self, tmp_path):
        src, tgt = tiny_datasets()
        cfg = tiny_config(iterations=6)
        _, labeled = train(cfg, src, tgt)
        _, unlabeled = train(cfg, src, dataclasses.replace(tgt, y=np.full(tgt.n, -1)))
        assert any(r.n_selected for r in unlabeled)
        for a, b in zip(labeled, unlabeled):
            assert b.target_acc is None and b.pseudo_precision is None
            # labels are evaluation-only: everything else is the same run
            assert dataclasses.replace(a, target_acc=None, pseudo_precision=None) == b
        assert unlabeled[0].source_acc is not None
        write_metrics_csv(unlabeled, tmp_path / "metrics.csv")
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        columns = [lines[0].split(",").index(name) for name in ("pseudo_precision", "target_acc")]
        for line in lines[1:]:
            assert [line.split(",")[i] for i in columns] == ["", ""]

    @pytest.mark.parametrize("bad", [3, -2])
    def test_target_label_outside_range_rejected(self, bad):
        src, tgt = tiny_datasets()
        y = tgt.y.copy()
        y[5] = bad
        with pytest.raises(ValueError, match=rf"target label {bad} is outside \[-1, 3\)"):
            train(tiny_config(), src, dataclasses.replace(tgt, y=y))

    def test_empty_target_rejected(self):
        # an empty pool would be refilled forever by the batch sampler
        src, tgt = tiny_datasets()
        empty = dataclasses.replace(tgt, X=np.zeros((0, 2)), y=np.zeros(0))
        with pytest.raises(ValueError, match="target dataset has no rows"):
            train(tiny_config(iterations=1), src, empty)

    def test_batch_size_must_cover_classes(self):
        src, tgt = tiny_datasets()
        with pytest.raises(ValueError, match="stratify"):
            train(tiny_config(batch_size=2), src, tgt)

    def test_source_must_come_first(self):
        src, tgt = tiny_datasets()
        with pytest.raises(ValueError, match="source"):
            train(tiny_config(), tgt, src)


class TestCycleSampler:
    @pytest.mark.parametrize(
        "sizes, batch_size",
        [
            ((200, 200, 200), 36),  # one pool per class, as train stratifies the source
            # a pool smaller than its share refills several times in one call
            ((5, 50, 7), 37),
            ((600,), 36),  # one pool: the target's shuffled epochs
        ],
    )
    def test_same_draws_as_list_queues(self, sizes, batch_size):
        # pools of the ids of rows of one label, as np.flatnonzero gives them
        labels = np.random.default_rng(3).permutation(np.repeat(np.arange(len(sizes)), sizes))
        pools = [np.flatnonzero(labels == cls) for cls in range(len(sizes))]
        rng, reference_rng = np.random.default_rng(11), np.random.default_rng(11)
        sampler = _CycleSampler(pools, batch_size, rng)
        reference = ListCycleSampler(pools, batch_size, reference_rng)
        for draw in range(2000):
            batch = sampler.next_batch()
            assert batch.dtype == np.int64 and batch.shape == (batch_size,)
            assert np.array_equal(batch, reference.next_batch()), draw
        # the generator made the same draws, so it is at the same point
        assert rng.integers(1 << 62) == reference_rng.integers(1 << 62)


class TestEvaluate:
    def _checkpoint(self, iterations=40):
        src, tgt = tiny_datasets()
        ckpt, _ = train(tiny_config(iterations=iterations), src, tgt)
        return ckpt, src, tgt

    def test_separable_source_reaches_high_accuracy(self):
        ckpt, src, _ = self._checkpoint(iterations=120)
        report = evaluate(ckpt, src)
        assert report.accuracy > 0.9

    def test_confusion_rows_sum_to_class_counts(self):
        ckpt, src, _ = self._checkpoint(iterations=5)
        report = evaluate(ckpt, src)
        np.testing.assert_array_equal(
            report.confusion.sum(axis=1), np.bincount(src.y, minlength=3)
        )

    def test_chance_level_for_constant_predictor(self):
        src, tgt = tiny_datasets()
        ckpt, _ = train(tiny_config(iterations=0), src, tgt)
        # zero the head: every row gets identical logits, argmax is always 0
        head = ckpt.adv_head
        zeros = [[Tensor(np.zeros(p.shape)) for p in ps] for ps in (head.weights, head.biases)]
        report = evaluate(Checkpoint(ckpt.adv_extractor, Mlp(*zeros)), src)
        assert report.accuracy == pytest.approx(1.0 / 3.0)
        # rows are true classes, columns predictions
        counts = np.bincount(src.y, minlength=3)
        np.testing.assert_array_equal(report.confusion, np.stack([counts, [0] * 3, [0] * 3], 1))
        np.testing.assert_array_equal(report.per_class_accuracy, [1.0, 0.0, 0.0])

    def test_unlabeled_dataset_rejected(self):
        ckpt, _, tgt = self._checkpoint(iterations=2)
        masked = dataclasses.replace(tgt, y=np.full(tgt.n, -1))
        with pytest.raises(UnlabeledDatasetError):
            evaluate(ckpt, masked)

    def test_per_class_accuracy_bounds(self):
        ckpt, src, _ = self._checkpoint(iterations=5)
        report = evaluate(ckpt, src)
        assert all(0.0 <= acc <= 1.0 for acc in report.per_class_accuracy)

    @staticmethod
    def _four_class_checkpoint():
        # class 2's logit is always lowest on positive inputs: never predicted
        extractor = Mlp([Tensor(np.eye(2))], [Tensor(np.zeros((1, 2)))])
        head = Mlp(
            [Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [-5.0, -5.0], [0.6, 0.6]]).T)],
            [Tensor(np.zeros((1, 4)))],
        )
        return Checkpoint(extractor, head)

    def test_accuracy_is_the_mean_of_correct_predictions(self):
        ckpt = self._four_class_checkpoint()
        rng = np.random.default_rng(0)
        # 601 rows cross the evaluation blocks; class 3 has no rows
        data = LabeledDataset(rng.uniform(0.1, 1.0, size=(601, 2)), rng.integers(0, 3, size=601), TARGET)
        predicted = branch_outputs(ckpt.adv_extractor, ckpt.adv_head, data.X).argmax(axis=1)
        assert 2 not in predicted and {0, 1, 3} <= set(predicted.tolist())
        report = evaluate(ckpt, data)
        assert report.accuracy == float((predicted == data.y).mean())
        assert report.per_class_accuracy == [
            float((predicted[data.y == c] == c).mean()) if (data.y == c).any() else None
            for c in range(4)
        ]
        # class 2 has rows and none is predicted right; class 3 has no rows
        assert report.per_class_accuracy[2] == 0.0 and report.per_class_accuracy[3] is None
        assert report.confusion[3].sum() == 0 and report.confusion[:, 2].sum() == 0
        # plain Python floats, which the JSON report writes as they are
        accuracies = [report.accuracy, *report.per_class_accuracy[:3]]
        assert all(type(a) is float for a in accuracies)
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()

    def test_label_error_names_the_first_label_outside_the_classes(self):
        data = LabeledDataset(np.ones((4, 2)), [0, 5, 1, 7], TARGET)
        with pytest.raises(ValueError, match=re.escape("label 5 is outside [0, 4)")):
            evaluate(self._four_class_checkpoint(), data)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            evaluate(self._four_class_checkpoint(), LabeledDataset(np.ones((0, 2)), [], TARGET))


class TestPseudoPrecision:
    def test_all_correct(self):
        # rows 0 and 2 selected; row 1 was not, so its true label is never read
        assert pseudo_precision(np.array([1, -1, 0]), [1, 9, 0]) == 1.0

    def test_empty_is_absent(self):
        assert pseudo_precision(np.array([-1, -1]), [0, 1]) is None

    def test_three_of_four(self):
        assert pseudo_precision(np.array([0, 0, 1, 1]), [0, 0, 1, 0]) == 0.75

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_mean_of_matches(self, seed):
        rng = np.random.default_rng(seed)
        for n, share in ((1, 0.5), (7, 0.6), (36, 0.3), (36, 0.0), (1000, 0.9)):
            true = rng.integers(0, 3, size=n)
            pseudo = np.where(rng.random(n) < share, rng.integers(0, 3, size=n), -1)
            picked = pseudo >= 0
            result = pseudo_precision(pseudo, true)
            if not picked.any():
                assert result is None
                continue
            expected = float((pseudo[picked] == true[picked]).mean())
            assert type(result) is float
            bits = (np.float64(v).view(np.uint64) for v in (result, expected))
            assert np.array_equal(*bits)


def _placed(values, offset):
    """A copy of ``values`` that starts ``offset`` bytes past a 64-byte boundary."""
    buf = np.empty(values.size + 16)
    start = (-buf.ctypes.data % 64 + offset) // 8
    out = buf[start : start + values.size].reshape(values.shape)
    out[...] = values
    return out


class TestCheckpoint:
    def test_snapshot_of_aligned_weight_copies(self):
        state = init_state(TrainConfig(), k=3, d_in=2)
        nets = (state.networks["adv_extractor"], state.networks["adv_head"])
        ckpt = Checkpoint(*nets)
        for net, kept in zip(nets, (ckpt.adv_extractor, ckpt.adv_head)):
            for w, c in zip(net.weights, kept.weights):
                assert c.values.ctypes.data % 64 == 0
                assert np.array_equal(c.values, w.values)
                assert not np.shares_memory(c.values, w.values)
            for b, c in zip(net.biases, kept.biases):
                assert np.array_equal(c.values, b.values)
                assert not np.shares_memory(c.values, b.values)
        kept = (ckpt.adv_extractor, ckpt.adv_head)
        before = [t.values.copy() for net in kept for t in net.tensors()]
        # training on writes the networks' arrays in place, through their
        # update group; the snapshot keeps its own
        state.groups["main"].params[...] += 1.0
        moved = zip(before, nets[0].tensors())
        assert all(np.array_equal(a + 1.0, t.values) for a, t in moved)
        after = [t.values for net in kept for t in net.tensors()]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_snapshot_unchanged_by_a_training_step(self):
        src, tgt = tiny_datasets()
        state = init_state(tiny_config(), k=3, d_in=2)
        ckpt = trainer._checkpoint(state)
        snapshot = (ckpt.adv_extractor, ckpt.adv_head)
        kept = [t.values.copy() for net in snapshot for t in net.tensors()]
        src_idx = np.concatenate([np.flatnonzero(src.y == c)[:4] for c in range(3)])
        train_step(state, (src.X[src_idx], src.y[src_idx]), tgt.X[:12])
        now = [t.values for net in snapshot for t in net.tensors()]
        assert all(np.array_equal(a, b) for a, b in zip(kept, now, strict=True))
        # the step moved every weight and bias that the checkpoint copied
        trained = [state.networks[name].tensors() for name in ("adv_extractor", "adv_head")]
        assert not any(np.array_equal(a, p.values) for a, p in zip(kept, sum(trained, [])))

    @pytest.mark.parametrize("offset", range(8, 64, 8))
    def test_evaluation_bits_do_not_depend_on_weight_placement(self, offset):
        # the checkpoint places each weight on a 64-byte boundary; the logits
        # of weights placed at any other offset are the same, bit for bit
        state = init_state(TrainConfig(), k=3, d_in=2)
        nets = (state.networks["adv_extractor"], state.networks["adv_head"])
        ckpt = Checkpoint(*nets)
        # constant tensors over the placed copies, which Tensor() would copy again
        placed = [
            Mlp([Tensor._node(_placed(w.values, offset), (), None) for w in net.weights], net.biases)
            for net in nets
        ]
        for net in placed:
            for w in net.weights:
                assert w.values.ctypes.data % 64 == offset
        x = np.random.default_rng(offset).normal(scale=3.0, size=(600, 2))
        expected = branch_outputs(ckpt.adv_extractor, ckpt.adv_head, x)
        assert np.array_equal(branch_outputs(*placed, x), expected)

    def test_round_trip_reproduces_forward_bit_identically(self, tmp_path):
        src, tgt = tiny_datasets()
        ckpt, _ = train(tiny_config(iterations=6), src, tgt)
        path = tmp_path / "ckpt.json"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        for data in (src, tgt):
            before, after = evaluate(ckpt, data), evaluate(loaded, data)
            assert before.accuracy == after.accuracy
            assert np.array_equal(before.per_class_accuracy, after.per_class_accuracy)
            assert np.array_equal(before.confusion, after.confusion)
        pairs = ((ckpt.adv_extractor, loaded.adv_extractor), (ckpt.adv_head, loaded.adv_head))
        for net, back in pairs:
            for a, b in zip(net.tensors(), back.tensors(), strict=True):
                assert np.array_equal(a.values, b.values)
        saved = json.loads(path.read_text())
        assert set(saved) == {"format", "adv_extractor", "adv_head"}
        assert saved["format"] == CHECKPOINT_FORMAT == "dcp-checkpoint-v3"
        for name in ("adv_extractor", "adv_head"):
            assert set(saved[name]) == {"weights", "biases"}

    def test_v3_file_keeps_out_by_in_weights(self, tmp_path):
        # written by hand: each weight as (out x in) rows, each bias an (out x 1) column
        w1, b1 = [[1.0, 0.0], [0.0, 1.0], [0.5, -1.0]], [[0.0], [0.5], [-1.0]]
        w2, b2 = [[1.0, 0.5, 0.0], [0.0, 2.0, -1.0], [-1.0, 0.0, 3.0]], [[0.0], [-0.5], [1.0]]
        payload = {
            "format": "dcp-checkpoint-v3",
            "adv_extractor": {"weights": [w1], "biases": [b1]},
            "adv_head": {"weights": [w2], "biases": [b2]},
        }
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        ckpt = Checkpoint.load(path)
        x = np.array([[2.0, 0.0], [0.0, 2.0], [-1.0, -3.0], [1.0, 1.0], [0.5, 3.0]])
        # one layer each, so both are linear; every product here is exact
        features = x @ np.array(w1).T + np.array(b1).T
        logits = features @ np.array(w2).T + np.array(b2).T
        assert np.array_equal(branch_outputs(ckpt.adv_extractor, ckpt.adv_head, x), logits)
        labels = np.array([0, 1, 2, 2, 1])
        report = evaluate(ckpt, LabeledDataset(x, labels, TARGET))
        predicted = logits.argmax(axis=1)
        assert report.accuracy == float((predicted == labels).mean()) == 0.8
        expected = np.bincount(labels * 3 + predicted, minlength=9).reshape(3, 3)
        np.testing.assert_array_equal(report.confusion, expected)
        resaved = tmp_path / "resaved.json"
        ckpt.save(resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ckpt.json"
        for tag in ("dcp-checkpoint-v0", "dcp-checkpoint-v1", "dcp-checkpoint-v2"):
            path.write_text(json.dumps({"format": tag}))
            with pytest.raises(CheckpointVersionError, match=tag):
                Checkpoint.load(path)

    def test_malformed_networks_rejected(self, tmp_path):
        src, tgt = tiny_datasets()
        ckpt, _ = train(tiny_config(iterations=1), src, tgt)
        path = tmp_path / "ckpt.json"
        ckpt.save(path)
        saved = json.loads(path.read_text())
        breakages = [
            (lambda p: p["adv_head"].pop("weights"), "network 'adv_head' is missing key 'weights'"),
            (lambda p: p.pop("adv_head"), "checkpoint is missing key 'adv_head'"),
            (lambda p: p.update(adv_head=5), "network 'adv_head' is not a JSON object"),
            (
                lambda p: p["adv_head"].update(weights=[]),
                "network 'adv_head': 0 weights but 1 biases",
            ),
            (
                lambda p: p["adv_extractor"]["biases"].pop(),
                "network 'adv_extractor': 2 weights but 1 biases",
            ),
            (
                lambda p: p["adv_head"].update(weights=[[["x"]]]),
                "network 'adv_head': could not convert string to float",
            ),
            (
                # one flat row with a 1 x 1 bias once loaded as a one-class head
                lambda p: p["adv_head"].update(
                    weights=[p["adv_head"]["weights"][0][0]],
                    biases=[p["adv_head"]["biases"][0][:1]],
                ),
                "network 'adv_head': tensors are 2-D, got array of shape (64,)",
            ),
        ]
        for breakage, message in breakages:
            payload = copy.deepcopy(saved)
            breakage(payload)
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match=re.escape(message)):
                Checkpoint.load(path)


class TestMetricsCsv:
    def test_header_and_absent_cells(self, tmp_path):
        record = MetricsRecord(
            T=0, l_d=1.0, l_g=2.0, l_c1=0.5, l_c2=0.25, l_cc=None, l_cs=None, l_pl=None,
            tau_adv=0.4, tau_clu=0.5, n_selected=0, pseudo_precision=None,
        )
        path = tmp_path / "metrics.csv"
        write_metrics_csv([record], path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "T,l_d,l_g,l_c1,l_c2,l_cc,l_cs,l_pl,tau_adv,tau_clu,n_selected,"
            "pseudo_precision,source_acc,target_acc"
        )
        assert lines[0] == ",".join(METRICS_FIELDS)
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert cells[5] == "" and cells[6] == ""
        assert cells[-1] == "" and cells[-2] == ""

    def test_full_precision_floats(self, tmp_path):
        record = MetricsRecord(
            T=1, l_d=1 / 3, l_g=0.1, l_c1=0.0, l_c2=0.0, l_cc=0.0, l_cs=0.0, l_pl=None,
            tau_adv=0.4, tau_clu=0.5, n_selected=2, pseudo_precision=0.5,
            source_acc=0.25, target_acc=2 / 3,
        )
        path = tmp_path / "metrics.csv"
        write_metrics_csv([record], path)
        cells = path.read_text().splitlines()[1].split(",")
        assert float(cells[1]) == 1 / 3
        assert float(cells[-1]) == 2 / 3


class TestMainObjectiveGradient:
    """Finite differences on the whole main objective of one training step.

    L_C1 + L_C2 + L_PL + L_G + alpha * (L_CC + L_CS), built as ``train_step``
    builds it, checked with respect to every parameter of two tiny
    extractors: through the network nodes, the stacked centroids of both
    branches, the EMA blend, the relativized distance matrices and the one
    cross-entropy node, whose last two blocks are L_PL's -1-masked ones.
    """

    def _tiny_state(self) -> TrainState:
        widths = {
            "adv_extractor": (2, 4, 4),
            "adv_head": (4, 3),
            "clu_extractor": (2, 4, 4),
            "clu_head": (4, 3),
            "discriminator": (4, 3, 1),
        }
        networks = {name: Mlp.create(w, seed=i) for i, (name, w) in enumerate(widths.items())}
        return TrainState(
            config=tiny_config(alpha=0.5), k=3, networks=networks, groups=_update_groups(networks)
        )

    @staticmethod
    def _objective(nets, disc, xs, ys, xt, pseudo, banks, cfg):
        k = 3
        fs_adv, ft_adv = nets["adv_extractor"](xs), nets["adv_extractor"](xt)
        fs_clu, ft_clu = nets["clu_extractor"](xs), nets["clu_extractor"](xt)
        union = np.concatenate([ys, pseudo])
        fresh = cent.compute_centroids((fs_adv, ft_adv), (fs_clu, ft_clu), union, k)
        banks = cent.update_centroids_ema(banks, fresh, cfg.ema_momentum)
        l_g = losses.generator_loss(disc.detached()(ft_adv))
        adv_head, clu_head = nets["adv_head"], nets["clu_head"]
        ce, means = losses.source_classification_loss(
            [adv_head(fs_adv), clu_head(fs_clu), adv_head(ft_adv), clu_head(ft_clu)],
            [ys, ys, pseudo, pseudo],
        )
        l_cc = cent.loss_cc(cent.centroid_centroid_matrix(banks))
        l_cs = cent.loss_cs(cent.centroid_sample_matrix(banks, ft_adv, ft_clu))
        total = weighted_sum([l_g, ce, l_cc, l_cs], [1.0, 1.0, cfg.alpha, cfg.alpha])
        values = {
            "l_c1": means[0],
            "l_c2": means[1],
            "l_g": l_g.item(),
            "l_pl": means[2] + means[3],
            "l_cc": l_cc.item(),
            "l_cs": l_cs.item(),
        }
        return total, values

    def test_matches_finite_differences(self):
        src, tgt = tiny_datasets()
        rng = np.random.default_rng(0)
        state = self._tiny_state()
        for _ in range(10):
            src_idx = np.concatenate([rng.choice(np.flatnonzero(src.y == c), 4) for c in range(3)])
            tgt_idx = rng.choice(tgt.n, size=12, replace=False)
            xs, ys, xt = src.X[src_idx], src.y[src_idx], tgt.X[tgt_idx]
            before = copy.deepcopy(state)
            record, info = train_step(state, (xs, ys), xt)
            selected = (info.pseudo_labels >= 0).any()
            if before.banks is not None and selected and not info.alignment_skipped:
                break
        else:
            pytest.fail("no step selected pseudo-labels with live centroid banks")

        # the main phase sees the discriminator after its own update
        disc = state.networks["discriminator"]
        args = (Tensor(xs), ys, Tensor(xt), info.pseudo_labels, before.banks, before.config)
        _, values = self._objective(before.networks, disc, *args)
        for name, value in values.items():
            assert value == getattr(record, name), name
        # the same L_PL as the row gathers it replaced
        nets = before.networks
        ft_adv, ft_clu = nets["adv_extractor"](Tensor(xt)), nets["clu_extractor"](Tensor(xt))
        gathered = gathered_pseudo_label_loss(
            nets["adv_head"](ft_adv), nets["clu_head"], ft_clu, info.pseudo_labels
        )
        assert gathered.item() == record.l_pl

        for net_name in ("adv_extractor", "clu_extractor"):
            net = before.networks[net_name]
            for i, base in enumerate(net.tensors()):

                def f(probe, net=net, net_name=net_name, i=i):
                    tensors = net.tensors()
                    tensors[i] = probe
                    nets = dict(before.networks)
                    nets[net_name] = Mlp(weights=tensors[0::2], biases=tensors[1::2])
                    return self._objective(nets, disc, *args)[0]

                report = grad_check(f, base)
                assert report.max_rel_error < 1e-4, (net_name, i, report)


class TestWholeStepReference:
    """``train`` with ``reference_train_step`` in place of ``train_step`` gives
    the same run, bit for bit: every record and every final weight and bias."""

    # the README's harder shift, on which both arms still learn
    HARD_SHIFT = dict(k=3, n_per_class=200, rotation=50.0, translation=(2.0, -1.0), noise_sigma=0.9)

    @staticmethod
    def _runs(monkeypatch, config, source, target, on_step=None):
        """One run per step function: its metrics rows, its last state, and the
        ``NumericsError`` that ended it, or None. ``on_step`` sees both runs."""
        runs = []
        for step in (train_step, reference_train_step):
            monkeypatch.setattr(trainer, "train_step", step)
            states = []

            def seen(state, record, info):
                states.append(state)
                if on_step is not None:
                    on_step(state, record, info)

            try:
                _, records = train(config, source, target, on_step=seen)
                error = None
            except NumericsError as exc:
                records, error = exc.records, exc
            runs.append(([r.csv_row() for r in records], states[-1], error))
        return runs

    @staticmethod
    def _assert_same_networks(state, ref_state, names):
        for name in names:
            nets = (state.networks[name], ref_state.networks[name])
            for a, b in zip(*(net.tensors() for net in nets), strict=True):
                assert np.array_equal(a.values, b.values, equal_nan=True), name

    @staticmethod
    def _column(rows, name):
        return [row[METRICS_FIELDS.index(name)] for row in rows]

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize(
        "arm", [{}, {"alpha": 0.0, "use_pseudo_labels": False}], ids=["full", "ablation"]
    )
    def test_same_records_and_weights(self, seed, arm, monkeypatch):
        source, target = gen_blobs(ShiftSpec(seed=seed, **self.HARD_SHIFT))
        config = TrainConfig(iterations=300, **derived_seeds(seed), **arm)
        (rows, state, _), (ref_rows, ref_state, _) = self._runs(monkeypatch, config, source, target)
        assert rows == ref_rows
        if arm:
            assert all(n == "0" for n in self._column(rows, "n_selected"))
        else:
            assert any(self._column(rows, "l_pl"))
        self._assert_same_networks(state, ref_state, state.networks)

    # (k, d, config): listed, not drawn, so that a failure names its config;
    # each gives the update groups' flat arrays another layout
    CONFIGS = [
        (2, 2, dict(batch_size=7, alpha=1.0, ema_momentum=0.0, kmeans_max_iters=1)),
        (2, 4, dict(batch_size=13, alpha=0.0, ema_momentum=0.95, use_pseudo_labels=False)),
        (3, 3, dict(batch_size=21, alpha=0.1, ema_momentum=0.7, kmeans_max_iters=3)),
        (4, 2, dict(batch_size=9, alpha=1.0, ema_momentum=0.95, use_pseudo_labels=False)),
        (4, 4, dict(batch_size=25, alpha=0.0, ema_momentum=0.0)),
        (5, 3, dict(batch_size=11, alpha=1.0, ema_momentum=0.7, kmeans_max_iters=1)),
        (5, 2, dict(batch_size=37, alpha=0.1, ema_momentum=0.95, use_pseudo_labels=False)),
        (3, 4, dict(batch_size=15, alpha=0.0, ema_momentum=0.0, kmeans_max_iters=1)),
    ]

    @staticmethod
    def _data(k, d, seed):
        spec = ShiftSpec(k=k, d=d, n_per_class=40, rotation=30.0, noise_sigma=0.8, seed=seed)
        return gen_blobs(spec)

    @pytest.mark.parametrize(
        "k, d, overrides", CONFIGS, ids=[f"k{k}-d{d}-b{o['batch_size']}" for k, d, o in CONFIGS]
    )
    def test_same_run_across_configs(self, k, d, overrides, monkeypatch):
        source, target = self._data(k, d, seed=k * 10 + d)
        config = TrainConfig(iterations=100, **derived_seeds(k + d), **overrides)
        (rows, state, _), (ref_rows, ref_state, _) = self._runs(monkeypatch, config, source, target)
        assert rows == ref_rows
        if config.use_pseudo_labels:
            assert any(self._column(rows, "l_pl"))
        self._assert_same_networks(state, ref_state, state.networks)
        assert np.array_equal(state.banks.values, np.vstack([b.values for b in ref_state.banks]))

    def test_same_run_through_degenerate_geometry(self, monkeypatch):
        # zeroing the adversarial extractor's last layer collapses its
        # features, so the next step skips alignment (with no EMA, the bank is
        # that step's collapsed centroids); training then moves the zeroed
        # layer on, and alignment comes back
        zeroed_after = (10, 40, 41)

        def zero_last_layer(state, record, info):
            if record.T in zeroed_after:
                extractor = state.networks["adv_extractor"]
                for p in (extractor.weights[-1], extractor.biases[-1]):
                    write_parameter(state, p, np.zeros(p.shape))

        source, target = self._data(3, 2, seed=7)
        config = TrainConfig(iterations=100, batch_size=15, alpha=1.0, ema_momentum=0.0)
        runs = self._runs(monkeypatch, config, source, target, on_step=zero_last_layer)
        (rows, state, _), (ref_rows, ref_state, _) = runs
        assert rows == ref_rows
        skipped = [t for t, l_cc in enumerate(self._column(rows, "l_cc")) if not l_cc]
        assert skipped == [t + 1 for t in zeroed_after]
        self._assert_same_networks(state, ref_state, state.networks)
        assert np.array_equal(state.banks.values, np.vstack([b.values for b in ref_state.banks]))

    def test_same_run_up_to_a_numeric_failure(self, monkeypatch):
        # a NaN in the adversarial head leaves l_d finite and makes l_c1 NaN:
        # the failing step has updated the discriminator before it raises
        fails_at = 30
        disc_after = {}

        def poison_head(state, record, info):
            disc = state.networks["discriminator"]
            disc_after[id(state)] = [p.values.copy() for p in disc.tensors()]
            if record.T == fails_at - 1:
                bias = state.networks["adv_head"].biases[-1]
                write_parameter(state, bias, np.full(bias.shape, np.nan))

        source, target = self._data(3, 2, seed=8)
        config = TrainConfig(iterations=100, batch_size=15)
        with np.errstate(all="ignore"):
            runs = self._runs(monkeypatch, config, source, target, on_step=poison_head)
        (rows, state, error), (ref_rows, ref_state, ref_error) = runs
        assert rows == ref_rows and len(rows) == fails_at
        for exc in (error, ref_error):
            assert (exc.iteration, exc.loss) == (fails_at, "l_c1")
        assert state.t == ref_state.t == fails_at
        # the reference does not undo the discriminator's update, so only the
        # other networks are compared; train_step's discriminator is the one
        # the last good iteration left
        main = ("adv_extractor", "adv_head", "clu_extractor", "clu_head")
        self._assert_same_networks(state, ref_state, main)
        for s, rolled_back in ((state, True), (ref_state, False)):
            now = s.networks["discriminator"].tensors()
            same = [np.array_equal(a, p.values) for a, p in zip(disc_after[id(s)], now)]
            assert all(same) if rolled_back else not all(same)
