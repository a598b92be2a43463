import copy
import dataclasses
import gc
import json
import re

import numpy as np
import pytest
from graph_helpers import kmeans_reference, network

from dcp import centroids as cent
from dcp import losses
from dcp.datasets import TARGET, LabeledDataset, ShiftSpec, gen_blobs
from dcp.networks import Mlp, branch_outputs
from dcp.pseudo_label import kmeans_assign
from dcp.tensor import Tensor, gather_rows, grad_check, weighted_sum
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
    apply_sgd_update,
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
    velocities = [np.array(velocity, dtype=np.float64)]
    apply_sgd_update([p], velocities, lr, momentum)
    assert p.grad is None
    return p.values, velocities[0]


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

    def test_apply_updates_tensor_and_zeroes_grad(self):
        t = Tensor([[1.0, 1.0]], requires_grad=True)
        network(t, [t], [Tensor([[0.0]])]).backward()  # t @ t.T: the gradient is 2t
        velocity = [np.zeros(t.shape)]
        apply_sgd_update([t], velocity, lr=0.1, momentum=0.0)
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
            p.update_values(np.zeros(p.shape))
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
            [v.copy() for vel in state.velocity.values() for v in vel],
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
                [v.copy() for vel in state.velocity.values() for v in vel],
                [state.banks.values.copy()],
            )

        before, t_before = snapshot(), state.t
        real = getattr(losses, poisoned)
        monkeypatch.setattr(
            losses, poisoned, lambda *args: weighted_sum([real(*args)], [float("nan")])
        )
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
        # l_d, l_g, l_c1, l_c2; 2 row gathers, 2 cross entropies and 1 sum
        # for L_PL; 1 weighted sum for the objective
        built = self._nodes_per_step(
            monkeypatch,
            TrainConfig(),
            lambda live, info: (
                live and (info.pseudo_labels >= 0).any() and not info.alignment_skipped
            ),
        )
        assert built == 27

    def test_graph_nodes_without_alignment_weight_or_pseudo_labels(self, monkeypatch):
        # alpha=0 and no pseudo-labels, with live banks: 10 network calls
        # (no head call on the target features selects anything); the 6
        # alignment nodes are still built; l_d, l_g, l_c1, l_c2; 1 weighted sum
        config = TrainConfig(alpha=0.0, use_pseudo_labels=False)
        built = self._nodes_per_step(
            monkeypatch, config, lambda live, info: live and not info.alignment_skipped
        )
        assert built == 21

    def test_main_backward_leaves_discriminator_without_gradient(self, monkeypatch):
        # l_g reaches the discriminator through constant parameters, so the
        # main backward computes no discriminator gradient at all
        import dcp.trainer as trainer_module

        real_update = trainer_module._update_networks
        seen = []

        def spy(state, names):
            if "discriminator" not in names:
                disc = state.networks["discriminator"]
                seen.append([p.grad for p in disc.tensors()])
                extractor = state.networks["adv_extractor"]
                assert all(p.grad is not None for p in extractor.tensors())
            real_update(state, names)

        monkeypatch.setattr(trainer_module, "_update_networks", spy)
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
        from dcp.trainer import _update_networks

        _update_networks(state, ("adv_extractor", "adv_head", "clu_extractor", "clu_head"))
        after = [p.values.copy() for p in disc.tensors()]
        assert all(np.array_equal(b, a) for b, a in zip(before, after))


class TestTrain:
    def test_zero_iterations(self):
        src, tgt = tiny_datasets()
        ckpt, records = train(tiny_config(iterations=0), src, tgt)
        assert records == []
        assert [w.shape for w in ckpt.adv_extractor.weights] == [(64, 2), (64, 64)]
        assert [w.shape for w in ckpt.adv_head.weights] == [(3, 64)]
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

    def test_batch_size_must_cover_classes(self):
        src, tgt = tiny_datasets()
        with pytest.raises(ValueError, match="stratify"):
            train(tiny_config(batch_size=2), src, tgt)

    def test_source_must_come_first(self):
        src, tgt = tiny_datasets()
        with pytest.raises(ValueError, match="source"):
            train(tiny_config(), tgt, src)


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
        for p in ckpt.adv_head.tensors():
            p.update_values(np.zeros(p.shape))
        report = evaluate(ckpt, src)
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
        assert ((report.per_class_accuracy >= 0) & (report.per_class_accuracy <= 1)).all()

    @staticmethod
    def _four_class_checkpoint():
        # class 2's logit is always lowest on positive inputs: never predicted
        extractor = Mlp([Tensor(np.eye(2))], [Tensor(np.zeros((2, 1)))])
        head = Mlp(
            [Tensor([[1.0, 0.0], [0.0, 1.0], [-5.0, -5.0], [0.6, 0.6]])],
            [Tensor(np.zeros((4, 1)))],
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
        assert report.per_class_accuracy[2] == 0.0 and report.per_class_accuracy[3] == 0.0
        assert report.confusion[3].sum() == 0 and report.confusion[:, 2].sum() == 0

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


class TestCheckpoint:
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
    branches, the EMA blend, the relativized distance matrices and the
    pseudo-label row gather.
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
        velocity = {
            name: [np.zeros(p.shape) for p in net.tensors()] for name, net in networks.items()
        }
        return TrainState(config=tiny_config(alpha=0.5), k=3, networks=networks, velocity=velocity)

    @staticmethod
    def _objective(nets, disc, xs, ys, xt, pseudo, banks, cfg):
        k = 3
        fs_adv, ft_adv = nets["adv_extractor"](xs), nets["adv_extractor"](xt)
        fs_clu, ft_clu = nets["clu_extractor"](xs), nets["clu_extractor"](xt)
        union = np.concatenate([ys, pseudo])
        fresh = cent.compute_centroids((fs_adv, ft_adv), (fs_clu, ft_clu), union, k)
        banks = cent.update_centroids_ema(banks, fresh, cfg.ema_momentum)
        picked = np.flatnonzero(pseudo >= 0)
        terms = {
            "l_c1": losses.source_classification_loss(nets["adv_head"](fs_adv), ys),
            "l_c2": losses.source_classification_loss(nets["clu_head"](fs_clu), ys),
            "l_g": losses.generator_loss(disc.detached()(ft_adv)),
            "l_pl": weighted_sum(
                [
                    losses.source_classification_loss(
                        gather_rows(nets["adv_head"](ft_adv), picked), pseudo[picked]
                    ),
                    losses.source_classification_loss(
                        nets["clu_head"](gather_rows(ft_clu, picked)), pseudo[picked]
                    ),
                ],
                [1.0, 1.0],
            ),
            "l_cc": cent.loss_cc(cent.centroid_centroid_matrix(banks)),
            "l_cs": cent.loss_cs(cent.centroid_sample_matrix(banks, ft_adv, ft_clu)),
        }
        total = weighted_sum(list(terms.values()), [1.0] * 4 + [cfg.alpha] * 2)
        return total, terms

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
        _, terms = self._objective(before.networks, disc, *args)
        for name, term in terms.items():
            assert term.item() == getattr(record, name), name

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
