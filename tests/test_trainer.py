import copy
import dataclasses
import gc
import json

import numpy as np
import pytest

from dcp import centroids as cent
from dcp import losses
from dcp.datasets import ShiftSpec, gen_blobs
from dcp.networks import Mlp, MlpSpec, Params
from dcp.pseudo_label import PseudoLabelBatch, kmeans_assign
from dcp.tensor import Tensor, grad_check, matmul, vstack
from dcp.trainer import (
    CHECKPOINT_FORMAT,
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
    sgd_momentum_step,
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
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_round_trips_through_dict(self):
        cfg = TrainConfig(alpha=0.2, adv_seed=9)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            TrainConfig.from_dict({"learning_rate": 0.1})


class TestSgdMomentum:
    def test_vanilla_when_momentum_zero(self):
        p = np.array([[1.0, 2.0]])
        g = np.array([[0.5, -0.5]])
        new_p, new_v = sgd_momentum_step(p, g, np.zeros_like(p), lr=0.1, momentum=0.0)
        np.testing.assert_allclose(new_p, p - 0.1 * g)
        np.testing.assert_allclose(new_v, g)

    def test_zero_grad_zero_velocity_is_fixed_point(self):
        p = np.array([[3.0]])
        new_p, new_v = sgd_momentum_step(p, np.zeros_like(p), np.zeros_like(p), 0.1, 0.5)
        np.testing.assert_array_equal(new_p, p)
        np.testing.assert_array_equal(new_v, np.zeros_like(p))

    def test_two_steps_constant_grad_unrolls(self):
        p = np.array([[0.0]])
        g = np.array([[1.0]])
        v = np.zeros_like(p)
        lr = 0.1
        p1, v = sgd_momentum_step(p, g, v, lr, momentum=0.5)
        p2, v = sgd_momentum_step(p1, g, v, lr, momentum=0.5)
        np.testing.assert_allclose(p2, -lr * g * (1.0 + 1.5))

    def test_apply_updates_tensor_and_zeroes_grad(self):
        t = Tensor([[1.0, 1.0]], requires_grad=True)
        (t * t).sum().backward()
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
        assert state.bank_adv is not None

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
            name: [p.values.copy() for p in net.params.tensors()]
            for name, net in state.networks.items()
        }
        train_step(state, src_b, tgt_b, tgt_y)
        after = {
            name: [p.values.copy() for p in net.params.tensors()]
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
        disc_params = state.networks["discriminator"].params.tensors()
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
                    for p in state.networks[name].params.tensors()
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
                [p.values.copy() for net in state.networks.values() for p in net.params.tensors()],
                [v.copy() for vel in state.velocity.values() for v in vel],
                [bank.values.copy() for bank in (state.bank_adv, state.bank_clu)],
            )

        before, t_before = snapshot(), state.t
        real = getattr(losses, poisoned)
        monkeypatch.setattr(losses, poisoned, lambda *args: real(*args) * float("nan"))
        with pytest.raises(NumericsError, match=f"iteration {t_before}: {loss_name} is nan"):
            train_step(state, src_b, tgt_b, tgt_y)
        assert state.t == t_before
        for kept, now in zip(before, snapshot()):
            assert len(kept) == len(now)
            assert all(np.array_equal(a, b) for a, b in zip(kept, now))
        assert all(
            p.grad is None for net in state.networks.values() for p in net.params.tensors()
        )

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
            grads_present = any(p.grad is not None for p in net.params.tensors())
            assert grads_present == (name == "discriminator"), name

    def test_discriminator_frozen_during_main_update(self):
        """Drive (f) in isolation: zero out alpha's effect by reusing internals."""
        from dcp import losses
        from dcp.tensor import Tensor as T

        src, tgt = tiny_datasets()
        cfg = tiny_config()
        state = init_state(cfg, k=3, d_in=2)
        disc = state.networks["discriminator"]
        adv_ext = state.networks["adv_extractor"]
        before = [p.values.copy() for p in disc.params.tensors()]

        ft = adv_ext(T(tgt.X[:10]))
        l_g = losses.generator_loss(disc(ft))
        l_g.backward()
        # gradient reached D, but only the main networks get stepped
        from dcp.trainer import _update_networks

        _update_networks(state, ("adv_extractor", "adv_head", "clu_extractor", "clu_head"))
        for p in disc.params.tensors():
            p.zero_grad()
        after = [p.values.copy() for p in disc.params.tensors()]
        assert all(np.array_equal(b, a) for b, a in zip(before, after))


class TestTrain:
    def test_zero_iterations(self):
        src, tgt = tiny_datasets()
        ckpt, records = train(tiny_config(iterations=0), src, tgt)
        assert records == []
        assert ckpt.t == 0
        assert set(ckpt.networks) == {
            "adv_extractor",
            "adv_head",
            "clu_extractor",
            "clu_head",
            "discriminator",
        }

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
        head = ckpt.networks["adv_head"]
        for p in head.params.tensors():
            p.update_values(np.zeros(p.shape))
        report = evaluate(ckpt, src)
        assert report.accuracy == pytest.approx(1.0 / 3.0)

    def test_unlabeled_dataset_rejected(self):
        ckpt, _, tgt = self._checkpoint(iterations=2)
        masked = dataclasses.replace(tgt, y=np.full(tgt.n, -1))
        with pytest.raises(UnlabeledDatasetError):
            evaluate(ckpt, masked)

    def test_per_class_accuracy_bounds(self):
        ckpt, src, _ = self._checkpoint(iterations=5)
        report = evaluate(ckpt, src)
        assert ((report.per_class_accuracy >= 0) & (report.per_class_accuracy <= 1)).all()


class TestPseudoPrecision:
    def test_all_correct(self):
        batch = PseudoLabelBatch(indices=np.array([0, 2]), labels=np.array([1, 0]))
        assert pseudo_precision(batch, [1, 9, 0]) == 1.0

    def test_empty_is_absent(self):
        assert pseudo_precision(PseudoLabelBatch.empty(), [0, 1]) is None

    def test_three_of_four(self):
        batch = PseudoLabelBatch(indices=np.array([0, 1, 2, 3]), labels=np.array([0, 0, 1, 1]))
        assert pseudo_precision(batch, [0, 0, 1, 0]) == 0.75


class TestCheckpoint:
    def test_round_trip_reproduces_forward_bit_identically(self, tmp_path):
        src, tgt = tiny_datasets()
        ckpt, _ = train(tiny_config(iterations=6), src, tgt)
        path = tmp_path / "ckpt.json"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        before = evaluate(ckpt, src)
        after = evaluate(loaded, src)
        assert before.accuracy == after.accuracy
        for name in ckpt.networks:
            for a, b in zip(
                ckpt.networks[name].params.tensors(), loaded.networks[name].params.tensors()
            ):
                assert np.array_equal(a.values, b.values)
        assert loaded.config == ckpt.config
        assert loaded.t == ckpt.t
        assert set(json.loads(path.read_text())) == {
            "format", "config", "t", "k", "d_in", "networks"
        }

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ckpt.json"
        for tag in ("dcp-checkpoint-v0", "dcp-checkpoint-v1"):
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
            (lambda nets: nets["adv_head"].pop("weights"), "network 'adv_head' is missing key 'weights'"),
            (lambda nets: nets.pop("clu_head"), "checkpoint networks is missing key 'clu_head'"),
            (lambda nets: nets.update(adv_head=5), "network 'adv_head' is not a JSON object"),
        ]
        for breakage, message in breakages:
            payload = copy.deepcopy(saved)
            breakage(payload["networks"])
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match=message):
                Checkpoint.load(path)


class TestMetricsCsv:
    def test_header_and_absent_cells(self, tmp_path):
        record = MetricsRecord(
            T=0, l_d=1.0, l_g=2.0, l_c1=0.5, l_c2=0.25, l_cc=None, l_cs=None,
            tau_adv=0.4, tau_clu=0.5, n_selected=0, pseudo_precision=None,
        )
        path = tmp_path / "metrics.csv"
        write_metrics_csv([record], path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(METRICS_FIELDS)
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert cells[5] == "" and cells[6] == ""
        assert cells[-1] == "" and cells[-2] == ""

    def test_full_precision_floats(self, tmp_path):
        record = MetricsRecord(
            T=1, l_d=1 / 3, l_g=0.1, l_c1=0.0, l_c2=0.0, l_cc=0.0, l_cs=0.0,
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
    extractors: through the fused layers, ``vstack``, the centroid weights,
    the EMA blend and the pseudo-label pick matrix.
    """

    def _tiny_state(self) -> TrainState:
        specs = {
            "adv_extractor": MlpSpec((2, 4, 4)),
            "adv_head": MlpSpec((4, 3)),
            "clu_extractor": MlpSpec((2, 4, 4)),
            "clu_head": MlpSpec((4, 3)),
            "discriminator": MlpSpec((4, 3, 1), output_activation="sigmoid"),
        }
        networks = {name: Mlp.create(spec, seed=i) for i, (name, spec) in enumerate(specs.items())}
        velocity = {
            name: [np.zeros(p.shape) for p in net.params.tensors()] for name, net in networks.items()
        }
        return TrainState(
            config=tiny_config(alpha=0.5), k=3, d_in=2, networks=networks, velocity=velocity
        )

    @staticmethod
    def _objective(nets, disc, xs, ys, xt, selected, banks, cfg):
        k = 3
        fs_adv, ft_adv = nets["adv_extractor"](xs), nets["adv_extractor"](xt)
        fs_clu, ft_clu = nets["clu_extractor"](xs), nets["clu_extractor"](xt)
        pseudo = np.full(xt.rows, -1)
        pseudo[selected.indices] = selected.labels
        union = np.concatenate([ys, pseudo])
        bank_adv = cent.update_centroids_ema(
            banks[0], cent.compute_centroids(vstack([fs_adv, ft_adv]), union, k), cfg.ema_momentum
        )
        bank_clu = cent.update_centroids_ema(
            banks[1], cent.compute_centroids(vstack([fs_clu, ft_clu]), union, k), cfg.ema_momentum
        )
        pick = Tensor(np.eye(xt.rows)[selected.indices])
        terms = {
            "l_c1": losses.source_classification_loss(nets["adv_head"](fs_adv), ys),
            "l_c2": losses.source_classification_loss(nets["clu_head"](fs_clu), ys),
            "l_g": losses.generator_loss(disc(ft_adv)),
            "l_pl": losses.source_classification_loss(
                matmul(pick, nets["adv_head"](ft_adv)), selected.labels
            )
            + losses.source_classification_loss(
                nets["clu_head"](matmul(pick, ft_clu)), selected.labels
            ),
            "l_cc": cent.loss_cc(
                cent.centroid_centroid_matrix(bank_clu), cent.centroid_centroid_matrix(bank_adv)
            ),
            "l_cs": cent.loss_cs(
                cent.centroid_sample_matrix(bank_clu, ft_clu),
                cent.centroid_sample_matrix(bank_adv, ft_adv),
            ),
        }
        total = terms["l_c1"] + terms["l_c2"] + terms["l_g"] + terms["l_pl"]
        return total + (terms["l_cc"] + terms["l_cs"]) * cfg.alpha, terms

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
            if before.bank_adv is not None and len(info.selected) and not info.alignment_skipped:
                break
        else:
            pytest.fail("no step selected pseudo-labels with live centroid banks")

        # the main phase sees the discriminator after its own update
        disc = state.networks["discriminator"]
        banks = (before.bank_adv, before.bank_clu)
        args = (Tensor(xs), ys, Tensor(xt), info.selected, banks, before.config)
        _, terms = self._objective(before.networks, disc, *args)
        for name, term in terms.items():
            assert term.item() == getattr(record, name), name

        for net_name in ("adv_extractor", "clu_extractor"):
            params = before.networks[net_name].params
            for i, base in enumerate(params.tensors()):

                def f(probe, net_name=net_name, i=i):
                    tensors = params.tensors()
                    tensors[i] = probe
                    nets = dict(before.networks)
                    nets[net_name] = Mlp(
                        spec=before.networks[net_name].spec,
                        params=Params(weights=tensors[0::2], biases=tensors[1::2]),
                    )
                    return self._objective(nets, disc, *args)[0]

                report = grad_check(f, base)
                assert report.max_rel_error < 1e-4, (net_name, i, report)
