import numpy as np
import pytest

from dcp.datasets import (
    SOURCE,
    TARGET,
    LabeledDataset,
    ParseError,
    SchemaError,
    ShiftSpec,
    gen_blobs,
    gen_two_moons_shift,
    load_embeddings,
    save_embeddings,
)


class TestLabeledDataset:
    def test_source_must_be_fully_labeled(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((2, 2)), [0, -1], SOURCE)

    def test_target_labels_quarantined(self):
        ds = LabeledDataset(np.ones((3, 2)), [0, 1, 2], TARGET)
        assert list(ds.eval_labels()) == [0, 1, 2]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((3, 2)), [0, 1], SOURCE)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("domain", [SOURCE, TARGET])
    def test_non_finite_row_rejected_by_index(self, value, domain):
        x = np.ones((4, 2))
        x[2, 1] = value
        with pytest.raises(ValueError, match=r"^X row 2 holds a non-finite value"):
            LabeledDataset(x, [0, 1, 0, 1], domain)


class TestShiftSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 1},
            {"d": 1},
            {"n_per_class": 0},
            {"noise_sigma": 0.0},
            {"d": 2, "translation": (1.0, 2.0, 3.0)},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            ShiftSpec(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            # each used to pass and give all-NaN or infinite target rows
            ("rotation", np.nan),
            ("rotation", np.inf),
            ("translation", (1.0, np.nan)),
            ("translation", (-np.inf,)),
            ("noise_sigma", np.nan),
            ("noise_sigma", np.inf),
        ],
    )
    def test_non_finite_shift_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ShiftSpec(**{name: value})


class TestGenBlobs:
    def test_shapes_and_balance(self):
        src, tgt = gen_blobs(ShiftSpec(k=3, n_per_class=200, seed=7))
        assert src.X.shape == (600, 2) and tgt.X.shape == (600, 2)
        assert src.y.shape == (600,)
        for ds in (src, tgt):
            assert (np.bincount(ds.y, minlength=3) == 200).all()

    def test_deterministic(self):
        spec = ShiftSpec(seed=11)
        a_src, a_tgt = gen_blobs(spec)
        b_src, b_tgt = gen_blobs(spec)
        assert np.array_equal(a_src.X, b_src.X)
        assert np.array_equal(a_tgt.X, b_tgt.X)

    def test_source_and_target_draw_different_noise(self):
        src, tgt = gen_blobs(ShiftSpec(rotation=0.0, translation=(0.0, 0.0), seed=3))
        assert not np.array_equal(src.X, tgt.X)

    def test_no_shift_class_means_agree(self):
        spec = ShiftSpec(k=3, n_per_class=400, rotation=0.0, translation=(0.0, 0.0), seed=5)
        src, tgt = gen_blobs(spec)
        tol = 3.0 * spec.noise_sigma * np.sqrt(2.0 / spec.n_per_class)
        for cls in range(3):
            gap = src.X[src.y == cls].mean(axis=0) - tgt.X[tgt.y == cls].mean(axis=0)
            assert np.abs(gap).max() < tol

    def test_rotation_moves_class_means(self):
        src, tgt = gen_blobs(ShiftSpec(k=3, n_per_class=400, rotation=35.0, seed=5))
        gap = np.linalg.norm(
            src.X[src.y == 0].mean(axis=0) - tgt.X[tgt.y == 0].mean(axis=0)
        )
        assert gap > 1.0

    def test_higher_dimensions_supported(self):
        src, tgt = gen_blobs(ShiftSpec(d=5, translation=(1.0, 0.0), seed=0))
        assert src.d == 5 and tgt.d == 5


class TestTwoMoons:
    @pytest.mark.parametrize(
        "name, value", [("rotation", np.nan), ("rotation", -np.inf), ("noise_sigma", np.inf)]
    )
    def test_non_finite_shift_rejected_by_name(self, name, value):
        kwargs = {"n_per_class": 5, "rotation": 30.0, "noise_sigma": 0.1, "seed": 0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gen_two_moons_shift(**kwargs)

    def test_counts(self):
        src, tgt = gen_two_moons_shift(n_per_class=150, rotation=0.0, noise_sigma=0.1, seed=2)
        assert src.n == 300 and tgt.n == 300
        assert (np.bincount(src.y) == 150).all()

    def test_deterministic(self):
        a = gen_two_moons_shift(100, 90.0, 0.1, seed=4)
        b = gen_two_moons_shift(100, 90.0, 0.1, seed=4)
        assert np.array_equal(a[0].X, b[0].X) and np.array_equal(a[1].X, b[1].X)

    def test_rotation_preserves_centroid(self):
        _, tgt0 = gen_two_moons_shift(400, 0.0, 0.05, seed=6)
        _, tgt180 = gen_two_moons_shift(400, 180.0, 0.05, seed=6)
        np.testing.assert_allclose(tgt0.X.mean(axis=0), tgt180.X.mean(axis=0), atol=1e-9)

    def test_half_turn_defeats_source_only_classifier(self):
        from dcp.losses import source_classification_loss
        from dcp.networks import Mlp, branch_outputs
        from dcp.tensor import Tensor
        from dcp.trainer import apply_sgd_update

        src, tgt = gen_two_moons_shift(200, 180.0, 0.08, seed=1)
        extractor = Mlp.create((2, 16, 16), seed=0)
        head = Mlp.create((16, 2), seed=1)
        params = extractor.tensors() + head.tensors()
        velocity = [np.zeros(p.shape) for p in params]
        x_src = Tensor(src.X)
        for _ in range(300):
            loss = source_classification_loss(head(extractor(x_src)), src.y)
            loss.backward()
            apply_sgd_update(params, velocity, lr=0.05, momentum=0.5)
        target_logits = branch_outputs(extractor, head, tgt.X)
        target_acc = (target_logits.argmax(axis=1) == tgt.eval_labels()).mean()
        source_acc = (branch_outputs(extractor, head, src.X).argmax(axis=1) == src.y).mean()
        assert source_acc > 0.9
        assert target_acc < 0.6


class TestEmbeddingsRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        src, _ = gen_blobs(ShiftSpec(k=2, n_per_class=3, seed=9))
        path = tmp_path / "src.csv"
        save_embeddings(src, path)
        loaded = load_embeddings(path)
        assert np.array_equal(loaded.X, src.X)
        assert np.array_equal(loaded.y, src.y)
        assert loaded.domain_tag == SOURCE

    def test_small_file_shape(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,label,domain\n1.0,2.0,0,s\n3.0,4.0,1,s\n0.5,0.5,0,s\n")
        ds = load_embeddings(path)
        assert ds.X.shape == (3, 2)

    def test_unknown_label_only_for_target(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label,domain\n1.0,2.0,-1,s\n")
        with pytest.raises(SchemaError, match="label -1"):
            load_embeddings(path)
        ok = tmp_path / "ok.csv"
        ok.write_text("f0,f1,label,domain\n1.0,2.0,-1,t\n")
        assert load_embeddings(ok).domain_tag == TARGET

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label,domain\n1.0,2.0,0,s\noops,2.0,0,s\n")
        with pytest.raises(ParseError, match=":3:"):
            load_embeddings(path)

    def test_inconsistent_width_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label,domain\n1.0,2.0,0,s\n1.0,0,s\n")
        with pytest.raises(SchemaError, match=":3:"):
            load_embeddings(path)

    def test_mixed_domains_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label,domain\n1.0,0,s\n2.0,1,t\n")
        with pytest.raises(SchemaError, match="mixed"):
            load_embeddings(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,label,domain\n1.0,2.0,0,s\n")
        with pytest.raises(SchemaError, match="header"):
            load_embeddings(path)
