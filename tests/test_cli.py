import dataclasses
import json
import os
import subprocess
import sys
from operator import setitem
from pathlib import Path

import numpy as np
import pytest

from dcp import cli, verify
from dcp.datasets import load_embeddings, save_embeddings
from dcp.tensor import Tensor
from dcp.trainer import TrainConfig, derived_seeds, init_state


def run_cli(args):
    return cli.main(args)


def relabeled_copy(csv_path, out_path, label):
    """A copy of an embedding CSV whose first row carries ``label``."""
    dataset = load_embeddings(csv_path)
    y = dataset.y.copy()
    y[0] = label
    save_embeddings(dataclasses.replace(dataset, y=y), out_path)
    return out_path


def _drop_last_column(matrix):
    for row in matrix:
        row.pop()


def assert_usage_error(code, capsys, fragment):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error: ")
    assert fragment in err
    assert "Traceback" not in err


def assert_subcommand_usage_error(exc, capsys, command):
    """Exit 2 with the subcommand's own usage line, not the top-level one."""
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"usage: dcp {command} ")
    assert f"\ndcp {command}: error: " in err
    return out, err


@pytest.fixture
def blob_files(tmp_path):
    out = tmp_path / "data"
    code = run_cli(
        ["gen-data", "--kind", "blobs", "--k", "3", "--n-per-class", "30",
         "--rotation", "35", "--seed", "7", "--out-dir", str(out)]
    )
    assert code == 0
    return out


class TestGenData:
    def test_writes_csvs_and_manifest(self, blob_files):
        assert (blob_files / "source.csv").exists()
        assert (blob_files / "target.csv").exists()
        manifest = json.loads((blob_files / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["spec"]["seed"] == 7
        assert manifest["spec"]["translation"] == [1.0, 0.0]

    def test_rerun_identical_files(self, tmp_path):
        args = ["gen-data", "--k", "2", "--n-per-class", "10", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out-dir", str(a)]) == 0
        assert run_cli(args + ["--out-dir", str(b)]) == 0
        assert (a / "source.csv").read_bytes() == (b / "source.csv").read_bytes()
        assert (a / "target.csv").read_bytes() == (b / "target.csv").read_bytes()

    def test_k_below_two_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen-data", "--k", "1", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_moons_rejects_k(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen-data", "--kind", "moons", "--k", "3", "--out-dir", str(tmp_path)])
        assert_subcommand_usage_error(exc, capsys, "gen-data")

    def test_moons_writes_two_class_data(self, tmp_path):
        # without --k it used to exit 2: --k defaulted to 3, the blobs' class count
        for name, k_args in (("no-k", []), ("k2", ["--k", "2"])):
            out = tmp_path / name
            code = run_cli(
                ["gen-data", "--kind", "moons", *k_args, "--n-per-class", "15",
                 "--rotation", "90", "--noise-sigma", "0.05", "--out-dir", str(out)]
            )
            assert code == 0
            assert load_embeddings(out / "source.csv").n_classes == 2
            spec = json.loads((out / "manifest.json").read_text())["spec"]
            assert spec["kind"] == "moons" and "translation" not in spec

    @pytest.mark.parametrize(
        "flags, message",
        [
            # each used to exit 0 and write NaN or infinite target rows
            (("--rotation", "nan"), "rotation must be finite, got nan"),
            (("--noise-sigma", "inf"), "noise_sigma must be finite, got inf"),
            (("--translation", "1,nan"), "translation must be finite, got (1.0, nan)"),
            (("--kind", "moons", "--rotation", "nan"), "rotation must be finite, got nan"),
            (("--kind", "moons", "--noise-sigma", "inf"), "noise_sigma must be finite, got inf"),
        ],
    )
    def test_non_finite_shift_is_usage_error_writing_nothing(
        self, flags, message, tmp_path, capsys
    ):
        out = tmp_path / "data"
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen-data", *flags, "--out-dir", str(out)])
        _, err = assert_subcommand_usage_error(exc, capsys, "gen-data")
        assert message in err
        assert not out.exists()

    def test_manifest_spec_lists_every_shift_field(self, tmp_path):
        run_cli(["gen-data", "--k", "4", "--dim", "3", "--translation", "1,2,3",
                 "--rotation", "12.5", "--seed", "3", "--out-dir", str(tmp_path)])
        text = (tmp_path / "manifest.json").read_text()
        assert json.loads(text)["spec"] == {
            "kind": "blobs", "k": 4, "d": 3, "n_per_class": 200, "rotation": 12.5,
            "translation": [1.0, 2.0, 3.0], "noise_sigma": 0.6, "seed": 3,
        }
        # the fields in ShiftSpec's order, one per line, as written before
        assert '"spec": {\n  "kind": "blobs",\n  "k": 4,\n  "d": 3,\n  "n_per_class": 200,' in text

    def test_bad_translation_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen-data", "--translation", "a,b", "--out-dir", str(tmp_path)])
        _, err = assert_subcommand_usage_error(exc, capsys, "gen-data")
        assert "--translation must be comma-separated numbers" in err


class TestTrain:
    def _train_args(self, blob_files, out, extra=()):
        return [
            "train", "--source", str(blob_files / "source.csv"),
            "--target", str(blob_files / "target.csv"),
            "--out-dir", str(out), "--iters", "8", "--batch-size", "9",
            "--eval-every", "4", "--seed", "1", *extra,
        ]

    def test_default_run_writes_outputs(self, blob_files, tmp_path):
        out = tmp_path / "run"
        assert run_cli(self._train_args(blob_files, out)) == 0
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 1 + 8
        assert (out / "checkpoint.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert "sha256" in manifest["inputs"]["source"]

    def test_missing_source_exits_one(self, blob_files, tmp_path, capsys):
        code = run_cli(
            ["train", "--source", str(tmp_path / "nope.csv"),
             "--target", str(blob_files / "target.csv"), "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_zero_iterations_gives_empty_metrics_valid_checkpoint(self, blob_files, tmp_path):
        out = tmp_path / "run0"
        args = self._train_args(blob_files, out)
        args[args.index("--iters") + 1] = "0"
        assert run_cli(args) == 0
        assert (out / "metrics.csv").read_text().splitlines()[1:] == []
        code = run_cli(
            ["eval", "--checkpoint", str(out / "checkpoint.json"),
             "--data", str(blob_files / "source.csv"), "--out-dir", str(out)]
        )
        assert code == 0

    def test_ablation_flags(self, blob_files, tmp_path):
        out = tmp_path / "ablation"
        assert run_cli(self._train_args(blob_files, out, ("--alpha", "0", "--no-pseudo"))) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["alpha"] == 0.0
        assert config["use_pseudo_labels"] is False
        assert config["iterations"] == 8

    def test_seed_flag_sets_the_derived_seeds(self, blob_files, tmp_path):
        out = tmp_path / "run"
        assert run_cli(self._train_args(blob_files, out, ("--seed", "5"))) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        seeds = {name: config[name] for name in ("adv_seed", "clu_seed", "disc_seed", "data_seed")}
        assert seeds == derived_seeds(5) == {
            "adv_seed": 5, "clu_seed": 6, "disc_seed": 7, "data_seed": 8
        }

    def test_negative_seed_is_usage_error(self, blob_files, tmp_path, capsys):
        # it used to fail inside numpy's default_rng, naming no field
        with pytest.raises(SystemExit) as exc:
            run_cli(self._train_args(blob_files, tmp_path / "run", ("--seed", "-1")))
        _, err = assert_subcommand_usage_error(exc, capsys, "train")
        assert "adv_seed must be nonnegative, got -1" in err and "Traceback" not in err

    def test_byte_identical_metrics_across_reruns(self, blob_files, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(self._train_args(blob_files, a)) == 0
        assert run_cli(self._train_args(blob_files, b)) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_config_file_layering(self, blob_files, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.25, "iterations": 3}))
        out = tmp_path / "run"
        code = run_cli(
            ["train", "--source", str(blob_files / "source.csv"),
             "--target", str(blob_files / "target.csv"), "--out-dir", str(out),
             "--config", str(cfg), "--iters", "2", "--batch-size", "6"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # CLI flag beats config file; config file beats default
        assert manifest["config"]["iterations"] == 2
        assert manifest["config"]["alpha"] == 0.25

    def test_unknown_config_key_is_usage_error(self, blob_files, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["train", "--source", str(blob_files / "source.csv"),
                 "--target", str(blob_files / "target.csv"),
                 "--out-dir", str(tmp_path), "--config", str(cfg)]
            )
        assert_subcommand_usage_error(exc, capsys, "train")

    def test_malformed_config_is_usage_error(self, blob_files, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"alpha": 0.1,')
        with pytest.raises(SystemExit) as exc:
            run_cli(self._train_args(blob_files, tmp_path / "run", ("--config", str(cfg))))
        _, err = assert_subcommand_usage_error(exc, capsys, "train")
        assert f"bad config file {cfg}" in err

    @pytest.mark.parametrize(
        "override",
        # a NaN alpha (JSON NaN) trained silently as the alpha = 0 ablation
        [{"iterations": 2.5}, {"use_pseudo_labels": "no"}, {"alpha": True}, {"alpha": np.nan},
         {"data_seed": -1}],
    )
    def test_config_field_of_wrong_type_is_usage_error(
        self, blob_files, tmp_path, capsys, override
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run_cli(self._train_args(blob_files, out, ("--config", str(cfg))))
        _, err = assert_subcommand_usage_error(exc, capsys, "train")
        (name,) = override
        assert f"{name} must be " in err and "Traceback" not in err
        assert not (out / "checkpoint.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_exits_three_with_iteration(self, blob_files, tmp_path, capsys):
        code = run_cli(
            self._train_args(blob_files, tmp_path / "explode", ("--lr", "1e9"))
        )
        assert code == 3
        assert "iteration" in capsys.readouterr().err

    def test_target_label_out_of_range_is_usage_error(self, blob_files, tmp_path, capsys):
        bad = relabeled_copy(blob_files / "target.csv", tmp_path / "bad_target.csv", 5)
        args = self._train_args(blob_files, tmp_path / "run")
        args[args.index("--target") + 1] = str(bad)
        assert_usage_error(run_cli(args), capsys, "target label 5 is outside [-1, 3)")

    def test_non_finite_feature_is_usage_error(self, blob_files, tmp_path, capsys):
        # used to fail in step 0 with "numeric failure: iteration 0: l_d is nan"
        bad = tmp_path / "bad_target.csv"
        lines = (blob_files / "target.csv").read_text().splitlines()
        lines[3] = "nan," + lines[3].split(",", 1)[1]
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        args = self._train_args(blob_files, out)
        args[args.index("--target") + 1] = str(bad)
        assert_usage_error(run_cli(args), capsys, "X row 2 holds a non-finite value: [nan, ")
        assert not out.exists()

    def test_malformed_header_is_usage_error(self, blob_files, tmp_path, capsys):
        bad = tmp_path / "bad_target.csv"
        lines = (blob_files / "target.csv").read_text().splitlines()
        bad.write_text("\n".join(["x,y,label,domain"] + lines[1:]) + "\n")
        args = self._train_args(blob_files, tmp_path / "run")
        args[args.index("--target") + 1] = str(bad)
        assert_usage_error(run_cli(args), capsys, "malformed header")


class TestEval:
    @pytest.fixture
    def trained(self, blob_files, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            ["train", "--source", str(blob_files / "source.csv"),
             "--target", str(blob_files / "target.csv"),
             "--out-dir", str(out), "--iters", "30", "--batch-size", "9", "--seed", "0"]
        ) == 0
        return out

    def test_prints_four_decimal_accuracy(self, trained, blob_files, capsys):
        code = run_cli(
            ["eval", "--checkpoint", str(trained / "checkpoint.json"),
             "--data", str(blob_files / "source.csv"), "--out-dir", str(trained)]
        )
        assert code == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("accuracy 0.") or first.startswith("accuracy 1.")
        assert len(first.split()[1].split(".")[1]) == 4

    def test_report_counts_sum_to_n(self, trained, blob_files):
        run_cli(
            ["eval", "--checkpoint", str(trained / "checkpoint.json"),
             "--data", str(blob_files / "source.csv"), "--out-dir", str(trained)]
        )
        report = json.loads((trained / "report.json").read_text())
        assert sum(sum(row) for row in report["confusion"]) == 90

    def test_deterministic_report(self, trained, blob_files, tmp_path):
        a, b = tmp_path / "ra", tmp_path / "rb"
        for out in (a, b):
            assert run_cli(
                ["eval", "--checkpoint", str(trained / "checkpoint.json"),
                 "--data", str(blob_files / "source.csv"), "--out-dir", str(out)]
            ) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_version_mismatch_exits_four(self, blob_files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "dcp-checkpoint-v999"}))
        code = run_cli(
            ["eval", "--checkpoint", str(bad), "--data", str(blob_files / "source.csv"),
             "--out-dir", str(tmp_path)]
        )
        assert code == 4

    def test_v2_checkpoint_exits_four(self, blob_files, tmp_path, capsys):
        # the layout the previous format saved: five networks, the config, t, k and d_in
        state = init_state(TrainConfig(), k=3, d_in=2)
        v2 = {
            "format": "dcp-checkpoint-v2",
            "config": state.config.to_dict(),
            "t": 0,
            "k": 3,
            "d_in": 2,
            "networks": {
                name: {
                    "layer_widths": [net.d_in] + [w.rows for w in net.weights],
                    "output_activation": "sigmoid" if name == "discriminator" else "none",
                    "weights": [w.values.tolist() for w in net.weights],
                    "biases": [b.values.tolist() for b in net.biases],
                }
                for name, net in state.networks.items()
            },
        }
        old = tmp_path / "v2.json"
        old.write_text(json.dumps(v2, indent=1))
        code = run_cli(
            ["eval", "--checkpoint", str(old), "--data", str(blob_files / "source.csv"),
             "--out-dir", str(tmp_path)]
        )
        assert code == 4
        assert "'dcp-checkpoint-v2'" in capsys.readouterr().err

    def test_unlabeled_data_is_usage_error(self, trained, blob_files, tmp_path, capsys):
        data = relabeled_copy(blob_files / "target.csv", tmp_path / "unlabeled.csv", -1)
        code = run_cli(
            ["eval", "--checkpoint", str(trained / "checkpoint.json"), "--data", str(data),
             "--out-dir", str(tmp_path)]
        )
        assert_usage_error(code, capsys, "unknown labels")

    def test_label_outside_classes_is_usage_error(self, trained, blob_files, tmp_path, capsys):
        data = relabeled_copy(blob_files / "target.csv", tmp_path / "label5.csv", 5)
        code = run_cli(
            ["eval", "--checkpoint", str(trained / "checkpoint.json"), "--data", str(data),
             "--out-dir", str(tmp_path)]
        )
        assert_usage_error(code, capsys, "label 5 is outside [0, 3)")

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ({"format": "dcp-checkpoint-v3"}, "checkpoint is missing key 'adv_extractor'"),
            (["dcp-checkpoint-v3"], "checkpoint file is not a JSON object"),
        ],
    )
    def test_malformed_checkpoint_is_usage_error(
        self, blob_files, tmp_path, capsys, payload, fragment
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code = run_cli(
            ["eval", "--checkpoint", str(bad), "--data", str(blob_files / "source.csv"),
             "--out-dir", str(tmp_path)]
        )
        assert_usage_error(code, capsys, fragment)

    @pytest.mark.parametrize(
        "edit,fragment",
        [
            (
                lambda p: _drop_last_column(p["adv_extractor"]["weights"][1]),
                "network 'adv_extractor': weights do not chain: "
                "weight 1 takes 63 inputs but weight 0 gives 64",
            ),
            (
                lambda p: p["adv_head"]["weights"][0].pop(),
                "network 'adv_head': bias 0 has shape (3, 1) but weight 0 is (2, 64)",
            ),
            (
                lambda p: _drop_last_column(p["adv_head"]["weights"][0]),
                "'adv_extractor' gives 64 features but 'adv_head' takes 63",
            ),
        ],
        ids=["weights-do-not-chain", "bias-unmatched", "extractor-head-mismatch"],
    )
    def test_edited_weight_shapes_are_usage_error(
        self, trained, blob_files, tmp_path, capsys, edit, fragment
    ):
        payload = json.loads((trained / "checkpoint.json").read_text())
        edit(payload)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(payload))
        code = run_cli(
            ["eval", "--checkpoint", str(edited), "--data", str(blob_files / "source.csv"),
             "--out-dir", str(tmp_path)]
        )
        assert_usage_error(code, capsys, fragment)

    @pytest.mark.parametrize(
        "edit,fragment",
        [
            (
                lambda p: setitem(p["adv_head"]["weights"][0], 1, [None] * 64),
                "network 'adv_head': weight 0 has a non-finite entry",
            ),
            (
                lambda p: setitem(p["adv_extractor"]["weights"][1][0], 5, float("nan")),
                "network 'adv_extractor': weight 1 has a non-finite entry",
            ),
            (
                lambda p: setitem(p["adv_head"]["biases"][0], 2, [float("inf")]),
                "network 'adv_head': bias 0 has a non-finite entry",
            ),
        ],
        ids=["null", "NaN", "Infinity"],
    )
    def test_non_finite_weights_are_usage_error(
        self, trained, blob_files, tmp_path, capsys, edit, fragment
    ):
        # each used to load and predict class 0 for every row
        payload = json.loads((trained / "checkpoint.json").read_text())
        edit(payload)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(payload))
        code = run_cli(
            ["eval", "--checkpoint", str(edited), "--data", str(blob_files / "source.csv"),
             "--out-dir", str(tmp_path)]
        )
        assert_usage_error(code, capsys, fragment)
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "key,value,fragment",
        [
            ("weights", 5, "weights is not a JSON list"),
            ("weights", None, "weights is not a JSON list"),
            ("biases", 5, "biases is not a JSON list"),
            ("biases", None, "biases is not a JSON list"),
        ],
    )
    def test_network_field_of_wrong_type_is_usage_error(
        self, trained, blob_files, tmp_path, capsys, key, value, fragment
    ):
        # these used to end in a TypeError traceback and exit 1
        payload = json.loads((trained / "checkpoint.json").read_text())
        payload["adv_head"][key] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(payload))
        code = run_cli(
            ["eval", "--checkpoint", str(edited), "--data", str(blob_files / "source.csv"),
             "--out-dir", str(tmp_path)]
        )
        assert_usage_error(code, capsys, f"network 'adv_head': {fragment}")


class TestPaths:
    """A directory where a file should be, and an output directory that cannot be made."""

    @pytest.fixture
    def a_file(self, tmp_path):
        path = tmp_path / "a_file"
        path.write_text("not a directory\n")
        return path

    def _train_args(self, blob_files, out_dir, source=None, extra=()):
        return [
            "train", "--source", str(source or blob_files / "source.csv"),
            "--target", str(blob_files / "target.csv"), "--out-dir", str(out_dir),
            "--iters", "2", "--batch-size", "9", *extra,
        ]

    @pytest.mark.parametrize("which", ["source", "config"])
    def test_train_input_directory_is_missing_input(self, which, blob_files, tmp_path, capsys):
        extra = ("--config", str(tmp_path)) if which == "config" else ()
        source = tmp_path if which == "source" else None
        code = run_cli(self._train_args(blob_files, tmp_path / "run", source, extra))
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"missing input: {tmp_path}\n"
        assert not (tmp_path / "run").exists()

    def test_eval_checkpoint_directory_is_missing_input(self, blob_files, tmp_path, capsys):
        code = run_cli(
            ["eval", "--checkpoint", str(tmp_path), "--data", str(blob_files / "source.csv"),
             "--out-dir", str(tmp_path / "report")]
        )
        assert code == 1
        assert capsys.readouterr().err == f"missing input: {tmp_path}\n"

    def test_train_out_dir_file_is_usage_error(self, blob_files, a_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(self._train_args(blob_files, a_file))
        _, err = assert_subcommand_usage_error(exc, capsys, "train")
        assert f"cannot create --out-dir {a_file}" in err

    @pytest.mark.parametrize("command", ["gen-data", "eval", "gradcheck", "schedule"])
    @pytest.mark.parametrize("below_a_file", [False, True], ids=["file", "below-file"])
    def test_out_dir_that_cannot_be_made_is_usage_error(
        self, command, below_a_file, blob_files, tmp_path, a_file, capsys
    ):
        out_dir = a_file / "x" if below_a_file else a_file
        args = {
            "gen-data": ["gen-data", "--n-per-class", "5"],
            "eval": ["eval", "--checkpoint", str(_checkpoint(blob_files, tmp_path)),
                     "--data", str(blob_files / "source.csv")],
            "gradcheck": ["gradcheck", "--seeds", "1"],
            "schedule": ["schedule", "--t-max", "2"],
        }[command]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli([*args, "--out-dir", str(out_dir)])
        _, err = assert_subcommand_usage_error(exc, capsys, command)
        assert f"cannot create --out-dir {out_dir}" in err

    def test_train_output_path_that_is_a_directory_is_usage_error(self, blob_files, tmp_path, capsys):
        out_dir = tmp_path / "run"
        (out_dir / "checkpoint.json").mkdir(parents=True)
        with pytest.raises(SystemExit) as exc:
            run_cli(self._train_args(blob_files, out_dir))
        _, err = assert_subcommand_usage_error(exc, capsys, "train")
        assert f"output path {out_dir / 'checkpoint.json'} exists and is not a regular file" in err
        assert not (out_dir / "metrics.csv").exists()

    def test_eval_output_path_that_is_a_directory_is_usage_error(self, blob_files, tmp_path, capsys):
        checkpoint = _checkpoint(blob_files, tmp_path)
        out_dir = tmp_path / "report"
        (out_dir / "report.json").mkdir(parents=True)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(["eval", "--checkpoint", str(checkpoint), "--data",
                     str(blob_files / "source.csv"), "--out-dir", str(out_dir)])
        out, err = assert_subcommand_usage_error(exc, capsys, "eval")
        assert f"output path {out_dir / 'report.json'} exists and is not a regular file" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["eval", "schedule"])
    def test_closed_stdout_exits_141_after_writing_files(self, command, blob_files, tmp_path):
        out_dir = tmp_path / "out"
        args = {
            "eval": ["eval", "--checkpoint", str(_checkpoint(blob_files, tmp_path)),
                     "--data", str(blob_files / "source.csv")],
            "schedule": ["schedule", "--t-max", "2"],
        }[command]
        written = {"eval": "report.json", "schedule": "schedule.csv"}[command]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dcp.cli", *args, "--out-dir", str(out_dir)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""
        assert (out_dir / written).is_file()


def _checkpoint(blob_files, tmp_path):
    out = tmp_path / "trained"
    code = run_cli(
        ["train", "--source", str(blob_files / "source.csv"),
         "--target", str(blob_files / "target.csv"), "--out-dir", str(out), "--iters", "2",
         "--batch-size", "9"]
    )
    assert code == 0
    return out / "checkpoint.json"


class TestGradcheckCommand:
    def test_fresh_build_all_pass(self, tmp_path, capsys):
        code = run_cli(["gradcheck", "--seeds", "2", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out
        assert (tmp_path / "gradcheck.csv").read_text() == out

    def test_output_is_csv(self, capsys):
        assert run_cli(["gradcheck", "--seeds", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "loss,max_rel_error,threshold,status"
        assert all(len(line.split(",")) == 4 for line in lines)

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seed_is_usage_error(self, seeds, tmp_path, capsys):
        # zero seeds would check no instance and print PASS for every loss
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(["gradcheck", "--seeds", seeds, "--out-dir", str(out_dir)])
        out, err = assert_subcommand_usage_error(exc, capsys, "gradcheck")
        assert "--seeds must be at least 1" in err
        assert "PASS" not in out
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            # each of these thresholds used to run and report every loss FAIL
            ("--threshold", "nan", "--threshold must be a positive number"),
            ("--threshold", "0", "--threshold must be a positive number"),
            ("--threshold", "-1", "--threshold must be a positive number"),
            ("--threshold", "inf", "--threshold must be a positive number"),
            ("--k", "1", "--k must be at least 2"),
            ("--n-b", "0", "--n-b must be at least 1"),
            ("--d-f", "0", "--d-f must be at least 1"),
        ],
    )
    def test_bad_flag_is_usage_error_before_any_check(self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gradcheck", "--seeds", "1", flag, value])
        out, err = assert_subcommand_usage_error(exc, capsys, "gradcheck")
        assert message in err
        assert out == ""

    def test_injected_sign_flip_fails(self, monkeypatch, capsys):
        def sign_flip(x):
            def bw(g):
                x._accumulate(-g)

            return Tensor._node(x.values.copy(), (x,), bw)

        original = verify.LOSS_BUILDERS["l_cc"]

        def sabotaged(rng, d_f, k, n_b):
            return [(lambda t, f=f: f(sign_flip(t)), x) for f, x in original(rng, d_f, k, n_b)]

        monkeypatch.setitem(verify.LOSS_BUILDERS, "l_cc", sabotaged)
        code = run_cli(["gradcheck", "--seeds", "1"])
        assert code == 1
        out = capsys.readouterr().out
        assert any("l_cc" in line and "FAIL" in line for line in out.splitlines())


class TestScheduleCommand:
    def test_known_rows(self, capsys):
        assert run_cli(["schedule", "--t-max", "100"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "T,tau_adv,tau_clu"
        assert lines[1] == "0,0.400000,0.500000"
        assert lines[101] == "100,0.631059,0.731059"

    def test_columns_monotone(self, capsys):
        assert run_cli(["schedule", "--t-max", "500"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        values = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
        assert (np.diff(values[:, 0]) >= 0).all()
        assert (np.diff(values[:, 1]) >= 0).all()

    def test_negative_t_max_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["schedule", "--t-max", "-1"])
        _, err = assert_subcommand_usage_error(exc, capsys, "schedule")
        assert "--t-max must be nonnegative" in err

    def test_writes_file(self, tmp_path, capsys):
        assert run_cli(["schedule", "--t-max", "2", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "schedule.csv").read_text() == capsys.readouterr().out
