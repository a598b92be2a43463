import dataclasses
import json

import numpy as np
import pytest

from dcp import cli, verify
from dcp.datasets import load_embeddings, save_embeddings
from dcp.tensor import Tensor


def run_cli(args):
    return cli.main(args)


def relabeled_copy(csv_path, out_path, label):
    """A copy of an embedding CSV whose first row carries ``label``."""
    dataset = load_embeddings(csv_path)
    y = dataset.y.copy()
    y[0] = label
    save_embeddings(dataclasses.replace(dataset, y=y), out_path)
    return out_path


def assert_usage_error(code, capsys, fragment):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error: ")
    assert fragment in err
    assert "Traceback" not in err


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

    def test_moons_rejects_k(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen-data", "--kind", "moons", "--k", "3", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_moons_writes_two_class_data(self, tmp_path):
        out = tmp_path / "m"
        code = run_cli(
            ["gen-data", "--kind", "moons", "--k", "2", "--n-per-class", "15",
             "--rotation", "90", "--noise-sigma", "0.05", "--out-dir", str(out)]
        )
        assert code == 0
        assert (out / "source.csv").exists()

    def test_bad_translation_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen-data", "--translation", "a,b", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2


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
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 0.0
        assert manifest["config"]["use_pseudo_labels"] is False

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

    def test_unknown_config_key_is_usage_error(self, blob_files, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["train", "--source", str(blob_files / "source.csv"),
                 "--target", str(blob_files / "target.csv"),
                 "--out-dir", str(tmp_path), "--config", str(cfg)]
            )
        assert exc.value.code == 2

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
            ({"format": "dcp-checkpoint-v2"}, "checkpoint is missing key 'config'"),
            (["dcp-checkpoint-v2"], "checkpoint file is not a JSON object"),
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

    def test_negative_t_max_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["schedule", "--t-max", "-1"])
        assert exc.value.code == 2

    def test_writes_file(self, tmp_path, capsys):
        assert run_cli(["schedule", "--t-max", "2", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "schedule.csv").read_text() == capsys.readouterr().out
