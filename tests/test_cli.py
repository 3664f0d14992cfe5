import json
from pathlib import Path

import numpy as np
import pytest

from gridcast.cli import main

FAST_NET = ["--blocks", "1", "--conv-filters", "3", "--gru-units", "3",
            "--attn-dim", "3", "--mlp-hidden", "4", "--window", "6"]


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    assert main(["synth", "--rows", "260", "--seed", "7", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_csv):
    out = tmp_path_factory.mktemp("trained")
    code = main(["train", "--csv", str(synth_csv), "--task", "regression",
                 "--seed", "11", "--out-dir", str(out), "--max-epochs", "4",
                 *FAST_NET])
    assert code == 0
    return out


def read_bytes_map(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


class TestSynth:
    def test_row_count_contract(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["synth", "--rows", "120", "--seed", "3", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 121

    def test_regime_recorded_in_metadata(self, tmp_path):
        out = tmp_path / "k.csv"
        main(["synth", "--rows", "50", "--seed", "3", "--regime", "kenya",
              "--out", str(out)])
        meta = json.loads((tmp_path / "k.csv.meta.json").read_text())
        assert meta["regime"] == "kenya"
        assert meta["rows"] == 50

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "same.csv"
        main(["synth", "--rows", "80", "--seed", "5", "--out", str(out)])
        first = out.read_bytes()
        main(["synth", "--rows", "80", "--seed", "5", "--out", str(out)])
        assert out.read_bytes() == first


class TestTrain:
    def test_regression_artifacts_and_metric_keys(self, trained):
        names = {p.name for p in trained.iterdir()}
        assert {"model.json", "metrics.json", "trainlog.csv",
                "effective_config.txt"} <= names
        metrics = json.loads((trained / "metrics.json").read_text())
        assert {"mae", "rmse", "r2"} <= set(metrics)

    def test_classification_metric_keys_and_roc(self, tmp_path, synth_csv):
        out = tmp_path / "cls"
        code = main(["train", "--csv", str(synth_csv), "--task", "classification",
                     "--seed", "2", "--out-dir", str(out), "--max-epochs", "3",
                     *FAST_NET])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert {"accuracy", "precision", "auc", "confusion",
                "mae", "rmse", "r2"} <= set(metrics)
        assert {"tp", "tn", "fp", "fn"} == set(metrics["confusion"])
        roc = (out / "roc.csv").read_text().strip().splitlines()
        assert roc[0] == "fpr,tpr,threshold"
        assert len(roc) > 2

    def test_single_epoch_single_log_row(self, tmp_path, synth_csv):
        out = tmp_path / "one"
        main(["train", "--csv", str(synth_csv), "--seed", "1",
              "--out-dir", str(out), "--max-epochs", "1", *FAST_NET])
        lines = (out / "trainlog.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_synth_source(self, tmp_path):
        out = tmp_path / "fromsynth"
        code = main(["train", "--synth-rows", "150", "--seed", "4",
                     "--out-dir", str(out), "--max-epochs", "1", *FAST_NET])
        assert code == 0

    def test_rerun_byte_identical(self, tmp_path, synth_csv):
        out = tmp_path / "det"
        argv = ["train", "--csv", str(synth_csv), "--seed", "9",
                "--out-dir", str(out), "--max-epochs", "2", *FAST_NET]
        assert main(argv) == 0
        first = read_bytes_map(out)
        assert main(argv) == 0
        assert read_bytes_map(out) == first


class TestConfigFile:
    def test_file_sets_and_flags_override(self, tmp_path, synth_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "csv = {}\nmax_epochs = 1\nblocks = 1\nconv_filters = 3\n"
            "gru_units = 3\nattn_dim = 3\nmlp_hidden = 4\nwindow = 5\n"
            "seed = 6\n# a comment line\n".format(synth_csv)
        )
        out = tmp_path / "cfgrun"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
        text = (out / "effective_config.txt").read_text()
        assert "window = 5" in text
        out2 = tmp_path / "cfgrun2"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out2),
                     "--window", "7"]) == 0
        assert "window = 7" in (out2 / "effective_config.txt").read_text()

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("banana = 3\n")
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2


class TestExitCodes:
    def test_no_data_source_is_config_error(self, tmp_path):
        assert main(["train", "--out-dir", str(tmp_path / "x")]) == 2

    def test_both_data_sources_is_config_error(self, tmp_path, synth_csv):
        assert main(["train", "--csv", str(synth_csv), "--synth-rows", "10",
                     "--out-dir", str(tmp_path / "x")]) == 2

    def test_missing_csv_is_data_error(self, tmp_path):
        assert main(["train", "--csv", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path / "x")]) == 3

    def test_missing_model_is_data_error(self, tmp_path, synth_csv):
        assert main(["predict", "--model", str(tmp_path / "no.json"),
                     "--csv", str(synth_csv), "--out-dir", str(tmp_path / "x")]) == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_training_is_numeric_error(self, tmp_path, synth_csv, capsys):
        # an absurd learning rate blows the parameters up after one step
        code = main(["train", "--csv", str(synth_csv), "--out-dir", str(tmp_path),
                     "--max-epochs", "3", "--lr", "1e300", *FAST_NET])
        assert code == 4
        assert "numeric error: epoch 1: training loss is nan" in capsys.readouterr().err

    def test_bad_schema_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["train", "--csv", str(bad), "--out-dir", str(tmp_path / "x")]) == 3


class TestPredict:
    def test_columns_and_trailing_window(self, tmp_path, synth_csv, trained):
        out = tmp_path / "preds"
        code = main(["predict", "--model", str(trained / "model.json"),
                     "--csv", str(synth_csv), "--out-dir", str(out)])
        assert code == 0
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "index,real,predicted"
        # final window predicts one step past the file: no real value
        last = lines[-1].split(",")
        assert last[1] == "" and last[2] != ""
        full_rows = [ln for ln in lines[1:] if ln.split(",")[1] != ""]
        assert len(full_rows) == len(lines) - 2

    def test_split_test_r2_matches_metrics_json(self, tmp_path, synth_csv, trained, capsys):
        out = tmp_path / "predtest"
        code = main(["predict", "--model", str(trained / "model.json"),
                     "--csv", str(synth_csv), "--split", "test",
                     "--seed", "11", "--out-dir", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        r2_line = [ln for ln in printed.splitlines() if ln.startswith("r2 ")][0]
        r2 = float(r2_line.split(":")[1])
        metrics = json.loads((trained / "metrics.json").read_text())
        assert abs(r2 - metrics["r2"]) < 1e-9

    def test_classification_prediction_columns(self, tmp_path, synth_csv):
        model_dir = tmp_path / "clsmodel"
        main(["train", "--csv", str(synth_csv), "--task", "classification",
              "--seed", "2", "--out-dir", str(model_dir), "--max-epochs", "2",
              *FAST_NET])
        out = tmp_path / "clspred"
        code = main(["predict", "--model", str(model_dir / "model.json"),
                     "--csv", str(synth_csv), "--out-dir", str(out)])
        assert code == 0
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "index,real_label,probability,predicted_label"
        prob = float(lines[1].split(",")[2])
        assert 0.0 <= prob <= 1.0


class TestCompare:
    def test_table_shape_and_markers(self, tmp_path, synth_csv):
        out = tmp_path / "cmp"
        code = main(["compare", "--csv", str(synth_csv), "--seed", "3",
                     "--out-dir", str(out), "--max-epochs", "2", "--trees", "8",
                     *FAST_NET])
        assert code == 0
        lines = (out / "compare.csv").read_text().strip().splitlines()
        assert lines[0] == "model,mae,rmse,r2"
        models = [ln.split(",")[0] for ln in lines[1:]]
        assert models == ["CNN-GRU-Attention", "KNN", "Bayesian Ridge", "RF",
                          "SVR", "XGB"]
        for ln in lines[5:]:
            assert "not reproduced" in ln

    def test_test_indices_logged(self, tmp_path, synth_csv):
        out = tmp_path / "cmpidx"
        main(["compare", "--csv", str(synth_csv), "--seed", "3",
              "--out-dir", str(out), "--max-epochs", "1", "--trees", "4",
              *FAST_NET])
        meta = json.loads((out / "compare_meta.json").read_text())
        assert meta["test_size"] == len(meta["test_indices"])
        assert meta["test_indices"] == sorted(meta["test_indices"])

    def test_reuses_trained_model(self, tmp_path, synth_csv, trained):
        out = tmp_path / "cmpmodel"
        code = main(["compare", "--csv", str(synth_csv), "--seed", "11",
                     "--model", str(trained / "model.json"),
                     "--out-dir", str(out), "--trees", "4", "--window", "6"])
        assert code == 0
        assert (out / "compare.csv").exists()

    def test_effective_config_records_the_model_window(self, tmp_path, synth_csv, trained):
        # the trained model uses window 6; the run's own default is 8
        out = tmp_path / "cmpcfg"
        code = main(["compare", "--csv", str(synth_csv), "--seed", "11",
                     "--model", str(trained / "model.json"),
                     "--out-dir", str(out), "--trees", "2"])
        assert code == 0
        lines = (out / "effective_config.txt").read_text().splitlines()
        assert "window = 6" in lines

    def test_rerun_byte_identical(self, tmp_path, synth_csv):
        out = tmp_path / "cmpdet"
        argv = ["compare", "--csv", str(synth_csv), "--seed", "5",
                "--out-dir", str(out), "--max-epochs", "1", "--trees", "5",
                *FAST_NET]
        assert main(argv) == 0
        first = read_bytes_map(out)
        assert main(argv) == 0
        assert read_bytes_map(out) == first

    def test_classification_task_rejected(self, tmp_path, synth_csv):
        assert main(["compare", "--csv", str(synth_csv), "--task",
                     "classification", "--out-dir", str(tmp_path / "x")]) == 2


class TestExplain:
    def test_outputs_thirteen_feature_rows(self, tmp_path, synth_csv, trained, capsys):
        out = tmp_path / "exp"
        code = main(["explain", "--model", str(trained / "model.json"),
                     "--csv", str(synth_csv), "--seed", "11",
                     "--out-dir", str(out), "--windows", "3", "--perms", "8"])
        assert code == 0
        lines = (out / "shapley.csv").read_text().strip().splitlines()
        assert len(lines) == 14
        printed = capsys.readouterr().out
        assert printed.count("sum(shapley)=") == 3
        payload = json.loads((out / "shapley.json").read_text())
        assert len(payload["feature_names"]) == 13
        assert max(abs(g) for g in payload["efficiency_gaps"]) < 1e-6

    def test_exact_on_thirteen_features_errors_with_guidance(self, tmp_path, synth_csv, trained, capsys):
        code = main(["explain", "--model", str(trained / "model.json"),
                     "--csv", str(synth_csv), "--exact",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 5
        assert "sampling" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path, synth_csv, trained):
        out = tmp_path / "expdet"
        argv = ["explain", "--model", str(trained / "model.json"),
                "--csv", str(synth_csv), "--seed", "4", "--out-dir", str(out),
                "--windows", "2", "--perms", "6"]
        assert main(argv) == 0
        first = read_bytes_map(out)
        assert main(argv) == 0
        assert read_bytes_map(out) == first
