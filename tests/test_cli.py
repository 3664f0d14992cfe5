import argparse
import base64
import contextlib
import csv
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridcast import baselines, cli
from gridcast.cli import RunConfig, build_parser, forecast, load_model, main, save_model
from gridcast.data import SCHEMA, Table, split_indices, synth_generate, write_csv
from gridcast.errors import GridcastError, ParameterError
from gridcast.metrics import regression_metrics
from gridcast.network import Network
from gridcast.tensor import RngState
from gridcast.train import INFERENCE_CHUNK, fit, predict_all

REPO = Path(__file__).resolve().parents[1]
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


@pytest.fixture(scope="module")
def classified(tmp_path_factory, synth_csv):
    out = tmp_path_factory.mktemp("classified")
    code = main(["train", "--csv", str(synth_csv), "--task", "classification",
                 "--seed", "2", "--out-dir", str(out), "--max-epochs", "3", *FAST_NET])
    assert code == 0
    return out


def read_bytes_map(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


# text that no value of the field's type reads as; str fields take any text but none
UNREADABLE = {"int": "1.5", "int | None": "abc", "float": "x", "bool": "maybe"}
# config values, each pinned by name, that must never escape as a traceback (exit 1)
TRACEBACK_PROBES = [("window", "abc"), ("window", "none"), ("blocks", "1.5"),
                    ("max_epochs", "1e3"), ("dropout_rate", "x"), ("seed", "none")]
# deleted settings, with the type each had; a config line with one is an unknown key
REMOVED_SETTINGS = {"synth_rows": "int | None", "train_frac": "float", "val_frac": "float",
                    "knn_k": "int", "forest_depth": "int", "ridge_alpha": "float",
                    "horizon": "int", "kernel": "int", "dropout_rate": "float",
                    "batch_size": "int"}
SETTING_TYPES = {f.name: f.type for f in fields(RunConfig)} | REMOVED_SETTINGS
BAD_CONFIG_VALUES = list(dict.fromkeys(
    TRACEBACK_PROBES
    + [(name, UNREADABLE[kind]) for name, kind in SETTING_TYPES.items() if kind in UNREADABLE]
    + [(name, "none") for name, kind in SETTING_TYPES.items() if not kind.endswith(" | None")]
    + [(name, text) for name, kind in SETTING_TYPES.items() if kind == "float"
       for text in ("nan", "inf", "-inf")]))

DATA_OPTIONS = {"--csv", "--window"}
NET_OPTIONS = {"--task", "--blocks", "--conv-filters", "--gru-units", "--attn-dim",
               "--mlp-hidden", "--max-epochs", "--patience", "--lr-patience", "--lr"}
RUN_OPTIONS = {"--config", "--seed", "--out-dir"}
COMMAND_OPTIONS = {
    "synth": {"--rows", "--seed", "--out"},
    "train": RUN_OPTIONS | DATA_OPTIONS | NET_OPTIONS,
    "compare": RUN_OPTIONS | DATA_OPTIONS | NET_OPTIONS | {"--model", "--trees"},
    "predict": RUN_OPTIONS | {"--model", "--csv", "--split"},
    "explain": RUN_OPTIONS | DATA_OPTIONS | {"--model", "--windows", "--perms", "--exact"},
}
REQUIRED_OPTIONS = {"synth": {"--rows", "--out"}, "train": set(), "compare": set(),
                    "predict": {"--model", "--csv"}, "explain": {"--model"}}
RUN_HELP = {"--config": "flat key = value settings file"}
DATA_HELP = {**RUN_HELP, "--csv": "input CSV path"}
OPTION_HELP = {"synth": {}, "train": DATA_HELP, "predict": RUN_HELP, "explain": DATA_HELP,
               "compare": {**DATA_HELP, "--model": "reuse a trained model file"}}
# (flag, field, value) for two runs that between them set every RunConfig flag;
# a None value is a switch
EVERY_FLAG_RUNS = {
    "compare": [("--seed", "seed", "3"), ("--window", "window", "5"),
                ("--task", "task", "regression"), ("--blocks", "blocks", "1"),
                ("--conv-filters", "conv_filters", "3"), ("--gru-units", "gru_units", "3"),
                ("--attn-dim", "attn_dim", "2"), ("--mlp-hidden", "mlp_hidden", "4"),
                ("--max-epochs", "max_epochs", "1"), ("--patience", "early_stop_patience", "7"),
                ("--lr-patience", "lr_patience", "6"), ("--lr", "initial_lr", "0.002"),
                ("--trees", "n_trees", "2")],
    # the trained fixture's window is 6, and explain adopts the model's window
    "explain": [("--seed", "seed", "4"), ("--window", "window", "6"),
                ("--windows", "explain_windows", "1"), ("--perms", "explain_perms", "3"),
                ("--exact", "explain_exact", None)],
}


class TestSynth:
    def test_row_count_contract(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["synth", "--rows", "120", "--seed", "3", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 121

    def test_metadata_records_rows_seed_and_columns(self, tmp_path):
        out = tmp_path / "k.csv"
        main(["synth", "--rows", "50", "--seed", "3", "--out", str(out)])
        meta = json.loads((tmp_path / "k.csv.meta.json").read_text())
        assert meta == {"rows": 50, "seed": 3, "columns": list(SCHEMA)}

    def test_name_too_long_is_config_error(self, tmp_path, capsys):
        out = tmp_path / ("a" * 300 + ".csv")
        assert main(["synth", "--rows", "20", "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert f"configuration error: cannot write {out}: File name too long" in printed.err
        assert list(tmp_path.iterdir()) == []

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

    def test_classification_metric_keys_and_roc(self, classified):
        metrics = json.loads((classified / "metrics.json").read_text())
        assert {"accuracy", "precision", "auc", "confusion",
                "mae", "rmse", "r2"} <= set(metrics)
        assert {"tp", "tn", "fp", "fn"} == set(metrics["confusion"])
        assert "roc_points" not in metrics
        roc = (classified / "roc.csv").read_text().strip().splitlines()
        assert roc[0] == "fpr,tpr,threshold"
        assert roc[1].split(",")[2] == "inf"
        assert len(roc) > 2

    def test_classification_metrics_json_is_strict(self, classified):
        def refuse(name):
            raise AssertionError(f"metrics.json holds {name}")

        json.loads((classified / "metrics.json").read_text(), parse_constant=refuse)

    def test_single_epoch_single_log_row(self, tmp_path, synth_csv, monkeypatch):
        logs = []

        def logged_fit(*args):
            net, log = fit(*args)
            logs.append(log)
            return net, log

        monkeypatch.setattr(cli, "fit", logged_fit)
        out = tmp_path / "one"
        main(["train", "--csv", str(synth_csv), "--seed", "1",
              "--out-dir", str(out), "--max-epochs", "1", *FAST_NET])
        lines = (out / "trainlog.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "epoch,train_loss,val_loss,lr"
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == logs[0].epochs[0].train_loss

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

    # deleted keys, refused as unknown, then live fields that RunConfig.validate refuses
    @pytest.mark.parametrize("entry", ["train_frac = 1.0", "val_frac = 0", "horizon = 0",
                                       "forest_depth = 0", "ridge_alpha = -1", "n_trees = 0",
                                       "explain_perms = 0", "window = 0", "initial_lr = -1"],
                             ids=["train_frac", "val_frac", "horizon", "forest_depth",
                                  "ridge_alpha", "n_trees", "explain_perms", "window",
                                  "initial_lr"])
    def test_file_setting_rejected_before_out_dir(self, tmp_path, synth_csv, capsys, entry):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(entry + "\n")
        out = tmp_path / "none"
        assert main(["train", "--config", str(cfg), "--csv", str(synth_csv),
                     "--out-dir", str(out)]) == 2
        assert entry.split()[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, text", BAD_CONFIG_VALUES,
                             ids=[f"{key}={text}" for key, text in BAD_CONFIG_VALUES])
    def test_unreadable_value_is_config_error(self, tmp_path, synth_csv, capsys, key, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# a comment line\n{key} = {text}\n")
        out = tmp_path / "none"
        assert main(["train", "--config", str(cfg), "--csv", str(synth_csv),
                     "--out-dir", str(out)]) == 2
        expected = (f"unknown config key {key!r}" if key in REMOVED_SETTINGS
                    else f"{key} must be {SETTING_TYPES[key]}, got {text!r}")
        assert f"{cfg}:2: {expected}" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["train", "--csv", "data.csv", "--window", "abc",
                  "--out-dir", str(tmp_path / "none")])
        assert stop.value.code == 2
        assert "argument --window: window must be int, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

    def test_optional_fields_read_none_and_empty(self, tmp_path, synth_csv, capsys):
        cfg = tmp_path / "run.cfg"
        for text in ("none", "None", ""):
            cfg.write_text(f"csv = {synth_csv}\ncsv = {text}\n")
            assert cli.read_config_file(cfg) == {"csv": None}
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert "configuration error: invalid run config: csv is required" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("banana = 3\n")
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key", ["shuffle_split", "validate_on_test", "synth_regime",
                                     "on_missing", "conv_activation", "synth_rows",
                                     "train_frac", "val_frac", "knn_k", "forest_depth",
                                     "ridge_alpha", "horizon", "kernel", "dropout_rate",
                                     "batch_size"])
    def test_removed_setting_is_an_unknown_key(self, tmp_path, synth_csv, capsys, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"csv = {synth_csv}\n{key} = x\n")
        out = tmp_path / "none"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert f"{cfg}:2: unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_line_without_equals_is_config_error(self, tmp_path, synth_csv, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# settings\nseed 3\n")
        out = tmp_path / "none"
        assert main(["train", "--config", str(cfg), "--csv", str(synth_csv),
                     "--out-dir", str(out)]) == 2
        assert f"{cfg}:2: expected key = value, got 'seed 3'" in capsys.readouterr().err
        assert not out.exists()


class TestFlags:
    @staticmethod
    def commands() -> dict:
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    def test_each_command_keeps_its_options(self):
        commands = self.commands()
        assert set(commands) == set(COMMAND_OPTIONS)
        for name, cmd in commands.items():
            actions = [a for a in cmd._actions if a.dest != "help"]
            assert {o for a in actions for o in a.option_strings} == COMMAND_OPTIONS[name]
            assert {a.option_strings[0] for a in actions if a.required} == \
                REQUIRED_OPTIONS[name]
            assert {a.option_strings[0]: a.help for a in actions if a.help} == \
                OPTION_HELP[name]

    def test_every_artifact_digests_command_parses(self):
        # a renamed flag fails here rather than in the same-bytes check that runs them
        for argv in runpy.run_path(str(REPO / "scripts" / "artifact_digests.py"))["COMMANDS"]:
            assert build_parser().parse_args(argv).command == argv[0]

    def test_flag_runs_set_every_field_flag(self):
        names = {f.name for f in fields(RunConfig)}
        field_flags = {o for name, cmd in self.commands().items() if name != "synth"
                       for a in cmd._actions if a.dest in names for o in a.option_strings}
        set_flags = {flag for run in EVERY_FLAG_RUNS.values() for flag, _, _ in run}
        # the runs give --csv and --out-dir paths of their own
        assert field_flags == set_flags | {"--csv", "--out-dir"}

    @pytest.mark.parametrize("command", list(EVERY_FLAG_RUNS))
    def test_every_flag_lands_in_its_field(self, tmp_path, synth_csv, trained, command):
        out = tmp_path / "run"
        argv = [command, "--out-dir", str(out), "--csv", str(synth_csv)]
        if command == "explain":
            argv += ["--model", str(trained / "model.json")]
        for flag, _, value in EVERY_FLAG_RUNS[command]:
            argv += [flag] if value is None else [flag, value]
        assert main(argv) == 0
        lines = set((out / "effective_config.txt").read_text().splitlines())
        assert f"out_dir = {out}" in lines
        for _, field, value in EVERY_FLAG_RUNS[command]:
            assert f"{field} = {True if value is None else value}" in lines
        assert f"csv = {synth_csv}" in lines


class TestExitCodes:
    def test_no_data_source_is_config_error(self, tmp_path):
        assert main(["train", "--out-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("argv", [["train", "--synth-rows", "100"],
                                      ["compare", "--synth-rows", "100"],
                                      ["explain", "--synth-rows", "100", "--model", "m.json"],
                                      ["compare", "--knn-k", "3"],
                                      ["train", "--kernel", "3"], ["compare", "--kernel", "3"],
                                      ["train", "--dropout", "0.2"],
                                      ["compare", "--dropout", "0.2"],
                                      ["train", "--batch-size", "32"],
                                      ["compare", "--batch-size", "32"]],
                             ids=["train-synth-rows", "compare-synth-rows",
                                  "explain-synth-rows", "compare-knn-k", "train-kernel",
                                  "compare-kernel", "train-dropout", "compare-dropout",
                                  "train-batch-size", "compare-batch-size"])
    def test_removed_flag_is_a_usage_error(self, tmp_path, synth_csv, capsys, argv):
        out = tmp_path / "none"
        with pytest.raises(SystemExit) as stop:
            main([*argv, "--csv", str(synth_csv), "--out-dir", str(out)])
        assert stop.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_csv_is_data_error(self, tmp_path):
        out = tmp_path / "x"
        assert main(["train", "--csv", str(tmp_path / "nope.csv"),
                     "--out-dir", str(out)]) == 3
        assert not out.exists()

    def test_cell_over_the_csv_field_limit_is_data_error(self, tmp_path, trained, capsys):
        table = synth_generate(20, seed=7)
        stamps = ["a" * (csv.field_size_limit() + 1)] + [f"t{i}" for i in range(1, 20)]
        path, out = tmp_path / "long.csv", tmp_path / "out"
        write_csv(Table(table.features, stamps), path)
        code = main(["predict", "--model", str(trained / "model.json"), "--csv", str(path),
                     "--out-dir", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"data error: {path}: field larger than field limit" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["compare", "--trees", "0"], "n_trees must be >= 1, got 0", id="trees-0"),
        pytest.param(["train", "--blocks", "0"], "blocks must be >= 1, got 0", id="blocks-0"),
        pytest.param(["train", "--max-epochs", "0"], "max_epochs must be >= 1, got 0",
                     id="max-epochs-0"),
        pytest.param(["train", "--window", "0"], "window must be >= 1, got 0", id="window-0"),
        pytest.param(["train", "--lr", "-1"], "initial_lr must be positive, got -1.0",
                     id="lr--1"),
    ])
    def test_bad_setting_rejected_before_any_work(self, tmp_path, synth_csv, capsys, argv,
                                                  message):
        out = tmp_path / "none"
        # the flag under test comes last, so it overrides the fast defaults
        code = main([argv[0], "--csv", str(synth_csv), "--out-dir", str(out),
                     "--max-epochs", "1", *FAST_NET, *argv[1:]])
        assert code == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert message in printed.err
        assert not out.exists()

    # flags and config lines never read as these; a Python caller can still pass them
    @pytest.mark.parametrize("field, value", [("initial_lr", float("nan")),
                                              ("initial_lr", float("inf"))])
    def test_non_finite_setting_is_refused_by_validate(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            RunConfig(csv="data.csv", **{field: value}).validate()

    @pytest.mark.parametrize("case", ["broadcastable-shape", "wrong-shape", "missing-key",
                                      "not-base64", "stray-character", "byte-count"])
    def test_model_parameters_must_match_the_architecture(self, tmp_path, synth_csv, trained,
                                                          capsys, case):
        payload = json.loads((trained / "model.json").read_text())
        params = payload["network"]["params"]
        if case == "missing-key":
            key = "head.out.bias"
            del params[key]
        elif case == "not-base64":
            key = "head.out.bias"
            params[key]["data"] = "@@@"
        elif case == "stray-character":
            # the base64 letters around it still decode to the right byte count
            key = "head.out.bias"
            params[key]["data"] = "!" + params[key]["data"]
        elif case == "byte-count":
            # one float64 short of the head.out.weight shape
            key = "head.out.weight"
            data = base64.b64decode(params[key]["data"])[:-8]
            params[key]["data"] = base64.b64encode(data).decode("ascii")
        else:
            key = "block0.norm.gain"
            n = 1 if case == "broadcastable-shape" else 2
            data = base64.b64encode(np.full(n, 0.5, dtype="<f8").tobytes()).decode("ascii")
            params[key] = {"shape": [n], "data": data}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "x"
        assert main(["predict", "--model", str(bad), "--csv", str(synth_csv),
                     "--out-dir", str(out)]) == 3
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_model_parameter_is_schema_error(self, tmp_path, synth_csv, trained,
                                                        capsys, value):
        payload = json.loads((trained / "model.json").read_text())
        entry = payload["network"]["params"]["head.out.bias"]
        bias = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
        bias[0] = value
        entry["data"] = base64.b64encode(bias.tobytes()).decode("ascii")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "x"
        assert main(["predict", "--model", str(bad), "--csv", str(synth_csv),
                     "--out-dir", str(out)]) == 3
        assert "head.out.bias: parameter values must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_scaler_refused_before_the_network_is_built(self, tmp_path, synth_csv, trained,
                                                            capsys, monkeypatch):
        payload = json.loads((trained / "model.json").read_text())
        payload["scaler"]["feature_std"] = [0.0] * 13
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))

        def build(*args):
            raise AssertionError("Network.build ran before the scaler was checked")

        monkeypatch.setattr(Network, "build", build)
        out = tmp_path / "x"
        assert main(["predict", "--model", str(bad), "--csv", str(synth_csv),
                     "--out-dir", str(out)]) == 3
        assert "feature_std must hold 13 finite" in capsys.readouterr().err
        assert not out.exists()

    def test_model_that_is_not_json_is_schema_error(self, tmp_path, synth_csv, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": ')
        out = tmp_path / "x"
        assert main(["predict", "--model", str(bad), "--csv", str(synth_csv),
                     "--out-dir", str(out)]) == 3
        assert f"{bad} is not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_is_data_error(self, tmp_path, synth_csv):
        assert main(["predict", "--model", str(tmp_path / "no.json"),
                     "--csv", str(synth_csv), "--out-dir", str(tmp_path / "x")]) == 3

    @staticmethod
    def assert_schema_error_without_key(tmp_path, synth_csv, trained, capsys, outer, key):
        payload = json.loads((trained / "model.json").read_text())
        del (payload[outer] if outer else payload)[key]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "x"
        assert main(["predict", "--model", str(bad), "--csv", str(synth_csv),
                     "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert repr(key) in err and str(bad) in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["scaler", "feature_names", "horizon", "window", "network"])
    def test_model_missing_a_top_level_key_is_schema_error(self, tmp_path, synth_csv, trained,
                                                           capsys, key):
        self.assert_schema_error_without_key(tmp_path, synth_csv, trained, capsys, None, key)

    @pytest.mark.parametrize("outer, key", [("scaler", "feature_mean"), ("network", "config")])
    def test_model_missing_a_nested_key_is_schema_error(self, tmp_path, synth_csv, trained,
                                                        capsys, outer, key):
        self.assert_schema_error_without_key(tmp_path, synth_csv, trained, capsys, outer, key)

    @pytest.mark.parametrize("outer, key, value, message", [
        pytest.param(None, "window", 8.5, "window must be an int >= 1, got 8.5", id="window-8.5"),
        pytest.param(None, "window", True, "window must be an int >= 1, got True",
                     id="window-true"),
        pytest.param(None, "window", 7, "window 7 differs from the network's 6",
                     id="window-differs"),
        pytest.param(None, "horizon", "a", "horizon must be 1, got 'a'", id="horizon-a"),
        pytest.param(None, "horizon", 0, "horizon must be 1, got 0", id="horizon-0"),
        pytest.param(None, "horizon", 2, "horizon must be 1, got 2", id="horizon-2"),
        pytest.param(None, "scaler", [], "scaler must be an object, got list", id="scaler-list"),
        pytest.param("scaler", "feature_mean", "x", "could not convert string to float",
                     id="feature-mean-x"),
        pytest.param("scaler", "feature_std", [1.0] * 12, "feature_std must hold 13 finite",
                     id="feature-std-12"),
        pytest.param("scaler", "feature_std", [0.0] * 13, "feature_std must hold 13 finite",
                     id="feature-std-zero"),
        pytest.param("scaler", "target_mean", float("inf"), "target_mean must be finite",
                     id="target-mean-inf"),
        pytest.param("scaler", "target_mean", 10 ** 400, "int too large to convert to float",
                     id="target-mean-huge-int"),
        pytest.param("scaler", "target_std", 0.0, "target_std finite and positive",
                     id="target-std-zero"),
    ])
    def test_model_value_out_of_range_is_schema_error(self, tmp_path, synth_csv, trained,
                                                      capsys, outer, key, value, message):
        payload = json.loads((trained / "model.json").read_text())
        (payload[outer] if outer else payload)[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "x"
        assert main(["predict", "--model", str(bad), "--csv", str(synth_csv),
                     "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert message in err and str(bad) in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda net: net["config"].update(blocks="2"),
                     "network config blocks must be int, got '2'", id="config-blocks-str"),
        pytest.param(lambda net: net["config"].update(blocks=True),
                     "network config blocks must be int, got True", id="config-blocks-true"),
        pytest.param(lambda net: net["config"].pop("window"), "missing key 'window'",
                     id="config-window-missing"),
        pytest.param(lambda net: net["params"]["head.out.bias"].update(shape="a"),
                     "head.out.bias: shape must be a list of ints, got 'a'", id="param-shape-a"),
        pytest.param(lambda net: net["params"]["head.out.bias"].update(data=5),
                     "head.out.bias: data must be a base64 string, got 5", id="param-data-5"),
        pytest.param(lambda net: net.update(params=[]),
                     "network params must be an object, got list", id="params-list"),
    ])
    def test_network_value_of_the_wrong_type_is_schema_error(self, tmp_path, synth_csv, trained,
                                                             capsys, edit, message):
        payload = json.loads((trained / "model.json").read_text())
        edit(payload["network"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "x"
        assert main(["predict", "--model", str(bad), "--csv", str(synth_csv),
                     "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert message in err and str(bad) in err
        assert not out.exists()

    # each would make Network.build allocate tens of megabytes or more
    @pytest.mark.parametrize("field, value", [("mlp_hidden", 200000), ("blocks", 2000),
                                              ("kernel", 20001), ("conv_filters", 20000),
                                              ("gru_units", 3000)])
    def test_oversized_network_config_refused_before_building(self, tmp_path, synth_csv,
                                                              trained, capsys, field, value):
        payload = json.loads((trained / "model.json").read_text())
        payload["network"]["config"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "x"
        tracemalloc.start()
        try:
            code = main(["predict", "--model", str(bad), "--csv", str(synth_csv),
                         "--out-dir", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert re.search(rf"network config \(.*\b{field} {value}[,)]", capsys.readouterr().err)
        assert not out.exists()
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("command, setting, message", [
        pytest.param("explain", ["--window", "12"], "window is 12, the model's is 6",
                     id="explain-window-flag"),
        pytest.param("compare", ["--window", "8"], "window is 8, the model's is 6",
                     id="compare-window-flag"),
        pytest.param("predict", "window = 7", "window is 7, the model's is 6",
                     id="predict-window-file"),
        # every model forecasts one step ahead; no setting names another horizon
        pytest.param("predict", "horizon = 2", "unknown config key 'horizon'",
                     id="predict-horizon-file"),
    ])
    def test_window_or_horizon_other_than_the_models_is_config_error(
            self, tmp_path, synth_csv, trained, capsys, command, setting, message):
        out = tmp_path / "x"
        argv = [command, "--model", str(trained / "model.json"), "--csv", str(synth_csv),
                "--out-dir", str(out)]
        if isinstance(setting, str):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(setting + "\n")
            setting = ["--config", str(cfg)]
        assert main(argv + setting) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_training_is_numeric_error(self, tmp_path, synth_csv, capsys):
        # an absurd learning rate blows the parameters up after one step
        code = main(["train", "--csv", str(synth_csv), "--out-dir", str(tmp_path),
                     "--max-epochs", "3", "--lr", "1e300", *FAST_NET])
        assert code == 4
        assert "numeric error: epoch 1: training loss is nan" in capsys.readouterr().err

    def test_model_of_the_previous_format_is_schema_error(self, tmp_path, synth_csv, trained,
                                                           capsys):
        payload = json.loads((trained / "model.json").read_text())
        payload["format"] = "gridcast-model-v1"
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(payload))
        assert main(["predict", "--model", str(old), "--csv", str(synth_csv),
                     "--out-dir", str(tmp_path / "x")]) == 3
        assert "not a gridcast-model-v2 file" in capsys.readouterr().err
        # valid JSON that is not an object at all
        old.write_text("[]")
        assert main(["predict", "--model", str(old), "--csv", str(synth_csv),
                     "--out-dir", str(tmp_path / "x")]) == 3
        assert "not a gridcast-model-v2 file" in capsys.readouterr().err

    # in {tmp}, "file" is a file, "dir" a directory holding the directory x.csv.meta.json,
    # data.csv a synthetic table, bad.cfg and bad.csv are not UTF-8, and bom.csv is a
    # header of two columns after a UTF-8 byte-order mark
    @pytest.mark.parametrize("argv, code, named", [
        pytest.param("train --csv {tmp}/data.csv --config {tmp}/nope.cfg --out-dir {tmp}/out", 2,
                     "{tmp}/nope.cfg", id="config-missing"),
        pytest.param("train --csv {tmp}/data.csv --config {tmp}/dir --out-dir {tmp}/out", 2,
                     "{tmp}/dir", id="config-dir"),
        pytest.param("train --csv {tmp}/data.csv --config {tmp}/bad.cfg --out-dir {tmp}/out", 2,
                     "{tmp}/bad.cfg", id="config-not-utf8"),
        pytest.param("train --csv {tmp}/bad.csv --out-dir {tmp}/out", 3, "{tmp}/bad.csv",
                     id="csv-not-utf8"),
        pytest.param("train --csv {tmp}/data.csv --out-dir {tmp}/file", 2, "{tmp}/file",
                     id="out-dir-is-file"),
        pytest.param("train --csv {tmp}/data.csv --out-dir {tmp}/file/out", 2, "{tmp}/file/out",
                     id="out-dir-under-file"),
        pytest.param("synth --rows 10 --out {tmp}/file/synth.csv", 2, "{tmp}/file",
                     id="synth-out-under-file"),
        pytest.param("synth --rows 10 --out {tmp}/dir", 2, "{tmp}/dir", id="synth-out-is-dir"),
        pytest.param("synth --rows 10 --out {tmp}/dir/x.csv", 2, "{tmp}/dir/x.csv.meta.json",
                     id="synth-meta-is-dir"),
        pytest.param("predict --model {tmp}/dir --csv {tmp}/bad.csv --out-dir {tmp}/out", 3,
                     "cannot read model file {tmp}/dir", id="model-is-dir"),
        # past the byte-order mark, the first missing column is the third
        pytest.param("train --csv {tmp}/bom.csv --out-dir {tmp}/out", 3,
                     "{tmp}/bom.csv: missing column 'battery_kwh'", id="csv-bom-header"),
    ])
    def test_unusable_path_is_named_without_a_traceback(self, tmp_path, argv, code, named):
        (tmp_path / "file").write_text("x")
        (tmp_path / "dir" / "x.csv.meta.json").mkdir(parents=True)
        write_csv(synth_generate(20, seed=1), tmp_path / "data.csv")
        (tmp_path / "bad.cfg").write_bytes(b"\xff\xfe seed = 1\n")
        (tmp_path / "bad.csv").write_bytes(b"pv_kw\n\xff\n")
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbfpv_kw,battery_kw\n")
        before = sorted(tmp_path.rglob("*"))
        # a subprocess, so an escaped exception shows as the traceback it prints
        done = subprocess.run(
            [sys.executable, "-m", "gridcast.cli", *(a.format(tmp=tmp_path) for a in argv.split())],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")}, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == code, done.stderr
        assert named.format(tmp=tmp_path) in done.stderr
        assert "Traceback" not in done.stderr
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "file").read_text() == "x"

    @pytest.mark.parametrize("row", [
        pytest.param(1, id="1e308-first-row"),
        pytest.param(1000, id="1e308-row-mid-train"),
    ])
    def test_csv_row_of_1e308_is_data_error(self, tmp_path, capsys, row):
        # data row ``row`` set to 1e308 overflows the training mean and std; the first
        # placement used to train on the non-finite scaler and exit 0, the second to
        # stop at a nan loss with exit 4
        path = tmp_path / "big.csv"
        assert main(["synth", "--rows", "2000", "--seed", "1", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        lines[row] = ",".join(["1e308"] * 13)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["train", "--csv", str(path), "--max-epochs", "1", "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "'pv_kw'" in err and "'reopt_llc'" in err
        assert "training mean or std is not finite" in err
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.txt"]

    def test_test_split_row_of_1e308_is_numeric_error(self, tmp_path, capsys, huge_test_row_csv):
        # data row 1990 lies in the test split, which the scaler never sees: the model
        # trains, and the forecast of its test windows overflows
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--csv", str(huge_test_row_csv), "--max-epochs", "1",
                         "--out-dir", str(out)])
        assert code == 4
        assert caught == []
        assert "not finite" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.txt", "model.json",
                                                         "trainlog.csv"]

    @pytest.mark.parametrize("argv, windows", [
        # --split all: the row is data row 1989, in windows 1984-1989 of the chunk from 1920
        pytest.param(["predict"], "windows 1920 to 1994", id="predict"),
        # every test window is explained, in a seeded order; the first forecast takes all
        pytest.param(["explain", "--windows", "1000"], r"windows \d+ to \d+", id="explain"),
    ])
    def test_forecast_overflow_is_numeric_error(self, tmp_path, capsys, trained,
                                                huge_test_row_csv, argv, windows):
        out = tmp_path / "out"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--model", str(trained / "model.json"),
                         "--csv", str(huge_test_row_csv), "--out-dir", str(out)])
        assert code == 4
        assert caught == []
        err = capsys.readouterr().err
        assert re.match(f"numeric error: the forecast of {windows} is not finite", err)
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.txt"]

    def test_bad_schema_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["train", "--csv", str(bad), "--out-dir", str(tmp_path / "x")]) == 3


@pytest.fixture(scope="module")
def huge_test_row_csv(tmp_path_factory):
    """The 2,000-row ``synth --seed 1`` CSV with data row 1990 set to 1e308 in every
    column; the row lies in the test split."""
    path = tmp_path_factory.mktemp("huge") / "big.csv"
    assert main(["synth", "--rows", "2000", "--seed", "1", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    lines[1990] = ",".join(["1e308"] * 13)
    path.write_text("\n".join(lines) + "\n")
    return path


def json_paths(node, path=()):
    """The path (keys and list indices) of every value inside a JSON document."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from json_paths(child, path + (key,))


# what a mutation writes in place of a value; a large int as wide as any field
MUTANTS = [None, "x", [], {}, True, float("nan"), float("inf"), -float("inf"), 0, -1, -2.5,
           10 ** 12]


class TestModelFileMutations:
    """One edit anywhere in a trained ``model.json`` never crashes ``predict``."""

    @pytest.fixture(scope="class")
    def model(self, trained):
        payload = json.loads((trained / "model.json").read_text())
        return payload, [path for path in json_paths(payload) if path]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_predict_exits_0_or_3_and_a_refused_file_leaves_no_out_dir(self, model, synth_csv,
                                                                        data):
        original, paths = model
        payload = json.loads(json.dumps(original))
        *parent_path, key = data.draw(st.sampled_from(paths), label="path")
        parent = payload
        for step in parent_path:
            parent = parent[step]
        edit = data.draw(st.sampled_from(["delete", "truncate", "replace"]), label="edit")
        if edit == "delete":
            del parent[key]
        elif edit == "truncate" and isinstance(parent[key], (list, str)):
            parent[key] = parent[key][:len(parent[key]) // 2]
        else:
            parent[key] = data.draw(st.sampled_from(MUTANTS), label="value")
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "model.json", Path(tmp) / "out"
            path.write_text(json.dumps(payload))
            try:
                load_model(path)
                refused = False
            except GridcastError:
                refused = True
            code = main(["predict", "--model", str(path), "--csv", str(synth_csv),
                         "--out-dir", str(out)])
            assert code in (0, 3)
            if refused:
                assert code == 3
                assert not out.exists()


# what a byte mutation writes: delimiters, line ends, quotes, parts of numbers,
# special values, a byte-order mark and bytes that are not UTF-8
_MUTANT_BYTES = [b",", b"\n", b"\r", b"\r\n", b'"', b" ", b"=", b"#", b"-", b"e", b".", b"9",
                 b"_", b"\x00", b"\xff", "é".encode(), "١".encode(), b"nan", b"inf", b"1e308",
                 b"\xef\xbb\xbf"]


def mutate_bytes(data, original: bytes, max_edits: int) -> bytes:
    """``original`` after 1 to ``max_edits`` inserts, replacements or deletions."""
    out = bytearray(original)
    for _ in range(data.draw(st.integers(1, max_edits), label="edits")):
        at = data.draw(st.integers(0, len(out)), label="at")
        edit = data.draw(st.sampled_from(["insert", "replace", "delete"]), label="edit")
        chunk = data.draw(st.sampled_from(_MUTANT_BYTES) | st.binary(min_size=1, max_size=2),
                          label="bytes")
        if edit == "insert":
            out[at:at] = chunk
        elif edit == "replace":
            out[at:at + 1] = chunk
        else:
            out[at:at + data.draw(st.integers(1, 8), label="length")] = b""
    return bytes(out)


# settings whose size sets the network's: a mutation that makes one large would
# test the host's memory, not the program's checks
_SIZE_KEYS = ("window", "blocks", "conv_filters", "gru_units", "attn_dim", "mlp_hidden")


class TestInputFileMutations:
    """A few edited bytes in a CSV or a config file never crash a command."""

    @pytest.fixture(scope="class")
    def small_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("small") / "small.csv"
        table = synth_generate(20, seed=7)
        write_csv(Table(table.features, [f"2020-01-01T{i:02d}" for i in range(20)]), path)
        return path.read_bytes()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_predict_on_an_edited_csv_exits_0_3_or_4(self, small_csv, trained, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(mutate_bytes(data, small_csv, 3))
            with contextlib.redirect_stdout(None), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(["predict", "--model", str(trained / "model.json"),
                             "--csv", str(path), "--out-dir", str(Path(tmp) / "out")])
            assert code in (0, 3, 4)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_train_with_an_edited_config_exits_0_2_3_or_4(self, synth_csv, data):
        original = ("window = 6\ntask = regression\nblocks = 1\n"
                    "conv_filters = 3\ngru_units = 3\nattn_dim = 3\n"
                    "mlp_hidden = 4\ninitial_lr = 0.001  # Adam's first step\nseed = 3\n").encode()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.cfg"
            path.write_bytes(mutate_bytes(data, original, 3))
            try:
                entries = cli.read_config_file(path)
            except ParameterError:
                entries = {}
            assume(all(entries.get(key) is None or entries[key] <= 64 for key in _SIZE_KEYS))
            with contextlib.redirect_stdout(None), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(["train", "--config", str(path), "--csv", str(synth_csv),
                             "--max-epochs", "1", "--out-dir", str(Path(tmp) / "out")])
            assert code in (0, 2, 3, 4)


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

    def test_constant_targets_write_predictions_without_r2(self, tmp_path, synth_csv, trained,
                                                           capsys):
        # a night-only slice: generator_kw is 0 on every row, so r2 is undefined
        rows = list(csv.DictReader(synth_csv.open()))[:40]
        night = tmp_path / "night.csv"
        with night.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({**row, "generator_kw": "0.0"} for row in rows)
        out = tmp_path / "preds"
        assert main(["predict", "--model", str(trained / "model.json"), "--csv", str(night),
                     "--out-dir", str(out)]) == 0
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        # one window per row after the first 6, plus the trailing one
        assert len(lines) == 1 + 40 - 6 + 1
        assert {ln.split(",")[1] for ln in lines[1:-1]} == {"0.0"}
        assert "r2" not in capsys.readouterr().out

    def test_timestamps_holding_commas_stay_one_cell(self, tmp_path, synth_csv, trained):
        with open(synth_csv, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        stamps = [f"Jan {i}, 2020" for i in range(len(rows) - 1)]
        dated = tmp_path / "dated.csv"
        with open(dated, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([["timestamp"] + rows[0]]
                                     + [[stamp] + row for stamp, row in zip(stamps, rows[1:])])
        out = tmp_path / "preds"
        assert main(["predict", "--model", str(trained / "model.json"), "--csv", str(dated),
                     "--out-dir", str(out)]) == 0
        with open(out / "predictions.csv", encoding="utf-8", newline="") as fh:
            cells = list(csv.reader(fh))
        assert cells[0] == ["index", "timestamp", "real", "predicted"]
        assert {len(row) for row in cells} == {4}
        # the trailing window's target lies past the data and has no timestamp
        assert [row[1] for row in cells[1:-1]] == [stamps[int(row[0])] for row in cells[1:-1]]
        assert cells[-1][1] == ""

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


class TestModelFile:
    def test_save_load_save_is_byte_identical(self, tmp_path, trained):
        net, scaler, meta = load_model(trained / "model.json")
        cfg = RunConfig(task=meta["task"], window=meta["window"])
        save_model(tmp_path / "model.json", net, scaler, cfg)
        assert (tmp_path / "model.json").read_bytes() == (trained / "model.json").read_bytes()

    @staticmethod
    def with_conv_activation(tmp_path, trained, value) -> Path:
        """The trained model file with the ``conv_activation`` key older files hold."""
        payload = json.loads((trained / "model.json").read_text())
        payload["network"]["config"]["conv_activation"] = value
        path = tmp_path / f"{value}.json"
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        return path

    def test_older_file_naming_relu_predicts_the_same_bytes(self, tmp_path, synth_csv, trained):
        old = self.with_conv_activation(tmp_path, trained, "relu")
        for model, out in ((trained / "model.json", "new"), (old, "old")):
            assert main(["predict", "--model", str(model), "--csv", str(synth_csv),
                         "--out-dir", str(tmp_path / out)]) == 0
        assert (tmp_path / "old" / "predictions.csv").read_bytes() == \
            (tmp_path / "new" / "predictions.csv").read_bytes()

    @pytest.mark.parametrize("value", ["identity", None], ids=["identity", "null"])
    def test_older_file_naming_another_activation_is_schema_error(self, tmp_path, synth_csv,
                                                                   trained, capsys, value):
        old = self.with_conv_activation(tmp_path, trained, value)
        out = tmp_path / "x"
        assert main(["predict", "--model", str(old), "--csv", str(synth_csv),
                     "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"network config conv_activation must be 'relu', got {value!r}" in err
        assert str(old) in err
        assert not out.exists()


class TestForecast:
    def test_slices_give_the_bits_of_one_whole_predict(self, trained):
        net, scaler, meta = load_model(trained / "model.json")
        windows = RngState(3).uniform(0, 100, (INFERENCE_CHUNK * 2 + 45, meta["window"], 13))
        whole = scaler.unscale_targets(predict_all(net, scaler.scale_inputs(windows)))
        assert np.array_equal(forecast(net, scaler, windows), whole)


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
        assert lines[5:] == [f"{name},not reproduced,not reproduced,not reproduced"
                             for name in ("SVR", "XGB")]

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
        model = str(trained / "model.json")
        code = main(["compare", "--csv", str(synth_csv), "--seed", "11", "--model", model,
                     "--out-dir", str(out), "--trees", "4", "--window", "6"])
        assert code == 0
        # predict --split test scores the same windows with the same model
        assert main(["predict", "--model", model, "--csv", str(synth_csv), "--split", "test",
                     "--seed", "11", "--out-dir", str(tmp_path / "pred")]) == 0
        with open(tmp_path / "pred" / "predictions.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        rep = regression_metrics([float(row["predicted"]) for row in rows],
                                 [float(row["real"]) for row in rows])
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[1] == f"CNN-GRU-Attention,{rep.mae:.2f},{rep.rmse:.2f},{100 * rep.r2:.2f}"

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

    def test_worker_processes_write_the_serial_table(self, tmp_path, synth_csv, trained,
                                                     monkeypatch):
        tables = []
        for workers in (1, 2):
            monkeypatch.setattr(baselines, "usable_cpus", lambda: workers)
            out = tmp_path / f"cmp{workers}"
            assert main(["compare", "--model", str(trained / "model.json"), "--csv",
                         str(synth_csv), "--out-dir", str(out), "--trees", "10"]) == 0
            tables.append((out / "compare.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_worker_processes_print_each_line_once(self, tmp_path, synth_csv, trained,
                                                   monkeypatch):
        # a line still in the log's buffer when the children fork, as perfbench's log
        # holds earlier runs' lines: a child that flushed on exit would write it again
        monkeypatch.setattr(baselines, "usable_cpus", lambda: 2)
        out = tmp_path / "cmp"
        with open(tmp_path / "log.txt", "w", encoding="utf-8") as log:
            log.write("before compare\n")
            with contextlib.redirect_stdout(log):
                assert main(["compare", "--model", str(trained / "model.json"), "--csv",
                             str(synth_csv), "--out-dir", str(out), "--trees", "4"]) == 0
        lines = (tmp_path / "log.txt").read_text().splitlines()
        assert lines[0] == "before compare" and lines[-1].startswith("comparison table in")
        assert len(lines) == len(set(lines)) > 5

    def test_classification_task_rejected(self, tmp_path, synth_csv):
        assert main(["compare", "--csv", str(synth_csv), "--task",
                     "classification", "--out-dir", str(tmp_path / "x")]) == 2

    def test_knn_k_above_the_training_windows_refused_before_training(self, tmp_path, capsys):
        # 20 rows make 12 windows of 8, the most that split_indices refuses; one more
        # window leaves KNN_K or more for KNN to train on
        assert split_indices(13)["train"].size >= baselines.KNN_K
        path = tmp_path / "small.csv"
        assert main(["synth", "--rows", "20", "--seed", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        out = tmp_path / "cmpk"
        code = main(["compare", "--csv", str(path), "--out-dir", str(out),
                     "--max-epochs", "1"])
        assert code == 3
        printed = capsys.readouterr()
        assert printed.out == ""
        assert "val split is empty with n=12" in printed.err
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.txt"]

    def test_classification_model_refused_before_out_dir(self, tmp_path, synth_csv, classified,
                                                         capsys):
        model = classified / "model.json"
        out = tmp_path / "x"
        assert main(["compare", "--csv", str(synth_csv), "--model", str(model),
                     "--out-dir", str(out)]) == 2
        assert f"model {model} has head 'classification'" in capsys.readouterr().err
        assert not out.exists()

    def test_one_training_window_refused_before_training(self, tmp_path, capsys):
        # 11 rows make 3 windows of 8: 2 train in all, of which no whole window validates
        path = tmp_path / "tiny.csv"
        assert main(["synth", "--rows", "11", "--seed", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        out = tmp_path / "cmp1"
        code = main(["compare", "--csv", str(path), "--max-epochs", "1",
                     "--out-dir", str(out)])
        assert code == 3
        printed = capsys.readouterr()
        assert printed.out == ""
        assert "val split is empty with n=3" in printed.err
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.txt"]


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
        # the json's mean |shapley| per feature, most important first
        assert lines[0] == "feature,mean_abs_shapley"
        ranked = sorted(zip(payload["feature_names"], payload["mean_abs_shapley"]),
                        key=lambda pair: -pair[1])
        assert [(name, float(score)) for name, score in
                (line.split(",") for line in lines[1:])] == ranked
        assert max(abs(g) for g in payload["efficiency_gaps"]) < 1e-6

    def test_exact_on_thirteen_features(self, tmp_path, synth_csv, trained):
        out = tmp_path / "x"
        code = main(["explain", "--model", str(trained / "model.json"),
                     "--csv", str(synth_csv), "--exact", "--windows", "2",
                     "--out-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "shapley.json").read_text())
        assert payload["method"] == "exact"
        assert payload["stderr"] is None
        assert len(payload["feature_names"]) == 13
        assert max(abs(g) for g in payload["efficiency_gaps"]) <= 1e-9

    @pytest.mark.parametrize("flag, value", [
        pytest.param("--windows", "0", id="0"),
        pytest.param("--windows", "-1", id="-1"),
        pytest.param("--perms", "0", id="perms-0"),
        pytest.param("--perms", "-1", id="perms--1"),
    ])
    def test_windows_below_one_rejected_before_out_dir(self, tmp_path, synth_csv, trained,
                                                        capsys, flag, value):
        out = tmp_path / "none"
        code = main(["explain", "--model", str(trained / "model.json"),
                     "--csv", str(synth_csv), flag, value,
                     "--out-dir", str(out)])
        assert code == 2
        field = {"--windows": "explain_windows", "--perms": "explain_perms"}[flag]
        assert f"{field} must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_scores_windows_like_predict_on_another_regime(self, tmp_path, synth_csv, trained,
                                                             capsys):
        # columns at 0.9 of the reference values sit at other means: scaling them with
        # the explain CSV's own statistics would disagree with predict
        scaled = tmp_path / "scaled.csv"
        write_csv(Table(synth_generate(260, 8).features * 0.9), scaled)
        model = str(trained / "model.json")
        assert main(["predict", "--model", model, "--csv", str(scaled), "--split", "test",
                     "--out-dir", str(tmp_path / "pred")]) == 0
        capsys.readouterr()
        assert main(["explain", "--model", model, "--csv", str(scaled), "--seed", "4",
                     "--windows", "3", "--perms", "6", "--out-dir", str(tmp_path / "exp")]) == 0
        chosen = [int(w) for w in re.findall(r"^window (\d+):", capsys.readouterr().out, re.M)]
        assert len(chosen) == 3
        with open(tmp_path / "pred" / "predictions.csv", encoding="utf-8") as fh:
            predicted = [float(row["predicted"]) for row in csv.DictReader(fh)]
        payload = json.loads((tmp_path / "exp" / "shapley.json").read_text())
        for k, i in enumerate(chosen):
            assert payload["predictions"][k] == pytest.approx(predicted[i], rel=1e-12, abs=0)

        # the background is the model's mean training row, whatever the CSV
        assert main(["explain", "--model", model, "--csv", str(synth_csv), "--seed", "4",
                     "--windows", "1", "--perms", "2", "--out-dir", str(tmp_path / "own")]) == 0
        net, scaler, meta = load_model(model)
        mean_row = np.broadcast_to(scaler.feature_mean, (1, meta["window"], 13))
        expected = float(forecast(net, scaler, mean_row)[0])
        for out in ("exp", "own"):
            payload = json.loads((tmp_path / out / "shapley.json").read_text())
            assert payload["baseline_prediction"] == expected

    def test_explain_and_predict_split_do_not_refit_a_scaler(self, tmp_path, synth_csv,
                                                             trained):
        # a constant column would make a scaler fitted on this CSV warn;
        # both commands apply only the model's own scaler
        with open(synth_csv, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("pv_kw")
        for row in rows[1:]:
            row[col] = "5.0"
        flat = tmp_path / "flat.csv"
        with open(flat, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        model = str(trained / "model.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["explain", "--model", model, "--csv", str(flat), "--windows", "2",
                         "--perms", "2", "--out-dir", str(tmp_path / "exp")]) == 0
            assert main(["predict", "--model", model, "--csv", str(flat), "--split", "test",
                         "--out-dir", str(tmp_path / "pred")]) == 0
        assert not [w for w in caught if "constant feature" in str(w.message)]

    def test_rerun_byte_identical(self, tmp_path, synth_csv, trained):
        out = tmp_path / "expdet"
        argv = ["explain", "--model", str(trained / "model.json"),
                "--csv", str(synth_csv), "--seed", "4", "--out-dir", str(out),
                "--windows", "2", "--perms", "6"]
        assert main(argv) == 0
        first = read_bytes_map(out)
        assert main(argv) == 0
        assert read_bytes_map(out) == first


# train, compare and explain one after another, in one process, under ``sys.argv[1]``
_THREE_COMMANDS = """
import sys
from gridcast.cli import main
out, data = sys.argv[1], sys.argv[2]
for argv in (["train", "--csv", data, "--max-epochs", "2", "--out-dir", out + "/train"],
             ["compare", "--csv", data, "--max-epochs", "2", "--trees", "10",
              "--out-dir", out + "/compare"],
             ["explain", "--csv", data, "--model", out + "/train/model.json",
              "--windows", "20", "--out-dir", out + "/explain"]):
    assert main(argv) == 0, argv
"""


class TestBlasThreads:
    def test_one_and_two_blas_threads_write_the_same_bytes(self, tmp_path):
        data = tmp_path / "data.csv"
        assert main(["synth", "--rows", "400", "--seed", "5", "--out", str(data)]) == 0
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            # a subprocess, since OpenBLAS reads its thread count when numpy loads
            done = subprocess.run(
                [sys.executable, "-c", _THREE_COMMANDS, str(out), str(data)],
                env={**os.environ, "PYTHONPATH": str(REPO / "src"),
                     "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True,
                timeout=120)
            assert done.returncode == 0, done.stderr
            # effective_config.txt and the printed lines name the out-dir
            files = {p.relative_to(out): p.read_bytes().replace(str(out).encode(), b"OUT")
                     for p in out.rglob("*") if p.is_file()}
            runs[threads] = files, done.stdout.replace(str(out), "OUT")
        assert len(runs["1"][0]) == 12   # 4 from train, 5 from compare, 3 from explain
        assert runs["1"] == runs["2"]
