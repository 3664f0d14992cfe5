"""Command-line pipeline: synth | train | compare | predict | explain.

Every command resolves its settings in the same order (dataclass
defaults, then ``--config`` file entries, then explicit flags), dumps
the effective configuration next to its outputs, and derives all
randomness from ``--seed``, so rerunning a command with the same flags
reproduces every output byte for byte.

Exit codes: 0 success, 2 configuration error, 3 data/schema error,
4 numeric error, 5 other expected failure, 1 unexpected crash.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import data as dat
from .baselines import BayesianRidge, ForestConfig, RandomForest, flatten_windows, knn_predict_batch
from .errors import DataError, GridcastError, NumericError, ParameterError, SchemaError, SizeError
from .explain import attribute, write_attribution_csv
from .metrics import (ClassificationReport, RegressionReport, classification_metrics,
                      regression_metrics, write_comparison_csv, write_roc_csv)
from .network import Network, NetworkConfig
from .tensor import RngState
from .train import TrainConfig, fit, predict_all

MODEL_FORMAT = "gridcast-model-v1"
NOT_REPRODUCED = ("SVR", "XGB")


@dataclass
class RunConfig:
    """Flat union of data, architecture, training, and reporting options."""

    # data source (exactly one of csv / synth_rows)
    csv: str | None = None
    synth_rows: int | None = None
    synth_regime: str = "default"
    on_missing: str = "reject"
    window: int = 8
    horizon: int = 1
    train_frac: float = 0.8
    val_frac: float = 0.1
    shuffle_split: bool = False
    validate_on_test: bool = False
    # task & architecture
    task: str = "regression"
    blocks: int = 2
    conv_filters: int = 16
    kernel: int = 3
    gru_units: int = 16
    attn_dim: int = 16
    mlp_hidden: int = 32
    dropout_rate: float = 0.2
    conv_activation: str = "relu"
    # training
    max_epochs: int = 10000
    early_stop_patience: int = 300
    initial_lr: float = 0.001
    lr_patience: int = 100
    batch_size: int = 32
    # baselines
    knn_k: int = 5
    n_trees: int = 100
    forest_depth: int = 12
    ridge_alpha: float = 1e-6
    # explanation
    explain_windows: int = 100
    explain_perms: int = 50
    explain_exact: bool = False
    # shared
    seed: int = 0
    out_dir: str = "out"

    def validate(self):
        problems = []
        if (self.csv is None) == (self.synth_rows is None):
            problems.append("exactly one data source required: set csv or synth_rows")
        if self.task not in ("regression", "classification"):
            problems.append(f"task must be regression or classification, got {self.task!r}")
        if problems:
            raise ParameterError("invalid run config: " + "; ".join(problems))

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(
            window=self.window,
            features=len(dat.SCHEMA),
            blocks=self.blocks,
            conv_filters=self.conv_filters,
            kernel=self.kernel,
            gru_units=self.gru_units,
            attn_dim=self.attn_dim,
            mlp_hidden=self.mlp_hidden,
            dropout_rate=self.dropout_rate,
            head=self.task,
            conv_activation=self.conv_activation,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            max_epochs=self.max_epochs,
            early_stop_patience=self.early_stop_patience,
            initial_lr=self.initial_lr,
            lr_patience=self.lr_patience,
            batch_size=self.batch_size,
            seed=self.seed,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, text: str):
    kind = _FIELD_TYPES[name]
    text = text.strip()
    if text.lower() in ("none", ""):
        return None
    if kind in ("bool",):
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ParameterError(f"config key {name}: cannot read {text!r} as a boolean")
    if kind in ("int", "int | None"):
        return int(text)
    if kind == "float":
        return float(text)
    return text


def read_config_file(path) -> dict:
    """Flat ``key = value`` text; '#' starts a comment."""
    entries = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{line_no}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ParameterError(f"{path}:{line_no}: unknown config key {key!r}")
        entries[key] = _coerce(key, value)
    return entries


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in read_config_file(args.config).items():
            setattr(cfg, key, value)
    for name in _FIELD_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    return cfg


def dump_effective_config(cfg: RunConfig, out_dir: Path):
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(RunConfig)]
    (out_dir / "effective_config.txt").write_text("\n".join(sorted(lines)) + "\n",
                                                  encoding="utf-8")


def _write_json(payload: dict, path: Path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


# --- dataset / model plumbing -------------------------------------------------


def load_table(cfg: RunConfig) -> dat.Table:
    if cfg.csv is not None:
        return dat.load_csv(cfg.csv, on_missing=cfg.on_missing)
    return dat.synth_generate(cfg.synth_rows, cfg.seed, cfg.synth_regime)


def build_splits(cfg: RunConfig, table: dat.Table):
    windows = dat.make_windows(table, cfg.window, cfg.horizon)
    return dat.split_and_scale(
        windows,
        train_frac=cfg.train_frac,
        val_frac_of_train=cfg.val_frac,
        shuffle=cfg.shuffle_split,
        seed=cfg.seed,
        validate_on_test=cfg.validate_on_test,
    )


def save_model(path, net: Network, scaler: dat.Scaler, cfg: RunConfig):
    payload = {
        "format": MODEL_FORMAT,
        "task": cfg.task,
        "window": cfg.window,
        "horizon": cfg.horizon,
        "feature_names": list(dat.SCHEMA),
        "scaler": scaler.to_dict(),
        "network": net.to_dict(),
    }
    _write_json(payload, Path(path))


def load_model(path):
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError:
        raise DataError(f"model file not found: {path}") from None
    except ValueError:
        raise SchemaError(f"{path} is not valid JSON") from None
    if payload.get("format") != MODEL_FORMAT:
        raise SchemaError(f"{path} is not a {MODEL_FORMAT} file")
    if payload["feature_names"] != list(dat.SCHEMA):
        raise SchemaError(
            f"model was trained on columns {payload['feature_names']}, "
            f"expected {list(dat.SCHEMA)}"
        )
    net = Network.from_dict(payload["network"])
    scaler = dat.Scaler.from_dict(payload["scaler"])
    return net, scaler, payload


def evaluate_on_test(net: Network, test: dat.SupervisedSet, task: str
                     ) -> tuple[dict, RegressionReport | ClassificationReport, np.ndarray]:
    """Metric payload, report and predictions on the held-out split.

    Regression predictions are in original kW units; classification
    ones are the head's probabilities.
    """
    raw = predict_all(net, test.inputs)
    payload: dict = {"n_test": len(test)}
    if task == "regression":
        preds_kw = test.scaler.unscale_targets(raw)
        rep = regression_metrics(preds_kw, test.targets_raw)
        payload.update(rep.to_dict())
        return payload, rep, preds_kw
    labels = test.labels()
    cls = classification_metrics(raw, labels)
    payload.update(cls.to_dict())
    # probability-vs-label regression view of the same scores
    try:
        payload.update(regression_metrics(raw, labels).to_dict())
    except NumericError:
        payload.update({"mae": None, "rmse": None, "r2": None})
    return payload, cls, raw


def _prepare_run(args, regression_only: bool = False):
    """The preamble every modelling command shares.

    Resolves and validates the run config, loads ``--model`` (if the
    command has one) and adopts its window and horizon, makes the
    out-dir and dumps the effective config into it. Returns
    ``(cfg, out_dir, model)`` with ``model`` the ``load_model`` triple
    or None. ``regression_only`` rejects a classification config or
    model head.
    """
    cfg = resolve_config(args)
    if regression_only and cfg.task != "regression":
        raise ParameterError(f"{args.command} reports the regression benchmark; "
                             "use --task regression")
    cfg.validate()
    model = None
    if getattr(args, "model", None):
        model = load_model(args.model)
        meta = model[2]
        if regression_only and meta["task"] != "regression":
            raise ParameterError(f"model {args.model} has head {meta['task']!r}")
        cfg.window = meta["window"]
        cfg.horizon = meta["horizon"]
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_effective_config(cfg, out_dir)
    return cfg, out_dir, model


# --- commands -------------------------------------------------------------------


def cmd_synth(args) -> int:
    out = Path(args.out)
    table = dat.synth_generate(args.rows, args.seed, args.regime)
    out.parent.mkdir(parents=True, exist_ok=True)
    dat.write_csv(table, out)
    meta = {"rows": args.rows, "seed": args.seed, "regime": args.regime,
            "columns": list(dat.SCHEMA)}
    _write_json(meta, Path(str(out) + ".meta.json"))
    print(f"wrote {len(table)} rows to {out}")
    print(f"{'feature':<16}{'target mean':>16}{'achieved':>16}{'target var':>14}{'achieved':>14}")
    for row in dat.moment_report(table, args.regime):
        print(f"{row['feature']:<16}{row['target_mean']:>16.2f}{row['achieved_mean']:>16.2f}"
              f"{row['target_variance']:>14.2f}{row['achieved_variance']:>14.2f}")
    return 0


def _train_pipeline(cfg: RunConfig, out_dir: Path):
    splits = build_splits(cfg, load_table(cfg))
    train, val, test = splits
    net = Network.build(cfg.network_config(), RngState(cfg.seed).spawn(10))
    print(f"training {cfg.task} network: {net.param_count()} parameters, "
          f"{len(train)}/{len(val)}/{len(test)} train/val/test samples")
    net, log = fit(
        net,
        (train.inputs, train.model_targets(cfg.task)),
        (val.inputs, val.model_targets(cfg.task)),
        cfg.train_config(),
    )
    log.to_csv(out_dir / "trainlog.csv")
    save_model(out_dir / "model.json", net, train.scaler, cfg)
    return net, log, splits


def cmd_train(args) -> int:
    cfg, out_dir, _ = _prepare_run(args)
    net, log, (train, val, test) = _train_pipeline(cfg, out_dir)
    payload, report, _ = evaluate_on_test(net, test, cfg.task)
    payload["stop_reason"] = log.stop_reason
    payload["epochs_run"] = len(log.epochs)
    _write_json(payload, out_dir / "metrics.json")
    if cfg.task == "classification":
        write_roc_csv(report, out_dir / "roc.csv")
    print(f"stopped after {len(log.epochs)} epochs ({log.stop_reason})")
    if cfg.task == "regression":
        print(f"test mae={report.mae:.4f} rmse={report.rmse:.4f} r2={report.r2:.4f}")
    else:
        print(f"test accuracy={report.accuracy:.4f} auc={report.auc:.4f} "
              f"confusion tp={report.tp} tn={report.tn} fp={report.fp} fn={report.fn}")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_compare(args) -> int:
    cfg, out_dir, model = _prepare_run(args, regression_only=True)
    if model:
        net, model_scaler, _ = model
        table = load_table(cfg)
        raw_windows = dat.make_windows(table, cfg.window, cfg.horizon)
        train, val, test = build_splits(cfg, table)
        # the network sees inputs in ITS training scale, not this run's
        net_inputs = model_scaler.scale_inputs(raw_windows.inputs[test.indices])
        net_pred = model_scaler.unscale_targets(predict_all(net, net_inputs))
    else:
        net, _, (train, val, test) = _train_pipeline(cfg, out_dir)
        net_pred = test.scaler.unscale_targets(predict_all(net, test.inputs))
    flat_train = flatten_windows(train.inputs)
    flat_test = flatten_windows(test.inputs)
    targets = train.targets_raw

    knn_pred = knn_predict_batch(flat_train, targets, flat_test, cfg.knn_k)
    ridge_pred = BayesianRidge(alpha=cfg.ridge_alpha).fit(flat_train, targets).predict(flat_test)
    forest_cfg = ForestConfig(n_trees=cfg.n_trees, max_depth=cfg.forest_depth, seed=cfg.seed)
    forest_pred = RandomForest(forest_cfg).fit(flat_train, targets).predict(flat_test)

    rows = []
    for name, pred in (("CNN-GRU-Attention", net_pred), ("KNN", knn_pred),
                       ("Bayesian Ridge", ridge_pred), ("RF", forest_pred)):
        rep = regression_metrics(pred, test.targets_raw)
        rows.append({"model": name, **rep.to_dict()})
        print(f"{name:<18} mae={rep.mae:.4f} rmse={rep.rmse:.4f} r2={rep.r2:.4f}")
    for name in NOT_REPRODUCED:
        rows.append({"model": name, "not_reproduced": True})
    write_comparison_csv(rows, out_dir / "compare.csv")
    _write_json({
        "test_indices": test.indices.tolist(),
        "test_size": len(test),
        "models": [row["model"] for row in rows],
    }, out_dir / "compare_meta.json")
    print(f"comparison table in {out_dir / 'compare.csv'} "
          f"(all rows on the same {len(test)} test windows)")
    return 0


def cmd_predict(args) -> int:
    cfg, out_dir, (net, scaler, meta) = _prepare_run(args)
    task = meta["task"]
    table = load_table(cfg)
    # trailing windows predict past the data; their real value is NaN
    windows = dat.make_windows(table, cfg.window, cfg.horizon, trailing=True)
    inputs, reals, keep = windows.inputs, windows.targets_raw, windows.indices
    if args.split != "all":
        train, val, test = build_splits(cfg, table)
        keep = {"train": train, "val": val, "test": test}[args.split].indices
        inputs, reals = inputs[keep], reals[keep]
    target_rows = keep + cfg.window + cfg.horizon - 1

    raw = predict_all(net, scaler.scale_inputs(inputs))
    has_real = ~np.isnan(reals)
    ts = table.timestamps
    path = out_dir / "predictions.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if task == "regression":
            preds = scaler.unscale_targets(raw)
            fh.write("index,timestamp,real,predicted\n" if ts else "index,real,predicted\n")
            for i in range(len(preds)):
                row = [str(int(target_rows[i]))]
                if ts:
                    row.append(ts[target_rows[i]] if has_real[i] else "")
                row.append(repr(float(reals[i])) if has_real[i] else "")
                row.append(repr(float(preds[i])))
                fh.write(",".join(row) + "\n")
        else:
            preds = raw
            header = "index,timestamp,real_label,probability,predicted_label" if ts \
                else "index,real_label,probability,predicted_label"
            fh.write(header + "\n")
            for i in range(len(preds)):
                row = [str(int(target_rows[i]))]
                if ts:
                    row.append(ts[target_rows[i]] if has_real[i] else "")
                label = dat.label_zero_state(np.array([reals[i]]))[0] if has_real[i] else None
                row.append("" if label is None else str(int(label)))
                row.append(repr(float(preds[i])))
                row.append(str(int(preds[i] >= 0.5)))
                fh.write(",".join(row) + "\n")
    print(f"wrote {len(preds)} predictions to {path}")
    if has_real.sum() >= 2 and task == "regression":
        rep = regression_metrics(preds[has_real], reals[has_real])
        print(f"r2 on rows with targets: {rep.r2!r}")
    return 0


def cmd_explain(args) -> int:
    cfg, out_dir, (net, scaler, meta) = _prepare_run(args)
    task = meta["task"]

    train, _, test = build_splits(cfg, load_table(cfg))
    d = len(dat.SCHEMA)
    if cfg.explain_exact and d > 12:
        raise SizeError(
            f"exact enumeration supports at most 12 feature columns, data has {d}; "
            "drop --exact to use the permutation-sampling estimator"
        )
    background = train.inputs.reshape(-1, d).mean(axis=0)

    if task == "regression":
        def model_fn(window):
            return float(scaler.unscale_targets(net.forward(np.asarray(window)))[0])
    else:
        def model_fn(window):
            return float(net.forward(np.asarray(window))[0])

    picker = RngState(cfg.seed).spawn(30)
    count = min(cfg.explain_windows, len(test))
    chosen = picker.permutation(len(test))[:count]
    report = attribute(model_fn, test.inputs[chosen], background, dat.SCHEMA,
                       n_perms=cfg.explain_perms, seed=cfg.seed,
                       exact=cfg.explain_exact)
    gaps = report.efficiency_gaps()
    for i in range(count):
        delta = report.predictions[i] - report.baseline_prediction
        print(f"window {int(chosen[i])}: sum(shapley)={report.per_sample[i].sum():+.6f} "
              f"f(x)-f(bg)={delta:+.6f} gap={gaps[i]:+.2e}")
    write_attribution_csv(report, out_dir / "shapley.csv")
    _write_json(report.to_dict(), out_dir / "shapley.json")
    print("feature ranking (mean |shapley| over "
          f"{count} windows): " + ", ".join(name for name, _ in report.ranking()[:5]))
    print(f"attribution artifacts in {out_dir}")
    return 0


# --- argument parsing -----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key = value settings file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", dest="out_dir", default=None)


def _add_data_source(parser: argparse.ArgumentParser):
    parser.add_argument("--csv", default=None, help="input CSV path")
    parser.add_argument("--synth-rows", dest="synth_rows", type=int, default=None)
    parser.add_argument("--synth-regime", dest="synth_regime", default=None,
                        choices=("default", "kenya"))
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--shuffle-split", dest="shuffle_split",
                        action="store_const", const=True, default=None)
    parser.add_argument("--validate-on-test", dest="validate_on_test",
                        action="store_const", const=True, default=None)


def _add_net_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--task", default=None, choices=("regression", "classification"))
    parser.add_argument("--blocks", type=int, default=None)
    parser.add_argument("--conv-filters", dest="conv_filters", type=int, default=None)
    parser.add_argument("--kernel", type=int, default=None)
    parser.add_argument("--gru-units", dest="gru_units", type=int, default=None)
    parser.add_argument("--attn-dim", dest="attn_dim", type=int, default=None)
    parser.add_argument("--mlp-hidden", dest="mlp_hidden", type=int, default=None)
    parser.add_argument("--dropout", dest="dropout_rate", type=float, default=None)
    parser.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
    parser.add_argument("--patience", dest="early_stop_patience", type=int, default=None)
    parser.add_argument("--lr-patience", dest="lr_patience", type=int, default=None)
    parser.add_argument("--lr", dest="initial_lr", type=float, default=None)
    parser.add_argument("--batch-size", dest="batch_size", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcast",
        description="Microgrid generator-power forecasting toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    synth.add_argument("--rows", type=int, required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--regime", default="default", choices=("default", "kenya"))
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    train = sub.add_parser("train", help="train the network and evaluate on the test split")
    _add_common(train)
    _add_data_source(train)
    _add_net_flags(train)
    train.set_defaults(func=cmd_train)

    compare = sub.add_parser("compare", help="benchmark the network against baselines")
    _add_common(compare)
    _add_data_source(compare)
    _add_net_flags(compare)
    compare.add_argument("--model", default=None, help="reuse a trained model file")
    compare.add_argument("--knn-k", dest="knn_k", type=int, default=None)
    compare.add_argument("--trees", dest="n_trees", type=int, default=None)
    compare.set_defaults(func=cmd_compare)

    predict = sub.add_parser("predict", help="write per-window predictions for a CSV")
    _add_common(predict)
    predict.add_argument("--model", required=True)
    predict.add_argument("--csv", required=True)
    predict.add_argument("--split", default="all", choices=("all", "train", "val", "test"))
    predict.set_defaults(func=cmd_predict)

    explain = sub.add_parser("explain", help="Shapley feature attribution for a model")
    _add_common(explain)
    _add_data_source(explain)
    explain.add_argument("--model", required=True)
    explain.add_argument("--windows", dest="explain_windows", type=int, default=None)
    explain.add_argument("--perms", dest="explain_perms", type=int, default=None)
    explain.add_argument("--exact", dest="explain_exact",
                         action="store_const", const=True, default=None)
    explain.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 4
    except GridcastError as err:
        print(f"error: {err}", file=sys.stderr)
        return 5


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
