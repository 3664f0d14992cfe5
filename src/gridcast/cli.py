"""Command-line pipeline: synth | train | compare | predict | explain.

Every command but synth resolves its settings in the same order
(dataclass defaults, then ``--config`` file entries, then explicit
flags), typing each value by its ``RunConfig`` field, dumps the
effective configuration next to its outputs, and derives all
randomness from ``--seed``, so rerunning a command with the same flags
reproduces every output byte for byte.

Only this module writes files under ``--out-dir`` (``_write_json``,
``_write_csv``) and knows the ``model.json`` format: ``save_model`` writes
it, and ``load_model`` checks all of it before building the network.

Exit codes: 0 success, 2 configuration error, 3 data/schema error,
4 numeric error, 5 other expected failure, 1 unexpected crash.
"""

from __future__ import annotations

import argparse
import base64
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import data as dat
from .baselines import BayesianRidge, ForestConfig, RandomForest, flatten_windows, knn_predict_batch
from .errors import DataError, GridcastError, NumericError, ParameterError, SchemaError
from .explain import attribute
from .metrics import (DECISION_THRESHOLD, ClassificationReport, RegressionReport,
                      classification_metrics, regression_metrics)
from .network import HEADS, Network, NetworkConfig
from .tensor import RngState
from .train import INFERENCE_CHUNK, TrainConfig, fit, predict_all

MODEL_FORMAT = "gridcast-model-v2"
NOT_REPRODUCED = ("SVR", "XGB")


@dataclass
class RunConfig:
    """Flat union of data, architecture, training, and reporting options."""

    # data source (exactly one of csv / synth_rows)
    csv: str | None = None
    synth_rows: int | None = None
    window: int = 8
    horizon: int = 1
    train_frac: float = 0.8
    val_frac: float = 0.1
    # task & architecture
    task: str = "regression"
    blocks: int = 2
    conv_filters: int = 16
    kernel: int = 3
    gru_units: int = 16
    attn_dim: int = 16
    mlp_hidden: int = 32
    dropout_rate: float = 0.2
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
        if not 0 <= self.ridge_alpha < math.inf:
            problems.append(f"ridge_alpha must be finite and >= 0, got {self.ridge_alpha}")
        if not (0.0 < self.train_frac < 1.0 and 0.0 < self.val_frac < 1.0):
            problems.append(f"train_frac and val_frac must lie in (0, 1), "
                            f"got {self.train_frac}, {self.val_frac}")
        for name in ("horizon", "explain_windows", "explain_perms", "knn_k", "n_trees",
                     "forest_depth"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1, got {getattr(self, name)}")
        problems += self.network_config().violations() + self.train_config().violations()
        if problems:
            raise ParameterError("invalid run config: " + "; ".join(problems))

    def network_config(self) -> NetworkConfig:
        return self._shared_with(NetworkConfig, features=len(dat.SCHEMA), head=self.task)

    def train_config(self) -> TrainConfig:
        return self._shared_with(TrainConfig)

    def _shared_with(self, cls, **explicit):
        """A ``cls`` built from the fields it shares with RunConfig, plus ``explicit``."""
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name in _FIELD_TYPES}
        return cls(**shared, **explicit)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_READERS = {"int": int, "float": float, "str": str, "bool": lambda text: _BOOLS[text.lower()]}


def _coerce(name: str, text: str):
    """The value of RunConfig field ``name`` written as ``text``, in a flag or a config line.

    ``none`` or an empty text reads as None, for ``| None`` fields only;
    a ``float`` field takes finite values only.
    """
    kind = _FIELD_TYPES[name]
    if text.lower() in ("none", ""):
        if kind.endswith(" | None"):
            return None
    else:
        try:
            value = _READERS[kind.removesuffix(" | None")](text)
            if not isinstance(value, float) or math.isfinite(value):
                return value
        except (KeyError, ValueError):
            pass
    raise argparse.ArgumentTypeError(f"{name} must be {kind}, got {text!r}")


def read_config_file(path) -> dict:
    """Flat ``key = value`` text; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ParameterError(f"cannot read config file {path}: {err}") from None
    entries = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{line_no}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ParameterError(f"{path}:{line_no}: unknown config key {key!r}")
        try:
            entries[key] = _coerce(key, value)
        except argparse.ArgumentTypeError as err:
            raise ParameterError(f"{path}:{line_no}: {err}") from None
    return entries


def resolve_config(args: argparse.Namespace) -> tuple[RunConfig, set[str]]:
    """Dataclass defaults, then ``--config`` entries, then the flags given.

    Returns the config and the names of the fields an entry or a flag set.
    """
    entries = read_config_file(args.config) if getattr(args, "config", None) else {}
    flags = {name: value for name, value in vars(args).items() if name in _FIELD_TYPES}
    return RunConfig(**{**entries, **flags}), entries.keys() | flags.keys()


def dump_effective_config(cfg: RunConfig, out_dir: Path):
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(RunConfig)]
    (out_dir / "effective_config.txt").write_text("\n".join(sorted(lines)) + "\n",
                                                  encoding="utf-8")


def _make_dir(path: Path, what: str):
    """Makes ``path`` and any missing parents; a path that cannot be a directory
    is a configuration error naming ``what``."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ParameterError(f"cannot make {what} {path}: {err.strerror}") from None


def _write_json(payload: dict, path: Path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows):
    """A table of text cells, one list per row from any iterable: UTF-8, LF line
    ends, cells joined by commas as given (floats are written as their ``repr``)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_trainlog(path: Path, log):
    _write_csv(path, ["epoch", "train_loss", "val_loss", "lr"],
               ([str(rec.epoch), repr(rec.train_loss), repr(rec.val_loss), repr(rec.lr)]
                for rec in log.epochs))


def _write_roc(path: Path, report):
    _write_csv(path, ["fpr", "tpr", "threshold"],
               ([repr(value) for value in point] for point in report.roc_points))


def _write_compare(path: Path, results):
    """``(name, RegressionReport)`` pairs at ``.2f`` with r2 as a percentage,
    then a ``not reproduced`` row for each model of ``NOT_REPRODUCED``."""
    rows = [[name, f"{rep.mae:.2f}", f"{rep.rmse:.2f}", f"{100.0 * rep.r2:.2f}"]
            for name, rep in results]
    rows += [[name] + ["not reproduced"] * 3 for name in NOT_REPRODUCED]
    _write_csv(path, ["model", "mae", "rmse", "r2"], rows)


def _write_shapley(path: Path, report):
    _write_csv(path, ["feature", "mean_abs_shapley"],
               ([name, repr(score)] for name, score in report.ranking()))


# --- dataset / model plumbing -------------------------------------------------


def load_table(cfg: RunConfig) -> dat.Table:
    if cfg.csv is not None:
        return dat.load_csv(cfg.csv)
    return dat.synth_generate(cfg.synth_rows, cfg.seed)


def split_indices(cfg: RunConfig, n: int) -> dict[str, np.ndarray]:
    """The run's train/val/test positions among ``n`` windows."""
    return dat.split_indices(n, train_frac=cfg.train_frac, val_frac_of_train=cfg.val_frac)


def build_splits(cfg: RunConfig, table: dat.Table):
    windows = dat.make_windows(table, cfg.window, cfg.horizon)
    return dat.split_and_scale(windows, split_indices(cfg, len(windows)))


# the NetworkConfig fields that set how many parameters there are
_SIZE_FIELDS = ("features", "blocks", "conv_filters", "kernel", "gru_units", "attn_dim",
                "mlp_hidden")
# the Python types a JSON value may have for each annotation in NetworkConfig
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def save_model(path, net: Network, scaler: dat.Scaler, cfg: RunConfig):
    """Write the model file; each parameter is its shape and its float64 bytes in base64."""
    params = {key: {"shape": list(arr.shape),
                    "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}
              for key, arr in net.params().items()}
    payload = {
        "format": MODEL_FORMAT, "task": cfg.task, "window": cfg.window, "horizon": cfg.horizon,
        "feature_names": list(dat.SCHEMA),
        "scaler": {"feature_mean": scaler.feature_mean.tolist(),
                   "feature_std": scaler.feature_std.tolist(),
                   "target_mean": scaler.target_mean, "target_std": scaler.target_std},
        "network": {"config": asdict(net.config), "params": params},
    }
    _write_json(payload, Path(path))


def load_model(path):
    """The ``(net, scaler, payload)`` of a ``save_model`` file, all checked before the
    network is built; a problem in it is a SchemaError naming the file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataError(f"model file not found: {path}") from None
    except OSError as err:
        raise DataError(f"cannot read model file {path}: {err.strerror}") from None
    except ValueError:
        raise SchemaError(f"{path} is not valid JSON") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise SchemaError(f"{path} is not a {MODEL_FORMAT} file")
    try:
        return (*_read_model(payload), payload)
    except SchemaError as err:
        raise SchemaError(f"{path}: {err}") from None


def _get(obj, key, what: str):
    """``obj[key]``, or ``obj`` itself for a None ``key``; ``obj`` is the JSON value ``what``."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object, got {type(obj).__name__}")
    if key is None:
        return obj
    if key not in obj:
        raise SchemaError(f"missing key {key!r}")
    return obj[key]


def _read_model(payload: dict) -> tuple[Network, dat.Scaler]:
    """The network and scaler of a model file; every value is checked before the build."""
    names = _get(payload, "feature_names", "model")
    if names != list(dat.SCHEMA):
        raise SchemaError(f"model was trained on columns {names}, expected {list(dat.SCHEMA)}")
    for key in ("window", "horizon"):
        value = _get(payload, key, "model")
        # a bool is an int to isinstance, so the type is compared exactly
        if type(value) is not int or value < 1:
            raise SchemaError(f"{key} must be an int >= 1, got {value!r}")
    network = _get(payload, "network", "model")
    raw_config = _get(network, "config", "network")
    values = {}
    for field in fields(NetworkConfig):
        value = _get(raw_config, field.name, "network config")
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[field.type]):
            raise SchemaError(f"network config {field.name} must be {field.type}, "
                              f"got {value!r}")
        values[field.name] = value
    # older files name the convolution activation; any value but relu would load as relu
    if raw_config.get("conv_activation", "relu") != "relu":
        raise SchemaError(f"network config conv_activation must be 'relu', "
                          f"got {raw_config['conv_activation']!r}")
    config = NetworkConfig(**values)
    problems = config.violations()
    if problems:
        raise SchemaError("invalid network config: " + "; ".join(problems))
    entries = _get(_get(network, "params", "network"), None, "network params")
    params = {key: _decode_param(key, entry) for key, entry in entries.items()}
    count = sum(arr.size for arr in params.values())
    # an oversized config is refused before it allocates anything
    if config.param_count() > 2 * count:
        sizes = ", ".join(f"{name} {getattr(config, name)}" for name in _SIZE_FIELDS)
        raise SchemaError(f"network config ({sizes}) needs {config.param_count()} "
                          f"parameters, the file holds {count}")
    raw_scaler = _get(payload, "scaler", "model")
    try:
        mean, std = (np.array(_get(raw_scaler, key, "scaler"), dtype=np.float64)
                     for key in ("feature_mean", "feature_std"))
        t_mean, t_std = (float(_get(raw_scaler, key, "scaler"))
                         for key in ("target_mean", "target_std"))
    except (TypeError, ValueError, OverflowError) as err:  # an int too large for a float
        raise SchemaError(f"scaler values must be numbers: {err}") from None
    n = len(dat.SCHEMA)
    if mean.shape != (n,) or not np.isfinite(mean).all():
        raise SchemaError(f"scaler feature_mean must hold {n} finite numbers")
    if std.shape != (n,) or not (np.isfinite(std) & (std > 0)).all():
        raise SchemaError(f"scaler feature_std must hold {n} finite positive numbers")
    if not (math.isfinite(t_mean) and math.isfinite(t_std) and t_std > 0):
        raise SchemaError(f"scaler target_mean must be finite and target_std finite and "
                          f"positive, got {t_mean!r}, {t_std!r}")
    if payload["window"] != config.window:
        raise SchemaError(f"window {payload['window']} differs from the network's {config.window}")
    net = Network.build(config, RngState(0))
    live = net.params()
    if params.keys() != live.keys():
        raise SchemaError("parameter keys do not match this architecture: "
                          f"missing {sorted(live.keys() - params.keys())}, "
                          f"unexpected {sorted(params.keys() - live.keys())}")
    for key, arr in live.items():
        if params[key].shape != arr.shape:
            raise SchemaError(f"parameter {key} has shape {list(params[key].shape)}, "
                              f"this architecture needs {list(arr.shape)}")
        np.copyto(arr, params[key])
    return net, dat.Scaler(mean, std, t_mean, t_std)


def _decode_param(key: str, entry) -> np.ndarray:
    shape, data = _get(entry, "shape", key), _get(entry, "data", key)
    if not isinstance(shape, list) or any(type(n) is not int for n in shape):
        raise SchemaError(f"{key}: shape must be a list of ints, got {shape!r}")
    if not isinstance(data, str):
        raise SchemaError(f"{key}: data must be a base64 string, got {data!r}")
    try:
        arr = np.frombuffer(base64.b64decode(data, validate=True), dtype="<f8").reshape(shape)
    except ValueError as err:  # binascii.Error and a byte count off 8 * prod(shape) alike
        raise SchemaError(f"{key}: data does not decode to shape {shape}: {err}") from None
    if not np.isfinite(arr).all():
        raise SchemaError(f"{key}: parameter values must be finite")
    return arr


def forecast(net: Network, scaler: dat.Scaler, windows: np.ndarray) -> np.ndarray:
    """The model's outputs for raw (n, window, 13) windows.

    ``windows`` are scaled with the model's own ``scaler`` and
    predicted ``INFERENCE_CHUNK`` at a time, the batches of one
    whole-array ``predict_all``; regression outputs come back in kW,
    classification ones are the head's zero-state probabilities. A
    chunk whose arithmetic overflows or turns invalid, as windows of
    values near the float64 limit do, raises NumericError naming its
    windows, instead of ending in finite but meaningless outputs.
    """
    out = np.empty(windows.shape[0])
    for start in range(0, windows.shape[0], INFERENCE_CHUNK):
        stop = min(start + INFERENCE_CHUNK, windows.shape[0])
        try:
            with np.errstate(over="raise", invalid="raise"):
                raw = predict_all(net, scaler.scale_inputs(windows[start:stop]))
                out[start:stop] = (scaler.unscale_targets(raw)
                                   if net.config.head == "regression" else raw)
        except FloatingPointError as err:
            raise NumericError(f"the forecast of windows {start} to {stop - 1} is not finite "
                               f"({err})") from None
    return out


def evaluate_on_test(preds: np.ndarray, test: dat.SupervisedSet, task: str
                     ) -> tuple[dict, RegressionReport | ClassificationReport]:
    """Metric payload and report for ``forecast`` outputs on the held-out split."""
    payload: dict = {"n_test": len(test)}
    if task == "regression":
        rep = regression_metrics(preds, test.targets_raw)
        payload.update(rep.to_dict())
        return payload, rep
    labels = test.labels()
    cls = classification_metrics(preds, labels)
    payload.update(cls.to_dict())
    # probability-vs-label regression view of the same scores
    try:
        payload.update(regression_metrics(preds, labels).to_dict())
    except NumericError:
        payload.update({"mae": None, "rmse": None, "r2": None})
    return payload, cls


def _prepare_run(args, regression_only: bool = False):
    """The preamble every modelling command shares.

    Resolves the run config, loads ``--model`` (if the command has one)
    and adopts its window and horizon (setting either to another value
    is a configuration error), validates the result and loads
    the data table; only then makes the out-dir and dumps the effective
    config into it, so a bad setting, model file or CSV leaves no
    out-dir. Returns ``(cfg, out_dir, model, table)`` with ``model`` the
    ``load_model`` triple or None. ``regression_only`` rejects a
    classification config or model head.
    """
    cfg, given = resolve_config(args)
    if regression_only and cfg.task != "regression":
        raise ParameterError(f"{args.command} reports the regression benchmark; "
                             "use --task regression")
    model = None
    if getattr(args, "model", None):
        model = load_model(args.model)
        net, _, meta = model
        if regression_only and net.config.head != "regression":
            raise ParameterError(f"model {args.model} has head {net.config.head!r}")
        for key in ("window", "horizon"):
            if key in given and getattr(cfg, key) != meta[key]:
                raise ParameterError(f"{key} is {getattr(cfg, key)}, the model's is {meta[key]}")
            setattr(cfg, key, meta[key])
    cfg.validate()
    table = load_table(cfg)
    out_dir = Path(cfg.out_dir)
    _make_dir(out_dir, "out-dir")
    dump_effective_config(cfg, out_dir)
    return cfg, out_dir, model, table


# --- commands -------------------------------------------------------------------


def cmd_synth(args) -> int:
    out = Path(args.out)
    meta_path = Path(str(out) + ".meta.json")
    # both targets are checked before either is written, so neither is left alone
    for path in (out, meta_path):
        if os.path.isdir(path):
            raise ParameterError(f"cannot write {path}: it is a directory")
    table = dat.synth_generate(args.rows, args.seed)
    _make_dir(out.parent, "the directory of --out")
    meta = {"rows": args.rows, "seed": args.seed, "columns": list(dat.SCHEMA)}
    try:
        dat.write_csv(table, out)
        _write_json(meta, meta_path)
    except OSError as err:
        raise ParameterError(f"cannot write {err.filename}: {err.strerror}") from None
    print(f"wrote {len(table)} rows to {out}")
    print(f"{'feature':<16}{'target mean':>16}{'achieved':>16}{'target var':>14}{'achieved':>14}")
    for row in dat.moment_report(table):
        print(f"{row['feature']:<16}{row['target_mean']:>16.2f}{row['achieved_mean']:>16.2f}"
              f"{row['target_variance']:>14.2f}{row['achieved_variance']:>14.2f}")
    return 0


def _train_pipeline(cfg: RunConfig, splits, out_dir: Path):
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
    _write_trainlog(out_dir / "trainlog.csv", log)
    save_model(out_dir / "model.json", net, train.scaler, cfg)
    return net, log


def cmd_train(args) -> int:
    cfg, out_dir, _, table = _prepare_run(args)
    splits = build_splits(cfg, table)
    train, _, test = splits
    net, log = _train_pipeline(cfg, splits, out_dir)
    windows = dat.make_windows(table, cfg.window, cfg.horizon).inputs[test.indices]
    payload, report = evaluate_on_test(forecast(net, train.scaler, windows), test, cfg.task)
    payload["stop_reason"] = log.stop_reason
    payload["epochs_run"] = len(log.epochs)
    _write_json(payload, out_dir / "metrics.json")
    if cfg.task == "classification":
        _write_roc(out_dir / "roc.csv", report)
    print(f"stopped after {len(log.epochs)} epochs ({log.stop_reason})")
    if cfg.task == "regression":
        print(f"test mae={report.mae:.4f} rmse={report.rmse:.4f} r2={report.r2:.4f}")
    else:
        print(f"test accuracy={report.accuracy:.4f} auc={report.auc:.4f} "
              f"confusion tp={report.tp} tn={report.tn} fp={report.fp} fn={report.fn}")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_compare(args) -> int:
    cfg, out_dir, model, table = _prepare_run(args, regression_only=True)
    splits = build_splits(cfg, table)
    train, _, test = splits
    # these depend on the data's size, so are checked here, before any training
    if cfg.knn_k > len(train):
        raise ParameterError(f"knn_k is {cfg.knn_k}, above the {len(train)} training windows")
    if len(train) < 2:
        raise DataError(f"the random forest needs at least 2 training windows, got {len(train)}")
    if model:
        net, scaler, _ = model
    else:
        net, _ = _train_pipeline(cfg, splits, out_dir)
        scaler = train.scaler
    windows = dat.make_windows(table, cfg.window, cfg.horizon).inputs[test.indices]
    net_pred = forecast(net, scaler, windows)
    flat_train = flatten_windows(train.inputs)
    flat_test = flatten_windows(test.inputs)
    targets = train.targets_raw

    knn_pred = knn_predict_batch(flat_train, targets, flat_test, cfg.knn_k)
    ridge_pred = BayesianRidge(alpha=cfg.ridge_alpha).fit(flat_train, targets).predict(flat_test)
    forest_cfg = ForestConfig(n_trees=cfg.n_trees, max_depth=cfg.forest_depth, seed=cfg.seed)
    forest_pred = RandomForest(forest_cfg).fit(flat_train, targets).predict(flat_test)

    results = []
    for name, pred in (("CNN-GRU-Attention", net_pred), ("KNN", knn_pred),
                       ("Bayesian Ridge", ridge_pred), ("RF", forest_pred)):
        rep = regression_metrics(pred, test.targets_raw)
        results.append((name, rep))
        print(f"{name:<18} mae={rep.mae:.4f} rmse={rep.rmse:.4f} r2={rep.r2:.4f}")
    _write_compare(out_dir / "compare.csv", results)
    _write_json({
        "test_indices": test.indices.tolist(),
        "test_size": len(test),
        "models": [name for name, _ in results] + list(NOT_REPRODUCED),
    }, out_dir / "compare_meta.json")
    print(f"comparison table in {out_dir / 'compare.csv'} "
          f"(all rows on the same {len(test)} test windows)")
    return 0


def cmd_predict(args) -> int:
    cfg, out_dir, (net, scaler, _), table = _prepare_run(args)
    task = net.config.head
    # trailing windows predict past the data; their real value is NaN
    windows = dat.make_windows(table, cfg.window, cfg.horizon, trailing=True)
    inputs, reals, keep = windows.inputs, windows.targets_raw, windows.indices
    if args.split != "all":
        # the last `horizon` windows have no target and belong to no split
        keep = split_indices(cfg, max(len(keep) - cfg.horizon, 0))[args.split]
        inputs, reals = inputs[keep], reals[keep]
    target_rows = keep + cfg.window + cfg.horizon - 1

    preds = forecast(net, scaler, inputs)
    has_real = ~np.isnan(reals)
    ts = table.timestamps
    if task == "regression":
        columns = ["real", "predicted"]
        real_cells = [repr(float(r)) for r in reals]
    else:
        columns = ["real_label", "probability", "predicted_label"]
        real_cells = [str(int(label)) for label in dat.label_zero_state(reals)]

    def rows():
        for i in range(len(preds)):
            row = [str(int(target_rows[i]))]
            if ts:
                row.append(dat.csv_cell(ts[target_rows[i]]) if has_real[i] else "")
            row.append(real_cells[i] if has_real[i] else "")
            row.append(repr(float(preds[i])))
            if task == "classification":
                row.append(str(int(preds[i] >= DECISION_THRESHOLD)))
            yield row

    path = out_dir / "predictions.csv"
    _write_csv(path, ["index"] + (["timestamp"] if ts else []) + columns, rows())
    print(f"wrote {len(preds)} predictions to {path}")
    if task == "regression" and has_real.sum() >= 2:
        try:
            rep = regression_metrics(preds[has_real], reals[has_real])
            print(f"r2 on rows with targets: {rep.r2!r}")
        except NumericError:
            # r2 is undefined: every target is the same, as on a night-only slice,
            # or a prediction or target is too large
            pass
    return 0


def cmd_explain(args) -> int:
    cfg, out_dir, (net, scaler, _), table = _prepare_run(args)
    windows = dat.make_windows(table, cfg.window, cfg.horizon).inputs
    test = split_indices(cfg, len(windows))["test"]
    picker = RngState(cfg.seed).spawn(30)
    count = min(cfg.explain_windows, len(test))
    chosen = picker.permutation(len(test))[:count]
    windows = windows[test[chosen]]
    # the reference input is the model's mean training row
    report = attribute(lambda w: forecast(net, scaler, w), windows, scaler.feature_mean,
                       dat.SCHEMA, n_perms=cfg.explain_perms, seed=cfg.seed,
                       exact=cfg.explain_exact)
    gaps = report.efficiency_gaps()
    for i in range(count):
        delta = report.predictions[i] - report.baseline_prediction
        print(f"window {int(chosen[i])}: sum(shapley)={report.per_sample[i].sum():+.6f} "
              f"f(x)-f(bg)={delta:+.6f} gap={gaps[i]:+.2e}")
    _write_shapley(out_dir / "shapley.csv", report)
    _write_json(report.to_dict(), out_dir / "shapley.json")
    print("feature ranking (mean |shapley| over "
          f"{count} windows): " + ", ".join(name for name, _ in report.ranking()[:5]))
    print(f"attribution artifacts in {out_dir}")
    return 0


# --- argument parsing -----------------------------------------------------------


# flags named otherwise than their RunConfig field; field ``a_b`` is ``--a-b``
_FLAG_NAMES = {"dropout_rate": "--dropout", "early_stop_patience": "--patience",
               "initial_lr": "--lr", "n_trees": "--trees", "explain_windows": "--windows",
               "explain_perms": "--perms", "explain_exact": "--exact"}
_CHOICES = {"task": HEADS}
_HELP = {"csv": "input CSV path"}
_DATA_FIELDS = ("csv", "synth_rows", "window")
_NET_FIELDS = ("task", "blocks", "conv_filters", "kernel", "gru_units", "attn_dim",
               "mlp_hidden", "dropout_rate", "max_epochs", "early_stop_patience",
               "lr_patience", "initial_lr", "batch_size")


def _add_flags(parser: argparse.ArgumentParser, *names: str, **overrides):
    """One flag per RunConfig field in ``names``, typed by the field."""
    for name in names:
        if _FIELD_TYPES[name] == "bool":
            spec = {"action": "store_const", "const": True}
        else:
            spec = {"type": partial(_coerce, name), "choices": _CHOICES.get(name)}
        spec.update({"help": _HELP.get(name), **overrides})
        parser.add_argument(_FLAG_NAMES.get(name, "--" + name.replace("_", "-")), dest=name,
                            **spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcast",
        description="Microgrid generator-power forecasting toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    synth.add_argument("--rows", type=int, required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    def command(name, func, summary):
        # unset flags stay out of the namespace, so resolve_config sees only given ones
        cmd = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--config", help="flat key = value settings file")
        _add_flags(cmd, "seed", "out_dir")
        cmd.set_defaults(func=func)
        return cmd

    train = command("train", cmd_train, "train the network and evaluate on the test split")
    _add_flags(train, *_DATA_FIELDS, *_NET_FIELDS)

    compare = command("compare", cmd_compare, "benchmark the network against baselines")
    _add_flags(compare, *_DATA_FIELDS, *_NET_FIELDS)
    compare.add_argument("--model", help="reuse a trained model file")
    _add_flags(compare, "knn_k", "n_trees")

    predict = command("predict", cmd_predict, "write per-window predictions for a CSV")
    predict.add_argument("--model", required=True)
    _add_flags(predict, "csv", required=True, help=None)
    predict.add_argument("--split", default="all", choices=("all", "train", "val", "test"))

    explain = command("explain", cmd_explain, "Shapley feature attribution for a model")
    _add_flags(explain, *_DATA_FIELDS)
    explain.add_argument("--model", required=True)
    _add_flags(explain, "explain_windows", "explain_perms", "explain_exact")
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
