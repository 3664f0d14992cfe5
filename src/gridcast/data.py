"""Dataset ingestion, windowing, scaling, labeling, and a synthetic surrogate.

The CSV schema is the 13-column microgrid table (generation, storage,
and cost figures); ``generator_kw`` doubles as a history feature and as
the prediction target one step ahead. The synthetic generator draws the
12 non-target features as Gaussians matched to the reference means and
variances, ties them together through a shared daily-cycle plus
persistent latent factor, and produces ``generator_kw`` from a known
shortfall rule (clipped at zero) so that roughly 40% of rows are
zero-generation and the target is learnable from the feature history.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, RowError, SchemaError
from .tensor import RngState

log = logging.getLogger(__name__)

ON_MISSING = ("reject", "ffill")

SCHEMA = [
    "pv_kw",
    "battery_kw",
    "battery_kwh",
    "generator_kw",
    "pv_capital",
    "pv_om",
    "battery_capital",
    "battery_om",
    "diesel_capital",
    "diesel_om_kw",
    "diesel_om_kwh",
    "fuel_cost",
    "reopt_llc",
]
TARGET_COLUMN = "generator_kw"
TARGET_INDEX = SCHEMA.index(TARGET_COLUMN)

# Reference (mean, variance) per column; generator_kw's mean is realized
# through the shortfall rule below rather than drawn directly.
TABLE_STATS = {
    "pv_kw": (70.84, 8.45),
    "battery_kw": (7.55, 1.99),
    "battery_kwh": (382.21, 14.92),
    "generator_kw": (18.55, 5.46),
    "pv_capital": (237795130.20, 15034.17),
    "pv_om": (6894229.04, 2559.88),
    "battery_capital": (284208250.30, 12202.27),
    "battery_om": (17504910.43, 3115.69),
    "diesel_capital": (6325958.59, 3040.68),
    "diesel_om_kw": (853071.00, 1173.45),
    "diesel_om_kwh": (11055836.65, 1930.88),
    "fuel_cost": (1038589968.04, 35854.60),
    "reopt_llc": (442926489.30, 74736.26),
}

ZERO_TAU = 1e-6  # kW; at or below counts as a zero-generation state

# --- synthetic-generator construction constants ---------------------------
# period shorter than the window span so every window sees a cycle
# transition and the phase stays observable
_CYCLE_PERIOD = 12
_CYCLE_SHARPNESS = 2.5           # tanh steepening: fast dawn/dusk transitions
_CYCLE_WEIGHT = np.sqrt(0.72)    # daily-cycle share of the shared latent
_PERSIST_WEIGHT = np.sqrt(0.28)  # AR(1) share of the shared latent
_AR_RHO = 0.996
_TARGET_NOISE = np.sqrt(0.0002)  # fresh noise only the target sees
# per-feature loading on the shared latent
_LOADINGS = {
    "pv_kw": 0.97,
    "battery_kw": 0.92,
    "battery_kwh": 0.87,
    "pv_capital": 0.92,
    "pv_om": 0.97,
    "battery_capital": 0.92,
    "battery_om": 0.97,
    "diesel_capital": 0.87,
    "diesel_om_kw": 0.92,
    "diesel_om_kwh": 0.97,
    "fuel_cost": 0.92,
    "reopt_llc": 0.97,
}
# per-feature cycle phase offsets in rows: storage charges/discharges and
# cost meters peak at different times of day, so the feature set carries
# the cycle in quadrature and the phase is identifiable from any one row
_PHASE_OFFSETS = {
    "pv_kw": 0,
    "battery_kw": 3,
    "battery_kwh": 6,
    "pv_capital": 9,
    "pv_om": 0,
    "battery_capital": 3,
    "battery_om": 6,
    "diesel_capital": 9,
    "diesel_om_kw": 0,
    "diesel_om_kwh": 3,
    "fuel_cost": 6,
    "reopt_llc": 9,
}
# shortfall rule: generator_kw = GEN_SCALE * max(0, s - GEN_THRESHOLD);
# calibrated by scripts/calibrate_synth.py so that ~40% of rows are zero
# and the mean output is the reference 18.55 kW
_GEN_THRESHOLD = -0.36842489
_GEN_SCALE = 29.3815595
# factor on every reference mean, and on generator_kw, per synthetic regime
_MEAN_SCALE = {"default": 1.0, "kenya": 0.9}
REGIMES = tuple(_MEAN_SCALE)


@dataclass
class Table:
    """Ordered rows of the 13-column schema, optional timestamps alongside."""

    features: np.ndarray                 # (n, 13) float64
    timestamps: list[str] | None = None

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class Scaler:
    """Per-feature and target z-score parameters fitted on training rows."""

    feature_mean: np.ndarray
    feature_std: np.ndarray
    target_mean: float
    target_std: float

    def scale_inputs(self, x: np.ndarray) -> np.ndarray:
        return (x - self.feature_mean) / self.feature_std

    def scale_targets(self, y: np.ndarray) -> np.ndarray:
        return (y - self.target_mean) / self.target_std

    def unscale_targets(self, y: np.ndarray) -> np.ndarray:
        return y * self.target_std + self.target_mean


@dataclass
class SupervisedSet:
    """Windowed samples: inputs (n, window, 13), targets one step ahead,
    and each sample's window position in the table."""

    inputs: np.ndarray
    targets_raw: np.ndarray
    indices: np.ndarray
    scaler: Scaler | None = None

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def labels(self) -> np.ndarray:
        return label_zero_state(self.targets_raw)

    def model_targets(self, task: str) -> np.ndarray:
        """Targets in the units the network trains on for the given task."""
        if task == "regression":
            if self.scaler is None:
                raise ParameterError("set is unscaled; run split_and_scale first")
            return self.scaler.scale_targets(self.targets_raw)
        if task == "classification":
            return self.labels()
        raise ParameterError(f"unknown task {task!r}")


# --- CSV -----------------------------------------------------------------


def _normalize(name: str) -> str:
    return name.strip().lower()


def load_csv(path, on_missing: str = "reject") -> Table:
    """Read a schema-conformant CSV into a Table.

    Header matching is case/whitespace-insensitive, and a known column
    named twice raises a SchemaError. Rows with empty cells are dropped
    (``reject``) or forward-filled (``ffill``); any other unparsable
    cell raises a RowError citing the file line. Timestamp cells are
    kept as written, spaces included.
    """
    if on_missing not in ON_MISSING:
        raise ParameterError(f"on_missing must be one of {ON_MISSING}, got {on_missing!r}")
    try:
        # utf-8-sig drops the byte-order mark a spreadsheet export may start with
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read {path}: {err}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [_normalize(cell) for cell in rows[0]]
    col_of = {}
    for name in SCHEMA + ["timestamp"]:
        if header.count(name) > 1:
            raise SchemaError(f"{path}: column {name!r} appears {header.count(name)} times")
    for name in SCHEMA:
        if name not in header:
            raise SchemaError(f"{path}: missing column {name!r}")
        col_of[name] = header.index(name)
    ts_col = header.index("timestamp") if "timestamp" in header else None
    known = set(col_of.values()) | ({ts_col} if ts_col is not None else set())
    for idx, name in enumerate(header):
        if idx not in known:
            warnings.warn(f"{path}: ignoring unknown column {name!r}")

    features = np.empty((len(rows) - 1, len(SCHEMA)))
    timestamps = [] if ts_col is not None else None
    dropped = 0
    kept = 0
    prev = None
    for row_idx, row in enumerate(rows[1:]):
        line = row_idx + 2
        if len(row) != len(header):
            raise RowError(line, f"expected {len(header)} cells, got {len(row)}")
        values = []
        gap = False
        for j, name in enumerate(SCHEMA):
            text = row[col_of[name]].strip()
            if text == "":
                gap = True
                if on_missing == "reject" or prev is None:
                    break
                values.append(prev[j])
                continue
            try:
                value = float(text)
            except ValueError:
                raise RowError(line, f"cannot parse {text!r} in column {name}") from None
            if not math.isfinite(value):
                raise RowError(line, f"non-finite value in column {name}")
            values.append(value)
        if gap and (on_missing == "reject" or prev is None):
            dropped += 1
            continue
        if values[TARGET_INDEX] < 0:
            raise RowError(line, f"{TARGET_COLUMN} must be >= 0, got {values[TARGET_INDEX]}")
        features[kept] = values
        kept += 1
        prev = values
        if timestamps is not None:
            timestamps.append(row[ts_col])
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} row(s) with missing cells")
    if not kept:
        warnings.warn(f"{path}: no data rows")
        return Table(np.empty((0, len(SCHEMA))), timestamps)
    table = Table(features[:kept], timestamps)
    log.info("%s: loaded %d rows", path, len(table))
    return table


def csv_cell(text: str) -> str:
    """``text`` as one CSV cell, quoted as ``csv.writer`` quotes it: only when it
    holds a comma, a quote or a line break, with each quote doubled."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(table: Table, path):
    """Write a Table back out; float repr keeps round trips bit-exact."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        header = (["timestamp"] if table.timestamps is not None else []) + SCHEMA
        fh.write(",".join(header) + "\n")
        for i in range(len(table)):
            cells = [csv_cell(table.timestamps[i])] if table.timestamps is not None else []
            cells += [repr(float(v)) for v in table.features[i]]
            fh.write(",".join(cells) + "\n")


# --- windowing / splitting -------------------------------------------------


def make_windows(table: Table, window: int, horizon: int = 1, *,
                 trailing: bool = False) -> SupervisedSet:
    """Slide a length-``window`` input over the rows; target sits ``horizon`` after.

    With ``trailing`` the last ``horizon`` windows, whose target row lies
    past the data, are kept too and get NaN targets. ``inputs`` is a
    read-only view of ``table.features``, so windowing a table again
    copies nothing.
    """
    if window < 1 or horizon < 1:
        raise ParameterError(f"window and horizon must be >= 1, got {window}, {horizon}")
    need = window if trailing else window + horizon
    n = len(table)
    if n < need:
        raise DataError(f"need at least {need} rows to window, got {n}")
    count = n - need + 1
    inputs = np.lib.stride_tricks.sliding_window_view(
        table.features, window, axis=0).transpose(0, 2, 1)[:count]
    targets = np.full(count, np.nan)
    known = table.features[window + horizon - 1:, TARGET_INDEX]
    targets[:len(known)] = known
    return SupervisedSet(inputs, targets, indices=np.arange(count))


def fit_scaler(inputs: np.ndarray, targets: np.ndarray) -> Scaler:
    cells = inputs.reshape(-1, inputs.shape[-1])
    # values near the float64 limit overflow these sums; refused below, by column
    with np.errstate(over="ignore", invalid="ignore"):
        mean = cells.mean(axis=0)
        std = cells.std(axis=0)
        t_mean = float(targets.mean())
        t_std = float(targets.std())
    overflowed = ~(np.isfinite(mean) & np.isfinite(std))
    if overflowed.any():
        names = [SCHEMA[i] for i in np.flatnonzero(overflowed)]
        raise DataError(f"feature column(s) {names}: training mean or std is not finite; "
                        "values this large cannot be scaled")
    if not (math.isfinite(t_mean) and math.isfinite(t_std)):
        raise DataError(f"target {TARGET_COLUMN}: training mean or std is not finite; "
                        "values this large cannot be scaled")
    flat = std < 1e-12
    if flat.any():
        names = [SCHEMA[i] for i in np.flatnonzero(flat)]
        warnings.warn(f"constant feature column(s) {names}; scaling with std 1")
        std = np.where(flat, 1.0, std)
    if t_std < 1e-12:
        warnings.warn("constant training target; scaling with std 1")
        t_std = 1.0
    return Scaler(mean, std, t_mean, t_std)


def split_indices(n: int, train_frac: float = 0.8, val_frac_of_train: float = 0.1,
                  shuffle: bool = False, seed: int = 0,
                  validate_on_test: bool = False) -> dict[str, np.ndarray]:
    """Chronological train/val/test positions of ``n`` samples.

    The first ``train_frac`` of samples trains (its last tenth becomes
    the validation set unless ``validate_on_test`` reuses the test
    split); the remainder tests. ``shuffle`` exists only for comparison
    against shuffled protocols and is off by default because shuffled
    windows leak near-duplicates across the split boundary.
    """
    order = RngState(seed).permutation(n) if shuffle else np.arange(n)
    n_train_total = int(np.floor(train_frac * n))
    if validate_on_test:
        parts = {
            "train": order[:n_train_total],
            "val": order[n_train_total:],
            "test": order[n_train_total:],
        }
    else:
        n_val = int(np.floor(val_frac_of_train * n_train_total))
        parts = {
            "train": order[:n_train_total - n_val],
            "val": order[n_train_total - n_val:n_train_total],
            "test": order[n_train_total:],
        }
    for name, idx in parts.items():
        if idx.size == 0:
            raise DataError(f"{name} split is empty with n={n}")
    return parts


def split_and_scale(samples: SupervisedSet, parts: dict[str, np.ndarray]):
    """(train, val, test) sets at the ``split_indices`` positions ``parts``.

    Inputs and targets are z-scaled with a ``Scaler`` fitted on the
    train positions alone, which every returned set carries.
    """
    scaler = fit_scaler(samples.inputs[parts["train"]], samples.targets_raw[parts["train"]])
    out = []
    for name in ("train", "val", "test"):
        idx = parts[name]
        out.append(SupervisedSet(
            inputs=scaler.scale_inputs(samples.inputs[idx]),
            targets_raw=samples.targets_raw[idx].copy(),
            scaler=scaler,
            indices=samples.indices[idx].copy(),
        ))
    return tuple(out)


def label_zero_state(targets) -> np.ndarray:
    """1.0 where generator output is at most ``ZERO_TAU``, else 0.0."""
    targets = np.asarray(targets, dtype=np.float64)
    return (targets <= ZERO_TAU).astype(np.float64)


# --- synthetic surrogate ---------------------------------------------------


def _standardized(v: np.ndarray) -> np.ndarray:
    centered = v - v.mean()
    std = centered.std()
    return centered / std if std > 1e-12 else centered


def _cycle(n: int, offset: int = 0) -> np.ndarray:
    wave = np.sin(2.0 * np.pi * (np.arange(n) + offset) / _CYCLE_PERIOD)
    return _standardized(np.tanh(_CYCLE_SHARPNESS * wave))


def synth_latent(n: int, rng: RngState) -> tuple[np.ndarray, np.ndarray]:
    """The synthetic generator's shared latents for ``n`` rows.

    Returns the standardized AR(1) persistence, which every feature
    mixes with its own phase of the daily cycle, and the shortfall
    latent behind ``generator_kw``: the in-phase cycle plus persistence
    and a little fresh noise. Draws from ``rng.spawn(1)`` and
    ``rng.spawn(3)``; ``scripts/calibrate_synth.py`` calibrates the
    shortfall rule on this function's output.
    """
    eps = rng.spawn(1).normals(n)
    persist = np.empty(n)
    persist[0] = eps[0]
    innov = np.sqrt(1.0 - _AR_RHO ** 2)
    for i in range(1, n):
        persist[i] = _AR_RHO * persist[i - 1] + innov * eps[i]
    persist = _standardized(persist)

    signal = np.sqrt(1.0 - _TARGET_NOISE ** 2)
    latent = _CYCLE_WEIGHT * _cycle(n) + _PERSIST_WEIGHT * persist
    shortfall = signal * latent + _TARGET_NOISE * rng.spawn(3).normals(n)
    return persist, shortfall


def synth_generate(n: int, seed: int, regime: str = "default") -> Table:
    """Draw ``n`` schema rows with reference moments and a learnable target."""
    if n < 1:
        raise ParameterError(f"row count must be >= 1, got {n}")
    if regime not in REGIMES:
        raise ParameterError(f"regime must be one of {REGIMES}, got {regime!r}")
    rng = RngState(seed)
    persist, shortfall = synth_latent(n, rng)
    mean_scale = _MEAN_SCALE[regime]
    generator = _GEN_SCALE * mean_scale * np.clip(shortfall - _GEN_THRESHOLD, 0.0, None)

    feat_rng = rng.spawn(2)
    features = np.empty((n, len(SCHEMA)))
    for j, name in enumerate(SCHEMA):
        if name == TARGET_COLUMN:
            features[:, j] = generator
            continue
        mean, variance = TABLE_STATS[name]
        w = _LOADINGS[name]
        mix = _CYCLE_WEIGHT * _cycle(n, _PHASE_OFFSETS[name]) + _PERSIST_WEIGHT * persist
        noise = feat_rng.normals(n)
        features[:, j] = mean * mean_scale + np.sqrt(variance) * (
            w * mix + np.sqrt(1.0 - w * w) * noise
        )
    return Table(features)


def moment_report(table: Table, regime: str = "default") -> list[dict]:
    """Achieved vs reference mean/variance per column, for synth provenance."""
    scale = _MEAN_SCALE[regime]
    rows = []
    for j, name in enumerate(SCHEMA):
        mean, variance = TABLE_STATS[name]
        col = table.features[:, j]
        rows.append({
            "feature": name,
            "target_mean": mean * scale,
            "achieved_mean": float(col.mean()),
            "target_variance": variance,
            "achieved_variance": float(col.var()),
        })
    return rows
