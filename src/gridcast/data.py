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
import io
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, RowError, SchemaError
from .tensor import RngState

log = logging.getLogger(__name__)

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
        scaled = x - self.feature_mean
        scaled /= self.feature_std    # in place: no second array of x's size
        return scaled

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


def load_csv(path) -> Table:
    """Read a schema-conformant CSV into a Table.

    Header matching is case/whitespace-insensitive, and a known column
    named twice raises a SchemaError. Rows with empty cells are dropped
    with a warning; any other unparsable cell raises a RowError citing
    the file line. Timestamp cells are kept as written, spaces included.

    The file is read once. A plain file, one with no quote, no lone
    carriage return and the header's comma count on every line, is
    parsed by numpy's C reader; every other file, and any plain file
    that reader refuses or whose values fail a check, goes through the
    row scan, which alone words the RowError or drops rows. Both give
    the same table, bit for bit.
    """
    try:
        # utf-8-sig drops the byte-order mark a spreadsheet export may start with
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read {path}: {err}") from None
    lines = _plain_lines(text)
    rows = None
    if lines is not None:
        header = lines[0].split(",")
    else:
        rows = _csv_rows(path, text)
        if not rows:
            raise DataError(f"{path}: empty file")
        header = rows[0]
    header = [_normalize(cell) for cell in header]
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

    table = None if lines is None else _parse_plain(lines[1:], col_of, ts_col)
    if table is None:
        if rows is None:
            rows = _csv_rows(path, text)
        table = _scan_rows(path, rows[1:], len(header), col_of, ts_col)
    if len(table):
        log.info("%s: loaded %d rows", path, len(table))
    return table


def _csv_rows(path, text: str) -> list[list[str]]:
    """The rows ``csv.reader`` gives over a file holding ``text``; a DataError
    naming ``path`` when it refuses the file, as it does a cell over its field
    size limit."""
    try:
        return list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as err:
        raise DataError(f"{path}: {err}") from None


def _plain_lines(text: str) -> list[str] | None:
    """``text``'s lines when splitting each on commas gives ``csv.reader``'s rows.

    That holds when it has no quote and no lone carriage return (CRLF
    is folded to LF), its first line is not empty, every line has the
    first line's comma count, and no line is longer than the csv
    module's field size limit; otherwise this returns None. A blank
    line fails the comma count, which keeps it away from
    ``np.loadtxt``, since that reader skips blank lines.
    """
    if '"' in text:
        return None
    text = text.replace("\r\n", "\n")
    if "\r" in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or not lines[0]:
        return None
    commas = lines[0].count(",")
    if any(line.count(",") != commas for line in lines):
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    return lines


def _parse_plain(lines: list[str], col_of: dict, ts_col: int | None) -> Table | None:
    """The Table of a plain file's data ``lines``, or None when numpy's reader
    refuses a cell or a value fails a check, which leaves the file to the row scan.

    ``np.loadtxt`` rounds every cell it takes as ``float`` does.
    """
    if not lines:
        return None
    try:
        features = np.loadtxt(lines, delimiter=",", usecols=[col_of[name] for name in SCHEMA],
                              comments=None, ndmin=2)
    except ValueError:
        return None
    if not (np.isfinite(features).all() and (features[:, TARGET_INDEX] >= 0).all()):
        return None
    timestamps = None
    if ts_col is not None:
        timestamps = [line.split(",", ts_col + 1)[ts_col] for line in lines]
    return Table(features, timestamps)


def _scan_rows(path, rows: list[list[str]], width: int, col_of: dict,
               ts_col: int | None) -> Table:
    """The Table of the data ``rows``, one cell at a time with ``float``.

    Rows with an empty cell are dropped with a warning; a ragged row, an
    unparsable or non-finite cell, or a negative target raises a RowError
    citing the file line.
    """
    features = np.empty((len(rows), len(SCHEMA)))
    timestamps = [] if ts_col is not None else None
    dropped = 0
    kept = 0
    for row_idx, row in enumerate(rows):
        line = row_idx + 2
        if len(row) != width:
            raise RowError(line, f"expected {width} cells, got {len(row)}")
        values = []
        for name in SCHEMA:
            text = row[col_of[name]].strip()
            if text == "":
                break
            try:
                value = float(text)
            except ValueError:
                raise RowError(line, f"cannot parse {text!r} in column {name}") from None
            if not math.isfinite(value):
                raise RowError(line, f"non-finite value in column {name}")
            values.append(value)
        if len(values) < len(SCHEMA):
            dropped += 1
            continue
        if values[TARGET_INDEX] < 0:
            raise RowError(line, f"{TARGET_COLUMN} must be >= 0, got {values[TARGET_INDEX]}")
        features[kept] = values
        kept += 1
        if timestamps is not None:
            timestamps.append(row[ts_col])
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} row(s) with missing cells")
    if not kept:
        warnings.warn(f"{path}: no data rows")
        return Table(np.empty((0, len(SCHEMA))), timestamps)
    return Table(features[:kept], timestamps)


def csv_cell(text: str) -> str:
    """``text`` as one CSV cell, quoted as ``csv.writer`` quotes it: only when it
    holds a comma, a quote or a line break, with each quote doubled."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(table: Table, path):
    """Write a Table back out; float repr keeps round trips bit-exact.

    ``tolist`` hands each row over as Python floats, so no cell is
    boxed as a numpy scalar before ``repr`` formats it.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        header = (["timestamp"] if table.timestamps is not None else []) + SCHEMA
        fh.write(",".join(header) + "\n")
        for i, row in enumerate(table.features):
            line = ",".join(map(repr, row.tolist()))
            if table.timestamps is not None:
                line = csv_cell(table.timestamps[i]) + "," + line
            fh.write(line + "\n")


# --- windowing / splitting -------------------------------------------------


def make_windows(table: Table, window: int, *, trailing: bool = False) -> SupervisedSet:
    """Slide a length-``window`` input over the rows; the target is the next row's.

    With ``trailing`` the last window, whose target row lies past the
    data, is kept too and gets a NaN target. ``inputs`` is a read-only
    view of ``table.features``, so windowing a table again copies
    nothing.
    """
    if window < 1:
        raise ParameterError(f"window must be >= 1, got {window}")
    need = window if trailing else window + 1
    n = len(table)
    if n < need:
        raise DataError(f"need at least {need} rows to window, got {n}")
    count = n - need + 1
    inputs = np.lib.stride_tricks.sliding_window_view(
        table.features, window, axis=0).transpose(0, 2, 1)[:count]
    targets = np.full(count, np.nan)
    known = table.features[window:, TARGET_INDEX]
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


TRAIN_FRAC = 0.8
VAL_FRAC_OF_TRAIN = 0.1


def split_indices(n: int) -> dict[str, np.ndarray]:
    """Chronological train/val/test positions of ``n`` samples.

    The first ``TRAIN_FRAC`` of samples trains, and the last
    ``VAL_FRAC_OF_TRAIN`` of those becomes the validation set; the
    remainder tests. The split is never shuffled: shuffled windows
    leak near-duplicates across the split boundary.
    """
    positions = np.arange(n)
    n_train_total = int(np.floor(TRAIN_FRAC * n))
    n_val = int(np.floor(VAL_FRAC_OF_TRAIN * n_train_total))
    parts = {
        "train": positions[:n_train_total - n_val],
        "val": positions[n_train_total - n_val:n_train_total],
        "test": positions[n_train_total:],
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
    train_inputs = samples.inputs[parts["train"]]
    scaler = fit_scaler(train_inputs, samples.targets_raw[parts["train"]])
    out = []
    for name in ("train", "val", "test"):
        idx = parts[name]
        out.append(SupervisedSet(
            inputs=scaler.scale_inputs(train_inputs if name == "train" else samples.inputs[idx]),
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
    # Python floats run the recursion with the same IEEE operations as
    # numpy scalars, without boxing one per step
    persist = rng.spawn(1).normals(n).tolist()
    innov = float(np.sqrt(1.0 - _AR_RHO ** 2))
    for i in range(1, n):
        persist[i] = _AR_RHO * persist[i - 1] + innov * persist[i]
    persist = _standardized(np.array(persist))

    signal = np.sqrt(1.0 - _TARGET_NOISE ** 2)
    latent = _CYCLE_WEIGHT * _cycle(n) + _PERSIST_WEIGHT * persist
    shortfall = signal * latent + _TARGET_NOISE * rng.spawn(3).normals(n)
    return persist, shortfall


def synth_generate(n: int, seed: int) -> Table:
    """Draw ``n`` schema rows with reference moments and a learnable target."""
    if n < 1:
        raise ParameterError(f"row count must be >= 1, got {n}")
    rng = RngState(seed)
    persist, shortfall = synth_latent(n, rng)
    generator = _GEN_SCALE * np.clip(shortfall - _GEN_THRESHOLD, 0.0, None)

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
        features[:, j] = mean + np.sqrt(variance) * (
            w * mix + np.sqrt(1.0 - w * w) * noise
        )
    return Table(features)


def moment_report(table: Table) -> list[dict]:
    """Achieved vs reference mean/variance per column, for synth provenance."""
    rows = []
    for j, name in enumerate(SCHEMA):
        mean, variance = TABLE_STATS[name]
        col = table.features[:, j]
        rows.append({
            "feature": name,
            "target_mean": mean,
            "achieved_mean": float(col.mean()),
            "target_variance": variance,
            "achieved_variance": float(col.var()),
        })
    return rows
