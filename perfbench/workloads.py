"""Set-up, workloads and correctness gates of the gridcast benchmark.

A workload is a closed loop: one process runs the workload's CLI
commands in-process through ``gridcast.cli.main``, one after another,
and starts the next iteration only when the previous one has finished.
All inputs come from the workload seed: it drives ``synth_generate``
and every command's ``--seed``, and the commands see only the generated
CSV and model file.
"""

from __future__ import annotations

import contextlib
import csv
import filecmp
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridcast import cli, data
from gridcast.network import Network
from gridcast.tensor import RngState

from tracer import PER_LAYER, Tracer

WORK_ROOT = Path(__file__).resolve().parent / "_work"

WORKLOADS = ("train-surrogate", "compare-baselines", "explain-predict")
END_TO_END = {"setup_s": "s", "iteration_s": "s", "peak_rss_mb": "MB"}

# Every baseline row must beat predicting the training mean (test r2 > 0).
# Criterion 2's 0.90 is not a per-seed property of these baselines: on
# 2,000 rows over seeds 0-39, KNN reached 0.59-0.99, ridge 0.61-0.98 and a
# 10-tree forest 0.77-0.99. The floor catches a broken model (constant,
# shuffled or NaN output); the unit tests hold the exact oracles.
BASELINE_ROWS = ("KNN", "Bayesian Ridge", "RF")
GAP_LIMIT = 1e-9
PREDICTION_RTOL = 1e-9


@dataclass(frozen=True)
class Profile:
    """Input sizes; FULL is the benchmark, TINY only exercises the code paths.

    FULL keeps every CLI command near 1.5 s on a quiet host, so a run
    times each command 10-20 times and its medians are steady.
    """

    rows: int = 2000
    epochs: int = 1
    trees: int = 10
    explain_windows: int = 4
    explain_perms: int = 50
    checked_windows: int = 16


FULL = Profile()
TINY = Profile(rows=1200, trees=4, explain_windows=2, explain_perms=4, checked_windows=4)


class Tally:
    """Operations (commands and gates) attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"FAILED {what}: {problem}", file=sys.stderr)


# --- gates: each returns None when the artifact is correct, else the problem ---


def check_trainlog(path) -> str | None:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return "no epochs logged"
    bad = [row["epoch"] for row in rows
           if not all(math.isfinite(float(row[k])) for k in ("train_loss", "val_loss"))]
    return f"non-finite loss at epochs {bad}" if bad else None


def check_predictions(path, csv_path, model_path, count: int) -> str | None:
    """Sampled rows of predictions.csv equal a direct single-window forward."""
    net, scaler, meta = cli.load_model(model_path)
    table = data.load_csv(csv_path)
    window, horizon = meta["window"], meta["horizon"]
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    n = len(table) - window + 1
    if len(rows) != n:
        return f"{len(rows)} prediction rows, expected {n}"
    for i in np.unique(np.linspace(0, n - 1, count).round().astype(int)):
        row = rows[i]
        if int(row["index"]) != i + window + horizon - 1:
            return f"row {i} has index {row['index']}"
        window_in = scaler.scale_inputs(table.features[i:i + window])
        expected = float(scaler.unscale_targets(net.forward(window_in))[0])
        got = float(row["predicted"])
        if not math.isclose(got, expected, rel_tol=PREDICTION_RTOL):
            return f"window {i}: predicted {got!r}, direct forward {expected!r}"
    return None


def check_shapley(path) -> str | None:
    gaps = json.loads(Path(path).read_text(encoding="utf-8"))["efficiency_gaps"]
    bad = [g for g in gaps if not abs(g) <= GAP_LIMIT]
    return f"efficiency gaps above {GAP_LIMIT}: {bad}" if bad else None


def check_compare(path) -> str | None:
    with open(path, encoding="utf-8") as fh:
        rows = {row["model"]: row for row in csv.DictReader(fh)}
    for model in BASELINE_ROWS:
        if model not in rows:
            return f"no {model} row"
        values = [float(rows[model][k]) for k in ("mae", "rmse", "r2")]
        if not all(math.isfinite(v) for v in values):
            return f"{model} row not finite: {values}"
        if not values[2] > 0.0:
            return f"{model} r2 {values[2]}% does not beat the training mean"
    return None


def check_identical(dir_a, dir_b) -> str | None:
    a, b = Path(dir_a), Path(dir_b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return f"file sets differ: {files_a} vs {files_b}"
    differ = [str(p) for p in files_a if not filecmp.cmp(a / p, b / p, shallow=False)]
    return f"files differ: {differ}" if differ else None


# --- set-up and iterations ------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    csv: Path
    model: Path
    seed: int
    profile: Profile


def setup(inputs: Inputs):
    """Synthetic CSV plus a seeded, freshly built (untrained) model file."""
    table = data.synth_generate(inputs.profile.rows, inputs.seed)
    data.write_csv(table, inputs.csv)
    cfg = cli.RunConfig(csv=str(inputs.csv), seed=inputs.seed)
    train_set, _, _ = cli.build_splits(cfg, table)
    net = Network.build(cfg.network_config(), RngState(inputs.seed).spawn(10))
    cli.save_model(inputs.model, net, train_set.scaler, cfg)


def commands(workload: str, inputs: Inputs, out: Path) -> list[list[str]]:
    p, seed = inputs.profile, str(inputs.seed)
    csv_path, model = str(inputs.csv), str(inputs.model)
    if workload == "train-surrogate":
        # patience above the epoch count: no lr cut or early stop can fire
        patience = str(p.epochs + 1)
        return [["train", "--csv", csv_path, "--task", "regression", "--seed", seed,
                 "--out-dir", str(out / "train"), "--max-epochs", str(p.epochs),
                 "--patience", patience, "--lr-patience", patience]]
    if workload == "compare-baselines":
        return [["compare", "--csv", csv_path, "--seed", seed, "--model", model,
                 "--out-dir", str(out / "compare"), "--trees", str(p.trees)]]
    if workload == "explain-predict":
        return [["predict", "--model", model, "--csv", csv_path, "--split", "all",
                 "--out-dir", str(out / "predict")],
                ["explain", "--model", model, "--csv", csv_path, "--seed", seed,
                 "--out-dir", str(out / "explain"), "--windows", str(p.explain_windows),
                 "--perms", str(p.explain_perms)]]
    raise ValueError(f"unknown workload {workload!r}")


def gates(workload: str, inputs: Inputs, out: Path, tally: Tally):
    if workload == "train-surrogate":
        tally.check("trainlog losses finite", check_trainlog(out / "train" / "trainlog.csv"))
    elif workload == "compare-baselines":
        tally.check("compare rows", check_compare(out / "compare" / "compare.csv"))
    else:
        tally.check("predictions equal direct forward", check_predictions(
            out / "predict" / "predictions.csv", inputs.csv, inputs.model,
            inputs.profile.checked_windows))
        tally.check("shapley efficiency", check_shapley(out / "explain" / "shapley.json"))


def iteration(workload: str, inputs: Inputs, out: Path, log, tally: Tally,
              tracer: Tracer | None = None) -> list[float]:
    """Runs the workload's commands once; returns each command's wall time."""
    shutil.rmtree(out, ignore_errors=True)
    elapsed = []
    for argv in commands(workload, inputs, out):
        if tracer is not None:
            tracer.begin_trace("iteration")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log):
                code = cli.main(argv)
        except Exception:   # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = 1
        elapsed.append(time.perf_counter() - t0)
        tally.check(f"gridcast {argv[0]} exit code", None if code == 0 else f"exit {code}")
    return elapsed


# Fixed reference time of probe(); reported times are scaled to it. On the
# quiet 2-CPU host the benchmark was written on, the probe took 8-9 ms.
PROBE_REF_S = 0.010


def to_reference(elapsed: float, probe_before: float, probe_after: float) -> float:
    """``elapsed`` in reference-host seconds, judged by the probes around it.

    The host is shared. Identical, deterministic work ran up to 3.5x
    slower in some 4 s windows than in others, and for minutes at a time
    the whole host ran 1.5-2.4x slower, which no statistic of the run's
    own timings can see. ``probe`` runs fixed work just before and just
    after each timed step; dividing by their mean cancels most of the
    host's speed of that moment (measurements in perfbench/README.md).
    """
    return elapsed * PROBE_REF_S * 2.0 / (probe_before + probe_after)


def probe() -> float:
    """Wall time of fixed reference work that no gridcast change can alter:
    small numpy calls from a Python loop, like the program's own."""
    a = np.full((16, 16), 1.0 / 32.0)
    x = np.ones(16)
    t0 = time.perf_counter()
    for _ in range(4000):
        x = np.tanh(x @ a + 0.1)
    return time.perf_counter() - t0


def _measure(seconds: float, body):
    """Calls ``body`` once, then again while another pass fits in ``seconds``."""
    started = time.perf_counter()
    passes = 0
    while True:
        body()
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / passes > seconds:
            return


def run(workload: str, seed: int, seconds: float, trace: bool, profile: Profile = FULL,
        work_root: Path = WORK_ROOT) -> tuple[dict, dict]:
    """One benchmark run; returns the result object printed by run.py and
    the raw timings behind its metrics."""
    work = work_root / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = Inputs(work / "data.csv", work / "model.json", seed, profile)
    tally = Tally()
    with open(work / "cli_stdout.log", "w", encoding="utf-8") as log:
        if trace:
            metrics, timings = _traced(workload, inputs, work, seconds, log, tally)
        else:
            metrics, timings = _untraced(workload, inputs, work, seconds, log, tally)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}, timings


def _untraced(workload, inputs, work, seconds, log, tally) -> tuple[dict, dict]:
    """Passes of set-up then iteration, each between two probes; reports medians."""
    out = work / "out"
    raw = {"probe_s": [probe()], "setup_s": [], "iteration_s": []}
    scaled = {"setup_s": [], "iteration_s": []}

    def one_pass():
        t0 = time.perf_counter()
        setup(inputs)
        raw["setup_s"].append(time.perf_counter() - t0)
        raw["probe_s"].append(probe())
        raw["iteration_s"].append(iteration(workload, inputs, out, log, tally))
        raw["probe_s"].append(probe())
        before_setup, before_iteration, after = raw["probe_s"][-3:]
        scaled["setup_s"].append(to_reference(raw["setup_s"][-1], before_setup,
                                              before_iteration))
        scaled["iteration_s"].append(to_reference(sum(raw["iteration_s"][-1]),
                                                  before_iteration, after))
        gates(workload, inputs, out, tally)
        raw["probe_s"].append(probe())

    _measure(seconds, one_pass)
    values = {name: statistics.median(times) for name, times in scaled.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, raw


def _traced(workload, inputs, work, seconds, log, tally) -> tuple[dict, dict]:
    """Pairs of untraced and traced iterations, alternating which goes first."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_trace("setup")
        setup(inputs)
    finally:
        tracer.uninstall()
    raw = {False: [], True: []}
    scaled = {False: [], True: []}

    def one_pair():
        order = (False, True) if len(raw[False]) % 2 == 0 else (True, False)
        for traced in order:
            before = probe()
            if traced:
                tracer.install()
            try:
                raw[traced].append(iteration(workload, inputs, work / "out", log, tally,
                                             tracer if traced else None))
            finally:
                tracer.uninstall()
            scaled[traced].append(to_reference(sum(raw[traced][-1]), before, probe()))
            # both sides write to the same --out-dir, which their artifacts record
            kept = work / ("traced" if traced else "plain")
            shutil.rmtree(kept, ignore_errors=True)
            (work / "out").rename(kept)
        gates(workload, inputs, work / "plain", tally)
        tally.check("traced artifacts identical to untraced",
                    check_identical(work / "plain", work / "traced"))

    _measure(seconds, one_pair)
    tracer.save(work / "spans.npz")
    overhead = statistics.median(scaled[True]) - statistics.median(scaled[False])
    values = tracer.summarize(setups=1, iterations=len(raw[True]), overhead_s=overhead)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return metrics, {"untraced_iteration_s": raw[False], "traced_iteration_s": raw[True],
                     "untraced_reference_s": scaled[False], "traced_reference_s": scaled[True]}
