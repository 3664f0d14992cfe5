"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines. The surrogate-scale criteria (2 and 3) share one
run of ``scripts/run_surrogate_experiment.py`` on the 5,000-row
seed-fixed synthetic dataset, which takes about 25 s on 2 CPUs, and
assert on its artifacts; everything else is fast.
"""

import io
import itertools
import json
import re
import runpy
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from gridcast import data as dat
from gridcast.baselines import (BayesianRidge, RegressionTree, _grow_in_processes,
                                knn_predict_batch)
from gridcast.cli import RunConfig
from gridcast.cli import main as cli_main
from gridcast.explain import shapley_exact, shapley_sample
from gridcast.layers import Attention, Conv1d, Dense, Gru, LayerNorm
from gridcast.metrics import classification_metrics, regression_metrics
from gridcast.network import Network, NetworkConfig
from gridcast.tensor import RngState
from gridcast.train import TrainConfig, fit, predict_all

from oracles import (brute_force_knn, check_gradients, enumerate_shapley,
                     exhaustive_best_split, normal_equations_ridge)

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_surrogate_experiment.py"
SURROGATE_ROWS = 5000
SURROGATE_SEED = 7


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


# --- shared surrogate experiment (criteria 2 and 3) -------------------------


@pytest.fixture(scope="module")
def surrogate_run(tmp_path_factory):
    """``scripts/run_surrogate_experiment.py``'s out-dir, stdout and wall time in s."""
    main = runpy.run_path(str(SCRIPT))["main"]
    out = tmp_path_factory.mktemp("surrogate")
    t0 = time.perf_counter()
    with redirect_stdout(io.StringIO()) as stdout:
        main(["--out-dir", str(out), "--rows", str(SURROGATE_ROWS), "--seed", str(SURROGATE_SEED)])
    return out, stdout.getvalue(), time.perf_counter() - t0


def test_criterion_1_gradient_integrity():
    with criterion(1, "analytic gradients match finite differences (<1e-4, <60s)"):
        t0 = time.perf_counter()
        rng = RngState(42)
        for case in range(20):
            t_len, d_in, d_out = 1 + case % 5, 1 + case % 3, 1 + (case + 1) % 3

            conv = Conv1d.init(d_in, d_out, (1, 3, 5)[case % 3], rng)
            x = rng.uniform(-1, 1, (1, t_len, d_in))
            check_gradients(lambda l=conv, x=x: l.forward(x),
                            lambda up, l=conv: {"x": l.backward(up), **l.grads},
                            {"x": x, **conv.params()}, seed=case)

            gru = Gru.init(d_in, 1 + case % 4, rng)
            x = rng.uniform(-1, 1, (1, t_len, d_in))
            check_gradients(lambda l=gru, x=x: l.forward(x),
                            lambda up, l=gru: {"x": l.backward(up), **l.grads},
                            {"x": x, **gru.params()}, seed=case)

            attn = Attention.init(d_in, 1 + case % 3, rng)
            x = rng.uniform(-1, 1, (1, t_len, d_in))
            check_gradients(lambda l=attn, x=x: l.forward(x),
                            lambda up, l=attn: {"x": l.backward(up), **l.grads},
                            {"x": x, **attn.params()}, seed=case)

            dense = Dense.init(d_in, d_out, rng, activation="relu")
            dense.bias += 0.05
            x = rng.uniform(0.1, 1.0, (t_len, d_in))
            check_gradients(lambda l=dense, x=x: l.forward(x),
                            lambda up, l=dense: {"x": l.backward(up), **l.grads},
                            {"x": x, **dense.params()}, seed=case)

            norm = LayerNorm.init(1 + d_in)
            norm.gain += rng.uniform(-0.2, 0.2, 1 + d_in)
            x = rng.uniform(-1, 1, (t_len, 1 + d_in))
            check_gradients(lambda l=norm, x=x: l.forward(x),
                            lambda up, l=norm: {"x": l.backward(up), **l.grads},
                            {"x": x, **norm.params()}, seed=case)

        for case in range(5):
            cfg = NetworkConfig(window=4, features=2, blocks=1 + case % 2,
                                conv_filters=1 + case % 3, kernel=(1, 3)[case % 2],
                                gru_units=1 + (case + 1) % 3, attn_dim=1 + case % 2,
                                mlp_hidden=2, dropout_rate=(0.0, 0.3)[case % 2],
                                head=("regression", "classification")[case % 2])
            net = Network.build(cfg, RngState(900 + case))
            x = RngState(800 + case).uniform(-1, 1, (4, 2))
            arrays = {"x": x, **net.params()}

            def forward_fn(n=net, x=x, c=case):
                return n.forward(x, training=True, rng=RngState(700 + c))

            def backward_fn(up, n=net):
                grads = n.backward(up)
                return {"x": n.input_grad, **grads}

            check_gradients(forward_fn, backward_fn, arrays, seed=case)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


@pytest.mark.slow
def test_criterion_2_surrogate_regression(surrogate_run):
    with criterion(2, "surrogate regression r2 >= 0.90 and beats >= 2 baselines on RMSE (<10 min)"):
        out, stdout, elapsed = surrogate_run
        net = json.loads((out / "regression" / "metrics.json").read_text())
        # compare's per-model lines: "KNN                mae=1.6713 rmse=2.5054 r2=0.9870"
        rows = stdout.split("$ gridcast compare", 1)[1]
        rmse = {name: float(value) for name, value
                in re.findall(r"^(\S.*?)\s+mae=\S+ rmse=(\S+)", rows, re.MULTILINE)}
        net_rmse = rmse.pop("CNN-GRU-Attention")
        beaten = sum(net_rmse < value for value in rmse.values())
        print(f"  net r2={net['r2']:.4f} rmse={net['rmse']:.3f} "
              f"epochs={net['epochs_run']}; baseline rmse={ {k: round(v, 3) for k, v in rmse.items()} }; "
              f"{elapsed:.0f}s")
        assert net["r2"] >= 0.90, f"r2 {net['r2']:.4f} < 0.90"
        assert beaten >= 2, f"beat only {beaten} baselines: {rmse}"
        assert elapsed < 600.0, f"run took {elapsed:.0f}s"


@pytest.mark.slow
def test_criterion_3_surrogate_zero_state(surrogate_run):
    with criterion(3, "zero-state classification accuracy >= 0.97 and AUC >= 0.99"):
        out = surrogate_run[0]
        windows = dat.make_windows(dat.load_csv(out / "synthetic.csv"), RunConfig().window)
        train = dat.split_indices(len(windows))["train"]
        zero_rate = dat.label_zero_state(windows.targets_raw[train]).mean()
        assert 0.3 < zero_rate < 0.5, f"zero-state rate {zero_rate:.3f} not ~40%"
        # Figs. 7-8 analogues: ROC points and confusion counts on disk
        report = json.loads((out / "classification" / "metrics.json").read_text())
        assert (out / "classification" / "roc.csv").stat().st_size > 0
        counts = report["confusion"]
        print(f"  accuracy={report['accuracy']:.4f} auc={report['auc']:.5f} "
              f"tp={counts['tp']} tn={counts['tn']} fp={counts['fp']} fn={counts['fn']} "
              f"epochs={report['epochs_run']}")
        assert report["accuracy"] >= 0.97, f"accuracy {report['accuracy']:.4f} < 0.97"
        assert report["auc"] >= 0.99, f"auc {report['auc']:.5f} < 0.99"


def test_criterion_4_training_protocol():
    with criterion(4, "a flat loss curve cuts lr /3 after 100 epochs and stops after 300"):
        x = RngState(5).uniform(-1, 1, (10, 4, 3))
        net = Network.build(NetworkConfig(window=4, features=3, blocks=1,
                                          conv_filters=2, gru_units=2, attn_dim=2,
                                          mlp_hidden=2, dropout_rate=0.0),
                            RngState(1))
        # the dropout-free network's own outputs as targets: every gradient is
        # zero, so Adam moves nothing and the validation loss stays flat
        y = predict_all(net, x)
        cfg = TrainConfig(initial_lr=0.001, seed=2)
        assert (cfg.max_epochs, cfg.early_stop_patience, cfg.lr_patience) == (10000, 300, 100)
        net, log = fit(net, (x[:8], y[:8]), (x[8:], y[8:]), cfg)
        assert log.stop_reason == "early_stop"
        assert len(log.epochs) == 301            # 1 improvement + 300 flat epochs
        lrs = [rec.lr for rec in log.epochs]
        assert lrs[:101] == [0.001] * 101
        assert lrs[101:201] == [0.001 / 3] * 100
        assert lrs[201:301] == [0.001 / 9] * 100
        for a, b in zip(lrs, lrs[1:]):
            if a != b:
                assert b == pytest.approx(a / 3.0, rel=1e-12, abs=0)


def test_criterion_5_metric_identities():
    with criterion(5, "metric identities and hand-count formulas hold"):
        rng = RngState(6)
        for _ in range(1000):
            n = 2 + int(rng.integers(40, 1)[0])
            real = rng.uniform(-10, 10, n)
            pred = real + rng.normals(n)
            rep = regression_metrics(pred, real)
            assert rep.rmse >= rep.mae - 1e-12

        same = rng.uniform(-5, 5, 20)
        assert regression_metrics(same, same).r2 == 1.0

        # enumerated 4-element score/label cases vs direct counting
        scores = [0.9, 0.6, 0.4, 0.1]
        for labels in itertools.product((0.0, 1.0), repeat=4):
            rep = classification_metrics(scores, list(labels))
            tp = sum(1 for s, l in zip(scores, labels) if s >= 0.5 and l == 1.0)
            fp = sum(1 for s, l in zip(scores, labels) if s >= 0.5 and l == 0.0)
            fn = sum(1 for s, l in zip(scores, labels) if s < 0.5 and l == 1.0)
            tn = sum(1 for s, l in zip(scores, labels) if s < 0.5 and l == 0.0)
            assert (rep.tp, rep.fp, rep.fn, rep.tn) == (tp, fp, fn, tn)
            assert rep.accuracy == (tp + tn) / 4
            if tp + fp > 0:
                assert rep.precision == tp / (tp + fp)
            else:
                assert rep.precision is None

        auc_case = classification_metrics([0.9, 0.8, 0.4, 0.2], [1.0, 0.0, 1.0, 0.0])
        assert auc_case.auc == 0.75


def test_criterion_6_baseline_oracles():
    with criterion(6, "baselines match their independent oracles"):
        rng = RngState(8)
        for trial in range(8):
            x = rng.uniform(-1, 1, (30, 4))
            y = rng.uniform(-2, 2, 30)
            alpha = 10.0 ** -(trial % 5)
            model = BayesianRidge(alpha=alpha).fit(x, y)
            oracle_w, _, _ = normal_equations_ridge(x, y, alpha)
            assert np.abs(model.weights - oracle_w).max() < 1e-8

        train_x = rng.uniform(-1, 1, (50, 6))
        train_y = rng.uniform(0, 5, 50)
        queries = rng.uniform(-1, 1, (200, 6))
        mine = knn_predict_batch(train_x, train_y, queries, k=5)
        oracle = [brute_force_knn(train_x, train_y, q, 5) for q in queries]
        assert np.abs(mine - np.array(oracle)).max() < 1e-12

        x_step = np.linspace(-1, 1, 40).reshape(-1, 1)
        y_step = (x_step[:, 0] >= 0).astype(float)
        tree = RegressionTree(RngState(0))
        _grow_in_processes([tree], x_step, y_step, [np.arange(40)], max_depth=1, min_leaf=1,
                           jobs=1)
        gain, thr = exhaustive_best_split(x_step[:, 0], y_step, min_leaf=1)
        assert abs(tree.root.threshold - thr) < 1e-12
        assert tree.predict_one([-0.1]) == 0.0 and tree.predict_one([0.1]) == 1.0


def test_criterion_7_shapley_soundness():
    with criterion(7, "shapley sampling/exact agree; efficiency and dummy axioms hold"):
        rng = RngState(9)
        w1 = rng.uniform(-1, 1, (5, 4))
        w2 = rng.uniform(-1, 1, 4)

        def model(windows):
            pooled = np.asarray(windows).mean(axis=-2)
            return np.tanh(pooled @ w1) @ w2

        x = rng.uniform(-1, 1, (3, 5))
        bg = rng.uniform(-0.5, 0.5, 5)
        exact = shapley_exact(model, x, bg)
        oracle = enumerate_shapley(model, x, bg, 5)
        assert np.abs(exact - oracle).max() < 1e-12

        sampled, stderr = shapley_sample(model, x, bg, n_perms=2000, rng=RngState(10))
        assert (np.abs(sampled - exact) <= 3.0 * stderr + 1e-12).all()

        gap = exact.sum() - (model(x) - model(np.broadcast_to(bg, x.shape)))
        assert abs(gap) < 1e-10

        dead = rng.uniform(-1, 1, (5, 4))
        dead[2, :] = 0.0   # column 2 cannot influence the output

        def dummy_model(windows):
            pooled = np.asarray(windows).mean(axis=-2)
            return np.tanh(pooled @ dead) @ w2

        assert shapley_exact(dummy_model, x, bg)[2] == 0.0


def test_criterion_8_synthetic_moment_matching():
    with criterion(8, "synthetic feature means match reference within 3 SE at n=10^4"):
        table = dat.synth_generate(10_000, seed=SURROGATE_SEED)
        for j, name in enumerate(dat.SCHEMA):
            col = table.features[:, j]
            mean, variance = dat.TABLE_STATS[name]
            if name == "generator_kw":
                # the target comes from the clipped shortfall rule, whose
                # calibrated expectation is the reference mean; its spread is
                # the rule's own, so the SE uses the sample std
                se = col.std(ddof=1) / np.sqrt(col.size)
            else:
                se = np.sqrt(variance / col.size)
            assert abs(col.mean() - mean) < 3.0 * se, (
                f"{name}: mean {col.mean():.4f} vs {mean} (3SE={3 * se:.4f})"
            )


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "train/compare/explain rerun with one seed byte-identically"):
        csv = tmp_path / "d.csv"
        assert cli_main(["synth", "--rows", "220", "--seed", "3", "--out", str(csv)]) == 0
        fast = ["--blocks", "1", "--conv-filters", "3", "--gru-units", "3",
                "--attn-dim", "3", "--mlp-hidden", "4", "--window", "6",
                "--max-epochs", "2"]

        def snap(directory):
            return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

        train_dir = tmp_path / "t"
        argv = ["train", "--csv", str(csv), "--seed", "5", "--out-dir",
                str(train_dir), *fast]
        assert cli_main(argv) == 0
        first = snap(train_dir)
        assert cli_main(argv) == 0
        assert snap(train_dir) == first

        cmp_dir = tmp_path / "c"
        argv = ["compare", "--csv", str(csv), "--seed", "5", "--out-dir",
                str(cmp_dir), "--trees", "6", *fast]
        assert cli_main(argv) == 0
        first = snap(cmp_dir)
        assert cli_main(argv) == 0
        assert snap(cmp_dir) == first

        exp_dir = tmp_path / "e"
        argv = ["explain", "--model", str(train_dir / "model.json"),
                "--csv", str(csv), "--seed", "5", "--out-dir", str(exp_dir),
                "--windows", "2", "--perms", "5"]
        assert cli_main(argv) == 0
        first = snap(exp_dir)
        assert cli_main(argv) == 0
        assert snap(exp_dir) == first


def test_criterion_10_real_data_pathway(tmp_path):
    with criterion(10, "any schema CSV runs compare end-to-end with marker rows"):
        # hand-built CSV, not from the synthetic generator
        rng = np.random.default_rng(123)
        n = 160
        rows = []
        for i in range(n):
            vals = {name: float(rng.normal(m, np.sqrt(v)))
                    for name, (m, v) in dat.TABLE_STATS.items()}
            vals["generator_kw"] = float(max(0.0, rng.normal(10, 6)))
            rows.append(",".join(repr(vals[name]) for name in dat.SCHEMA))
        csv = tmp_path / "real.csv"
        csv.write_text(",".join(dat.SCHEMA) + "\n" + "\n".join(rows) + "\n")

        out = tmp_path / "cmp"
        code = cli_main(["compare", "--csv", str(csv), "--seed", "1",
                         "--out-dir", str(out), "--max-epochs", "1",
                         "--trees", "5", "--blocks", "1", "--conv-filters", "3",
                         "--gru-units", "3", "--attn-dim", "3",
                         "--mlp-hidden", "4", "--window", "6"])
        assert code == 0
        lines = (out / "compare.csv").read_text().strip().splitlines()
        assert lines[0] == "model,mae,rmse,r2"
        models = [ln.split(",")[0] for ln in lines[1:]]
        assert models == ["CNN-GRU-Attention", "KNN", "Bayesian Ridge", "RF",
                          "SVR", "XGB"]
        assert all("not reproduced" in ln for ln in lines[5:])
