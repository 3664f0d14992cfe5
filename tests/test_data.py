import contextlib
import csv
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast import data as dat
from gridcast.cli import main
from gridcast.data import (SCHEMA, TABLE_STATS, Table, csv_cell, fit_scaler,
                           label_zero_state, load_csv, make_windows,
                           moment_report, split_and_scale, split_indices,
                           synth_generate, synth_latent, write_csv)
from gridcast.errors import DataError, ParameterError, RowError, SchemaError
from gridcast.tensor import RngState

REPO = Path(__file__).resolve().parents[1]


def rows_csv(tmp_path, rows, header=None, name="data.csv"):
    path = tmp_path / name
    lines = [",".join(header or SCHEMA)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def column(table, name):
    return table.features[:, SCHEMA.index(name)]


def simple_row(gen=5.0, base=1.0):
    row = [base * (i + 1) for i in range(len(SCHEMA))]
    row[SCHEMA.index("generator_kw")] = gen
    return row


class TestLoadCsv:
    def test_header_only_gives_empty_table_with_warning(self, tmp_path):
        path = rows_csv(tmp_path, [])
        with pytest.warns(UserWarning, match="no data rows"):
            table = load_csv(path)
        assert len(table) == 0

    def test_three_rows_in_order(self, tmp_path):
        rows = [simple_row(gen=float(g)) for g in (1, 2, 3)]
        table = load_csv(rows_csv(tmp_path, rows))
        assert len(table) == 3
        assert np.array_equal(column(table, "generator_kw"), [1.0, 2.0, 3.0])

    def test_unparsable_cell_cites_file_line(self, tmp_path):
        rows = [simple_row() for _ in range(4)]
        rows[3][2] = "abc"          # file line 5 (header + 3 rows before it)
        with pytest.raises(RowError, match="line 5"):
            load_csv(rows_csv(tmp_path, rows))

    def test_missing_column_named(self, tmp_path):
        header = [c for c in SCHEMA if c != "fuel_cost"]
        path = rows_csv(tmp_path, [[1.0] * len(header)], header=header)
        with pytest.raises(SchemaError, match="fuel_cost"):
            load_csv(path)

    @pytest.mark.parametrize("name", ["pv_kw", "generator_kw", "timestamp"])
    def test_column_named_twice_is_schema_error(self, tmp_path, name):
        header = ["timestamp"] + SCHEMA + [f" {name.upper()}"]
        path = rows_csv(tmp_path, [["t0"] + simple_row() + [1.0]], header=header)
        with pytest.raises(SchemaError, match=f"column '{name}' appears 2 times"):
            load_csv(path)

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path)

    def test_header_matching_is_case_and_whitespace_insensitive(self, tmp_path):
        header = [f"  {c.upper()} " for c in SCHEMA]
        path = rows_csv(tmp_path, [simple_row()], header=header)
        assert len(load_csv(path)) == 1

    def test_column_order_follows_header_not_schema(self, tmp_path):
        header = list(reversed(SCHEMA))
        row = list(reversed(simple_row(gen=9.0)))
        table = load_csv(rows_csv(tmp_path, [row], header=header))
        assert column(table, "generator_kw")[0] == 9.0
        assert column(table, "pv_kw")[0] == simple_row()[0]

    def test_timestamp_column_preserved(self, tmp_path):
        header = ["timestamp"] + SCHEMA
        rows = [["2023-01-01T00:00"] + simple_row(), ["2023-01-01T01:00"] + simple_row()]
        table = load_csv(rows_csv(tmp_path, rows, header=header))
        assert table.timestamps == ["2023-01-01T00:00", "2023-01-01T01:00"]

    def test_unknown_column_warned_and_ignored(self, tmp_path):
        header = SCHEMA + ["comment"]
        rows = [simple_row() + ["hello"]]
        with pytest.warns(UserWarning, match="comment"):
            table = load_csv(rows_csv(tmp_path, rows, header=header))
        assert len(table) == 1

    def test_missing_cell_rejected_by_default(self, tmp_path):
        rows = [simple_row(), simple_row(), simple_row()]
        rows[1][0] = ""
        with pytest.warns(UserWarning, match="dropped 1"):
            table = load_csv(rows_csv(tmp_path, rows))
        assert len(table) == 2

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_cell_cites_file_line(self, tmp_path, text):
        rows = [simple_row() for _ in range(3)]
        rows[2][SCHEMA.index("fuel_cost")] = text
        with pytest.raises(RowError, match="line 4.*non-finite value in column fuel_cost"):
            load_csv(rows_csv(tmp_path, rows))

    def test_dropped_rows_leave_kept_rows_in_file_order(self, tmp_path):
        rows = [simple_row(gen=float(g), base=float(g + 1)) for g in range(6)]
        for i in (0, 3, 5):
            rows[i][4] = ""
        with pytest.warns(UserWarning, match="dropped 3"):
            table = load_csv(rows_csv(tmp_path, rows))
        assert np.array_equal(table.features, np.array([rows[i] for i in (1, 2, 4)]))

    def test_negative_generator_rejected(self, tmp_path):
        rows = [simple_row(gen=-1.0)]
        with pytest.raises(RowError, match="generator_kw"):
            load_csv(rows_csv(tmp_path, rows))


class TestMakeWindows:
    def test_counts_and_first_target(self):
        feats = np.arange(10 * 13, dtype=float).reshape(10, 13)
        table = Table(feats)
        sset = make_windows(table, window=4)
        assert len(sset) == 6
        assert sset.targets_raw[0] == feats[4, SCHEMA.index("generator_kw")]
        assert np.array_equal(sset.inputs[0], feats[0:4])

    def test_boundary_single_sample(self):
        table = Table(np.ones((5, 13)))
        assert len(make_windows(table, window=4)) == 1

    def test_no_leakage_target_outside_window(self):
        feats = np.zeros((12, 13))
        feats[:, SCHEMA.index("generator_kw")] = np.arange(12)
        sset = make_windows(Table(feats), window=5)
        gen_col = SCHEMA.index("generator_kw")
        for i in range(len(sset)):
            assert sset.targets_raw[i] == i + 5
            assert sset.targets_raw[i] not in sset.inputs[i][:, gen_col]

    def test_window_below_one(self):
        with pytest.raises(ParameterError, match="window must be >= 1, got 0"):
            make_windows(Table(np.ones((10, 13))), 0)

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            make_windows(Table(np.ones((4, 13))), window=4)
        with pytest.raises(DataError):
            make_windows(Table(np.ones((3, 13))), window=4, trailing=True)

    def test_trailing_keeps_windows_past_the_data(self):
        feats = np.arange(10 * 13, dtype=float).reshape(10, 13)
        full = make_windows(Table(feats), window=4)
        trailing = make_windows(Table(feats), window=4, trailing=True)
        assert len(trailing) == 10 - 4 + 1
        assert np.isnan(trailing.targets_raw[-1])
        assert np.array_equal(trailing.targets_raw[:-1], full.targets_raw)
        assert np.array_equal(trailing.inputs[:-1], full.inputs)
        assert np.array_equal(trailing.inputs[-1], feats[6:10])
        assert np.array_equal(trailing.indices, np.arange(7))
        assert len(make_windows(Table(feats[:4]), window=4, trailing=True)) == 1

    @pytest.mark.parametrize("trailing", [False, True])
    def test_inputs_are_a_read_only_view_of_stacked_slices(self, trailing):
        feats = np.random.default_rng(3).normal(size=(20, 13))
        sset = make_windows(Table(feats), window=5, trailing=trailing)
        stacked = np.stack([feats[i:i + 5] for i in range(len(sset))])
        assert np.array_equal(sset.inputs, stacked)
        assert np.shares_memory(sset.inputs, feats)
        assert not sset.inputs.flags.writeable
        with pytest.raises(ValueError):
            sset.inputs[0, 0, 0] = 1.0


def split(sset):
    return split_and_scale(sset, split_indices(len(sset)))


class TestSplitAndScale:
    def make_set(self, n):
        rng = np.random.default_rng(0)
        feats = rng.normal(10.0, 3.0, size=(n + 8, 13))
        feats[:, SCHEMA.index("generator_kw")] = np.abs(feats[:, SCHEMA.index("generator_kw")])
        return make_windows(Table(feats), window=8)

    def test_documented_72_8_20_split(self):
        sset = self.make_set(100)
        assert len(sset) == 100
        train, val, test = split(sset)
        assert (len(train), len(val), len(test)) == (72, 8, 20)

    def test_scaled_train_columns_are_zscored(self):
        train, _, _ = split(self.make_set(100))
        cells = train.inputs.reshape(-1, 13)
        assert np.abs(cells.mean(axis=0)).max() < 1e-9
        assert np.abs(cells.std(axis=0) - 1.0).max() < 1e-9

    def test_test_uses_train_scaler(self):
        train, _, test = split(self.make_set(100))
        assert test.scaler is train.scaler
        cells = test.inputs.reshape(-1, 13)
        # scaled with the train stats, so the test mean is NOT exactly zero
        assert np.abs(cells.mean(axis=0)).max() > 1e-9

    def test_chronological_order_train_before_test(self):
        train, val, test = split(self.make_set(50))
        assert train.indices.max() < val.indices.min() <= val.indices.max() < test.indices.min()

    def test_scaler_inverse_is_identity_on_train_targets(self):
        train, _, _ = split(self.make_set(60))
        back = train.scaler.unscale_targets(train.model_targets("regression"))
        assert np.abs(back - train.targets_raw).max() < 1e-12

    def test_empty_split_errors(self):
        with pytest.raises(DataError):
            split(self.make_set(4))

    def test_model_targets_need_a_scaled_set_and_a_known_task(self):
        with pytest.raises(ParameterError, match="set is unscaled; run split_and_scale first"):
            self.make_set(20).model_targets("regression")
        train, _, _ = split(self.make_set(100))
        with pytest.raises(ParameterError, match="unknown task 'ranking'"):
            train.model_targets("ranking")

    def test_constant_column_scales_with_std_one(self):
        feats = np.ones((30, 13))
        feats[:, 0] = np.arange(30, dtype=float)
        sset = make_windows(Table(feats), window=4)
        with pytest.warns(UserWarning, match="constant"):
            train, _, _ = split(sset)
        assert np.isfinite(train.inputs).all()


class TestZeroState:
    def test_threshold_contract(self):
        labels = label_zero_state(np.array([0.0, 12.0, 1e-7]))
        assert labels.tolist() == [1.0, 0.0, 1.0]

    def test_above_threshold(self):
        assert label_zero_state(np.array([2e-6]))[0] == 0.0


class TestSynthGenerate:
    def test_pv_mean_matches_reference_within_three_se(self):
        table = synth_generate(10_000, seed=7)
        pv = column(table, "pv_kw")
        assert abs(pv.mean() - 70.84) < 3.0 * np.sqrt(8.45 / 10_000)

    def test_all_feature_means_match_reference(self):
        table = synth_generate(10_000, seed=11)
        for name in SCHEMA:
            if name == "generator_kw":
                continue
            mean, var = TABLE_STATS[name]
            limit = 3.0 * np.sqrt(var / 10_000)
            assert abs(column(table, name).mean() - mean) < limit, name

    def test_generator_mean_matches_its_rule_expectation(self):
        table = synth_generate(10_000, seed=3)
        gen = column(table, "generator_kw")
        se = gen.std(ddof=1) / np.sqrt(gen.size)
        assert abs(gen.mean() - TABLE_STATS["generator_kw"][0]) < 3.0 * se

    def test_generator_nonnegative(self):
        table = synth_generate(5000, seed=1)
        assert (column(table, "generator_kw") >= 0).all()

    def test_zero_rate_near_forty_percent(self):
        table = synth_generate(8000, seed=13)
        rate = (column(table, "generator_kw") == 0.0).mean()
        assert 0.33 < rate < 0.47

    def test_same_seed_identical_rows(self):
        a = synth_generate(500, seed=21)
        b = synth_generate(500, seed=21)
        assert np.array_equal(a.features, b.features)

    @pytest.mark.parametrize("seed", [0, 1, 7919])
    @pytest.mark.parametrize("n", [1, 2, 3, 2000])
    def test_latent_matches_the_numpy_scalar_recursion(self, n, seed):
        # the AR(1) recursion on numpy scalars, as it ran before it moved to Python floats
        rng = RngState(seed)
        eps = rng.spawn(1).normals(n)
        persist = np.empty(n)
        persist[0] = eps[0]
        innov = np.sqrt(1.0 - dat._AR_RHO ** 2)
        for i in range(1, n):
            persist[i] = dat._AR_RHO * persist[i - 1] + innov * eps[i]
        persist = dat._standardized(persist)
        signal = np.sqrt(1.0 - dat._TARGET_NOISE ** 2)
        latent = dat._CYCLE_WEIGHT * dat._cycle(n) + dat._PERSIST_WEIGHT * persist
        shortfall = signal * latent + dat._TARGET_NOISE * rng.spawn(3).normals(n)
        got_persist, got_shortfall = synth_latent(n, RngState(seed))
        assert got_persist.tobytes() == persist.tobytes()
        assert got_shortfall.tobytes() == shortfall.tobytes()

    def test_generator_is_shortfall_rule_on_shared_latent(self):
        _, shortfall = synth_latent(300, RngState(5))
        rule = dat._GEN_SCALE * np.clip(shortfall - dat._GEN_THRESHOLD, 0.0, None)
        table = synth_generate(300, seed=5)
        assert np.array_equal(column(table, "generator_kw"), rule)

    def test_calibration_script_agrees_with_frozen_constants(self):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run([sys.executable, str(REPO / "scripts" / "calibrate_synth.py")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "agree" in done.stdout

    def test_single_row_works(self):
        assert len(synth_generate(1, seed=0)) == 1

    def test_bad_args(self):
        with pytest.raises(ParameterError):
            synth_generate(0, seed=0)

    def test_moment_report_shape(self):
        report = moment_report(synth_generate(100, seed=1))
        assert len(report) == 13
        assert {"feature", "target_mean", "achieved_mean"} <= set(report[0])


class TestRoundTrip:
    def test_synth_write_load_bit_exact(self, tmp_path):
        table = synth_generate(300, seed=17)
        path = tmp_path / "round.csv"
        write_csv(table, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.features, table.features)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        table = Table(synth_generate(50, seed=3).features, timestamps=[f"t{i}" for i in range(50)])
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_csv(table, plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        loaded = load_csv(bom)
        assert np.array_equal(loaded.features, load_csv(plain).features)
        assert loaded.timestamps == table.timestamps

    def test_write_is_byte_deterministic(self, tmp_path):
        table = synth_generate(100, seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(table, p1)
        write_csv(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_timestamps_round_trip(self, tmp_path):
        table = Table(np.abs(np.random.default_rng(1).normal(5, 1, (4, 13))),
                      timestamps=[f"t{i}" for i in range(4)])
        path = tmp_path / "ts.csv"
        write_csv(table, path)
        loaded = load_csv(path)
        assert loaded.timestamps == table.timestamps

    def test_timestamps_holding_delimiters_round_trip(self, tmp_path):
        stamps = ["Jan 9, 2020", 'the "noon" reading', "line\nbreak", "plain", " padded "]
        table = Table(np.abs(np.random.default_rng(1).normal(5, 1, (5, 13))), timestamps=stamps)
        path = tmp_path / "ts.csv"
        write_csv(table, path)
        assert load_csv(path).timestamps == stamps
        # each cell is quoted as csv.writer quotes it
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["timestamp"] + SCHEMA)
        writer.writerows([stamp] + [repr(float(v)) for v in row]
                         for stamp, row in zip(stamps, table.features))
        assert path.read_text(encoding="utf-8") == expected.getvalue()


class TestScalerEdge:
    def test_constant_target_warns(self):
        inputs = np.random.default_rng(2).normal(0, 1, (10, 4, 13))
        with pytest.warns(UserWarning, match="constant training target"):
            scaler = fit_scaler(inputs, np.full(10, 3.0))
        assert scaler.target_std == 1.0

    def test_non_finite_statistics_name_the_column(self):
        # 1e308 overflows the squared deviations; eight copies overflow the sum too
        inputs = np.random.default_rng(3).normal(0, 1, (10, 8, 13))
        inputs[2, 1, SCHEMA.index("fuel_cost")] = 1e308
        inputs[:, :, SCHEMA.index("pv_om")] = 1e308
        with pytest.raises(DataError, match=r"\['pv_om', 'fuel_cost'\]: training mean or std "
                                            "is not finite"):
            fit_scaler(inputs, np.arange(10.0))
        targets = np.arange(10.0)
        targets[3] = 1e308
        with pytest.raises(DataError, match="target generator_kw: training mean or std"):
            fit_scaler(np.random.default_rng(4).normal(0, 1, (10, 8, 13)), targets)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


def _train_exit_code(path: Path) -> tuple[int, str]:
    """``gridcast train`` exit code and stderr on the CSV at ``path``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["train", "--csv", str(path), "--out-dir", str(path.parent / "out")])
    return code, err.getvalue()


_valid_rows = st.lists(st.floats(0.0, 100.0).map(lambda g: simple_row(gen=g)),
                       min_size=1, max_size=6)


class TestLoadCsvProperties:
    """Every malformed CSV fails ``train`` with the data exit code 3."""

    @given(rows=_valid_rows, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_ragged_row(self, scratch, rows, data):
        bad = data.draw(st.integers(0, len(rows) - 1))
        width = data.draw(st.integers(0, 2 * len(SCHEMA)).filter(lambda w: w != len(SCHEMA)))
        rows[bad] = (rows[bad] * 2)[:width]
        code, err = _train_exit_code(rows_csv(scratch, rows))
        assert code == 3
        assert f"line {bad + 2}: expected {len(SCHEMA)} cells, got {width}" in err

    @given(text=st.sampled_from(["", "\n", "\r\n", ",".join(SCHEMA) + "\n"]),
           blank_lines=st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_empty(self, scratch, text, blank_lines):
        path = scratch / "data.csv"
        path.write_text(text + "\n" * blank_lines)
        code, err = _train_exit_code(path)
        assert code == 3
        assert err.startswith("data error:")

    @given(rows=_valid_rows, data=st.data(),
           value=st.sampled_from(["inf", "-inf", "nan", "NaN", "1e400", "-1e999", "Infinity"]))
    @settings(max_examples=30, deadline=None)
    def test_non_finite_cell(self, scratch, rows, data, value):
        bad = data.draw(st.integers(0, len(rows) - 1))
        col = data.draw(st.integers(0, len(SCHEMA) - 1))
        rows[bad][col] = value
        code, err = _train_exit_code(rows_csv(scratch, rows))
        assert code == 3
        assert f"line {bad + 2}: non-finite value in column {SCHEMA[col]}" in err

    @given(rows=_valid_rows, data=st.data(), name=st.sampled_from(SCHEMA))
    @settings(max_examples=30, deadline=None)
    def test_duplicate_header(self, scratch, rows, data, name):
        at = data.draw(st.integers(0, len(SCHEMA)))
        spelled = data.draw(st.sampled_from([name, name.upper(), f" {name} "]))
        header = SCHEMA[:at] + [spelled] + SCHEMA[at:]
        rows = [row[:at] + [row[SCHEMA.index(name)]] + row[at:] for row in rows]
        code, err = _train_exit_code(rows_csv(scratch, rows, header=header))
        assert code == 3
        assert f"column {name!r} appears 2 times" in err


def _load_outcome(path, row_scan: bool = False):
    """``load_csv``'s table (shape, feature bytes, timestamps) or its exception
    (type, message), and its warnings; ``row_scan`` sends every file through the
    row scan."""
    with contextlib.ExitStack() as stack:
        if row_scan:
            stack.enter_context(mock.patch.object(dat, "_plain_lines", lambda text: None))
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        try:
            table = load_csv(path)
            result = (table.features.shape, table.features.tobytes(), table.timestamps)
        except Exception as err:  # noqa: BLE001 - the two paths must fail alike
            result = (type(err), str(err))
    return result, [(w.category, str(w.message)) for w in caught]


# timestamp and unknown-column text; a comma, quote or line break gets the cell quoted
_WORDS = st.text(st.sampled_from(["a", "7", " ", ":", "\x1c", "é", ",", '"', "\n", "\r"]),
                 max_size=4)
# what a mutated cell holds, as written in the file
_CELL_MUTANTS = ["", " ", "\t", "1_000", "١٢", "１２", "\x1c", "\x1c5\x1c", "5\x00", "nan",
                 "inf", "-Infinity", "1e400", "1e-400", "-3.5", "#5", '"5"', '"5', " 7 ",
                 "+.5e-3", "0x10", "5\r", "\xa05"]
_GEN = SCHEMA.index("generator_kw")


def _with_note(text: str, first_note: str) -> str:
    """``text`` with a ``note`` column, ``first_note`` on the first data line."""
    header, first, *rest = text.splitlines()
    notes = [header + ",note", first + "," + first_note] + [line + ",x" for line in rest]
    return "\n".join(notes) + "\n"


class TestPlainParse:
    """numpy's reader takes plain files; the row scan is the reference."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_file_loads_as_the_row_scan_loads_it(self, scratch, data):
        n = data.draw(st.integers(1, 4), label="rows")
        values = data.draw(st.lists(st.floats(-1e308, 1e308), min_size=13 * n,
                                    max_size=13 * n), label="values")
        features = np.array(values).reshape(n, 13)
        features[:, _GEN] = np.abs(features[:, _GEN])
        stamps = data.draw(st.none() | st.lists(_WORDS, min_size=n, max_size=n), label="stamps")
        path = scratch / "parity.csv"
        write_csv(Table(features, stamps), path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        # unknown columns, a shuffled column order and header spellings
        for name in data.draw(st.lists(st.sampled_from(["note", "site"]), unique=True)):
            rows[0].append(name)
            for row in rows[1:]:
                row.append(data.draw(_WORDS))
        order = data.draw(st.permutations(range(len(rows[0]))), label="order")
        cells = [[csv_cell(row[i]) for i in order] for row in rows]
        cells[0] = [data.draw(st.sampled_from([name, name.upper(), f" {name}"]))
                    for name in cells[0]]
        gen_col = next(i for i, c in enumerate(cells[0]) if c.strip().lower() == "generator_kw")
        for _ in range(data.draw(st.integers(0, 3), label="mutations")):
            kind = data.draw(st.sampled_from(["cell", "target", "blank-line", "space-line",
                                              "ragged"]), label="kind")
            at = data.draw(st.integers(1, len(cells) - 1), label="line")
            if kind == "cell":
                col = data.draw(st.integers(0, len(cells[at]) - 1), label="col") \
                    if cells[at] else 0
                cells[at][col:col + 1] = [data.draw(st.sampled_from(_CELL_MUTANTS))]
            elif kind == "target" and len(cells[at]) > gen_col:
                cells[at][gen_col] = data.draw(st.sampled_from(["-0.5", "-0.0", "-1e-300"]))
            elif kind == "blank-line":
                cells.insert(at, [])
            elif kind == "space-line":
                cells.insert(at, [" "])
            elif kind == "ragged":
                cells[at] = cells[at][:-1] if data.draw(st.booleans()) else cells[at] + ["1"]
        newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
        lines = [",".join(row) for row in cells]
        cr_at = data.draw(st.none() | st.integers(1, len(lines) - 1), label="lone CR before line")
        text = (newline.join(lines) if cr_at is None else
                newline.join(lines[:cr_at]) + "\r" + newline.join(lines[cr_at:]))
        text += data.draw(st.sampled_from([newline, ""]), label="last newline")
        if data.draw(st.booleans(), label="BOM"):
            text = "\ufeff" + text
        path.write_bytes(text.encode("utf-8"))
        assert _load_outcome(path) == _load_outcome(path, row_scan=True)

    @pytest.mark.parametrize("stamps", [None, "plain"], ids=["no-timestamps", "timestamps"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_plain_file_skips_the_row_scan(self, tmp_path, monkeypatch, stamps, newline):
        table = synth_generate(300, seed=1)
        if stamps:
            table.timestamps = [f"2020-01-01 {i:04d}" for i in range(300)]
        path = tmp_path / "plain.csv"
        write_csv(table, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", newline.encode()))
        monkeypatch.setattr(dat, "_scan_rows", None)
        loaded = load_csv(path)
        assert loaded.features.tobytes() == table.features.tobytes()
        assert loaded.timestamps == table.timestamps

    @pytest.mark.parametrize("stamp", ["Jan 9, 2020", 'say "noon"', "line\nbreak", "a\rb"])
    def test_file_with_quoted_cells_skips_numpy(self, tmp_path, monkeypatch, stamp):
        table = Table(synth_generate(5, seed=2).features, timestamps=[stamp] * 5)
        path = tmp_path / "quoted.csv"
        write_csv(table, path)
        monkeypatch.setattr(dat, "_parse_plain", None)
        loaded = load_csv(path)
        assert loaded.features.tobytes() == table.features.tobytes()
        assert loaded.timestamps == table.timestamps

    @pytest.mark.parametrize("edit, error", [
        pytest.param(lambda text: text.replace(",", ",\n", 1), SchemaError, id="ragged-line"),
        pytest.param(lambda text: text + "\n", RowError, id="blank-last-line"),
        pytest.param(lambda text: text.replace("\n", "\n\n", 2), RowError, id="blank-line"),
        pytest.param(lambda text: text.replace("5", "١", 1), None, id="arabic-indic-digit"),
        pytest.param(lambda text: _with_note(text, "a" * (csv.field_size_limit() + 1)),
                     DataError, id="cell-over-the-csv-field-limit"),
    ])
    def test_file_numpy_refuses_still_loads_through_the_row_scan(self, tmp_path, edit, error):
        path = tmp_path / "edited.csv"
        write_csv(synth_generate(6, seed=3), path)
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        outcome = _load_outcome(path)
        assert outcome == _load_outcome(path, row_scan=True)
        if error is None:
            assert outcome[0][0] == (6, 13)
        else:
            assert outcome[0][0] is error


def _per_cell_write_csv(table: Table, path):
    """``write_csv`` as it boxed each cell as a numpy scalar: the byte reference."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        header = (["timestamp"] if table.timestamps is not None else []) + SCHEMA
        fh.write(",".join(header) + "\n")
        for i in range(len(table)):
            cells = [csv_cell(table.timestamps[i])] if table.timestamps is not None else []
            cells += [repr(float(v)) for v in table.features[i]]
            fh.write(",".join(cells) + "\n")


# the extremes of float64, integral values and values whose repr switches notation
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e22, 1e-5,
                1.7976931348623157e308, -1.7976931348623157e308, 3.0, -12.0, 2.0 ** 53,
                123456789.0, 0.1]
_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestWriteCsv:
    """``write_csv`` writes the per-cell writer's bytes, and ``load_csv`` reads them back."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_bytes_match_the_per_cell_writer_and_round_trip(self, scratch, data):
        n = data.draw(st.sampled_from([0, 1, 2, 2001]), label="rows")
        values = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
        if data.draw(st.booleans(), label="non-finite cells"):
            values |= st.sampled_from(_NON_FINITE)
        if n <= 2:
            features = np.array(data.draw(st.lists(values, min_size=13 * n, max_size=13 * n),
                                          label="values")).reshape(n, 13)
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
            features = rng.normal(0, 1, (n, 13)) * 10.0 ** rng.integers(-300, 300, (n, 13))
            features[:, 0] = rng.integers(-1000, 1000, n)
            for _ in range(data.draw(st.integers(0, 30), label="edge cells")):
                at = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, 12)))
                features[at] = data.draw(values)
        features[:, _GEN] = np.abs(features[:, _GEN])
        kind = data.draw(st.sampled_from([None, "plain", "edited"]), label="stamps")
        stamps = None if kind is None else [f"2020-01-01 {i:05d}" for i in range(n)]
        if kind == "edited" and n:
            # _WORDS holds commas, quotes and line breaks, which get a cell quoted
            for _ in range(data.draw(st.integers(1, 5), label="edited stamps")):
                stamps[data.draw(st.integers(0, n - 1))] = data.draw(_WORDS)
        table = Table(features, stamps)
        reference, path = scratch / "reference.csv", scratch / "written.csv"
        _per_cell_write_csv(table, reference)
        write_csv(table, path)
        assert path.read_bytes() == reference.read_bytes()
        if not np.isfinite(features).all():
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = load_csv(path)
        assert [str(w.message) for w in caught] == ([f"{path}: no data rows"] if n == 0 else [])
        assert loaded.features.shape == (n, 13)
        assert loaded.features.tobytes() == features.tobytes()
        assert loaded.timestamps == stamps
