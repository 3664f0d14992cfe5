import errno
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast import baselines
from gridcast import data as dat
from gridcast.baselines import (KNN_K, MIN_LEAF, RIDGE_ALPHA, BayesianRidge, ForestConfig,
                                KNN_CHUNK, RandomForest, RegressionTree, _grow_in_processes,
                                best_split, flatten_windows, knn_predict_batch, rank_columns,
                                rank_sort)
from gridcast.cli import RunConfig
from gridcast.errors import DataError, NumericError, ParameterError
from gridcast.tensor import RngState

from oracles import (brute_force_knn, exhaustive_best_split, knn_reference,
                     normal_equations_ridge, reference_best_split, reference_tree)


class TestFlatten:
    def test_time_major_feature_minor(self):
        x = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
        flat = flatten_windows(x)
        assert flat.shape == (2, 12)
        # first window: row 0 of timestep 0, then timestep 1, ...
        assert np.array_equal(flat[0], np.arange(12, dtype=float))


def knn_case(name):
    """(train_x, train_y, queries, ks) for one bit-exactness case."""
    if name == "synth-windows":
        # flattened scaled windows of a 2,000-row synthetic table
        windows = dat.make_windows(dat.synth_generate(2000, 3), 8)
        train, _, test = dat.split_and_scale(windows, dat.split_indices(len(windows)))
        return (flatten_windows(train.inputs), train.targets_raw,
                flatten_windows(test.inputs), (1, 5, 9, 17))
    rng = RngState(17)
    if name == "duplicated-rows":
        x = np.repeat(rng.uniform(-1, 1, (150, 9)), 3, axis=0)
        return x, rng.uniform(0, 10, 450), rng.uniform(-1, 1, (60, 9)), (1, 5, 7)
    if name == "integer-grid-ties":
        x = np.floor(rng.uniform(0, 3, (400, 5)))
        return x, rng.uniform(0, 10, 400), np.floor(rng.uniform(0, 3, (80, 5))), (1, 5, 9)
    if name == "k-equals-n":
        x, q = rng.uniform(-1, 1, (40, 6)), rng.uniform(-1, 1, (37, 6))
        return x, rng.uniform(0, 10, 40), q, (40,)
    if name == "chunk-boundary":
        # a last chunk of one query; the first chunk ends with a query at distance
        # exactly 6 from every +-1 training row, so every row is its candidate
        x = np.where(rng.uniform(-1, 1, (120, 6)) < 0, -1.0, 1.0)
        q = rng.uniform(-1, 1, (KNN_CHUNK + 1, 6))
        q[KNN_CHUNK - 1] = 0.0
        return x, rng.uniform(0, 10, 120), q, (1, 5, 9)
    # scaled copies of one random case: rounding far above the distances,
    # overflow to inf, and squares in the subnormal range
    x, y, q = rng.uniform(-1, 1, (300, 12)), rng.uniform(0, 10, 300), rng.uniform(-1, 1, (50, 12))
    shift, scale = {"offset-1e9": (1e9, 1.0), "magnitude-1e200": (0.0, 1e200),
                    "magnitude-1e-161": (0.0, 1e-161)}[name]
    return x * scale + shift, y, q * scale + shift, (1, 5)


class TestKnn:
    def test_exact_match_with_k1(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        y = np.array([10.0, 20.0, 30.0])
        assert knn_predict_batch(x, y, x[1:2], k=1)[0] == 20.0

    def test_k_equals_n_gives_global_mean(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([3.0, 6.0, 9.0])
        assert knn_predict_batch(x, y, [[0.5]], k=3)[0] == 6.0

    def test_three_point_hand_case(self):
        x = np.array([[0.0], [1.0], [10.0]])
        y = np.array([1.0, 3.0, 100.0])
        # query 0.4: nearest two are rows 0 and 1
        assert knn_predict_batch(x, y, [[0.4]], k=2)[0] == 2.0

    def test_matches_brute_force_on_200_random_queries(self):
        rng = RngState(5)
        train_x = rng.uniform(-1, 1, (60, 7))
        train_y = rng.uniform(0, 10, 60)
        queries = rng.uniform(-1, 1, (200, 7))
        for k in (1, 3, 5):
            mine = knn_predict_batch(train_x, train_y, queries, k)
            oracle = [brute_force_knn(train_x, train_y, q, k) for q in queries]
            assert np.allclose(mine, oracle, atol=1e-12)

    def test_k1_zero_training_error_without_duplicates(self):
        rng = RngState(31)
        train_x = rng.uniform(-5, 5, (40, 3))          # continuous draws: no dupes
        train_y = rng.uniform(0, 9, 40)
        preds = knn_predict_batch(train_x, train_y, train_x, k=1)
        assert np.array_equal(preds, train_y)

    def test_distance_ties_break_to_lower_index(self):
        x = np.array([[1.0], [-1.0], [3.0]])
        y = np.array([5.0, 7.0, 9.0])
        # rows 0 and 1 are equidistant from 0; k=1 must pick row 0
        assert knn_predict_batch(x, y, [[0.0]], k=1)[0] == 5.0

    @pytest.mark.parametrize("name", ["synth-windows", "duplicated-rows", "integer-grid-ties",
                                      "k-equals-n", "chunk-boundary", "offset-1e9",
                                      "magnitude-1e200", "magnitude-1e-161"])
    def test_matches_per_query_reference_bit_for_bit(self, name):
        x, y, q, ks = knn_case(name)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in ks:
                assert np.array_equal(knn_predict_batch(x, y, q, k), knn_reference(x, y, q, k)), k

    def test_never_holds_a_query_by_train_distance_matrix(self):
        rng = RngState(2)
        train_x, train_y = rng.uniform(-1, 1, (1434, 104)), rng.uniform(0, 10, 1434)
        queries = rng.uniform(-1, 1, (399, 104))
        tracemalloc.start()
        try:
            knn_predict_batch(train_x, train_y, queries, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 399 * 1434 * 8 / 2

    def test_empty_train_and_bad_k(self):
        # compare runs with k = KNN_K, and refuses an empty train split before
        # it calls knn_predict_batch
        assert KNN_K >= 1
        with pytest.raises(DataError, match="train split is empty"):
            dat.split_indices(1)

    def test_every_split_leaves_enough_training_windows_for_compare(self):
        # why compare checks no training-window count: a split either raises
        # or leaves at least KNN_K windows for KNN and 2 for the forest
        for n in range(1, 2001):
            try:
                train = dat.split_indices(n)["train"]
            except DataError:
                continue
            assert train.size >= max(KNN_K, 2), n


class TestBayesianRidge:
    def test_recovers_exact_linear_coefficients(self):
        rng = RngState(11)
        x = rng.uniform(-2, 2, (50, 4))
        w_true = np.array([1.5, -2.0, 0.25, 3.0])
        y = x @ w_true + 4.0
        model = BayesianRidge(alpha=1e-12).fit(x, y)
        assert np.abs(model.weights - w_true).max() < 1e-6

    def test_matches_normal_equations_oracle(self):
        rng = RngState(13)
        for trial in range(10):
            x = rng.uniform(-1, 1, (40, 5))
            y = rng.uniform(-3, 3, 40)
            alpha = 10.0 ** -(trial % 4)
            model = BayesianRidge(alpha=alpha).fit(x, y)
            w_oracle, y_mean, x_mean = normal_equations_ridge(x, y, alpha)
            assert np.abs(model.weights - w_oracle).max() < 1e-8
            queries = rng.uniform(-1, 1, (5, 5))
            oracle_pred = (queries - x_mean) @ w_oracle + y_mean
            assert np.abs(model.predict(queries) - oracle_pred).max() < 1e-8

    def test_zero_targets_zero_weights(self):
        x = RngState(1).uniform(-1, 1, (20, 3))
        model = BayesianRidge(RIDGE_ALPHA).fit(x, np.zeros(20))
        assert np.abs(model.weights).max() < 1e-12

    def test_huge_prior_shrinks_to_mean_prediction(self):
        rng = RngState(2)
        x = rng.uniform(-1, 1, (30, 3))
        y = x @ np.array([1.0, 2.0, 3.0]) + 5.0
        model = BayesianRidge(alpha=1e12).fit(x, y)
        assert np.abs(model.weights).max() < 1e-6
        assert np.allclose(model.predict(x), y.mean(), atol=1e-4)

    def test_weight_norm_shrinks_monotonically_in_alpha(self):
        rng = RngState(3)
        x = rng.uniform(-1, 1, (40, 6))
        y = rng.uniform(-2, 2, 40)
        norms = [np.linalg.norm(BayesianRidge(alpha=a).fit(x, y).weights)
                 for a in (1e-6, 1e-2, 1.0, 1e2, 1e4)]
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_singular_without_prior_advises_alpha(self):
        x = np.zeros((5, 3))        # rank-0 design, exactly singular
        with pytest.raises(NumericError, match="alpha"):
            BayesianRidge(alpha=0.0).fit(x, np.arange(5.0))


# ties, signed zeros, subnormals and values near the float64 limit
EDGE_VALUES = [0.0, -0.0, 1.5, 1.5, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]


def one_node(x, y, min_leaf):
    """best_split on one node, a batch of 1: ``x`` is (m,) or (m, k) columns."""
    x = np.asarray(x, dtype=np.float64).reshape(len(y), -1)
    m, k = x.shape
    return best_split(x, rank_columns(x), np.arange(k)[None], np.arange(m)[None],
                      np.asarray(y)[None], [m], min_leaf)[0]


def as_tuples(node):
    """A fitted tree in ``reference_tree``'s nested-tuple form."""
    if node.left is None:
        return (node.value,)
    return (node.value, node.feature, node.threshold, as_tuples(node.left),
            as_tuples(node.right))


def predict_tuples(tree, x):
    out = []
    for row in x:
        node = tree
        while len(node) > 1:
            node = node[3] if row[node[1]] <= node[2] else node[4]
        out.append(node[0])
    return np.array(out)


def forest_data(seed, n=300, d=20):
    """Rows with tied, constant and informative columns and a noisy target."""
    rng = RngState(seed)
    x = rng.uniform(-2, 2, (n, d))
    x[:, 1::3] = np.round(x[:, 1::3] * 2) / 2
    x[:, 5] = 0.75
    y = np.sin(x[:, 0]) + x[:, 2] * x[:, 3] + 0.1 * rng.normals(n)
    return x, y


def grow_tree(seed, x, y, max_depth, min_leaf=MIN_LEAF) -> RegressionTree:
    """One tree grown alone on every row of (x, y), as the forest grows each of its trees."""
    tree = RegressionTree(RngState(seed))
    _grow_in_processes([tree], x, y, [np.arange(x.shape[0])], max_depth, min_leaf, jobs=1)
    return tree


class TestTree:
    def test_constant_targets_single_leaf(self):
        x = RngState(4).uniform(-1, 1, (20, 3))
        tree = grow_tree(0, x, np.full(20, 2.5), max_depth=3)
        assert tree.root.left is None
        assert np.allclose(tree.predict(x), 2.5)

    def test_step_data_splits_at_step_and_predicts_purely(self):
        x = np.linspace(-1, 1, 21).reshape(-1, 1)
        y = (x[:, 0] >= 0).astype(float)
        tree = grow_tree(0, x, y, max_depth=1, min_leaf=1)
        oracle = exhaustive_best_split(x[:, 0], y, min_leaf=1)
        assert abs(tree.root.threshold - oracle[1]) < 1e-12
        assert tree.predict_one([-0.5]) == 0.0
        assert tree.predict_one([0.5]) == 1.0

    def test_split_matches_exhaustive_enumeration(self):
        rng = RngState(6)
        for trial in range(15):
            x_col = rng.uniform(-2, 2, 30)
            y = rng.uniform(-1, 1, 30)
            mine = one_node(x_col, y, min_leaf=2)
            oracle = exhaustive_best_split(x_col, y, min_leaf=2)
            assert (mine is None) == (oracle is None)
            if mine is not None:
                assert abs(mine[0] - oracle[0]) < 1e-9
                assert mine[1] == 0
                assert abs(mine[2] - oracle[1]) < 1e-12

    @staticmethod
    def columns_with_ties(rng, m, k):
        """(m, k) draws; odd columns rounded to a coarse grid so values tie."""
        x = rng.uniform(-2, 2, (m, k))
        x[:, 1::2] = np.round(x[:, 1::2] * 2) / 2
        return x

    def test_each_column_of_a_batch_matches_exhaustive_enumeration(self):
        rng = RngState(16)
        for trial in range(10):
            min_leaf = 1 + trial % 3
            x = self.columns_with_ties(rng, 25 + trial, 6)
            y = rng.uniform(-1, 1, x.shape[0])
            for c in range(x.shape[1]):
                mine = one_node(x[:, [c]], y, min_leaf)
                oracle = exhaustive_best_split(x[:, c], y, min_leaf)
                assert (mine is None) == (oracle is None)
                if mine is not None:
                    assert abs(mine[0] - oracle[0]) < 1e-9
                    assert mine[1] == 0
                    assert abs(mine[2] - oracle[1]) < 1e-12

    def test_batch_result_is_the_best_single_column_result(self):
        rng = RngState(17)
        for trial in range(15):
            x = self.columns_with_ties(rng, 40, 7)
            y = rng.uniform(-1, 1, 40)
            singles = [one_node(x[:, c], y, min_leaf=2) for c in range(7)]
            expected = None
            for c, found in enumerate(singles):
                if found is not None and (expected is None or found[0] > expected[0]):
                    expected = (found[0], c, found[2])
            assert one_node(x, y, min_leaf=2) == expected

    def test_duplicated_column_lower_index_wins(self):
        rng = RngState(18)
        strong = rng.uniform(-1, 1, 30)
        weak = rng.uniform(-1, 1, 30)
        y = np.where(strong > 0.1, 1.0, -1.0) + 0.01 * rng.normals(30)
        gain, column, thr = one_node(np.stack([weak, strong, strong], axis=1), y, 2)
        assert column == 1
        assert one_node(np.stack([strong, weak, strong], axis=1), y, 2) == (gain, 0, thr)

    def test_gain_tie_within_a_column_takes_the_smallest_left_count(self):
        x = np.arange(6.0)
        y = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])     # left counts 2 and 4 tie exactly
        assert one_node(x, y, min_leaf=1)[1:] == (0, 1.5)
        assert one_node(np.stack([x[::-1], x], axis=1), y, min_leaf=1)[1:] == (0, 1.5)

    def test_no_splittable_column_gives_none(self):
        y = np.arange(6.0)
        assert one_node(np.ones((6, 3)), y, min_leaf=1) is None
        x = np.ones((6, 2))
        x[0, 1] = 0.0           # distinct only at a split leaving one row left
        assert one_node(x, y, min_leaf=2) is None
        assert one_node(np.arange(6.0).reshape(-1, 2), y[:3], min_leaf=2) is None

    def test_mixed_batch_matches_each_node_searched_alone(self):
        # one call over nodes of 4 (= 2 * min_leaf), 7, 19, 40 and 6 rows; node 2
        # has a constant column and node 4 is constant in every column
        rng = RngState(19)
        min_leaf, k = 2, 3
        sizes = [4, 7, 19, 40, 6]
        xs = [np.round(rng.uniform(-2, 2, (m, k)) * 4) / 4 for m in sizes]
        xs[2][:, 1] = 0.5
        xs[4][:] = 1.25
        ys = [rng.uniform(-1, 1, m) for m in sizes]
        # the nodes' rows stacked in one matrix, each node's row indices padded with n
        x = np.concatenate(xs)
        n = x.shape[0]
        rows = np.full((len(sizes), max(sizes)), n)
        y = np.full((len(sizes), max(sizes)), 7.0)     # padding targets are never read
        for b, m in enumerate(sizes):
            rows[b, :m] = np.arange(m) + sum(sizes[:b])
            y[b, :m] = ys[b]
        feats = np.tile(np.arange(k), (len(sizes), 1))
        found = best_split(x, rank_columns(x), feats, rows, y, sizes, min_leaf)
        assert len(found) == len(sizes)
        for b in range(len(sizes)):
            assert found[b] == reference_best_split(xs[b], ys[b], min_leaf)
            oracles = [exhaustive_best_split(xs[b][:, c], ys[b], min_leaf) for c in range(k)]
            if found[b] is None:
                assert all(o is None for o in oracles)
                continue
            gain, column, thr = found[b]
            assert abs(gain - max(o[0] for o in oracles if o is not None)) < 1e-9
            assert abs(thr - oracles[column][1]) < 1e-12
        assert found[4] is None

    def test_split_with_keys_past_int32_matches_the_reference(self):
        # 50,000 rows: (n + 1) << 16 passes 2**31, so the sort keys are int64; column 0
        # has a rank per row, which int32 keys would overflow, and column 1 has ties
        rng = RngState(20)
        x = rng.uniform(-2, 2, (50_000, 2))
        x[:, 1] = np.round(x[:, 1] * 100) / 100
        y = np.where(x[:, 0] > 0.3, 1.0, -1.0) + 0.1 * x[:, 1] + 0.1 * rng.normals(50_000)
        found = one_node(x, y, min_leaf=2)
        assert found is not None and found[1] == 0
        assert found == reference_best_split(x, y, min_leaf=2)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_rank_order_is_the_stable_float_order(self, data):
        m = data.draw(st.integers(1, 30))
        k = data.draw(st.integers(1, 3))
        value = st.one_of(st.sampled_from(EDGE_VALUES),
                          st.floats(allow_nan=False, allow_infinity=False))
        x = np.array(data.draw(st.lists(st.lists(value, min_size=k, max_size=k),
                                        min_size=m, max_size=m)), dtype=np.float64)
        # a node's rows, repeated as a bootstrap repeats them, then padding row m
        rows = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=40))
        index = np.array(rows + [m] * data.draw(st.integers(0, 5)))
        padded = np.vstack([x, np.full(k, np.inf)])
        expected = np.argsort(padded[index].T, axis=-1, kind="stable")
        r = rank_columns(x)[:, index]
        order, ranks = rank_sort(r, m)
        assert np.array_equal(order, expected)
        assert np.array_equal(ranks, np.sort(r, axis=-1))

    def test_min_leaf_respected(self):
        x = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.arange(10, dtype=float)
        def leaves(node):
            if node.left is None:
                return [node]
            return leaves(node.left) + leaves(node.right)
        def sizes(node, idx):
            if node.left is None:
                return [len(idx)]
            mask = x[idx, node.feature] <= node.threshold
            return sizes(node.left, idx[mask]) + sizes(node.right, idx[~mask])
        tree = grow_tree(0, x, y, max_depth=6, min_leaf=3)
        assert min(sizes(tree.root, np.arange(10))) >= 3

    @pytest.mark.parametrize("lo, hi, above", [
        (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0), 2.0),
        (1e308, 1.5e308, 1.7e308),
    ], ids=["adjacent-doubles", "sum-past-the-float64-limit"])
    def test_split_between_close_or_huge_values_keeps_both_children(self, lo, hi, above):
        # (lo + hi) / 2 rounds onto hi for adjacent doubles and overflows to
        # inf for the huge pair: every row went left and the right child's
        # mean was 0 / 0
        x = np.array([lo] * 3 + [hi] * 3).reshape(-1, 1)
        y = np.array([0.0] * 3 + [1.0] * 3)
        queries = np.array([[lo], [hi], [above]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, _, threshold = one_node(x, y, min_leaf=1)
            tree = grow_tree(0, x, y, max_depth=3, min_leaf=1)
            forests = [RandomForest(ForestConfig(n_trees=3, seed=seed)).fit(x, y)
                       for seed in range(4)]
            assert lo <= threshold < hi
            assert tree.root.threshold == threshold
            assert np.array_equal(tree.predict(queries), [0.0, 1.0, 1.0])
            for forest in forests:
                assert np.isfinite(forest.predict(queries)).all()
                for t in forest.trees:
                    if t.root.left is not None:
                        assert t.root.left.value == 0.0 and t.root.right.value == 1.0

    @pytest.mark.parametrize("max_depth", [1, 3, 12])
    @pytest.mark.parametrize("min_leaf", [1, 2, 3])
    @pytest.mark.parametrize("target", ["noisy", "stretches"])
    def test_single_tree_matches_reference_grower(self, target, min_leaf, max_depth):
        # min_leaf 1 leaves one-row children, depths 1 and 3 stop nodes at max_depth,
        # deep levels hold many nodes of one size, and the "stretches" target is
        # constant along runs of column 0, so many nodes stop as constant
        x, y = forest_data(11)
        if target == "stretches":
            y = np.floor(x[:, 0] * 2) + np.where(x[:, 0] > 1, 0.1 * x[:, 2], 0.0)
        tree = grow_tree(5, x, y, max_depth=max_depth, min_leaf=min_leaf)
        ref_rng = RngState(5)
        expected = reference_tree(x, y, ref_rng, max_depth=max_depth, min_leaf=min_leaf)
        assert as_tuples(tree.root) == expected
        assert tree.rng._counter == ref_rng._counter
        assert np.array_equal(tree.predict(x), predict_tuples(expected, x))


class TestForest:
    @pytest.mark.parametrize("n_trees", [1, 3, 10])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lockstep_trees_match_reference_grower(self, n_trees, seed, monkeypatch):
        # 300 rows: every level of every tree shares its best_split calls
        x, y = forest_data(seed)
        config = ForestConfig(n_trees=n_trees, max_depth=12, seed=seed)
        expected = []
        for i in range(n_trees):
            rng = RngState(seed).spawn(i)
            idx = rng.integers(len(y), len(y))
            expected.append((reference_tree(x[idx], y[idx], rng, config.max_depth, MIN_LEAF),
                             rng._counter))
        queries = forest_data(seed + 100, n=50)[0]
        reference = np.stack([predict_tuples(t, queries) for t, _ in expected]).mean(axis=0)
        # one process, then trees split over this one and a forked child, on any host
        for workers in (1, 2):
            monkeypatch.setattr(baselines, "usable_cpus", lambda: workers)
            forest = RandomForest(config).fit(x, y)
            assert [(as_tuples(t.root), t.rng._counter) for t in forest.trees] == expected
            assert np.array_equal(forest.predict(queries), reference)
        # the grower's payload: the node count, each tree's rng counter, then feature, left,
        # threshold and value of every node, the roots first, a split's children at left, left + 1
        streams = [RngState(seed).spawn(i) for i in range(n_trees)]
        roots = [stream.integers(len(y), len(y)) for stream in streams]
        payload = baselines._grow_trees(streams, x, y, roots, rank_columns(x), config.max_depth,
                                        MIN_LEAF)
        ints, floats = np.frombuffer(payload, np.int64), np.frombuffer(payload)
        nodes = int(ints[0])
        assert len(payload) == 8 * (1 + n_trees + 4 * nodes)
        counters, feature, left = (part.tolist() for part in np.split(
            ints[1:1 + n_trees + 2 * nodes], [n_trees, n_trees + nodes]))
        threshold, value = floats[-2 * nodes:].reshape(2, nodes).tolist()

        def subtree(i):
            if left[i] < 0:
                return (value[i],)
            return (value[i], feature[i], threshold[i], subtree(left[i]), subtree(left[i] + 1))

        assert [(subtree(i), c) for i, c in enumerate(counters)] == expected

    def test_ten_tree_fit_takes_few_split_calls_and_little_memory(self, monkeypatch):
        # compare's 10-tree forest on the 2,000-row seed-1 train split, in one process: a
        # level of every tree shares a few best_split calls (775 when each call searched
        # one depth-first round), and neither the calls nor the head chunks grow with it
        windows = dat.make_windows(dat.synth_generate(2000, 1), 8)
        train = dat.split_and_scale(windows, dat.split_indices(len(windows)))[0]
        x, y = flatten_windows(train.inputs), train.targets_raw
        calls, search = [], baselines.best_split
        monkeypatch.setattr(baselines, "best_split",
                            lambda *args: calls.append(1) or search(*args))
        monkeypatch.setattr(baselines, "usable_cpus", lambda: 1)
        tracemalloc.start()
        try:
            RandomForest(ForestConfig(n_trees=10, seed=1)).fit(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(calls) <= 250
        assert peak <= 3.5e6

    def test_trees_from_a_child_have_python_fields(self, monkeypatch):
        monkeypatch.setattr(baselines, "usable_cpus", lambda: 2)
        x, y = forest_data(4)
        child_tree = RandomForest(ForestConfig(n_trees=2, seed=4)).fit(x, y).trees[1]
        stack = [child_tree.root]
        while stack:
            node = stack.pop()
            assert (type(node.feature), type(node.threshold), type(node.value)) == (int, float,
                                                                                     float)
            if node.left is not None:
                stack += (node.left, node.right)
            else:
                assert (node.feature, node.threshold, node.right) == (-1, 0.0, None)

    @pytest.mark.parametrize("failure, raised, match", [
        pytest.param("child-exits-3", ChildProcessError, "exited with status 3",
                     id="child-exits-3"),
        pytest.param("child-sends-short-payload", ChildProcessError,
                     "sent \\d+ bytes for 2 trees", id="child-sends-short-payload"),
        pytest.param("child-sends-long-payload", ChildProcessError,
                     "sent \\d+ bytes for 2 trees", id="child-sends-long-payload"),
        pytest.param("parent-raises", RuntimeError, "parent failed", id="parent-raises"),
        pytest.param("fork-fails", OSError, "no process to spare", id="fork-fails"),
    ])
    def test_failed_fit_raises_and_leaves_no_child(self, monkeypatch, failure, raised, match):
        # the parent and the child call the one grower; the child's failures go there
        parent, grow = os.getpid(), baselines._grow_trees

        def failing_fork():
            raise OSError(errno.EAGAIN, "no process to spare")

        def failing_grow(*args):
            in_child = os.getpid() != parent
            if failure == "child-exits-3" and in_child:
                os._exit(3)
            if failure == "parent-raises" and not in_child:
                raise RuntimeError("parent failed")
            payload = grow(*args)
            return {"child-sends-short-payload": payload[:-8], "child-sends-long-payload":
                    payload + bytes(8)}.get(failure if in_child else None, payload)

        monkeypatch.setattr(baselines, "usable_cpus", lambda: 2)
        monkeypatch.setattr(baselines, "_grow_trees", failing_grow)
        if failure == "fork-fails":
            monkeypatch.setattr(baselines.os, "fork", failing_fork)
        x, y = forest_data(5)
        fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(raised, match=match) as err:
            RandomForest(ForestConfig(n_trees=4, seed=5)).fit(x, y)
        if failure == "fork-fails":
            assert err.value.errno == errno.EAGAIN
        # every pipe end is closed and every child reaped
        assert sorted(os.listdir("/proc/self/fd")) == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_columns_are_ranked_once_and_never_in_a_child(self, monkeypatch):
        parent, rank = os.getpid(), baselines.rank_columns
        ranked = []

        def rank_in_parent_only(x):
            if os.getpid() != parent:
                raise RuntimeError("a forked child ranked the columns")
            ranked.append(1)
            return rank(x)

        monkeypatch.setattr(baselines, "rank_columns", rank_in_parent_only)
        x, y = forest_data(6)
        fits = []
        for workers in (1, 2):
            monkeypatch.setattr(baselines, "usable_cpus", lambda: workers)
            forest = RandomForest(ForestConfig(n_trees=4, seed=6)).fit(x, y)
            fits.append([(as_tuples(t.root), t.rng._counter) for t in forest.trees])
        assert fits[0] == fits[1]
        assert len(ranked) == 2

    def test_constant_targets(self):
        x = RngState(7).uniform(-1, 1, (25, 4))
        forest = RandomForest(ForestConfig(n_trees=5, seed=1)).fit(x, np.full(25, 1.25))
        assert np.allclose(forest.predict(x[:5]), 1.25)

    def test_same_seed_identical_predictions(self):
        rng = RngState(8)
        x = rng.uniform(-1, 1, (40, 5))
        y = rng.uniform(0, 4, 40)
        q = rng.uniform(-1, 1, (10, 5))
        a = RandomForest(ForestConfig(n_trees=12, seed=3)).fit(x, y).predict(q)
        b = RandomForest(ForestConfig(n_trees=12, seed=3)).fit(x, y).predict(q)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        rng = RngState(9)
        x = rng.uniform(-1, 1, (40, 5))
        y = rng.uniform(0, 4, 40)
        q = rng.uniform(-1, 1, (10, 5))
        a = RandomForest(ForestConfig(n_trees=12, seed=3)).fit(x, y).predict(q)
        b = RandomForest(ForestConfig(n_trees=12, seed=4)).fit(x, y).predict(q)
        assert not np.array_equal(a, b)

    def test_train_mse_improves_with_more_trees_on_average(self):
        # bagging variance reduction, checked statistically over 10 seeds
        mses = {1: [], 8: [], 64: []}
        for seed in range(10):
            rng = RngState(100 + seed)
            x = rng.uniform(-1, 1, (80, 4))
            y = x[:, 0] + 0.5 * x[:, 1] ** 2 + 0.2 * rng.normals(80)
            forest = RandomForest(ForestConfig(n_trees=64, max_depth=6, seed=seed)).fit(x, y)
            tree_preds = np.stack([t.predict(x) for t in forest.trees])
            for k in mses:
                pred_k = tree_preds[:k].mean(axis=0)
                mses[k].append(float(((pred_k - y) ** 2).mean()))
        means = {k: np.mean(v) for k, v in mses.items()}
        assert means[64] <= means[8] <= means[1]

    def test_fits_learnable_signal(self):
        rng = RngState(10)
        x = rng.uniform(-1, 1, (120, 3))
        y = np.where(x[:, 0] > 0, 2.0, -1.0) + 0.05 * rng.normals(120)
        forest = RandomForest(ForestConfig(n_trees=30, max_depth=4, seed=2)).fit(x, y)
        pred = forest.predict(x)
        assert ((pred - y) ** 2).mean() < 0.2

    def test_config_validation(self):
        with pytest.raises(ParameterError, match="n_trees must be >= 1, got 0"):
            RunConfig(csv="data.csv", n_trees=0).validate()
