import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast.errors import ParameterError
from gridcast.tensor import HEAD_WORDS, RngState, permutation_heads, sigmoid, softmax_rows

from oracles import fisher_yates_reference


class TestActivate:
    def test_sigmoid_symmetry_point(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_ranges(self):
        # strict open bounds hold while float64 can still represent them
        s = sigmoid(np.linspace(-15, 15, 101))
        assert ((s > 0) & (s < 1)).all()
        big = sigmoid(np.linspace(-500, 500, 51))
        assert ((big >= 0) & (big <= 1)).all()

    def test_extreme_inputs_stay_finite(self):
        assert np.isfinite(sigmoid(np.array([-1e6, -700.0, 700.0, 1e6]))).all()


def softmax_row(values):
    """softmax_rows on a single row, returned as 1-D."""
    return softmax_rows(np.array([values], dtype=float))[0]


class TestSoftmax:
    def test_symmetry(self):
        out = softmax_row([2.5, 2.5, 2.5])
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_single_element(self):
        assert softmax_row([7.0])[0] == 1.0

    def test_hand_case(self):
        # e^0 / (e^0 + e^ln3) = 1/4
        out = softmax_row([0.0, math.log(3.0)])
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_overflow_safety(self):
        out = softmax_row([1000.0, 1000.0, 0.0])
        assert np.isfinite(out).all()
        assert abs(out.sum() - 1.0) < 1e-12

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-30, 30))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, values, c):
        x = np.array(values)
        assert np.allclose(softmax_row(x + c), softmax_row(x), atol=1e-12)

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 8), (5, 3), (1024, 8)])
    def test_matches_the_row_max_expression_bit_for_bit(self, rows, cols):
        # ties, signed zeros, huge values and -inf, where the order in which
        # maxima are taken could show
        rng = np.random.default_rng(rows * 10 + cols)
        pool = np.array([0.0, -0.0, 1.5, -1.5, 3.0, 1e300, -1e300, -np.inf])
        x = np.where(rng.random((rows, cols)) < 0.5, rng.choice(pool, (rows, cols)),
                     rng.normal(0, 5, (rows, cols)))
        x[0] = -np.inf
        with np.errstate(invalid="ignore"):
            z = np.exp(x - x.max(axis=1, keepdims=True))
            expected = z / z.sum(axis=1, keepdims=True)
            assert np.array_equal(softmax_rows(x), expected, equal_nan=True)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, values):
        out = softmax_row(values)
        assert (out > 0).all()
        assert abs(out.sum() - 1.0) < 1e-12

    def test_rows_variant_matches_1d(self):
        # each row is normalised on its own, as if it were the only row
        x = np.array([[0.0, 1.0, -2.0], [3.0, 3.0, 0.5]])
        rows = softmax_rows(x)
        for i in range(2):
            assert np.allclose(rows[i], softmax_row(x[i]), atol=1e-15)


class TestRngState:
    def test_equal_seeds_equal_streams(self):
        a, b = RngState(12345), RngState(12345)
        assert np.array_equal(a.raw(100), b.raw(100))
        assert np.array_equal(a.normals(33), b.normals(33))
        assert np.array_equal(a.permutation(17), b.permutation(17))

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngState(1).raw(10), RngState(2).raw(10))

    def test_uniform_bounds(self):
        u = RngState(7).uniforms(10000)
        assert (u >= 0).all() and (u < 1).all()
        assert abs(u.mean() - 0.5) < 0.02

    def test_normals_moments(self):
        z = RngState(11).normals(20000)
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_permutation_is_permutation(self):
        p = RngState(5).permutation(100)
        assert sorted(p.tolist()) == list(range(100))

    @pytest.mark.parametrize("n", [0, 1, 2, 13, 104, 5000])
    def test_permutation_equals_element_swap_fisher_yates(self, n):
        for seed in (0, 1, 7, 2**63 + 5):
            rng, ref = RngState(seed), RngState(seed)
            perm = rng.permutation(n)
            expected = fisher_yates_reference(ref.raw(n - 1)) if n else np.arange(0)
            assert perm.dtype == np.int64
            assert np.array_equal(perm, expected)
            assert np.array_equal(rng.raw(3), ref.raw(3))      # same draws consumed

    def test_spawn_streams_independent_and_reproducible(self):
        root = RngState(9)
        child1 = root.spawn(1)
        child2 = root.spawn(2)
        again = RngState(9).spawn(1)
        assert np.array_equal(child1.raw(20), again.raw(20))
        assert not np.array_equal(RngState(9).spawn(1).raw(20), child2.raw(20))

    def test_spawn_does_not_disturb_parent(self):
        a = RngState(4)
        b = RngState(4)
        a.spawn(77)
        assert np.array_equal(a.raw(10), b.raw(10))

    def test_integers_bounds(self):
        draws = RngState(3).integers(7, 1000)
        assert draws.min() >= 0 and draws.max() < 7

    def test_integers_bound_must_be_positive(self):
        with pytest.raises(ParameterError, match="integers bound must be positive, got 0"):
            RngState(3).integers(0, 5)


class TestPermutationHeads:
    """``permutation_heads`` equals ``permutation(n)[:k]`` drawn one at a time, counters included."""

    @staticmethod
    def draw(n, k, calls, streams=3):
        """Takes ``counts`` heads per stream for each ``counts`` in ``calls`` and checks
        every head against its own stream's next one-at-a-time draw."""
        mine = [RngState(seed).spawn(4) for seed in range(streams)]
        refs = [RngState(seed).spawn(4) for seed in range(streams)]
        taken = [0] * streams
        for counts in calls:
            got = permutation_heads(mine, counts, n, k)
            expected = [refs[i].permutation(n)[:k] for i, c in enumerate(counts)
                        for _ in range(c)]
            assert got.shape == (sum(counts), k)
            assert np.array_equal(got, np.array(expected).reshape(-1, k))
            taken = [t + c for t, c in zip(taken, counts)]
        assert [s._counter for s in mine] == [s._counter for s in refs]
        assert [s._counter for s in mine] == [(n - 1) * t for t in taken]

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 2), (13, 4), (104, 10), (104, 104)])
    def test_draws_across_block_boundaries(self, n, k):
        # several heads per stream in one call; a chunk holds HEAD_WORDS // n heads, and
        # the later calls end just past a chunk's end and on it, with the middle stream
        # running across it
        chunk = HEAD_WORDS // n
        self.draw(n, k, [[1, 1, 1], [3, 5, 2], [5, chunk - 5, 1], [3, chunk - 3, 0]])

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (13, 4)])
    def test_streams_that_stop_early_leave_the_others_unchanged(self, n, k):
        # a stream with a count of 0 draws nothing, as a finished tree searches no node
        self.draw(n, k, [[0, 2, 0, 1], [0, 0, 0, 0], [3, 0, 0, 2], [0, 1, 0, 0]], streams=4)

    def test_streams_taken_out_of_step(self):
        self.draw(13, 4, [[(r + i) % (i + 2) for i in range(4)] for r in range(20)], streams=4)

    def test_many_long_streams_take_smaller_blocks(self):
        # long permutations fit fewer heads in a chunk: 65 of n = 1000
        self.draw(1000, 32, [[30, 40, 50, 60, 70]], streams=5)
