import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast.tensor import HEAD_BLOCK, PermutationHeads, RngState, sigmoid, softmax_rows

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


class TestPermutationHeads:
    """Block draws equal ``permutation(n)[:k]`` drawn one at a time, counters included."""

    @staticmethod
    def draw(n, k, rounds, live, streams=3):
        """Takes ``live(r)`` in round r and checks each head against its own stream."""
        mine = [RngState(seed).spawn(4) for seed in range(streams)]
        refs = [RngState(seed).spawn(4) for seed in range(streams)]
        heads = PermutationHeads(mine, n, k)
        for r in range(rounds):
            which = live(r)
            got = heads.take(which)
            assert got.shape == (len(which), k)
            for row, i in zip(got, which):
                assert np.array_equal(row, refs[i].permutation(n)[:k])
        assert [s._counter for s in mine] == [s._counter for s in refs]
        return heads

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 2), (13, 4), (104, 10), (104, 104)])
    def test_draws_across_block_boundaries(self, n, k):
        heads = self.draw(n, k, 2 * HEAD_BLOCK + 5, lambda r: [0, 1, 2])
        assert heads.block == HEAD_BLOCK

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (13, 4)])
    def test_streams_that_stop_early_leave_the_others_unchanged(self, n, k):
        # stream i draws in the first stops[i] rounds, as a tree searches nodes until it
        # is finished; the stops fall inside blocks and on either side of a block end
        stops = [3, HEAD_BLOCK - 1, HEAD_BLOCK, HEAD_BLOCK + 1, 2 * HEAD_BLOCK + 7]
        self.draw(n, k, max(stops), lambda r: [i for i, stop in enumerate(stops) if r < stop],
                  streams=len(stops))

    def test_streams_taken_out_of_step(self):
        self.draw(13, 4, 80, lambda r: [i for i in range(4) if (r + i) % (i + 2)], streams=4)

    def test_many_long_streams_take_smaller_blocks(self):
        heads = self.draw(1000, 32, 30, lambda r: [0, 1, 2, 3, 4], streams=5)
        assert 1 < heads.block < HEAD_BLOCK
