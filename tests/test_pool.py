"""Tests for the real thread-pool execution path."""

import numpy as np
import pytest

from repro.parallel import ParallelExecutor, split_range


class TestSplitRange:
    def test_covers_range_contiguously(self):
        for n, k in [(10, 3), (7, 7), (100, 8), (5, 20)]:
            parts = split_range(n, k)
            assert parts[0][0] == 0
            assert parts[-1][1] == n
            for (a, b), (c, d) in zip(parts, parts[1:]):
                assert b == c
                assert b > a

    def test_empty(self):
        assert split_range(0, 4) == [(0, 0)]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            split_range(-1, 2)


@pytest.mark.parametrize("threads", [1, 2, 4])
class TestExecutor:
    def test_parallel_for_writes_disjoint(self, threads):
        out = np.zeros(1000)

        def kernel(lo, hi):
            out[lo:hi] = np.arange(lo, hi)

        with ParallelExecutor(threads) as ex:
            ex.parallel_for(1000, kernel)
        np.testing.assert_array_equal(out, np.arange(1000.0))

    def test_dot(self, threads, rng):
        x = rng.standard_normal(10_001)
        y = rng.standard_normal(10_001)
        with ParallelExecutor(threads) as ex:
            assert ex.dot(x, y) == pytest.approx(float(np.dot(x, y)))

    def test_weighted_dot(self, threads, rng):
        x = rng.standard_normal(5000)
        w = rng.random(5000)
        y = rng.standard_normal(5000)
        with ParallelExecutor(threads) as ex:
            assert ex.weighted_dot(x, w, y) == pytest.approx(
                float(np.dot(x * w, y))
            )

    def test_axpy_scale(self, threads, rng):
        x = rng.standard_normal(3000)
        y = rng.standard_normal(3000)
        expected = y + 2.5 * x
        with ParallelExecutor(threads) as ex:
            ex.axpy(2.5, x, y)
            np.testing.assert_allclose(y, expected)
            ex.scale(0.5, y)
            np.testing.assert_allclose(y, expected * 0.5)

    def test_elementwise_min(self, threads, rng):
        a = rng.random(2000)
        b = rng.random(2000)
        expected = np.minimum(a, b)
        with ParallelExecutor(threads) as ex:
            ex.elementwise_min(a, b)
        np.testing.assert_array_equal(a, expected)

    def test_argmax_matches_numpy(self, threads, rng):
        x = rng.random(5000)
        with ParallelExecutor(threads) as ex:
            assert ex.argmax(x) == int(np.argmax(x))

    def test_argmax_tie_lowest_index(self, threads):
        x = np.zeros(100)
        x[[10, 60]] = 7.0
        with ParallelExecutor(threads) as ex:
            assert ex.argmax(x) == 10

    def test_parallel_reduce(self, threads):
        with ParallelExecutor(threads) as ex:
            total = ex.parallel_reduce(
                1000, lambda lo, hi: hi - lo, lambda a, b: a + b
            )
        assert total == 1000


class TestEdgeCases:
    def test_zero_length(self):
        with ParallelExecutor(2) as ex:
            ex.parallel_for(0, lambda lo, hi: 1 / 0)  # never called
            assert ex.parallel_map(0, lambda lo, hi: 1) == []

    def test_reduce_empty_rejected(self):
        with ParallelExecutor(1) as ex:
            with pytest.raises(ValueError):
                ex.parallel_reduce(0, lambda lo, hi: 0, lambda a, b: a)

    def test_dot_shape_mismatch(self):
        with ParallelExecutor(1) as ex:
            with pytest.raises(ValueError):
                ex.dot(np.ones(3), np.ones(4))

    def test_argmax_empty(self):
        with ParallelExecutor(1) as ex:
            with pytest.raises(ValueError):
                ex.argmax(np.zeros(0))

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)
