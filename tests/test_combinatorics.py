"""Combinatorial primitives cross-validated against brute force."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis.combinatorics import (
    any_of_many,
    exactly_j_cells_over_threshold_pmf,
    hypergeom_tail,
    poisson_binomial_pmf,
    poisson_binomial_tail,
    rack_selection_hits_pmf,
)


class TestHypergeomTail:
    def test_paper_anchor(self):
        """P[stripe lost | 4 of 120 disks failed, width 20, p=3]."""
        expected = (20 * 19 * 18 * 17) / (120 * 119 * 118 * 117)
        assert hypergeom_tail(120, 4, 20, 3) == pytest.approx(expected)

    def test_impossible_tail_is_zero(self):
        assert hypergeom_tail(120, 3, 20, 3) == 0.0
        assert hypergeom_tail(120, 0, 20, 0) == 0.0

    def test_certain_when_stripe_is_pool(self):
        assert hypergeom_tail(20, 4, 20, 3) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            hypergeom_tail(10, 11, 5, 2)
        with pytest.raises(ValueError):
            hypergeom_tail(10, 5, 11, 2)

    def test_memo_returns_scipy_value_for_int_and_int64(self):
        direct = float(stats.hypergeom.sf(3, 120, 7, 20))
        ints = (120, 7, 20, 3)
        int64s = tuple(np.int64(a) for a in ints)
        for first, second in ((ints, int64s), (int64s, ints)):
            hypergeom_tail.cache_clear()
            for args in (first, second):  # computed, then served from cache
                value = hypergeom_tail(*args)
                assert type(value) is float
                assert value == direct
            assert hypergeom_tail.cache_info().hits == 1

    def test_memo_never_caches_errors(self):
        for _ in range(3):
            with pytest.raises(ValueError):
                hypergeom_tail(10, 11, 5, 2)
        assert hypergeom_tail.cache_info().maxsize is not None

    @given(
        failed=st.integers(min_value=0, max_value=12),
        p=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_brute_force_small(self, failed, p):
        """Enumerate all stripes of width 3 in a 12-device pool."""
        pool, width = 12, 3
        count = 0
        total = 0
        failed_set = set(range(failed))
        for stripe in itertools.combinations(range(pool), width):
            total += 1
            if len(failed_set.intersection(stripe)) > p:
                count += 1
        assert hypergeom_tail(pool, failed, width, p) == pytest.approx(
            count / total, abs=1e-12
        )


class TestRackSelectionHits:
    def test_pmf_sums_to_one(self):
        h = np.array([0.3, 0.7, 0.0, 0.1, 0.0, 0.2])
        pmf = rack_selection_hits_pmf(h, width=3, max_hits=3)
        assert pmf.sum() == pytest.approx(1.0)

    def test_brute_force_exact(self):
        """Enumerate every width-subset and compare exactly."""
        h = np.array([0.5, 0.25, 0.0, 1.0, 0.1])
        width, max_hits = 3, 2
        expected = np.zeros(max_hits + 1)
        racks = range(len(h))
        subsets = list(itertools.combinations(racks, width))
        for subset in subsets:
            # Sum over hit patterns of the chosen racks.
            for pattern in itertools.product([0, 1], repeat=width):
                p = 1.0
                for r, bit in zip(subset, pattern):
                    p *= h[r] if bit else 1 - h[r]
                expected[min(sum(pattern), max_hits)] += p / len(subsets)
        pmf = rack_selection_hits_pmf(h, width, max_hits)
        assert np.allclose(pmf, expected, atol=1e-12)

    def test_all_zero_probabilities(self):
        pmf = rack_selection_hits_pmf(np.zeros(10), width=4, max_hits=2)
        assert pmf[0] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            rack_selection_hits_pmf(np.array([0.5]), width=2, max_hits=1)
        with pytest.raises(ValueError):
            rack_selection_hits_pmf(np.array([1.5]), width=1, max_hits=1)


class TestAnyOfMany:
    def test_small_q_large_count(self):
        # 1 - (1-1e-12)^1e10 ~ 1e-2, far below float loss if done naively.
        out = any_of_many(1e-12, 1e10)
        assert out == pytest.approx(-math.expm1(1e10 * math.log1p(-1e-12)))
        assert 0.0099 < out < 0.01

    def test_edges(self):
        assert any_of_many(0.0, 1e12) == 0.0
        assert any_of_many(1.0, 1) == 1.0
        assert any_of_many(0.5, 2) == pytest.approx(0.75)


class TestPoissonBinomial:
    def test_matches_binomial(self):
        pmf = poisson_binomial_pmf(np.full(6, 0.3))
        from scipy import stats

        assert np.allclose(pmf, stats.binom.pmf(np.arange(7), 6, 0.3))

    def test_heterogeneous_brute_force(self):
        probs = np.array([0.1, 0.9, 0.4])
        pmf = poisson_binomial_pmf(probs)
        expected = np.zeros(4)
        for bits in itertools.product([0, 1], repeat=3):
            p = np.prod([q if b else 1 - q for q, b in zip(probs, bits)])
            expected[sum(bits)] += p
        assert np.allclose(pmf, expected)

    def test_tail(self):
        assert poisson_binomial_tail(np.array([0.5, 0.5]), 0) == pytest.approx(1.0)
        assert poisson_binomial_tail(np.array([0.5, 0.5]), 3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf(np.array([1.2]))


class TestCellsOverThreshold:
    def test_brute_force_small(self):
        """3 cells x 4 devices, 5 failures, threshold 1."""
        cells, cell_size, failures, threshold = 3, 4, 5, 1
        total = 0
        counts = np.zeros(cells + 1)
        devices = range(cells * cell_size)
        for combo in itertools.combinations(devices, failures):
            per_cell = np.bincount(
                [d // cell_size for d in combo], minlength=cells
            )
            counts[(per_cell > threshold).sum()] += 1
            total += 1
        pmf = exactly_j_cells_over_threshold_pmf(cells, cell_size, failures, threshold)
        assert np.allclose(pmf, counts / total, atol=1e-12)

    def test_sums_to_one_paper_scale(self):
        pmf = exactly_j_cells_over_threshold_pmf(48, 20, 60, 3)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_failures(self):
        pmf = exactly_j_cells_over_threshold_pmf(6, 20, 0, 3)
        assert pmf[0] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            exactly_j_cells_over_threshold_pmf(6, 20, 121, 3)
