"""Combinatorial primitives cross-validated against brute force."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

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
    poisson_binomial_pmf_rows,
    poisson_binomial_tail,
    poisson_binomial_tails,
    rack_selection_hits_pmf,
    rack_selection_hits_pmf_rows,
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

    def test_matches_scipy_bit_for_bit(self):
        """The scipy-free tail returns ``stats.hypergeom.sf``'s float for
        every argument tuple of these pools, out-of-support ``p`` included."""
        rng = np.random.default_rng(5)
        for pool in (1, 7, 20, 60, 120, 170):
            width = rng.integers(1, pool + 1, 400)
            failed = rng.integers(0, pool + 1, 400)
            p = rng.integers(-1, np.minimum(width, failed) + 1)
            expected = stats.hypergeom.sf(p, pool, failed, width)
            for args in zip(width.tolist(), failed.tolist(), p.tolist(), expected.tolist()):
                w, f, q, value = args
                got = hypergeom_tail(pool, f, w, q)
                assert got == (0.0 if q >= min(w, f) else value), (pool, f, w, q)

    def test_wide_pool_matches_scipy(self):
        """Pools past the factorial table take scipy's value."""
        assert hypergeom_tail(400, 9, 30, 3) == float(stats.hypergeom.sf(3, 400, 9, 30))

    def test_loads_no_scipy(self):
        """A burst evaluator's tail leaves scipy unloaded: the import is
        about 60 MB of resident memory for a ``serve`` daemon."""
        probe = (
            "import sys\n"
            "from repro.analysis.combinatorics import hypergeom_tail\n"
            "hypergeom_tail(120, 4, 20, 3), hypergeom_tail(120, 60, 20, 3)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout
        assert out.strip() == "[]"

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


def random_hit_rows(rng, n_rows, n_racks):
    """Hit rows with 0, all, or 1-12 nonzero racks; some exactly 1.0."""
    rows = np.zeros((n_rows, n_racks))
    for row in rows:
        kind = rng.integers(4)
        if kind == 0:
            continue  # no nonzero rack
        k = n_racks if kind == 1 else int(rng.integers(1, 13))
        racks = rng.choice(n_racks, size=k, replace=False)
        row[racks] = rng.random(k) ** rng.integers(1, 6)
        row[racks[rng.random(k) < 0.2]] = 1.0
    return rows


class TestRackSelectionHitsRows:
    """The rows DP is the scalar DP, bit for bit, row by row."""

    @pytest.mark.parametrize("n_racks,width,max_hits", [
        (60, 12, 3), (60, 20, 3), (20, 20, 4), (14, 3, 2), (30, 10, 10),
    ])
    def test_bitwise_equal_to_scalar(self, n_racks, width, max_hits):
        rng = np.random.default_rng(n_racks * 100 + width)
        h = random_hit_rows(rng, 400, n_racks)
        rows = rack_selection_hits_pmf_rows(h, width, max_hits)
        assert rows.shape == (400, max_hits + 1)
        for i, row in enumerate(h):
            expected = rack_selection_hits_pmf(row, width, max_hits)
            assert rows[i].tobytes() == expected.tobytes()

    def test_single_row(self):
        h = np.array([[0.5, 0.25, 0.0, 1.0, 0.1]])
        assert rack_selection_hits_pmf_rows(h, 3, 2)[0].tobytes() == (
            rack_selection_hits_pmf(h[0], 3, 2).tobytes()
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            rack_selection_hits_pmf_rows(np.array([0.5, 0.5]), 1, 1)
        with pytest.raises(ValueError, match="width"):
            rack_selection_hits_pmf_rows(np.array([[0.5]]), 2, 1)
        with pytest.raises(ValueError, match="max_hits"):
            rack_selection_hits_pmf_rows(np.array([[0.5]]), 1, 0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            rack_selection_hits_pmf_rows(np.array([[0.5], [1.5]]), 1, 1)


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


class TestPoissonBinomialRows:
    """The rows recurrence is the scalar convolution, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 8, 9, 12, 20, 24])
    def test_pmf_and_tails_bitwise_equal_to_scalar(self, n):
        rng = np.random.default_rng(n)
        probs = rng.random((200, n)) ** rng.integers(1, 9, size=(200, 1))
        probs[rng.random(probs.shape) < 0.1] = 0.0
        probs[rng.random(probs.shape) < 0.1] = 1.0
        pmf = poisson_binomial_pmf_rows(probs)
        for i, row in enumerate(probs):
            assert pmf[i].tobytes() == poisson_binomial_pmf(row).tobytes()
        for threshold in range(n + 2):
            tails = poisson_binomial_tails(probs, threshold)
            expected = [poisson_binomial_tail(row, threshold) for row in probs]
            assert tails.tobytes() == np.array(expected).tobytes()

    def test_single_row_and_validation(self):
        probs = np.array([[0.1, 0.9, 0.4]])
        assert poisson_binomial_tails(probs, 2)[0] == poisson_binomial_tail(
            probs[0], 2
        )
        with pytest.raises(ValueError, match="2-D"):
            poisson_binomial_pmf_rows(np.array([0.5]))
        with pytest.raises(ValueError):
            poisson_binomial_pmf_rows(np.array([[1.2]]))
