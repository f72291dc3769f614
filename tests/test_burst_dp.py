"""Exact burst DP: paper anchors, consistency with Monte Carlo."""

import math

import numpy as np
import pytest

from repro.analysis.burst_dp import (
    _collision_splits,
    mlec_burst_pdl,
    slec_burst_pdl,
)
from repro.core.config import MLECParams, SLECParams
from repro.core.scheme import SLECScheme, mlec_scheme_from_name
from repro.core.types import Level, Placement
from repro.sim.burst import MLECBurstEvaluator, burst_pdl

PARAMS = MLECParams(10, 2, 17, 3)
FLOAT_FLOOR = 1e-12  # documented numeric floor of the linear-space DP


def scheme(name):
    return mlec_scheme_from_name(name, PARAMS)


def _survive(n_cells, threshold, marks):
    """P[no cell reaches ``threshold``] when rack ``i`` throws ``marks[i]``
    marks into distinct cells, folded through ``_collision_splits``."""
    states = {(0,) * (threshold - 1): 1.0}
    for j in marks:
        new = {}
        for state, weight in states.items():
            n_free = n_cells - sum(state)
            for split, ways in _collision_splits(state, n_free, j):
                w = weight * ways / math.comb(n_cells, j)
                new[split] = new.get(split, 0.0) + w
        states = new
    return sum(states.values())


class TestCellCollisionDP:
    def test_no_marks_survives(self):
        assert _survive(10, 3, [0]) == pytest.approx(1.0)

    def test_single_rack_cannot_collide(self):
        assert _survive(10, 2, [3]) == pytest.approx(1.0)  # distinct cells

    def test_guaranteed_collision(self):
        """2 racks each marking every cell must collide at threshold 2."""
        assert _survive(4, 2, [4, 4]) == pytest.approx(0.0)

    def test_birthday_collision_probability(self):
        """2 racks, 1 mark each, C cells: collision probability 1/C."""
        c = 7
        assert _survive(c, 2, [1, 1]) == pytest.approx(1 - 1 / c)


class TestMLECDPAnchors:
    def test_zero_regions_finding3(self):
        """PDL = 0 (up to float floor) for <= p_n racks and y <= x+8."""
        for name in ("C/C", "C/D", "D/C", "D/D"):
            s = scheme(name)
            assert mlec_burst_pdl(s, 60, 1) <= FLOAT_FLOOR
            assert mlec_burst_pdl(s, 60, 2) <= FLOAT_FLOOR
            assert mlec_burst_pdl(s, 11, 3) <= FLOAT_FLOOR

    def test_just_above_boundary_nonzero(self):
        """y = x+9 failures in 3 racks can build 3 lost stripes."""
        assert mlec_burst_pdl(scheme("D/D"), 12, 3) > FLOAT_FLOOR

    def test_scheme_ordering_at_worst_cell(self):
        """Findings 4-7: at y=60, x=3 the PDL orders D/D > C/D > D/C > C/C."""
        pdl = {name: mlec_burst_pdl(scheme(name), 60, 3)
               for name in ("C/C", "C/D", "D/C", "D/D")}
        assert pdl["D/D"] > pdl["C/D"] > pdl["D/C"] > pdl["C/C"]
        # Golden pins: the exact DP's values, bit for bit.
        assert {name: v.hex() for name, v in pdl.items()} == {
            "C/C": "0x1.a8f0000000000p-33",
            "C/D": "0x1.572cf1fcd7900p-9",
            "D/C": "0x1.c75d9b2f3353fp-17",
            "D/D": "0x1.809c762b176b3p-1",
        }

    def test_scattering_monotonicity(self):
        """Finding 2: spreading 60 failures over more racks lowers PDL."""
        s = scheme("D/D")
        values = [mlec_burst_pdl(s, 60, x) for x in (3, 6, 12, 30)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            mlec_burst_pdl(scheme("C/C"), 2, 5)
        with pytest.raises(ValueError):
            mlec_burst_pdl(scheme("C/C"), 10, 0)


class TestDPvsMonteCarlo:
    def test_dd_upper_bounds_monte_carlo(self):
        """The worst-case-declustering DP must upper-bound the placement-
        averaged MC estimate (it assumes any p_n+1 catastrophic pools in
        distinct racks are co-striped, which the MC refines away)."""
        s = scheme("D/D")
        dp = mlec_burst_pdl(s, 60, 3)
        rng = np.random.default_rng(0)
        mc = burst_pdl(MLECBurstEvaluator(s), 60, 3, trials=150, rng=rng)
        assert dp >= mc - 0.05  # upper bound modulo MC noise
        assert mc > 0.0  # both see the hot cell

    def test_cc_exactness_against_dedicated_mc(self):
        """C/C is fully clustered: DP is exact, MC agrees within noise."""
        s = scheme("C/C")
        rng = np.random.default_rng(1)
        y, x = 40, 2  # a guaranteed-zero cell
        assert mlec_burst_pdl(s, y, x) <= FLOAT_FLOOR
        assert burst_pdl(MLECBurstEvaluator(s), y, x, trials=50, rng=rng) == 0.0


class TestSLECDP:
    def _s(self, level, placement, k=7, p=3):
        return SLECScheme(SLECParams(k, p), level, placement)

    def test_loc_cp_burst_pdl_positive_when_localized(self):
        v = slec_burst_pdl(self._s(Level.LOCAL, Placement.CLUSTERED), 60, 1)
        assert 0.05 < v < 0.6

    def test_loc_dp_worse_than_cp_localized(self):
        cp = slec_burst_pdl(self._s(Level.LOCAL, Placement.CLUSTERED), 60, 1)
        dp = slec_burst_pdl(self._s(Level.LOCAL, Placement.DECLUSTERED), 60, 1)
        assert dp > cp

    def test_loc_cp_safe_below_p_plus_1(self):
        assert slec_burst_pdl(self._s(Level.LOCAL, Placement.CLUSTERED), 3, 1) == 0.0

    def test_net_dp_worst_case_rule(self):
        s = self._s(Level.NETWORK, Placement.DECLUSTERED)
        assert slec_burst_pdl(s, 60, 3) == 0.0
        assert slec_burst_pdl(s, 60, 4) == 1.0

    def test_net_cp_zero_within_p_racks(self):
        s = self._s(Level.NETWORK, Placement.CLUSTERED)
        v = slec_burst_pdl(s, 60, 3)
        assert v <= FLOAT_FLOOR
        assert v.hex() == "0x0.0p+0"  # golden pin

    def test_net_cp_collision_probability_plausible(self):
        """Scattered failures: position collisions are rare but non-zero."""
        s = self._s(Level.NETWORK, Placement.CLUSTERED)
        v = slec_burst_pdl(s, 60, 60)
        assert 0.0 <= v < 1e-3
        assert v.hex() == "0x1.7c62c2f400000p-20"  # golden pin
