"""Failure-burst engine: generator properties and paper Findings 1-7."""

import numpy as np
import pytest

from repro.core.config import LRCParams, MLECParams, SLECParams
from repro.core.scheme import LRCScheme, SLECScheme, mlec_scheme_from_name
from repro.core.types import Level, Placement
from repro.sim.burst import (
    BurstGenerator,
    LRCBurstEvaluator,
    MLECBurstEvaluator,
    SLECBurstEvaluator,
    burst_pdl,
    burst_pdl_grid,
)
from repro.topology.datacenter import DatacenterTopology

PARAMS = MLECParams(10, 2, 17, 3)


def evaluator(name):
    return MLECBurstEvaluator(mlec_scheme_from_name(name, PARAMS))


class TestBurstGenerator:
    def test_every_affected_rack_has_a_failure(self):
        gen = BurstGenerator(rng=np.random.default_rng(0))
        topo = DatacenterTopology()
        for _ in range(20):
            failed = gen.sample(failures=30, racks=7)
            racks = set(topo.rack_of(failed).tolist())
            assert len(failed) == 30
            assert len(racks) == 7
            assert len(set(failed.tolist())) == 30  # distinct disks

    def test_single_rack_burst(self):
        gen = BurstGenerator(rng=np.random.default_rng(1))
        topo = DatacenterTopology()
        failed = gen.sample(failures=60, racks=1)
        assert len(set(topo.rack_of(failed).tolist())) == 1

    def test_validation(self):
        gen = BurstGenerator()
        with pytest.raises(ValueError):
            gen.sample(failures=3, racks=5)  # fewer failures than racks
        with pytest.raises(ValueError):
            gen.sample(failures=10, racks=0)
        with pytest.raises(ValueError):
            gen.sample(failures=10_000, racks=1)  # rack holds 960 disks


class TestPaperFindings:
    """Each test pins one of the paper's §4.1.1 findings."""

    def test_finding3_zero_loss_within_pn_racks(self):
        """PDL = 0 when no more than p_n = 2 racks are affected (C/C)."""
        ev = evaluator("C/C")
        rng = np.random.default_rng(2)
        assert burst_pdl(ev, 60, 1, trials=20, rng=rng) == 0.0
        assert burst_pdl(ev, 60, 2, trials=20, rng=rng) == 0.0

    def test_finding3_zero_loss_below_x_plus_8(self):
        """x+8 failures in x racks cause at most 2 lost local stripes."""
        for name in ("C/C", "C/D", "D/C", "D/D"):
            ev = evaluator(name)
            rng = np.random.default_rng(3)
            assert burst_pdl(ev, 11, 3, trials=20, rng=rng) == 0.0

    def test_finding4_and_7_dd_worst_at_pn_plus_1_racks(self):
        """D/D has the highest PDL; bursts in exactly 3 racks are worst."""
        rng = np.random.default_rng(4)
        pdl = {
            name: burst_pdl(evaluator(name), 60, 3, trials=60, rng=rng)
            for name in ("C/C", "C/D", "D/C", "D/D")
        }
        assert pdl["D/D"] == max(pdl.values())
        assert pdl["D/D"] > 0.0

    def test_finding2_scattering_reduces_pdl(self):
        """More racks for the same failure count lowers the PDL (D/D)."""
        ev = evaluator("D/D")
        rng = np.random.default_rng(5)
        concentrated = burst_pdl(ev, 60, 3, trials=60, rng=rng)
        scattered = burst_pdl(ev, 60, 30, trials=60, rng=rng)
        assert concentrated > scattered


class TestSLECEvaluators:
    def _scheme(self, level, placement, k=7, p=3):
        return SLECScheme(SLECParams(k, p), level, placement)

    def test_loc_cp_localized_bursts_lose(self):
        ev = SLECBurstEvaluator(self._scheme(Level.LOCAL, Placement.CLUSTERED))
        rng = np.random.default_rng(6)
        assert burst_pdl(ev, 120, 1, trials=40, rng=rng) > 0.0

    def test_loc_dp_worse_when_localized(self):
        """Figure 13b: local-Dp amplifies localized bursts vs local-Cp."""
        rng = np.random.default_rng(7)
        cp = burst_pdl(
            SLECBurstEvaluator(self._scheme(Level.LOCAL, Placement.CLUSTERED)),
            60, 1, trials=60, rng=rng,
        )
        dp = burst_pdl(
            SLECBurstEvaluator(self._scheme(Level.LOCAL, Placement.DECLUSTERED)),
            60, 1, trials=60, rng=rng,
        )
        assert dp > cp

    def test_net_cp_zero_when_few_racks(self):
        """Figure 13c: PDL 0 when no more than p racks have failures."""
        ev = SLECBurstEvaluator(self._scheme(Level.NETWORK, Placement.CLUSTERED))
        rng = np.random.default_rng(8)
        assert burst_pdl(ev, 90, 3, trials=20, rng=rng) == 0.0

    def test_net_dp_scattered_bursts_lose(self):
        """Figure 13d: network-Dp loses under scattered failures."""
        ev = SLECBurstEvaluator(self._scheme(Level.NETWORK, Placement.DECLUSTERED))
        rng = np.random.default_rng(9)
        assert burst_pdl(ev, 60, 60, trials=10, rng=rng) > 0.99

    def test_below_tolerance_always_safe(self):
        for level in Level:
            for placement in Placement:
                ev = SLECBurstEvaluator(self._scheme(level, placement))
                rng = np.random.default_rng(10)
                assert burst_pdl(ev, 3, 3, trials=10, rng=rng) == 0.0


class TestLRCEvaluator:
    def test_safe_below_r_plus_2_racks(self):
        """Any pattern of size <= r+1 = 5 is recoverable for (14,2,4)."""
        ev = LRCBurstEvaluator(LRCScheme(LRCParams(14, 2, 4)))
        rng = np.random.default_rng(11)
        assert burst_pdl(ev, 60, 5, trials=10, rng=rng) == 0.0

    def test_scattered_bursts_hurt(self):
        """Figure 16: LRC-Dp is susceptible to highly scattered bursts."""
        ev = LRCBurstEvaluator(LRCScheme(LRCParams(14, 2, 4)))
        rng = np.random.default_rng(12)
        localized = burst_pdl(ev, 60, 6, trials=40, rng=rng)
        scattered = burst_pdl(ev, 60, 60, trials=40, rng=rng)
        assert scattered > localized

    def test_unrecoverable_fraction_monotone(self):
        ev = LRCBurstEvaluator(LRCScheme(LRCParams(14, 2, 4)))
        u = ev._unrecoverable_fraction_by_size()
        assert np.all(u[:6] == 0.0)  # sizes <= r+1 always recoverable
        assert np.all(np.diff(u[5:]) >= -1e-12)  # monotone in pattern size
        assert u[-1] == 1.0  # losing everything is unrecoverable


class TestParallelExecution:
    """Runner-backed paths: worker-count-independent, validated inputs."""

    def test_burst_pdl_stats_workers_identical(self):
        from repro.runtime import TrialRunner
        from repro.sim.burst import burst_pdl_stats

        ev = evaluator("D/D")
        serial = burst_pdl_stats(ev, 60, 3, trials=30, seed=7,
                                 runner=TrialRunner(workers=1))
        parallel = burst_pdl_stats(ev, 60, 3, trials=30, seed=7,
                                   runner=TrialRunner(workers=4))
        assert serial == parallel
        assert serial.trials == 30
        assert 0.0 <= serial.mean <= 1.0

    def test_grid_workers_identical(self):
        from repro.runtime import TrialRunner

        ev = evaluator("D/D")
        failures = np.array([12, 60])
        racks = np.array([1, 3])
        g1 = burst_pdl_grid(ev, failures, racks, trials=5, seed=3,
                            runner=TrialRunner(workers=1))
        g2 = burst_pdl_grid(ev, failures, racks, trials=5, seed=3,
                            runner=TrialRunner(workers=2))
        assert np.array_equal(g1, g2, equal_nan=True)

    def test_grid_workers_param_constructs_runner(self):
        ev = evaluator("D/D")
        failures = np.array([12, 60])
        racks = np.array([1, 3])
        serial = burst_pdl_grid(ev, failures, racks, trials=5, seed=3,
                                workers=1)
        from repro.runtime import TrialRunner

        parallel = burst_pdl_grid(ev, failures, racks, trials=5, seed=3,
                                  runner=TrialRunner(workers=2))
        # Every grid runs one spawned stream per cell, so the worker count
        # never changes a value.
        assert np.array_equal(serial, parallel, equal_nan=True)

    def test_grid_invalid_workers_rejected(self):
        ev = evaluator("C/C")
        with pytest.raises(ValueError, match="workers must be >= 1"):
            burst_pdl_grid(ev, np.array([12]), np.array([1]), trials=5,
                           workers=0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            burst_pdl_grid(ev, np.array([12]), np.array([1]), trials=5,
                           workers=-3)

    def test_non_positive_trials_rejected(self):
        ev = evaluator("C/C")
        with pytest.raises(ValueError, match="trials"):
            burst_pdl(ev, 60, 3, trials=0)
        with pytest.raises(ValueError, match="trials"):
            burst_pdl(ev, 60, 3, trials=-1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="trials"):
            burst_pdl_grid(ev, np.array([12]), np.array([1]), trials=0)


class TestGridDriver:
    def test_grid_shape_and_nan_region(self):
        ev = evaluator("C/C")
        grid = burst_pdl_grid(
            ev, failure_counts=np.array([2, 10]), rack_counts=np.array([1, 5]),
            trials=3, seed=0,
        )
        assert grid.shape == (2, 2)
        assert np.isnan(grid[0, 1])  # 2 failures in 5 racks: impossible
        assert not np.isnan(grid[1, 1])
