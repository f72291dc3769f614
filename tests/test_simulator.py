"""Full-system simulator: failure statistics, bursts, traffic accounting."""

import numpy as np
import pytest

from repro.core.config import PAPER_MLEC, SLECParams, YEAR
from repro.core.scheme import SLECScheme, mlec_scheme_from_name
from repro.core.types import Level, Placement, RepairMethod
from repro.sim.failures import ExponentialFailures, TraceFailures
from repro.sim.local_pool import LocalPoolSimulator
from repro.sim.simulator import MLECSystemSimulator
from repro.sim.slec_sim import SLECSystemSimulator
from repro.sim.traces import SyntheticTraceGenerator


def simulator(name="C/D", method=RepairMethod.R_MIN, **kw):
    return MLECSystemSimulator(
        mlec_scheme_from_name(name, PAPER_MLEC), method, **kw
    )


class TestFailureStatistics:
    def test_annual_failure_count_matches_afr(self):
        sim = simulator()
        r = sim.run(mission_time=YEAR, seed=0)
        # 57,600 disks at 1% AFR: ~579 failures expected (+/- Poisson).
        expected = 57_600 * -np.log1p(-0.01)
        assert abs(r.n_disk_failures - expected) < 4 * np.sqrt(expected)

    def test_no_catastrophes_at_nominal_rates(self):
        """Catastrophic pools are ~1e-5/year events: a single simulated
        year at AFR 1% must be quiet (this is why splitting exists)."""
        r = simulator().run(mission_time=YEAR, seed=1)
        assert r.n_catastrophic_events == 0
        assert not r.lost_data
        assert r.cross_rack_repair_bytes == 0.0

    def test_local_traffic_accounts_failures(self):
        sim = simulator()
        r = sim.run(mission_time=YEAR, seed=2)
        assert r.local_repair_bytes == r.n_disk_failures * 20e12

    def test_deterministic_given_seed(self):
        a = simulator().run(mission_time=YEAR / 4, seed=7)
        b = simulator().run(mission_time=YEAR / 4, seed=7)
        assert a.n_disk_failures == b.n_disk_failures

    def test_full_result_reproducible_given_seed(self):
        """Two runs with the same seed agree on the complete result, not
        just headline counters -- including under accelerated rates where
        catastrophes and network repairs exercise every RNG call site."""
        sim = simulator(failure_model=ExponentialFailures(0.3))
        a = sim.run(mission_time=YEAR / 4, seed=11)
        b = sim.run(mission_time=YEAR / 4, seed=11)
        assert a == b
        assert a.n_catastrophic_events > 0  # the comparison was non-trivial

    def test_different_seeds_diverge(self):
        a = simulator().run(mission_time=YEAR / 4, seed=1)
        b = simulator().run(mission_time=YEAR / 4, seed=2)
        assert a.n_disk_failures != b.n_disk_failures


class TestMissionTimeValidation:
    """The kernel's one mission-time check guards all three simulators:
    an infinite mission never ends, and a zero-length one has no yearly
    rate."""

    @pytest.mark.parametrize("make", [
        simulator,
        lambda: SLECSystemSimulator(
            SLECScheme(SLECParams(7, 3), Level.LOCAL, Placement.CLUSTERED)
        ),
        lambda: LocalPoolSimulator(
            pool_disks=20, stripe_width=20, parities=3, clustered=True,
            disk_capacity_bytes=20e12, chunk_size_bytes=128 * 1024,
            repair_rate=40e6, detection_time=1800,
        ),
    ], ids=["mlec", "slec", "local-pool"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_mission_rejected(self, bad, make):
        with pytest.raises(ValueError, match="mission_time"):
            make().run(mission_time=bad, seed=0)


class TestAcceleratedBehaviour:
    def test_catastrophes_appear_under_acceleration(self):
        sim = simulator(failure_model=ExponentialFailures(0.3))
        r = sim.run(mission_time=YEAR, seed=3)
        assert r.n_catastrophic_events > 0
        assert r.cross_rack_repair_bytes > 0

    def test_rall_moves_more_bytes_than_rmin(self):
        kwargs = dict(failure_model=ExponentialFailures(0.3))
        r_all = simulator(method=RepairMethod.R_ALL, **kwargs).run(YEAR, seed=4)
        r_min = simulator(method=RepairMethod.R_MIN, **kwargs).run(YEAR, seed=4)
        assert r_all.n_catastrophic_events > 0
        assert r_all.cross_rack_repair_bytes > 100 * r_min.cross_rack_repair_bytes


class TestBurstInjection:
    def test_catastrophic_burst_via_trace(self):
        """4 simultaneous failures in one local-Cp pool: catastrophic."""
        events = [(100.0 + i, disk) for i, disk in enumerate(range(4))]
        sim = simulator("C/C", failure_model=TraceFailures(events))
        r = sim.run(mission_time=10_000.0, seed=5)
        assert r.n_catastrophic_events == 1
        assert not r.lost_data  # one pool alone cannot lose data (p_n = 2)

    def test_three_pool_burst_loses_data_in_cc(self):
        """p_n+1 = 3 catastrophic pools at the same position in the same
        rack group: guaranteed network-stripe loss for C/C."""
        events = []
        for rack in range(3):
            base = rack * 960  # first pool of each of three group racks
            events.extend((50.0 + rack, base + slot) for slot in range(4))
        sim = simulator("C/C", method=RepairMethod.R_ALL,
                        failure_model=TraceFailures(events))
        r = sim.run(mission_time=10_000.0, seed=6)
        assert r.n_catastrophic_events == 3
        assert r.max_concurrent_catastrophic == 3
        assert r.lost_data

    def test_two_pool_burst_survives(self):
        events = []
        for rack in range(2):
            base = rack * 960
            events.extend((50.0 + rack, base + slot) for slot in range(4))
        sim = simulator("C/C", failure_model=TraceFailures(events))
        r = sim.run(mission_time=10_000.0, seed=7)
        assert r.n_catastrophic_events == 2
        assert not r.lost_data

    def test_synthetic_trace_drives_simulator(self):
        gen = SyntheticTraceGenerator(
            background_afr=0.01, bursts_per_year=4.0, burst_size=8
        )
        trace = gen.generate(duration=YEAR / 2, seed=8)
        sim = simulator(failure_model=TraceFailures(trace.events))
        r = sim.run(mission_time=YEAR / 2, seed=9)
        assert r.n_disk_failures == len(trace)


class TestSchemePoolMapping:
    def test_clustered_pool_id(self):
        sim = simulator("C/C")
        assert sim._pool_of_disk(0) == 0
        assert sim._pool_of_disk(19) == 0
        assert sim._pool_of_disk(20) == 1

    def test_declustered_pool_id(self):
        sim = simulator("C/D")
        assert sim._pool_of_disk(119) == 0
        assert sim._pool_of_disk(120) == 1

    def test_co_stripe_keys(self):
        cc = simulator("C/C")
        # Same position, racks 0 and 11 (same group of 12): same key.
        assert cc._co_stripe_key(0) == cc._co_stripe_key(11 * 48)
        # Rack 12 starts a new group.
        assert cc._co_stripe_key(0) != cc._co_stripe_key(12 * 48)
        # Different position in the same rack: different key.
        assert cc._co_stripe_key(0) != cc._co_stripe_key(1)
        dd = simulator("D/D")
        assert dd._co_stripe_key(0) == dd._co_stripe_key(479)
