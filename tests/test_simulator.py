"""Full-system simulator: failure statistics, bursts, traffic accounting."""

import numpy as np
import pytest

from repro.core.config import PAPER_MLEC, SLECParams, YEAR
from repro.core.scheme import SLECScheme, mlec_scheme_from_name
from repro.core.types import Level, Placement, RepairMethod
from repro.sim.failures import ExponentialFailures, TraceFailures
from repro.sim.kernel import DamageClasses, PoolDamage
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


class TestPoolDamageResidues:
    """Banked repair work is float arithmetic; its rounding residues must
    not keep a repaired pool alive."""

    #: D/D pool geometry: (17+3) stripes over a 120-disk enclosure, at
    #: the paper's 20 TB / 128 KiB = 152,587,890.625 chunks per disk.
    CLASSES = DamageClasses(20, 120, 3, 152_587_890.625)

    def replay(self, ops):
        damage = PoolDamage(self.CLASSES)
        for op in ops:
            damage.promote() if op == "p" else damage.drain()
        return damage

    def test_drained_pool_with_residue_is_idle(self):
        """Ten failures and ten repairs, interleaved as a chaos run saw
        them, leave about 6e-8 chunks (two ulps) at damage 1."""
        damage = self.replay("ppdppdpdpddppdppdddd")
        assert damage.work[1] > 0.0  # the residue is really there
        assert max(damage.work) < 1e-6
        assert damage.is_idle()
        assert damage.top_class() is None
        assert damage.critical_hits() == 0.0

    def test_outstanding_chunk_is_not_idle(self):
        damage = self.replay("pppddd")
        assert damage.is_idle()
        damage.work[2] = 1.0  # one real chunk of repair left
        assert not damage.is_idle()
        assert damage.top_class() == 2

    def test_failed_or_offline_disk_is_not_idle(self):
        damage = self.replay("pd")
        damage.offline = 1
        assert not damage.is_idle()
        damage.offline, damage.failed = 0, 1
        assert not damage.is_idle()

    def test_tolerance_scales_with_chunks_per_disk(self):
        """The same residue, relative to a 1,000x larger disk, is still
        drained; relative to a 1,000x smaller one it is real work."""
        big = PoolDamage(DamageClasses(20, 120, 3, 152_587_890_625.0))
        big.work[1] = 5.96e-5
        assert big.is_idle()
        small = PoolDamage(DamageClasses(20, 120, 3, 152_587.890625))
        small.work[1] = 5.96e-4
        assert not small.is_idle()
