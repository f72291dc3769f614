"""Failure-burst engine: generator properties and paper Findings 1-7."""

import numpy as np
import pytest

from repro.core.config import DatacenterConfig, LRCParams, MLECParams, SLECParams
from repro.core.scheme import LRCScheme, SLECScheme, mlec_scheme_from_name
from repro.core.types import Level, Placement
from repro.runtime import TrialRunner
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



def reference_pdl(ev, failed):
    """One burst's MLEC PDL by the per-burst loop the rows form replaced:
    an independent oracle for :meth:`MLECBurstEvaluator.pdl_of_bursts`."""
    from repro.analysis.combinatorics import (
        any_of_many,
        hypergeom_tail,
        poisson_binomial_tail,
        rack_selection_hits_pmf,
    )
    from repro.topology.pools import summarize_mlec_damage

    s = ev.scheme

    def lost(count):
        if s.local_placement is Placement.CLUSTERED:
            return 1.0
        return hypergeom_tail(s.local_pool_disks, int(count), s.params.n_l,
                              s.params.p_l)

    damage = summarize_mlec_damage(s, failed)
    if damage.n_catastrophic <= s.params.p_n:
        return 0.0
    racks = damage.catastrophic_racks
    counts = damage.catastrophic_counts
    threshold = s.params.p_n + 1
    if s.network_placement is Placement.CLUSTERED:
        keys = ((racks // s.network_group_racks) * s.local_pools_per_rack
                + damage.catastrophic_positions)
        no_loss_log = 0.0
        for key in np.unique(keys):
            sel = keys == key
            if int(sel.sum()) < threshold:
                continue
            probs = np.array([lost(c) for c in counts[sel]])
            q_net = poisson_binomial_tail(probs, threshold)
            if q_net >= 1.0:
                return 1.0
            no_loss_log += s.local_stripes_per_pool() * np.log1p(-q_net)
        return float(-np.expm1(no_loss_log))
    hit = np.zeros(s.dc.racks)
    for rack, count in zip(racks, counts):
        hit[rack] += (1.0 / s.local_pools_per_rack) * lost(count)
    pmf = rack_selection_hits_pmf(hit, s.params.n_n, threshold)
    return any_of_many(float(pmf[-1]), s.network_stripes_total())


class TestRowsEvaluator:
    """``pdl_of_bursts`` row ``i`` is ``pdl_of_burst(S[i])`` and the
    per-burst oracle, bit for bit (``float.hex`` keeps the sign of 0)."""

    CELLS = [(12, 1), (24, 2), (60, 3), (60, 6), (60, 12), (120, 3),
             (240, 6), (480, 12), (960, 24), (300, 60)]

    @pytest.mark.parametrize("name", ["C/C", "C/D", "D/C", "D/D"])
    def test_rows_match_one_row_calls_and_oracle(self, name):
        ev = evaluator(name)
        gen = BurstGenerator(rng=np.random.default_rng(17))
        for failures, racks in self.CELLS:
            block = gen.sample(failures, racks, size=40)
            rows = ev.pdl_of_bursts(block)
            for burst, value in zip(block, rows.tolist()):
                assert value.hex() == ev.pdl_of_burst(burst).hex()
                assert value.hex() == reference_pdl(ev, burst).hex()

    @pytest.mark.parametrize("name", ["C/C", "C/D", "D/C", "D/D"])
    def test_unsorted_and_duplicate_ids(self, name):
        ev = evaluator(name)
        rng = np.random.default_rng(5)
        block = BurstGenerator(rng=rng).sample(120, 3, size=30)
        block = rng.permuted(block, axis=1)  # unsorted rows
        block[::3, 1] = block[::3, 0]  # a duplicated id in every third row
        rows = ev.pdl_of_bursts(block)
        for burst, value in zip(block, rows.tolist()):
            assert value.hex() == ev.pdl_of_burst(burst).hex()
            assert value.hex() == reference_pdl(ev, burst).hex()
        assert rows.tobytes() == ev.pdl_of_bursts(np.sort(block, axis=1)).tobytes()

    def test_many_shared_groups_fold_in_key_order(self):
        """C/D bursts with six co-stripe groups of 3-6 catastrophic
        enclosures, each losing with its own q: the per-burst fold over
        groups must keep key order.  Disks of 2 GB keep the PDLs small,
        where the fold's last bits survive ``-expm1``."""
        from repro.core.config import DatacenterConfig

        dc = DatacenterConfig(disk_capacity_bytes=2 * 10**9)
        ev = MLECBurstEvaluator(mlec_scheme_from_name("C/D", PARAMS, dc))
        topo = DatacenterTopology(dc)
        rng = np.random.default_rng(11)
        bursts = []
        for _ in range(40):
            racks = rng.choice(12, size=6, replace=False)  # rack group 0
            burst = []
            for enclosure, size in enumerate(rng.permutation([3, 4, 5, 6, 3, 4])):
                for rack in rng.choice(racks, size=size, replace=False):
                    burst += [topo.disk_id(int(rack), enclosure, slot)
                              for slot in range(4 + int(rng.integers(3)))]
            bursts.append(burst[:100])
        block = np.array(bursts)
        rows = ev.pdl_of_bursts(block)
        assert 0.0 < rows.min() and rows.max() < 0.5
        for burst, value in zip(block, rows.tolist()):
            assert value.hex() == reference_pdl(ev, burst).hex()

    def test_unshared_groups_skip_the_lost_stripe_lookup(self, monkeypatch):
        """C/D: three catastrophic enclosures, but no three at one position
        of one rack group, so no network stripe is exposed and the
        hypergeometric lookup (scipy) is never reached."""
        import repro.sim.burst as burst_module

        def forbidden(*args):
            raise AssertionError("hypergeom_tail called")

        topo = DatacenterTopology()
        burst = np.array([
            topo.disk_id(rack, enclosure, slot)
            for rack, enclosure in ((0, 0), (1, 0), (2, 1))
            for slot in range(4)
        ])
        monkeypatch.setattr(burst_module, "hypergeom_tail", forbidden)
        pdl = evaluator("C/D").pdl_of_burst(burst)
        assert pdl.hex() == (-0.0).hex()

    def test_fully_lost_rack_hits_at_most_one(self):
        """D/C: 960 failures over 3 racks lose every local pool of some
        rack, whose 48 shares of 1/48 sum to 1.0000000000000007; the hit
        is clamped at 1.0 instead of failing the rack-selection DP."""
        ev = MLECBurstEvaluator(mlec_scheme_from_name("D/C", PARAMS))
        share, hit = 1.0 / ev.scheme.local_pools_per_rack, 0.0
        for _pool in range(ev.scheme.local_pools_per_rack):
            hit += share  # the rack's hit, folded in pool order
        assert hit > 1.0
        block = BurstGenerator(seed=3).sample(960, 3, size=5)
        rows = ev.pdl_of_bursts(block)
        assert rows.tolist() == [1.0] * 5
        for burst, value in zip(block, rows.tolist()):
            assert value.hex() == ev.pdl_of_burst(burst).hex()

    def test_empty_bursts(self):
        ev = evaluator("D/D")
        assert ev.pdl_of_burst(np.array([], dtype=np.int64)) == 0.0
        assert ev.pdl_of_bursts(np.empty((3, 0), dtype=np.int64)).tolist() == [
            0.0, 0.0, 0.0
        ]

    def test_rejects_non_block_input(self):
        with pytest.raises(ValueError, match="2-D"):
            evaluator("D/D").pdl_of_bursts(np.arange(12))

def slec_reference_pdl(ev, failed):
    """One burst's SLEC PDL by the per-burst code the rows form replaced:
    an independent oracle for :meth:`SLECBurstEvaluator.pdl_of_bursts`."""
    from repro.analysis.combinatorics import (
        any_of_many,
        hypergeom_tail,
        rack_selection_hits_pmf,
    )

    s = ev.scheme
    p = s.params.p
    failed = np.asarray(failed)
    if failed.size <= p:
        return 0.0
    if s.level is Level.LOCAL:
        if s.placement is Placement.CLUSTERED:
            counts = np.bincount(failed // s.params.n)
            return 1.0 if np.any(counts > p) else 0.0
        counts = np.bincount(failed // s.dc.disks_per_enclosure)
        counts = counts[counts > p]
        if counts.size == 0:
            return 0.0
        pool_disks = s.dc.disks_per_enclosure
        stripes_per_pool = pool_disks * s.dc.chunks_per_disk // s.params.n
        log_no = 0.0
        for c in counts:
            q = hypergeom_tail(pool_disks, int(c), s.params.n, p)
            if q >= 1.0:
                return 1.0
            log_no += stripes_per_pool * np.log1p(-q)
        return float(-np.expm1(log_no))
    dpr = s.dc.disks_per_rack
    racks = failed // dpr
    if s.placement is Placement.CLUSTERED:
        keys = (racks // s.params.n) * dpr + failed % dpr
        return 1.0 if np.any(np.bincount(keys) > p) else 0.0
    hit = np.bincount(racks, minlength=s.dc.racks) / dpr
    pmf = rack_selection_hits_pmf(hit, s.params.n, p + 1)
    return any_of_many(float(pmf[-1]), ev._total_stripes)


def lrc_reference_pdl(ev, failed):
    """One burst's LRC PDL by the per-burst code the rows form replaced."""
    from repro.analysis.combinatorics import any_of_many, rack_selection_hits_pmf

    s = ev.scheme
    dpr = s.dc.disks_per_rack
    hit = np.bincount(np.asarray(failed) // dpr, minlength=s.dc.racks) / dpr
    pmf = rack_selection_hits_pmf(hit, s.params.n, s.params.n)
    q = float(np.dot(pmf, ev._unrec_fraction[: len(pmf)]))
    return any_of_many(q, ev._total_stripes)


#: 2 MB disks (15 chunks each): declustered PDLs are fractional.
SMALL_DISKS = DatacenterConfig(disk_capacity_bytes=2 * 10**6)
SLEC_PLACEMENTS = [(level, placement) for level in Level for placement in Placement]


def slec(level, placement, dc=None):
    dc = dc if dc is not None else DatacenterConfig()
    return SLECBurstEvaluator(SLECScheme(SLECParams(7, 3), level, placement, dc))


def lrc(dc=None):
    dc = dc if dc is not None else DatacenterConfig()
    return LRCBurstEvaluator(LRCScheme(LRCParams(14, 2, 4), dc))


def assert_rows_match(ev, block, oracle):
    """Each row of ``pdl_of_bursts(block)`` equals the one-row call and the
    oracle by ``float.hex``, which also tells 0.0 from -0.0."""
    rows = ev.pdl_of_bursts(block)
    for burst, value in zip(block, rows.tolist()):
        assert value.hex() == ev.pdl_of_burst(burst).hex()
        assert value.hex() == oracle(ev, burst).hex()
    return rows


class TestSLECAndLRCRows:
    """The SLEC and LRC rows forms against their per-burst code."""

    CELLS = [(4, 1), (12, 1), (24, 2), (60, 3), (60, 6), (60, 12),
             (120, 3), (240, 10), (300, 60)]

    @pytest.mark.parametrize("level, placement", SLEC_PLACEMENTS)
    @pytest.mark.parametrize("dc", [None, SMALL_DISKS], ids=["20TB", "2MB"])
    def test_slec_rows_match_one_row_calls_and_oracle(self, level, placement, dc):
        ev = slec(level, placement, dc)
        gen = BurstGenerator(ev.scheme.dc, np.random.default_rng(23))
        fractional = 0
        for failures, racks in self.CELLS:
            rows = assert_rows_match(
                ev, gen.sample(failures, racks, size=30), slec_reference_pdl)
            fractional += int(((rows > 0.0) & (rows < 1.0)).sum())
        if dc is not None and placement is Placement.DECLUSTERED:
            assert fractional > 30  # the fold's last bits are compared

    def test_lrc_rows_match_one_row_calls_and_oracle(self):
        ev = lrc()
        gen = BurstGenerator(rng=np.random.default_rng(29))
        fractional = 0
        for failures, racks in self.CELLS + [(60, 30), (120, 60)]:
            rows = assert_rows_match(
                ev, gen.sample(failures, racks, size=30), lrc_reference_pdl)
            fractional += int(((rows > 0.0) & (rows < 1.0)).sum())
        assert fractional > 30

    @pytest.mark.parametrize("level, placement", SLEC_PLACEMENTS)
    def test_slec_unsorted_and_duplicate_ids(self, level, placement):
        ev = slec(level, placement, SMALL_DISKS)
        rng = np.random.default_rng(31)
        block = BurstGenerator(SMALL_DISKS, rng).sample(60, 3, size=30)
        block = rng.permuted(block, axis=1)  # unsorted rows
        block[::3, 1] = block[::3, 0]  # a duplicated id in every third row
        rows = assert_rows_match(ev, block, slec_reference_pdl)
        assert rows.tobytes() == ev.pdl_of_bursts(np.sort(block, axis=1)).tobytes()

    def test_lrc_unsorted_and_duplicate_ids(self):
        ev = lrc()
        rng = np.random.default_rng(37)
        block = BurstGenerator(rng=rng).sample(60, 30, size=30)
        block = rng.permuted(block, axis=1)
        block[::3, 1] = block[::3, 0]
        rows = assert_rows_match(ev, block, lrc_reference_pdl)
        assert rows.tobytes() == ev.pdl_of_bursts(np.sort(block, axis=1)).tobytes()

    @pytest.mark.parametrize("level, placement", SLEC_PLACEMENTS)
    def test_slec_width_at_most_p_and_empty_bursts(self, level, placement):
        """Up to p failures (none at all included) never lose data: +0.0."""
        ev = slec(level, placement)
        rng = np.random.default_rng(41)
        for width in range(ev.scheme.params.p + 1):
            block = rng.integers(ev.scheme.dc.disks_per_rack, size=(5, width))
            rows = assert_rows_match(ev, block, slec_reference_pdl)
            assert [v.hex() for v in rows.tolist()] == ["0x0.0p+0"] * 5

    def test_lrc_empty_and_recoverable_bursts(self):
        """r + 1 = 5 failures are always recoverable: +0.0."""
        ev = lrc()
        for width in (0, 5):
            block = np.arange(5 * width).reshape(5, width) * 960  # 1 per rack
            rows = assert_rows_match(ev, block, lrc_reference_pdl)
            assert [v.hex() for v in rows.tolist()] == ["0x0.0p+0"] * 5

    def test_local_dp_signs_of_zero_and_certain_loss(self):
        """Loc-Dp on one block: a burst with no pool over p is +0.0, a pool
        whose every stripe is hit is 1.0 whatever the other pools hold,
        and fractional rows keep their own fold."""
        ev = slec(Level.LOCAL, Placement.DECLUSTERED, SMALL_DISKS)
        dpe = SMALL_DISKS.disks_per_enclosure
        block = np.array([
            np.arange(8) * dpe,  # eight enclosures, one failure each
            np.concatenate([np.arange(4), np.arange(4) + dpe]),  # p+1 in one
            np.concatenate([np.arange(4), np.arange(4) + 2 * dpe]),
            np.arange(8),  # 8 of an enclosure's 120 disks
        ])
        rows = assert_rows_match(ev, block, slec_reference_pdl)
        assert rows[0].hex() == "0x0.0p+0"
        assert 0.0 < rows[1] < 1.0 and rows[1] == rows[2]
        assert rows[3] > rows[1]
        full = np.concatenate([np.arange(dpe - 4), np.arange(4) + dpe])
        assert ev.pdl_of_bursts(full.reshape(1, -1)).tolist() == [1.0]
        assert slec_reference_pdl(ev, full) == 1.0

    def test_rejects_non_block_input(self):
        for ev in (slec(Level.LOCAL, Placement.CLUSTERED), lrc()):
            with pytest.raises(ValueError, match="2-D"):
                ev.pdl_of_bursts(np.arange(12))


GOLDEN_SEED = 2026
FIG5_FAILURES = np.array([12, 24, 36, 48, 60])
FIG5_RACKS = np.array([1, 2, 3, 6, 12, 30, 60])
#: Heavier bursts, where every scheme's loss branch yields fractional PDLs.
HEAVY_FAILURES = np.array([240, 480, 960])
HEAVY_RACKS = np.array([6, 12, 24])


def sha256(values):
    import hashlib

    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


def aggregate_fields(agg):
    return (
        agg.trials, agg.total.hex(), agg.total_sq.hex(), agg.losses,
        agg.minimum.hex(), agg.maximum.hex(),
    )


@pytest.mark.parametrize("batch", ["on", "off"])
class TestGoldenArtifacts:
    """Burst Monte Carlo values pinned bit for bit.

    Each pin is a sha256 of the result bytes or the ``float.hex`` of an
    aggregate field, so any change to how a burst is drawn, classified
    or evaluated -- including a rounding or signed-zero change -- fails
    here, in both batch modes.
    """

    FIG5_GRIDS = {
        "C/C": "2e93cd7b7e99df37a3b99631dc54f8a14eaaf383331bfb21c03371bfe9ad0229",
        "C/D": "2e93cd7b7e99df37a3b99631dc54f8a14eaaf383331bfb21c03371bfe9ad0229",
        "D/C": "2e93cd7b7e99df37a3b99631dc54f8a14eaaf383331bfb21c03371bfe9ad0229",
        "D/D": "35cd751c215b85f53e9d684b481062b66eec90de55fce366543807aee143a041",
    }
    HEAVY_GRIDS = {
        "C/C": "cc959afe94943d95c02cd970e657cd2465cc8b0c424fc57db51e9d982729f53f",
        "C/D": "0d23ed589f29fdbe93f611686560dd83b135d077407e2332760e905b27116ecc",
        "D/C": "a09407cfa313d14b933a3ecd150fa30e7ff9e041a56ff8ba139919f6de0c51f9",
        "D/D": "11415d2640ef1968c34ae0774a4cfc4ef7f0f0b14ab686f797c6ff73451d99bd",
    }
    HARD_CELL_STATS = {
        "D/D": (200, "0x1.4e79b74a27430p+2", "0x1.0389fe52aad86p+0", 163,
                "0x0.0p+0", "0x1.648f85aadc63bp-1"),
        "C/D": (200, "0x1.79ab49691aedep-1", "0x1.6684254480e9fp-2", 2,
                "-0x0.0p+0", "0x1.21fc60fcf5c00p-1"),
    }
    SLEC_TRIALS = {
        (Level.LOCAL, Placement.CLUSTERED, 60, 3):
            "706d46716c9746cc4bac248a23e65d4d9c59570a0782ed84a7707a269d0f8f93",
        (Level.LOCAL, Placement.DECLUSTERED, 12, 3):
            "5a7596d109ab29da12619bbbdcf7333cd20bfa75ee3a978bd8117931c40340aa",
        (Level.NETWORK, Placement.CLUSTERED, 1000, 10):
            "1a5d7f6344e01313b5d7252f3f4683396438129044efa0f0a6ae8d234c1524b9",
        (Level.NETWORK, Placement.DECLUSTERED, 24, 12):
            "1632bc9aca7efc93d75ee34dc469924c5061db79927b829801feb1fb651909fa",
    }
    SLEC_CELLS = {
        (Level.LOCAL, Placement.CLUSTERED, 120, 3): "0x1.c28f5c28f5c29p-4",
        (Level.NETWORK, Placement.CLUSTERED, 1000, 10): "0x1.70a3d70a3d70ap-5",
        (Level.NETWORK, Placement.DECLUSTERED, 24, 12): "0x1.e93152d5adc5ap-1",
    }
    #: Declustered SLEC on 2 MB disks (15 chunks each): every trial's PDL
    #: is fractional, so the stripe-count fold's last bits are pinned.
    SMALL_DISK_TRIALS = {
        (Level.LOCAL, Placement.DECLUSTERED, 60, 3):
            "470e386f2f03f4c25acd3ae9688e673e9c02bd70019005f76640272f42086ba8",
        (Level.NETWORK, Placement.DECLUSTERED, 60, 30):
            "833cdd2e1e02a1f6fcd2547038e63c11e4b88010e2ca97d9d51266660fbe6eb2",
    }
    #: Figure 16's (60 failures, 60 racks) cell, from the bench's own
    #: grid; the rendered heatmap is the table that bench writes.
    LRC_FIG16_CELL = "0x1.17a10ca2acd5fp-10"
    LRC_FIG16_TABLE = (
        "Figure 16: PDL of (14,2,4) LRC-Dp under failure bursts\n"
        "   PDL ramp: '.'<=1e-07 ... '#'~1\n"
        "12 .....  \n"
        "24 ....1  \n"
        "36 ...123 \n"
        "48 ...233 \n"
        "60 ...2344\n"
        "   cols: 1 3 5 6 10 30 60"
    )

    @pytest.mark.parametrize("name", ["C/C", "C/D", "D/C", "D/D"])
    def test_fig5_grid(self, name, batch):
        grid = burst_pdl_grid(evaluator(name), FIG5_FAILURES, FIG5_RACKS,
                              trials=20, seed=GOLDEN_SEED,
                              runner=TrialRunner(batch=batch))
        assert sha256(grid) == self.FIG5_GRIDS[name]

    @pytest.mark.parametrize("name", ["C/C", "C/D", "D/C", "D/D"])
    def test_heavy_grid(self, name, batch):
        grid = burst_pdl_grid(evaluator(name), HEAVY_FAILURES, HEAVY_RACKS,
                              trials=20, seed=GOLDEN_SEED,
                              runner=TrialRunner(batch=batch))
        assert sha256(grid) == self.HEAVY_GRIDS[name]

    @pytest.mark.parametrize("name", ["D/D", "C/D"])
    def test_hard_cell_stats(self, name, batch):
        from repro.sim.burst import burst_pdl_stats

        agg = burst_pdl_stats(evaluator(name), 60, 3, trials=200,
                              seed=GOLDEN_SEED, batch=batch)
        assert aggregate_fields(agg) == self.HARD_CELL_STATS[name]

    @pytest.mark.parametrize("case", list(SLEC_TRIALS))
    def test_slec_trial_values(self, case, batch):
        from repro.runtime import TrialRunner
        from repro.sim.burst import _burst_trial

        level, placement, failures, racks = case
        ev = SLECBurstEvaluator(SLECScheme(SLECParams(7, 3), level, placement))
        values = TrialRunner(batch=batch).map(
            _burst_trial, 200, seed=GOLDEN_SEED,
            args=(ev, failures, racks, ev.scheme.dc),
        )
        assert sha256(values) == self.SLEC_TRIALS[case]

    @pytest.mark.parametrize("case", list(SLEC_CELLS))
    def test_slec_grid_cell(self, case, batch):
        level, placement, failures, racks = case
        ev = SLECBurstEvaluator(SLECScheme(SLECParams(7, 3), level, placement))
        grid = burst_pdl_grid(ev, [failures], [racks], trials=200,
                              seed=GOLDEN_SEED,
                              runner=TrialRunner(batch=batch))
        assert float(grid[0, 0]).hex() == self.SLEC_CELLS[case]

    @pytest.mark.parametrize("case", list(SMALL_DISK_TRIALS))
    def test_small_disk_slec_trial_values(self, case, batch):
        from repro.core.config import DatacenterConfig
        from repro.sim.burst import _burst_trial

        level, placement, failures, racks = case
        dc = DatacenterConfig(disk_capacity_bytes=2 * 10**6)
        ev = SLECBurstEvaluator(
            SLECScheme(SLECParams(7, 3), level, placement, dc))
        values = TrialRunner(batch=batch).map(
            _burst_trial, 200, seed=GOLDEN_SEED, args=(ev, failures, racks, dc),
        )
        assert all(0.0 < v < 1.0 for v in values)
        assert sha256(values) == self.SMALL_DISK_TRIALS[case]

    def test_lrc_fig16_cell(self, batch):
        from repro.reporting import format_heatmap

        failures = np.array([12, 24, 36, 48, 60])
        racks = np.array([1, 3, 5, 6, 10, 30, 60])
        ev = LRCBurstEvaluator(LRCScheme(LRCParams(14, 2, 4)))
        grid = burst_pdl_grid(ev, failures, racks, trials=25, seed=16,
                              runner=TrialRunner(batch=batch))
        assert float(grid[4, 6]).hex() == self.LRC_FIG16_CELL
        text = format_heatmap(
            grid, failures.tolist(), racks.tolist(),
            title="Figure 16: PDL of (14,2,4) LRC-Dp under failure bursts",
        )
        assert text == self.LRC_FIG16_TABLE
