"""The block burst sampler: structure, law, and agreement with the exact DP.

``BurstGenerator.sample(failures, racks, size=...)`` draws a whole cell's
bursts in a few array calls.  These tests tie it to the law the
previous ``Generator.choice`` sampler drew (kept below only as a
reference), check every row's structure, and compare block-sampled
clustered SLEC cells with :func:`~repro.analysis.burst_dp.slec_burst_pdl`.
"""

import math

import numpy as np
import pytest
from scipy import stats

from repro.analysis.burst_dp import slec_burst_pdl
from repro.core.config import DatacenterConfig, SLECParams
from repro.core.scheme import SLECScheme
from repro.core.types import Level, Placement
from repro.sim.burst import BurstGenerator, SLECBurstEvaluator

PAPER_DC = DatacenterConfig()
#: 6 racks x 2 enclosures x 5 disks: small enough that the per-rack and
#: per-enclosure statistics have few categories.
SMALL_DC = DatacenterConfig(racks=6, enclosures_per_rack=2, disks_per_enclosure=5)
#: One network group of 10 racks x 10 disk positions, where the Net-Cp
#: DP is fast and its PDLs are moderate.
GROUP_DC = DatacenterConfig(racks=10, enclosures_per_rack=1, disks_per_enclosure=10)

#: (dc, failures, racks) cells covering both ways the sampler draws the
#: extra failures: sparse rows by rejection, dense rows by uniform keys.
CELLS = [
    (SMALL_DC, 1, 1),  # one failure, no extras
    (SMALL_DC, 6, 6),  # every rack, no extras
    (SMALL_DC, 5, 2),  # sparse extras: rejection
    (SMALL_DC, 8, 3),  # sparse extras: rejection
    (SMALL_DC, 12, 3),  # dense extras: uniform keys
    (SMALL_DC, 25, 3),  # dense extras: uniform keys
    (SMALL_DC, 60, 6),  # every disk
    (PAPER_DC, 3, 2),  # one extra: every candidate row is distinct
    (PAPER_DC, 60, 3),  # rejection
    (PAPER_DC, 120, 1),  # uniform keys
]


def choice_sample(dc, rng, failures, racks):
    """The previous sampler, one burst per call: racks by
    ``Generator.choice``, one guaranteed failure per rack, the rest by
    ``choice`` without replacement over the racks' other disks."""
    dpr = dc.disks_per_rack
    chosen = rng.choice(dc.racks, size=racks, replace=False)
    first = chosen * dpr + rng.integers(dpr, size=racks)
    extra_n = failures - racks
    if extra_n == 0:
        return np.sort(first)
    local = rng.choice(racks * (dpr - 1), size=extra_n, replace=False)
    rack_idx = local // (dpr - 1)
    slot = local % (dpr - 1)
    slot = slot + (slot >= first[rack_idx] % dpr)
    extra = chosen[rack_idx] * dpr + slot
    return np.sort(np.concatenate([first, extra]))


def per_rack_profile(dc, bursts):
    """Each burst's failures per affected rack, largest first, as a tuple."""
    racks = bursts // dc.disks_per_rack
    counts = np.apply_along_axis(np.bincount, 1, racks, minlength=dc.racks)
    counts = -np.sort(-counts, axis=1)
    return [tuple(row[row > 0]) for row in counts]


def enclosures_hit(dc, bursts):
    """Each burst's number of distinct enclosures with a failure."""
    enclosures = bursts // dc.disks_per_enclosure
    return (np.diff(enclosures, axis=1) != 0).sum(axis=1) + 1


def two_sample_p(left, right):
    """Chi-square p-value that two categorical samples share one law."""
    categories = sorted(set(left) | set(right))
    index = {c: i for i, c in enumerate(categories)}
    table = np.zeros((2, len(categories)))
    for row, sample in enumerate((left, right)):
        for value in sample:
            table[row, index[value]] += 1
    if len(categories) == 1:
        return 1.0
    return float(stats.chi2_contingency(table)[1])


class TestStructure:
    @pytest.mark.parametrize("dc,failures,racks", CELLS)
    def test_every_row(self, dc, failures, racks):
        """Ids in range, distinct and sorted; exactly ``racks`` racks,
        each holding at least one failure (distinct racks are exactly
        the racks with a failure)."""
        gen = BurstGenerator(dc, np.random.default_rng(11))
        bursts = gen.sample(failures, racks, size=500)
        assert bursts.shape == (500, failures)
        assert bursts.dtype.kind == "i"
        assert bursts.min() >= 0 and bursts.max() < dc.total_disks
        assert (np.diff(bursts, axis=1) > 0).all()  # sorted and distinct
        rack_ids = bursts // dc.disks_per_rack
        distinct = (np.diff(rack_ids, axis=1) != 0).sum(axis=1) + 1
        assert (distinct == racks).all()

    def test_single_burst_is_the_first_row_of_a_block_of_one(self):
        one = BurstGenerator(PAPER_DC, np.random.default_rng(5)).sample(60, 3)
        block = BurstGenerator(PAPER_DC, np.random.default_rng(5)).sample(
            60, 3, size=1
        )
        assert one.shape == (60,)
        assert one.tolist() == block[0].tolist()

    def test_seeded_block_is_repeatable(self):
        a = BurstGenerator(SMALL_DC, np.random.default_rng(3)).sample(25, 3, size=64)
        b = BurstGenerator(SMALL_DC, np.random.default_rng(3)).sample(25, 3, size=64)
        assert a.tolist() == b.tolist()

    def test_validation_with_size(self):
        gen = BurstGenerator(SMALL_DC, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gen.sample(3, 5, size=4)  # fewer failures than racks
        with pytest.raises(ValueError):
            gen.sample(21, 2, size=4)  # two racks hold 20 disks
        with pytest.raises(ValueError, match="size must be positive"):
            gen.sample(5, 2, size=0)


class TestLawMatchesChoiceSampler:
    """Two-sample tests: the block sampler against the ``choice``
    sampler, 4,000 bursts each, on the statistics a burst evaluator
    reads -- per-rack failure counts and distinct enclosures hit -- and
    on which racks are chosen.  Each statistic is one category per
    burst, so the chi-square's independence assumption holds.  Floor:
    p > 1e-3 on every statistic."""

    N = 4000

    @pytest.mark.parametrize("single", [False, True], ids=["block", "single"])
    @pytest.mark.parametrize("dc,failures,racks", [
        (SMALL_DC, 5, 2), (SMALL_DC, 8, 3), (SMALL_DC, 12, 3),
        (SMALL_DC, 25, 3), (PAPER_DC, 60, 3), (PAPER_DC, 60, 1),
        (PAPER_DC, 120, 1),
    ])
    def test_same_law(self, dc, failures, racks, single):
        """A block of N bursts, and N single-burst calls (which size
        their candidates for one row), both follow the reference law."""
        rng = np.random.default_rng(2024)
        reference = np.stack([
            choice_sample(dc, rng, failures, racks) for _ in range(self.N)
        ])
        gen = BurstGenerator(dc, np.random.default_rng(7))
        if single:
            block = np.stack([
                gen.sample(failures, racks) for _ in range(self.N)
            ])
        else:
            block = gen.sample(failures, racks, size=self.N)
        p_profile = two_sample_p(
            per_rack_profile(dc, reference), per_rack_profile(dc, block)
        )
        p_enclosures = two_sample_p(
            enclosures_hit(dc, reference).tolist(),
            enclosures_hit(dc, block).tolist(),
        )
        # One observation per burst: its lowest affected rack.
        p_racks = two_sample_p(
            (reference[:, 0] // dc.disks_per_rack).tolist(),
            (block[:, 0] // dc.disks_per_rack).tolist(),
        )
        assert min(p_profile, p_enclosures, p_racks) > 1e-3, (
            p_profile, p_enclosures, p_racks,
        )


class TestAgreesWithExactDP:
    """Block-sampled clustered SLEC cells against ``slec_burst_pdl``.

    A clustered SLEC burst loses data or not (PDL 0 or 1), so the cell
    mean of ``N`` bursts has standard error ``sqrt(q(1-q)/N)`` around
    the exact ``q``; every cell must land within |z| < 4 of it.  At
    N = 20,000 that bound is about 1.1 points of PDL at q = 0.19.
    """

    N = 20_000

    @pytest.mark.parametrize("level,dc,failures,racks", [
        (Level.LOCAL, PAPER_DC, 48, 1),
        (Level.LOCAL, PAPER_DC, 60, 1),
        (Level.LOCAL, PAPER_DC, 120, 1),  # dense: uniform keys
        (Level.NETWORK, GROUP_DC, 14, 7),
        (Level.NETWORK, GROUP_DC, 16, 8),
        (Level.NETWORK, GROUP_DC, 24, 8),  # dense: uniform keys
    ])
    def test_cell_within_z_bound(self, level, dc, failures, racks):
        scheme = SLECScheme(SLECParams(7, 3), level, Placement.CLUSTERED, dc)
        exact = slec_burst_pdl(scheme, failures, racks)
        evaluator = SLECBurstEvaluator(scheme)
        bursts = BurstGenerator(dc, np.random.default_rng(99)).sample(
            failures, racks, size=self.N
        )
        mc = sum(evaluator.pdl_of_burst(b) for b in bursts) / self.N
        z = (mc - exact) / math.sqrt(exact * (1.0 - exact) / self.N)
        assert abs(z) < 4.0, (mc, exact, z)
