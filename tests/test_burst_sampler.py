"""The block burst sampler: structure, law, and agreement with the exact DP.

``BurstGenerator.sample(failures, racks, size=...)`` draws a whole cell's
bursts in a few array calls.  These tests tie it to the law the
previous ``Generator.choice`` sampler drew (kept below only as a
reference), check every row's structure, and compare block-sampled
clustered SLEC cells with :func:`~repro.analysis.burst_dp.slec_burst_pdl`.
``BurstGenerator.sample_streams`` draws one burst per generator and
places them as one block; it must equal one ``sample`` call per stream.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis.burst_dp import slec_burst_pdl
from repro.core.config import DatacenterConfig, SLECParams
from repro.core.scheme import SLECScheme
from repro.core.types import Level, Placement
from repro.sim import burst as burst_module
from repro.sim.burst import BurstGenerator, SLECBurstEvaluator

PAPER_DC = DatacenterConfig()
#: 6 racks x 2 enclosures x 5 disks: small enough that the per-rack and
#: per-enclosure statistics have few categories.
SMALL_DC = DatacenterConfig(racks=6, enclosures_per_rack=2, disks_per_enclosure=5)
#: One network group of 10 racks x 10 disk positions, where the Net-Cp
#: DP is fast and its PDLs are moderate.
GROUP_DC = DatacenterConfig(racks=10, enclosures_per_rack=1, disks_per_enclosure=10)

#: 6 racks x 25 disks: 21 failures over all 6 racks draw 9 candidate
#: rows of 15 per burst, and about 1 burst in 300 finds no distinct one.
REDRAW_DC = DatacenterConfig(racks=6, enclosures_per_rack=1, disks_per_enclosure=25)

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


def keyed_streams(n, seed):
    """``n`` generators keyed as a sweep's trials are."""
    return [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for i in range(n)
    ]


def assert_streams_match_per_stream_calls(dc, failures, racks, n, seed):
    """``sample_streams`` over ``n`` keyed streams equals one ``sample``
    call per stream: the same rows, and every generator's end state."""
    block_rngs, single_rngs = keyed_streams(n, seed), keyed_streams(n, seed)
    block = BurstGenerator(dc).sample_streams(block_rngs, failures, racks)
    rows = np.stack([
        BurstGenerator(dc, rng).sample(failures, racks) for rng in single_rngs
    ])
    assert block.shape == (n, failures)
    assert np.array_equal(block, rows)
    assert [rng.bit_generator.state for rng in block_rngs] == [
        rng.bit_generator.state for rng in single_rngs
    ]


class TestStreamsBlock:
    @pytest.mark.parametrize("dc,failures,racks", [
        (PAPER_DC, 1, 1),  # failures == racks
        (PAPER_DC, 60, 60),  # failures == racks == dc.racks
        (PAPER_DC, 61, 60),  # candidate rows, every rack
        (PAPER_DC, 60, 3),  # candidate rows: the hard cell
        (PAPER_DC, 24, 6),  # candidate rows
        (PAPER_DC, 60, 1),  # uniform keys, in blocks of 64 streams
        (PAPER_DC, 960, 1),  # uniform keys, every disk of the rack
        (PAPER_DC, 960, 60),  # uniform keys, one stream per block
        (SMALL_DC, 6, 6),  # racks == dc.racks, no extras
        (SMALL_DC, 25, 6),  # racks == dc.racks, uniform keys
        (SMALL_DC, 60, 6),  # every disk
    ])
    def test_rows_and_end_states(self, dc, failures, racks):
        assert_streams_match_per_stream_calls(dc, failures, racks, n=70, seed=3)

    def test_forced_redraw(self, monkeypatch):
        """Streams whose candidate rows all collide draw more afterwards,
        each from its own generator, as the one-row call's loop does."""
        redraws = []
        distinct_sorted = burst_module._distinct_sorted

        def counting(rng, population, count, rows):
            redraws.append(rows)
            return distinct_sorted(rng, population, count, rows)

        rngs = keyed_streams(300, seed=1)
        monkeypatch.setattr(burst_module, "_distinct_sorted", counting)
        BurstGenerator(REDRAW_DC).sample_streams(rngs, 21, 6)
        assert redraws == [1, 1, 1]
        monkeypatch.undo()
        assert_streams_match_per_stream_calls(REDRAW_DC, 21, 6, n=300, seed=1)

    #: sha256 of each stream's one-row ``sample`` bytes and end state,
    #: computed with the per-burst sampler the block form replaced.
    ONE_ROW_PINS = {
        (PAPER_DC, 1, 1, 40, 3):
            "806487211a5809b188660f69301832f506310c01e29a5162236b938350833b4a",
        (PAPER_DC, 61, 60, 40, 3):
            "dd30c2a0c12cad9c613d423fbfa62ce033f76bc997a7d528958c571773b5815b",
        (PAPER_DC, 60, 3, 40, 3):
            "bfdf651f862975bfd4a6b427340ca49f7fa4aec5c2ec3eeac93faf70bc03e93d",
        (PAPER_DC, 60, 1, 40, 3):
            "9f8342b89dd13e50fccb62a7d9b5f67f2dd920ecac1886834a71c2073a0a3785",
        (PAPER_DC, 960, 1, 40, 3):
            "cb230c8768f24a782a02bda7e45629f1d9fbc94fadc1786dd3b3ad052509771f",
        (SMALL_DC, 25, 6, 40, 3):
            "c369fff23193189e7d9a02e76af3e568bbf1881c80ea6ada42542003fdbcfedb",
        (REDRAW_DC, 21, 6, 300, 1):
            "08304a5919b35ac91ce485b3c9545f9d3fa3e65630e9d95d22d216f9efc2afa0",
    }

    @pytest.mark.parametrize("cell", list(ONE_ROW_PINS))
    def test_one_row_calls_pinned(self, cell):
        """The one-row call draws and places exactly as before it became
        a block of one, so the comparisons above have a fixed reference."""
        dc, failures, racks, n, seed = cell
        digest = hashlib.sha256()
        for rng in keyed_streams(n, seed):
            digest.update(BurstGenerator(dc, rng).sample(failures, racks).tobytes())
            digest.update(str(rng.bit_generator.state["state"]).encode())
        assert digest.hexdigest() == self.ONE_ROW_PINS[cell]

    @given(
        racks=st.integers(1, 5), enclosures=st.integers(1, 3),
        disks=st.integers(1, 6), data=st.data(),
        n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_small_cell(self, racks, enclosures, disks, data, n, seed):
        dc = DatacenterConfig(
            racks=racks, enclosures_per_rack=enclosures, disks_per_enclosure=disks
        )
        affected = data.draw(st.integers(1, racks))
        failures = data.draw(st.integers(affected, affected * dc.disks_per_rack))
        assert_streams_match_per_stream_calls(dc, failures, affected, n, seed)

    def test_validation(self):
        gen = BurstGenerator(SMALL_DC)
        rngs = keyed_streams(2, seed=0)
        with pytest.raises(ValueError):
            gen.sample_streams(rngs, 3, 5)  # fewer failures than racks
        with pytest.raises(ValueError):
            gen.sample_streams(rngs, 21, 2)  # two racks hold 20 disks
        with pytest.raises(ValueError):
            gen.sample_streams(rngs, 7, 7)  # SMALL_DC has 6 racks


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
