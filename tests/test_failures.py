"""Failure models: statistical sanity and trace replay."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.core.config import DAY, YEAR
from repro.sim.failures import (
    BathtubFailures,
    ExponentialFailures,
    TraceFailures,
    WeibullFailures,
    initial_failures,
)


def _sample(model, n, seed=0, since=0.0):
    rng = np.random.default_rng(seed)
    return np.array([model.time_to_failure(rng, i, since) for i in range(n)])


class TestExponential:
    def test_mean_matches_rate(self):
        model = ExponentialFailures(0.1)
        times = _sample(model, 4000)
        expected_mean = 1.0 / model.rate
        assert times.mean() == pytest.approx(expected_mean, rel=0.1)

    def test_one_year_failure_fraction_is_afr(self):
        model = ExponentialFailures(0.2)
        times = _sample(model, 20_000)
        assert (times <= YEAR).mean() == pytest.approx(0.2, abs=0.01)

    def test_in_service_offset(self):
        model = ExponentialFailures(0.5)
        times = _sample(model, 100, since=1000.0)
        assert np.all(times >= 1000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialFailures(0.0)
        with pytest.raises(ValueError):
            ExponentialFailures(1.0)


class TestWeibull:
    def test_characteristic_life(self):
        """63.2% of disks fail by the scale parameter."""
        model = WeibullFailures(shape=1.5, scale_years=3.0)
        times = _sample(model, 20_000)
        frac = (times <= 3.0 * YEAR).mean()
        assert frac == pytest.approx(1 - math.exp(-1), abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeibullFailures(shape=0.0)


class TestBathtub:
    def test_piecewise_hazard_shape(self):
        """Early failures are over-represented vs the steady-state rate."""
        model = BathtubFailures(
            early_afr=0.10, steady_afr=0.01, wearout_afr=0.10,
            burn_in_years=0.5, wearout_years=5.0,
        )
        times = _sample(model, 40_000) / YEAR
        # Burn-in: expected fraction ~ 1-exp(-rate*0.5) with high rate.
        early = (times <= 0.5).mean()
        expected_early = 1 - (1 - 0.10) ** 0.5
        assert early == pytest.approx(expected_early, abs=0.01)
        # Mid-life failures are much rarer per year.
        mid = ((times > 0.5) & (times <= 1.5)).mean()
        assert mid < early

    def test_wearout_kicks_in(self):
        model = BathtubFailures(
            early_afr=0.01, steady_afr=0.01, wearout_afr=0.5,
            burn_in_years=0.1, wearout_years=2.0,
        )
        times = _sample(model, 20_000) / YEAR
        year6 = ((times > 2.0) & (times <= 3.0)).mean()
        year1 = ((times > 0.1) & (times <= 1.1)).mean()
        assert year6 > year1

    def test_validation(self):
        with pytest.raises(ValueError):
            BathtubFailures(burn_in_years=5.0, wearout_years=1.0)
        with pytest.raises(ValueError):
            BathtubFailures(early_afr=0.0)


class TestTraceReplay:
    def test_replays_in_order(self):
        model = TraceFailures([(100.0, 7), (50.0, 7), (10.0, 3)])
        rng = np.random.default_rng(0)
        assert model.time_to_failure(rng, 3, 0.0) == 10.0
        assert model.time_to_failure(rng, 7, 0.0) == 50.0
        assert model.time_to_failure(rng, 7, 50.0) == 100.0

    def test_untraced_disk_never_fails(self):
        model = TraceFailures([(1.0, 0)])
        rng = np.random.default_rng(0)
        assert model.time_to_failure(rng, 99, 0.0) == math.inf

    def test_exhausted_disk_never_fails_again(self):
        model = TraceFailures([(5.0, 1)])
        rng = np.random.default_rng(0)
        assert model.time_to_failure(rng, 1, 6.0) == math.inf

    def test_duplicate_timestamps_collapse_to_one_failure(self):
        """Two trace entries at the same instant for the same disk: the
        replacement cannot fail at the moment it enters service, so the
        duplicate is skipped and the next distinct time is replayed."""
        model = TraceFailures([(50.0, 7), (50.0, 7), (80.0, 7)])
        rng = np.random.default_rng(0)
        assert model.time_to_failure(rng, 7, 0.0) == 50.0
        assert model.time_to_failure(rng, 7, 50.0) == 80.0
        assert model.time_to_failure(rng, 7, 80.0) == math.inf

    def test_failure_exactly_at_in_service_time_is_not_replayed(self):
        """Replay is strictly-after: a disk installed at t does not
        immediately re-fail on a trace event stamped exactly t."""
        model = TraceFailures([(100.0, 3)])
        rng = np.random.default_rng(0)
        assert model.time_to_failure(rng, 3, 100.0) == math.inf
        assert model.time_to_failure(rng, 3, 99.999) == 100.0


class PerDisk:
    """Hides a model's closed-form draw: the helper takes its per-disk
    ``time_to_failure`` path."""

    def __init__(self, model):
        self.model = model

    def time_to_failure(self, rng, disk_id, in_service_since):
        return self.model.time_to_failure(rng, disk_id, in_service_since)


def _count_and_first(draw, missions, seed):
    """Per-mission failure count and first-failure time of ``missions``
    draws ``draw(rng) -> (disks, times)`` on one stream."""
    rng = np.random.default_rng(seed)
    counts = np.empty(missions, dtype=np.int64)
    firsts = np.empty(missions)
    for i in range(missions):
        _disks, times = draw(rng)
        counts[i] = len(times)
        firsts[i] = times.min() if len(times) else math.inf
    return counts, firsts


#: Smallest two-sample p-value a faithful draw may show.  The samples are
#: seeded, so the verdicts are fixed; a wrong truncation (untruncated
#: times, or F(horizon) linearized to rate * horizon) scores below 1e-8.
P_FLOOR = 1e-3


class TestInitialFailuresDistribution:
    """The in-horizon draw samples the same law as drawing every disk's
    failure time and keeping those inside the mission (the paper's
    57,600-disk datacenter at AFR 1%, one year)."""

    N_DISKS = 57_600
    MISSIONS = 4000

    @staticmethod
    def every_disk(model, n, horizon):
        """Reference: one exponential per disk, kept when ``< horizon``."""
        def draw(rng):
            times = rng.exponential(1.0 / model.rate, size=n)
            disks = np.flatnonzero(times < horizon)
            return disks, times[disks]
        return draw

    def test_count_and_first_failure_match_the_every_disk_draw(self):
        model = ExponentialFailures(0.01)
        n = self.N_DISKS
        ref_counts, ref_firsts = _count_and_first(
            self.every_disk(model, n, YEAR), self.MISSIONS, seed=1)
        counts, firsts = _count_and_first(
            lambda rng: initial_failures(model, rng, n, YEAR),
            self.MISSIONS, seed=2)
        assert stats.ks_2samp(ref_counts, counts).pvalue > P_FLOOR
        assert stats.ks_2samp(ref_firsts, firsts).pvalue > P_FLOOR
        # The expected count is n * AFR: F(YEAR) is the AFR itself.
        assert counts.mean() == pytest.approx(n * 0.01, rel=0.01)

    def test_weibull_closed_form_matches_the_per_disk_path(self):
        model = WeibullFailures(shape=0.7, scale_years=2.0)
        n, missions = 400, 1500
        ref_counts, ref_firsts = _count_and_first(
            lambda rng: initial_failures(PerDisk(model), rng, n, YEAR),
            missions, seed=3)
        counts, firsts = _count_and_first(
            lambda rng: initial_failures(model, rng, n, YEAR),
            missions, seed=4)
        assert stats.ks_2samp(ref_counts, counts).pvalue > P_FLOOR
        assert stats.ks_2samp(ref_firsts, firsts).pvalue > P_FLOOR
        expected = -math.expm1(-((1.0 / 2.0) ** 0.7))
        assert counts.mean() == pytest.approx(n * expected, rel=0.01)


class TopEdgeDraws:
    """A generator whose uniforms all sit at the top edge, ``1 - 2**-53``."""

    def __init__(self, seed=0):
        self.rng = np.random.default_rng(seed)

    def binomial(self, n, p):
        return self.rng.binomial(n, p)

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


class TestInitialFailuresContract:
    """``initial_failures(model, rng, n, horizon)``: in-horizon
    ``(disks, times)`` pairs, disks ascending and distinct."""

    @pytest.mark.parametrize("model", [
        ExponentialFailures(0.3),
        WeibullFailures(shape=0.7, scale_years=2.0),
        BathtubFailures(),
    ])
    def test_pairs_are_in_horizon_and_ordered(self, model):
        n, horizon = 5000, YEAR / 2
        disks, times = initial_failures(
            model, np.random.default_rng(8), n, horizon)
        assert disks.dtype == np.int64 and times.dtype == np.float64
        assert len(disks) == len(times) > 0
        assert (np.diff(disks) > 0).all()
        assert 0 <= disks[0] and disks[-1] < n
        assert ((0 <= times) & (times < horizon)).all()

    def test_same_seed_same_pairs(self):
        model = ExponentialFailures(0.2)
        a = initial_failures(model, np.random.default_rng(3), 1000, YEAR)
        b = initial_failures(model, np.random.default_rng(3), 1000, YEAR)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_top_edge_uniform_stays_below_the_horizon(self):
        """At AFR 50% over one day the inverse CDF of the top-edge
        uniform rounds to the horizon itself; it is clamped below."""
        model = ExponentialFailures(0.5)
        horizon = DAY
        cdf = -math.expm1(-model.rate * horizon)
        top = np.nextafter(1.0, 0.0)
        assert -math.log1p(-top * cdf) / model.rate == horizon
        _disks, times = initial_failures(model, TopEdgeDraws(), 57_600, horizon)
        assert len(times) > 0
        assert (times == np.nextafter(horizon, 0.0)).all()
        weibull = WeibullFailures(shape=0.7, scale_years=2.0)
        _disks, times = initial_failures(weibull, TopEdgeDraws(), 500, horizon)
        assert len(times) > 0 and (times < horizon).all()

    def test_per_disk_path_keeps_times_strictly_before_the_horizon(self):
        model = TraceFailures([(5.0, 1), (7.0, 1), (9.0, 3), (10.0, 4)])
        disks, times = initial_failures(
            model, np.random.default_rng(0), 6, 10.0)
        assert disks.tolist() == [1, 3]  # disk 4 fails at the horizon
        assert times.tolist() == [5.0, 9.0]

    def test_per_disk_path_consumes_one_draw_per_disk(self):
        model = WeibullFailures(shape=1.5, scale_years=1.0)
        rng = np.random.default_rng(6)
        disks, times = initial_failures(PerDisk(model), rng, 300, YEAR)
        scalar = np.random.default_rng(6)
        every = np.array(
            [model.time_to_failure(scalar, d, 0.0) for d in range(300)])
        assert disks.tolist() == np.flatnonzero(every < YEAR).tolist()
        assert times.tobytes() == every[every < YEAR].tobytes()
        assert rng.bit_generator.state == scalar.bit_generator.state
