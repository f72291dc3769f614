"""Splitting estimators vs the Markov models (methodology cross-check)."""

import pytest

from repro.analysis.durability import mlec_durability_nines
from repro.analysis.markov import local_pool_reliability_chain
from repro.analysis.splitting import (
    stage1_pool_rate,
    stage2_network_pdl,
)
from repro.core.config import PAPER_MLEC
from repro.core.scheme import mlec_scheme_from_name
from repro.core.types import RepairMethod
from repro.runtime import TrialRunner


@pytest.fixture(scope="module")
def cc_stage1():
    """One C/C stage-1 run, 1500 pool-years per accelerated AFR."""
    scheme = mlec_scheme_from_name("C/C", PAPER_MLEC)
    return scheme, stage1_pool_rate(scheme, pool_years_each=1500, seed=2_000_000)


class TestStage1:
    def test_clustered_power_law_exponent(self, cc_stage1):
        """The catastrophic rate must scale ~ lambda^(p_l+1) = lambda^4."""
        _scheme, result = cc_stage1
        assert 3.0 < result.exponent < 5.5

    def test_clustered_rate_extrapolation_order_of_magnitude(self, cc_stage1):
        """Extrapolating ~1.5 decades in lambda: expect agreement with the
        Markov rate within a couple of orders of magnitude (the slope error
        compounds exponentially -- this is the documented limitation that
        motivates the analytic models)."""
        scheme, result = cc_stage1
        markov = local_pool_reliability_chain(scheme).catastrophic_rate_per_year()
        assert result.rate_at_target > 0
        ratio = result.rate_at_target / markov
        assert 1e-3 < ratio < 1e3

    def test_clustered_lost_fraction_is_one(self):
        scheme = mlec_scheme_from_name("C/C", PAPER_MLEC)
        result = stage1_pool_rate(scheme, pool_years_each=800, seed=11)
        assert result.mean_lost_fraction == pytest.approx(1.0)

    def test_two_workers_match_serial(self):
        """The pool-years fan out over worker processes without changing
        a single fitted number."""
        scheme = mlec_scheme_from_name("C/C", PAPER_MLEC)
        serial = stage1_pool_rate(
            scheme, pool_years_each=300, seed=11, runner=TrialRunner(workers=1)
        )
        parallel = stage1_pool_rate(
            scheme, pool_years_each=300, seed=11, runner=TrialRunner(workers=2)
        )
        assert parallel == serial

    def test_too_few_events_raises(self):
        scheme = mlec_scheme_from_name("C/C", PAPER_MLEC)
        with pytest.raises(RuntimeError):
            stage1_pool_rate(
                scheme, accelerated_afrs=(0.05, 0.06), pool_years_each=5, seed=0
            )


class TestStage2:
    @pytest.mark.parametrize("name", ["C/C", "D/C"])
    @pytest.mark.parametrize("method", [RepairMethod.R_ALL, RepairMethod.R_MIN])
    def test_matches_markov_durability(self, name, method):
        """Stage 2 with the Markov pool rate must land within ~1.5 nines of
        the full Markov durability -- 'multiple methodologies verify each
        other' (paper §6.2)."""
        scheme = mlec_scheme_from_name(name, PAPER_MLEC)
        chain = local_pool_reliability_chain(scheme)
        result = stage2_network_pdl(
            scheme,
            method,
            pool_rate_per_year=chain.catastrophic_rate_per_year(),
            lost_fraction=chain.lost_stripe_fraction(),
            seed=12,
        )
        markov = mlec_durability_nines(scheme, method)
        assert result.expected_losses_boosted > 10  # statistically grounded
        assert abs(result.nines - markov) < 1.5

    def test_boost_guard(self):
        scheme = mlec_scheme_from_name("C/C", PAPER_MLEC)
        with pytest.raises(ValueError):
            stage2_network_pdl(
                scheme,
                RepairMethod.R_ALL,
                pool_rate_per_year=1e-2,
                lost_fraction=1.0,
                boost=1e9,
                years=50_000,
            )
