"""Methodology cross-check: splitting vs Markov ("our multiple
methodologies verify each other", paper §6.2).

Runs the two-stage splitting pipeline (accelerated pool simulation ->
power-law extrapolation -> boosted network-level injection) for C/C and
compares the resulting durability against the analytic Markov result.
"""

from _harness import emit

from repro import PAPER_MLEC, RepairMethod, mlec_scheme_from_name
from repro.analysis.durability import mlec_durability_nines
from repro.analysis.markov import local_pool_reliability_chain
from repro.analysis.splitting import stage1_pool_rate, stage2_network_pdl
from repro.reporting import format_table


def build_figure():
    scheme = mlec_scheme_from_name("C/C", PAPER_MLEC)
    chain = local_pool_reliability_chain(scheme)

    stage1 = stage1_pool_rate(scheme, pool_years_each=1200, seed=5_000_021)
    rows1 = [[p.afr, p.pool_years, p.events, p.rate] for p in stage1.points]
    text = format_table(
        ["accelerated AFR", "pool-years", "events", "rate/pool-yr"],
        rows1,
        title="Splitting stage 1: accelerated local-pool simulation (C/C)",
    )
    text += (
        f"\nfitted exponent: {stage1.exponent:.2f} (theory: p_l+1 = 4)"
        f"\nextrapolated rate @1% AFR: {stage1.rate_at_target:.3e}/pool-yr"
        f"\nMarkov rate              : {chain.catastrophic_rate_per_year():.3e}/pool-yr"
    )

    rows2 = []
    comparisons = {}
    for method in (RepairMethod.R_ALL, RepairMethod.R_MIN):
        stage2 = stage2_network_pdl(
            scheme, method,
            pool_rate_per_year=chain.catastrophic_rate_per_year(),
            lost_fraction=chain.lost_stripe_fraction(),
            seed=22,
        )
        markov = mlec_durability_nines(scheme, method)
        comparisons[method] = (stage2.nines, markov)
        rows2.append([str(method), stage2.expected_losses_boosted,
                      stage2.nines, markov])
    text += "\n\n" + format_table(
        ["method", "boosted losses", "splitting nines", "Markov nines"],
        rows2,
        title="Splitting stage 2 vs Markov durability (C/C):",
    )
    return stage1, comparisons, text


def test_methodology_splitting():
    stage1, comparisons, text = build_figure()
    emit("methodology_splitting", text)

    # The simulated power law matches the chain structure (p_l + 1).
    assert 3.0 < stage1.exponent < 5.5
    # Stage 2 verifies the Markov durability within ~1.5 nines.
    for splitting_nines, markov_nines in comparisons.values():
        assert abs(splitting_nines - markov_nines) < 1.5
