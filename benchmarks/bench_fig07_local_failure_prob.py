"""Figure 7: probability of a catastrophic local pool failure per year.

Regenerates the per-scheme system-wide probability via the Markov model
(the fast leg) and cross-checks the clustered-pool value against the
accelerated local-pool simulator (the simulation leg of the methodology).
"""

import numpy as np
import pytest
from _harness import emit

from repro import PAPER_MLEC, mlec_scheme_from_name
from repro.analysis.markov import (
    PoolReliabilityChain,
    local_pool_reliability_chain,
    system_catastrophic_probability,
)
from repro.core.config import YEAR
from repro.reporting import format_table
from repro.sim.failures import ExponentialFailures
from repro.sim.local_pool import LocalPoolSimulator

SCHEMES = ("C/C", "C/D", "D/C", "D/D")


def build_figure():
    rows = []
    probs = {}
    for name in SCHEMES:
        scheme = mlec_scheme_from_name(name, PAPER_MLEC)
        chain = local_pool_reliability_chain(scheme)
        p_sys = system_catastrophic_probability(scheme)
        probs[name] = p_sys
        rows.append([
            name,
            scheme.total_local_pools,
            chain.catastrophic_rate_per_year(),
            p_sys,
        ])
    text = format_table(
        ["scheme", "pools", "rate/pool-year", "P[catastrophic]/year"],
        rows,
        title="Figure 7: probability of catastrophic local failure",
    )

    # Simulation cross-check at accelerated AFR (clustered pool).
    afr = 0.4
    sim = LocalPoolSimulator(
        pool_disks=20, stripe_width=20, parities=3, clustered=True,
        disk_capacity_bytes=20e12, chunk_size_bytes=128 * 1024,
        repair_rate=40e6, detection_time=1800,
        failure_model=ExponentialFailures(afr),
    )
    events = sum(sim.run(mission_time=YEAR, seed=s).n_catastrophic
                 for s in range(400))
    chain = PoolReliabilityChain(
        pool_disks=20, stripe_width=20, parities=3, clustered=True,
        disk_capacity_bytes=20e12, chunk_size_bytes=128 * 1024,
        failure_rate=-np.log1p(-afr) / YEAR, detection_time=1800,
        repair_rate=40e6,
    )
    check = (
        f"cross-check at AFR {afr:.0%} (clustered pool): simulator "
        f"{events / 400:.3g}/pool-yr vs Markov "
        f"{chain.catastrophic_rate_per_year():.3g}/pool-yr"
    )
    return probs, events / 400, chain.catastrophic_rate_per_year(), text + "\n" + check


def test_fig07_local_failure_prob():
    probs, sim_rate, markov_rate, text = build_figure()
    emit("fig07_local_failure_prob", text)

    # Paper: */c 'lower than 0.001%' = 1e-5; */d 'almost 0.00001%' = 1e-7.
    assert 1e-6 < probs["C/C"] < 1e-4
    assert 1e-6 < probs["D/C"] < 1e-4
    assert 1e-8 < probs["C/D"] < 1e-6
    assert 1e-8 < probs["D/D"] < 1e-6
    # Placement at the network level is irrelevant to local pool failures.
    assert probs["C/C"] == pytest.approx(probs["D/C"])
    assert probs["C/D"] == pytest.approx(probs["D/D"])
    # The simulation leg agrees with the Markov leg within its documented
    # deterministic-vs-exponential-service factor.
    assert 0.05 < sim_rate / markov_rate < 2.0
