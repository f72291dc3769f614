"""Ablation: annual failure rate sensitivity.

The paper fixes AFR at 1%; real fleets span roughly 0.5-4% (Backblaze drive
stats).  This ablation sweeps the AFR and verifies the structural
prediction of the Markov models: MLEC durability falls ~ (p_l+1) + p_n
decades per decade of failure rate near the paper's operating point, so
even a 4x-worse fleet keeps tens of nines.
"""

import math

from _harness import emit

from repro import PAPER_MLEC, RepairMethod, mlec_scheme_from_name
from repro.analysis.durability import mlec_durability_nines
from repro.core.config import FailureConfig
from repro.reporting import format_table

AFRS = (0.005, 0.01, 0.02, 0.04)


def build_figure():
    results = {}
    rows = []
    for name in ("C/C", "C/D"):
        scheme = mlec_scheme_from_name(name, PAPER_MLEC)
        nines = [
            mlec_durability_nines(
                scheme, RepairMethod.R_MIN,
                failures=FailureConfig(annual_failure_rate=afr),
            )
            for afr in AFRS
        ]
        results[name] = nines
        rows.append([f"{name} R_MIN"] + [round(v, 1) for v in nines])
    text = format_table(
        ["scheme"] + [f"AFR {afr:.1%}" for afr in AFRS],
        rows,
        title="Ablation: one-year durability (nines) vs annual failure rate",
    )
    return results, text


def test_ablation_afr():
    results, text = build_figure()
    emit("ablation_afr", text)

    for nines in results.values():
        # Monotone: worse fleets, fewer nines.
        assert all(a >= b for a, b in zip(nines, nines[1:]))
        # Even a 4% AFR fleet keeps >= 15 nines with R_MIN.
        assert nines[-1] > 15

    # Local-exponent check: PDL ~ lambda^((p_l+1)*(p_n+1) - p_n...) -- in
    # practice the chain gives a slope between the local exponent (4) and
    # the full stack (11); just pin that doubling AFR costs 3-5 nines.
    for nines in results.values():
        drop = nines[1] - nines[2]  # 1% -> 2%
        assert 2.0 < drop < 5.0, drop

    # C/D keeps its lead over C/C across the whole sweep.
    assert all(cd > cc for cd, cc in zip(results["C/D"], results["C/C"]))


def test_afr_slope_matches_chain_structure():
    """The 0.5% -> 4% slope in log-log space stays near the theoretical
    compound exponent of the two-level chain."""
    scheme = mlec_scheme_from_name("C/C", PAPER_MLEC)
    values = []
    for a, b in zip(AFRS, AFRS[1:]):
        na = mlec_durability_nines(
            scheme, RepairMethod.R_MIN,
            failures=FailureConfig(annual_failure_rate=a))
        nb = mlec_durability_nines(
            scheme, RepairMethod.R_MIN,
            failures=FailureConfig(annual_failure_rate=b))
        values.append((na - nb) / math.log10(b / a))
    # Each doubling's slope: between the local-pool exponent (~4 per
    # decade) and the full two-level exponent; and roughly constant.
    for s in values:
        assert 8.0 < s < 14.0, values
    # Slope roughly constant across the sweep (pure power-law regime).
    assert max(values) - min(values) < 2.0
