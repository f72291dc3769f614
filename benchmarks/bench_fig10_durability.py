"""Figure 10: one-year durability (nines) per scheme and repair method.

Regenerates the 4x4 durability matrix with the iterated Markov model and
pins the paper's §4.2.3 Findings 1-4 (including the per-method gain bands).
"""

import pytest
from _harness import emit

from repro import PAPER_MLEC, RepairMethod, mlec_scheme_from_name
from repro.analysis.durability import mlec_durability_nines
from repro.reporting import format_table

SCHEMES = ("C/C", "C/D", "D/C", "D/D")
METHODS = (RepairMethod.R_ALL, RepairMethod.R_FCO,
           RepairMethod.R_HYB, RepairMethod.R_MIN)
#: The nines table EXPERIMENTS.md records, per scheme in METHODS order.
EXPECTED = {
    "C/C": (22.4, 23.8, 24.3, 25.5),
    "C/D": (25.4, 30.0, 34.3, 34.4),
    "D/C": (19.0, 20.3, 20.9, 22.0),
    "D/D": (23.6, 31.4, 34.4, 34.5),
}


def build_figure():
    nines = {}
    rows = []
    for name in SCHEMES:
        scheme = mlec_scheme_from_name(name, PAPER_MLEC)
        values = [mlec_durability_nines(scheme, m) for m in METHODS]
        nines[name] = dict(zip(METHODS, values))
        rows.append([name] + [round(v, 1) for v in values])
    text = format_table(
        ["scheme"] + [str(m) for m in METHODS],
        rows,
        title="Figure 10: durability in nines, by scheme and repair method",
    )
    return nines, text


def test_fig10_durability():
    nines, text = build_figure()
    emit("fig10_durability", text)

    for name in SCHEMES:
        vals = [nines[name][m] for m in METHODS]
        assert vals == pytest.approx(EXPECTED[name], abs=0.05), name
        assert vals == sorted(vals), name  # each method improves on the last

    # F#1: R_FCO gains 0.9-6.6 nines (model slack: 0.5-9), most on D/D.
    gains = {
        name: nines[name][RepairMethod.R_FCO] - nines[name][RepairMethod.R_ALL]
        for name in SCHEMES
    }
    assert all(0.5 < g < 9.0 for g in gains.values())
    assert max(gains, key=gains.get) == "D/D"
    # F#3: R_MIN's extra gain is small on */d (detection-bound).
    assert nines["C/D"][RepairMethod.R_MIN] - nines["C/D"][RepairMethod.R_HYB] < 0.5
    # F#4: optimized C/D and D/D lead; D/C trails.
    best = {name: nines[name][RepairMethod.R_MIN] for name in SCHEMES}
    order = sorted(best, key=best.get)
    assert order[0] == "D/C"
    assert set(order[-2:]) == {"C/D", "D/D"}
