"""Figure 8: cross-rack network traffic of the four repair methods.

Regenerates the 4 methods x 4 schemes traffic matrix for a catastrophic
local pool (p_l+1 simultaneous disk failures) and pins the paper's numbers:
4,400 / 26,400 / 880 / 3.1 TB and the >= 4x R_MIN reduction.
"""

import pytest
from _harness import emit

from repro import PAPER_MLEC, RepairMethod, mlec_scheme_from_name
from repro.repair import CatastrophicRepairModel
from repro.reporting import format_table

SCHEMES = ("C/C", "C/D", "D/C", "D/D")
TB = 1e12


def build_figure():
    traffic = {}
    rows = []
    for name in SCHEMES:
        model = CatastrophicRepairModel(mlec_scheme_from_name(name, PAPER_MLEC))
        per_method = {
            method: model.cross_rack_traffic_bytes(method) / TB
            for method in RepairMethod
        }
        traffic[name] = per_method
        rows.append([name] + [per_method[m] for m in RepairMethod])
    text = format_table(
        ["scheme"] + [str(m) for m in RepairMethod],
        rows,
        title="Figure 8: cross-rack repair traffic (TB) for a catastrophic pool",
    )
    return traffic, text


def test_fig08_repair_traffic():
    traffic, text = build_figure()
    emit("fig08_repair_traffic", text)

    # F#1: R_ALL is the worst -- 4,400 TB on */c, 26,400 TB on */d.
    assert traffic["C/C"][RepairMethod.R_ALL] == pytest.approx(4400)
    assert traffic["C/D"][RepairMethod.R_ALL] == pytest.approx(26_400)
    # F#2: R_FCO drops to the 880 TB of failed chunks everywhere.
    for name in SCHEMES:
        assert traffic[name][RepairMethod.R_FCO] == pytest.approx(880)
    # F#3: R_HYB reaches ~3.1 TB on declustered locals, no gain on */c.
    assert traffic["C/D"][RepairMethod.R_HYB] == pytest.approx(3.1, rel=0.02)
    assert traffic["C/C"][RepairMethod.R_HYB] == pytest.approx(880)
    # F#4: R_MIN cuts >= 4x below R_HYB for every scheme.
    for name in SCHEMES:
        ratio = traffic[name][RepairMethod.R_HYB] / traffic[name][RepairMethod.R_MIN]
        assert ratio >= 4.0 - 1e-9
