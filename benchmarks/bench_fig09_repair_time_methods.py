"""Figure 9: network vs local repair time of the four repair methods.

Regenerates the stacked network(-N)/local(-L) bars for a catastrophic pool
under every method/scheme combination and pins Findings 1-3 of §4.2.2.
"""

import pytest
from _harness import emit

from repro import PAPER_MLEC, RepairMethod, mlec_scheme_from_name
from repro.repair import CatastrophicRepairModel
from repro.reporting import format_table

SCHEMES = ("C/C", "C/D", "D/C", "D/D")
HOUR = 3600.0


def build_figure():
    times = {}
    rows = []
    for name in SCHEMES:
        model = CatastrophicRepairModel(mlec_scheme_from_name(name, PAPER_MLEC))
        for method in RepairMethod:
            st = model.stage_times(method)
            times[(name, method)] = st
            rows.append([
                name, str(method),
                st.network_time / HOUR, st.local_time / HOUR, st.total / HOUR,
            ])
    text = format_table(
        ["scheme", "method", "network h (-N)", "local h (-L)", "total h"],
        rows,
        title="Figure 9: repair time split by stage",
    )
    return times, text


def test_fig09_repair_time_methods():
    times, text = build_figure()
    emit("fig09_repair_time_methods", text)

    for name in SCHEMES:
        rall = times[(name, RepairMethod.R_ALL)]
        rfco = times[(name, RepairMethod.R_FCO)]
        # F#1: R_ALL imposes the longest *network* stage (the contended
        # resource); R_FCO cuts it 5-30x.  (R_MIN's slow local stage can
        # exceed R_ALL's total on D/C -- the paper's own F#3 caveat.)
        assert rall.network_time == max(
            times[(name, m)].network_time for m in RepairMethod
        )
        assert 4.5 <= rall.network_time / rfco.network_time <= 35

    # F#2: R_HYB trades network time for local time on */d; totals similar
    # to R_FCO on C/D.
    rhyb_cd = times[("C/D", RepairMethod.R_HYB)]
    rfco_cd = times[("C/D", RepairMethod.R_FCO)]
    assert rhyb_cd.network_time < 0.05 * rfco_cd.network_time
    assert rhyb_cd.local_time > 0
    assert rhyb_cd.total == pytest.approx(rfco_cd.total, rel=0.15)

    # F#3: R_MIN has the minimum network time everywhere, but can take
    # longer in total than R_FCO (local stage).
    for name in SCHEMES:
        net = {m: times[(name, m)].network_time for m in RepairMethod}
        assert net[RepairMethod.R_MIN] == min(net.values())
    assert (
        times[("C/C", RepairMethod.R_MIN)].total
        > times[("C/C", RepairMethod.R_FCO)].total
    )
