"""Simulation leg of §5.1.4/§5.2.4: event-driven traffic vs closed forms.

Runs the SLEC/LRC full-system simulators for a simulated year and
reconciles their measured cross-rack repair traffic with the analytic
rates in :mod:`repro.repair.traffic_comparison` -- the "multiple
methodologies verify each other" discipline applied to the baselines.
"""

import pytest
from _harness import emit

from repro.core.config import LRCParams, SLECParams, YEAR
from repro.core.scheme import LRCScheme, SLECScheme
from repro.core.types import Level, Placement
from repro.repair.traffic_comparison import (
    lrc_annual_cross_rack_traffic,
    slec_annual_cross_rack_traffic,
)
from repro.reporting import format_table
from repro.sim.slec_sim import SLECSystemSimulator


def build_figure():
    cases = [
        ("Net-Dp-S (7+3)",
         SLECScheme(SLECParams(7, 3), Level.NETWORK, Placement.DECLUSTERED)),
        ("Net-Dp-S (14+6)",
         SLECScheme(SLECParams(14, 6), Level.NETWORK, Placement.DECLUSTERED)),
        ("LRC-Dp (14,2,4)", LRCScheme(LRCParams(14, 2, 4))),
        ("Loc-Cp-S (7+3)",
         SLECScheme(SLECParams(7, 3), Level.LOCAL, Placement.CLUSTERED)),
    ]
    rows = []
    pairs = {}
    for label, scheme in cases:
        result = SLECSystemSimulator(scheme).run(mission_time=YEAR, seed=14)
        if isinstance(scheme, LRCScheme):
            analytic = lrc_annual_cross_rack_traffic(scheme).tb_per_day
        else:
            analytic = slec_annual_cross_rack_traffic(scheme).tb_per_day
        simulated = result.cross_rack_tb_per_day
        pairs[label] = (simulated, analytic)
        rows.append([label, result.n_disk_failures, simulated, analytic])
    text = format_table(
        ["scheme", "failures/yr", "simulated TB/day", "analytic TB/day"],
        rows,
        title="Cross-rack repair traffic: event-driven simulation vs model",
    )
    return pairs, text


def test_simulated_traffic_crosscheck():
    pairs, text = build_figure()
    emit("simulated_traffic_crosscheck", text)

    for label, (simulated, analytic) in pairs.items():
        if analytic == 0.0:
            assert simulated == 0.0, label  # local SLEC: no cross-rack bytes
        else:
            assert simulated == pytest.approx(analytic, rel=0.02), label
    # The §5 ordering at the simulation level.
    assert pairs["LRC-Dp (14,2,4)"][0] < pairs["Net-Dp-S (14+6)"][0]
