"""Figure 13: PDL of (7+3) SLEC under correlated failure bursts.

Regenerates the four SLEC placement heatmaps with the Monte-Carlo burst
engine plus exact DP spot values, and pins the §5.1.3 claims: local SLEC
fears localized bursts, network SLEC fears scattered ones, and declustering
amplifies each weakness.
"""

import numpy as np
from _harness import emit

from repro.analysis.burst_dp import slec_burst_pdl
from repro.core.config import SLECParams
from repro.core.scheme import SLECScheme
from repro.core.types import Level, Placement
from repro.reporting import format_heatmap, format_table
from repro.sim.burst import SLECBurstEvaluator, burst_pdl_grid

PLACEMENTS = [
    ("Loc-Cp", Level.LOCAL, Placement.CLUSTERED),
    ("Loc-Dp", Level.LOCAL, Placement.DECLUSTERED),
    ("Net-Cp", Level.NETWORK, Placement.CLUSTERED),
    ("Net-Dp", Level.NETWORK, Placement.DECLUSTERED),
]
FAILURES = np.array([12, 24, 36, 48, 60])
RACKS = np.array([1, 2, 4, 10, 30, 60])


def scheme(level, placement):
    return SLECScheme(SLECParams(7, 3), level, placement)


def build_figure():
    sections = []
    grids = {}
    for label, level, placement in PLACEMENTS:
        ev = SLECBurstEvaluator(scheme(level, placement))
        grid = burst_pdl_grid(ev, FAILURES, RACKS, trials=25, seed=13)
        grids[label] = grid
        sections.append(format_heatmap(
            grid, FAILURES.tolist(), RACKS.tolist(),
            title=f"Figure 13 ({label}-S):",
        ))
    dp_rows = [
        [label,
         slec_burst_pdl(scheme(level, placement), 60, 1),
         slec_burst_pdl(scheme(level, placement), 60, 60)]
        for label, level, placement in PLACEMENTS
    ]
    sections.append(format_table(
        ["placement", "DP PDL(60,1)", "DP PDL(60,60)"], dp_rows,
        title="Exact/worst-case DP spot values:",
    ))
    return grids, {r[0]: (r[1], r[2]) for r in dp_rows}, "\n\n".join(sections)


def test_fig13_slec_burst_pdl():
    grids, dp, text = build_figure()
    emit("fig13_slec_burst_pdl", text)

    # Local SLEC: susceptible to localized bursts, safe when scattered.
    assert dp["Loc-Cp"][0] > 1e-3 and dp["Loc-Cp"][1] <= 1e-12
    # Local-Dp amplifies the localized weakness.
    assert dp["Loc-Dp"][0] > dp["Loc-Cp"][0]
    # Network SLEC: safe when localized, loses when scattered.
    assert dp["Net-Cp"][0] <= 1e-12
    assert dp["Net-Dp"][0] <= 1e-12 and dp["Net-Dp"][1] == 1.0
    # Net-Cp's PDL is 0 whenever <= p racks are affected (MC grid columns).
    net_cp = grids["Net-Cp"]
    assert np.nansum(net_cp[:, :2]) == 0.0  # 1 and 2 affected racks
