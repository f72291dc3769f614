"""Figure 16: PDL of (14,2,4) LRC-Dp under correlated failure bursts.

Regenerates the heatmap and pins the §5.2.3 pattern: like network-Dp SLEC,
LRC-Dp is vulnerable to highly *scattered* bursts and safe against
localized ones (where MLEC is weakest) -- up to its guaranteed r+1-failure
floor.
"""

import numpy as np
from _harness import emit

from repro.core.config import LRCParams
from repro.core.scheme import LRCScheme
from repro.reporting import format_heatmap
from repro.sim.burst import LRCBurstEvaluator, burst_pdl_grid

FAILURES = np.array([12, 24, 36, 48, 60])
RACKS = np.array([1, 3, 5, 6, 10, 30, 60])


def build_figure():
    evaluator = LRCBurstEvaluator(LRCScheme(LRCParams(14, 2, 4)))
    grid = burst_pdl_grid(evaluator, FAILURES, RACKS, trials=25, seed=16)
    text = format_heatmap(
        grid, FAILURES.tolist(), RACKS.tolist(),
        title="Figure 16: PDL of (14,2,4) LRC-Dp under failure bursts",
    )
    return evaluator, grid, text


def test_fig16_lrc_burst_pdl():
    evaluator, grid, text = build_figure()
    emit("fig16_lrc_burst_pdl", text)

    # Guaranteed floor: any r+1 = 5 failures are recoverable, so columns
    # with <= 5 affected racks are exactly zero.
    assert np.nansum(grid[:, RACKS <= 5]) == 0.0
    # Scattered bursts are the weakness: PDL grows with the rack count at
    # fixed failure count (row y=60).
    row = grid[-1]
    valid = ~np.isnan(row)
    assert row[valid][-1] >= row[valid][0]
    assert row[valid][-1] > 0.0
    # The unrecoverable-pattern fraction drives it: zero through r+1, then
    # monotonically rising with pattern size.
    u = evaluator._unrecoverable_fraction_by_size()
    assert np.all(u[:6] == 0.0)
    assert u[-1] == 1.0
