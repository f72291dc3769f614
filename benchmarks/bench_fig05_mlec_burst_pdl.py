"""Figure 5: PDL of the four MLEC schemes under correlated failure bursts.

Regenerates the four heatmaps (y failed disks x racks affected) with the
Monte-Carlo burst engine, plus the exact DP values at the diagnostic cells,
and asserts the paper's Findings 1-7.  The BENCH record times the two as
phases ``mc`` and ``dp``: the DP dominates the wall-clock, so a burst-path
regression shows only in ``mc``.
"""

import numpy as np
from _harness import PhaseTimer, bench_batch, bench_workers, emit, once, scaled_trials

from repro import PAPER_MLEC, mlec_scheme_from_name
from repro.analysis.burst_dp import mlec_burst_pdl
from repro.reporting import format_heatmap, format_table
from repro.runtime import TrialRunner
from repro.sim.burst import MLECBurstEvaluator, burst_pdl_grid

SCHEMES = ("C/C", "C/D", "D/C", "D/D")
FAILURES = np.array([12, 24, 36, 48, 60])
RACKS = np.array([1, 2, 3, 6, 12, 30, 60])
TRIALS = scaled_trials(25)
WORKERS = bench_workers()
# Monte-Carlo volume: every feasible (y >= x) heatmap cell of every scheme.
N_CELLS = int(sum((FAILURES >= x).sum() for x in RACKS))
# Module-level so the telemetry record can name the backend that ran it.
RUNNER = TrialRunner(workers=WORKERS, batch=bench_batch())
PHASES = PhaseTimer()


def build_figure():
    runner = RUNNER
    sections = []
    grids = {}
    for name in SCHEMES:
        ev = MLECBurstEvaluator(mlec_scheme_from_name(name, PAPER_MLEC))
        with PHASES.phase("mc"):
            grid = burst_pdl_grid(ev, FAILURES, RACKS, trials=TRIALS, seed=5,
                                  runner=runner)
        grids[name] = grid
        sections.append(format_heatmap(
            grid, FAILURES.tolist(), RACKS.tolist(),
            title=f"Figure 5{chr(ord('a') + SCHEMES.index(name))}: {name}",
        ))
    with PHASES.phase("dp"):
        dp_rows = [
            [name,
             mlec_burst_pdl(mlec_scheme_from_name(name, PAPER_MLEC), 60, 3),
             mlec_burst_pdl(mlec_scheme_from_name(name, PAPER_MLEC), 60, 12),
             mlec_burst_pdl(mlec_scheme_from_name(name, PAPER_MLEC), 11, 3)]
            for name in SCHEMES
        ]
    sections.append(format_table(
        ["scheme", "DP PDL(60,3)", "DP PDL(60,12)", "DP PDL(11,3)"],
        dp_rows, title="Exact dynamic-programming spot checks:",
    ))
    return grids, dp_rows, "\n\n".join(sections)


def test_fig05_mlec_burst_pdl(benchmark):
    grids, dp_rows, text = once(
        benchmark, build_figure,
        trials=len(SCHEMES) * N_CELLS * TRIALS, workers=WORKERS,
        runner=RUNNER, phases=PHASES,
    )
    emit("fig05_mlec_burst_pdl", text)

    dp = {row[0]: row[1] for row in dp_rows}
    # Finding 4/7: worst at exactly p_n+1 racks, D/D the worst scheme.
    assert dp["D/D"] > dp["C/D"] > dp["D/C"] > dp["C/C"]
    # Finding 3: y <= x+8 is exactly safe.
    assert all(row[3] <= 1e-12 for row in dp_rows)
    # Finding 2: scattering helps (60 failures over 12 racks vs 3 racks).
    assert all(row[2] <= row[1] + 1e-12 for row in dp_rows)
    # MC grids: x <= p_n racks never lose data.
    for grid in grids.values():
        assert np.nansum(grid[:, :2]) == 0.0
