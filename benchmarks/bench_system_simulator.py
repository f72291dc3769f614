"""Full-system simulator: one simulated quarter at paper scale.

Runs the event-driven simulation of the whole 57,600-disk deployment
(the paper's headline artifact) and validates its aggregate statistics.
"""

import numpy as np
from _harness import emit

from repro import PAPER_MLEC, RepairMethod, mlec_scheme_from_name
from repro.core.config import YEAR
from repro.reporting import format_table
from repro.sim.simulator import MLECSystemSimulator


def run_quarter():
    scheme = mlec_scheme_from_name("C/D", PAPER_MLEC)
    sim = MLECSystemSimulator(scheme, RepairMethod.R_MIN)
    return sim.run(mission_time=YEAR / 4, seed=99)


def test_system_simulator_quarter():
    result = run_quarter()
    text = format_table(
        ["metric", "value"],
        [
            ["simulated days", result.mission_time / 86400],
            ["disk failures", result.n_disk_failures],
            ["catastrophic pools", result.n_catastrophic_events],
            ["data loss events", len(result.data_loss_events)],
            ["local repair PB", result.local_repair_bytes / 1e15],
            ["cross-rack repair TB", result.cross_rack_repair_bytes / 1e12],
        ],
        title="System simulator: one quarter, 57,600 disks, C/D + R_MIN",
    )
    emit("system_simulator_quarter", text)

    expected = 57_600 * -np.log1p(-0.01) / 4
    assert abs(result.n_disk_failures - expected) < 5 * np.sqrt(expected)
    assert result.n_catastrophic_events == 0  # nominal rates are quiet
    assert result.local_repair_bytes == result.n_disk_failures * 20e12
