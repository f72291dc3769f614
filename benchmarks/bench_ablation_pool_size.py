"""Ablation: local-Dp pool size (paper §4.1.2 Finding 4's speculation).

The paper notes that with "a smaller local-Dp pool size ... D/D could be
faster than C/C in repairing a catastrophic local pool".  This ablation
sweeps the enclosure (= local-Dp pool) size and regenerates the repair-time
and catastrophic-probability consequences.
"""

import pytest
from _harness import emit

from repro import PAPER_MLEC, RepairMethod
from repro.analysis.markov import system_catastrophic_probability
from repro.core.config import DatacenterConfig
from repro.core.scheme import mlec_scheme_from_name
from repro.repair import CatastrophicRepairModel
from repro.reporting import format_table

POOL_SIZES = (40, 60, 120, 240)
HOUR = 3600.0


def build_figure():
    rows = []
    results = {}
    for disks in POOL_SIZES:
        dc = DatacenterConfig(
            disks_per_enclosure=disks,
            enclosures_per_rack=960 // disks,  # keep 960 disks per rack
        )
        scheme = mlec_scheme_from_name("D/D", PAPER_MLEC, dc)
        cat = CatastrophicRepairModel(scheme)
        repair_h = cat.total_repair_time(RepairMethod.R_ALL) / HOUR
        prob = system_catastrophic_probability(scheme)
        results[disks] = (repair_h, prob)
        rows.append([disks, scheme.local_pool_capacity_bytes / 1e12,
                     repair_h, prob])
    # Reference: C/C catastrophic repair time at the paper's geometry.
    cc = CatastrophicRepairModel(mlec_scheme_from_name("C/C", PAPER_MLEC))
    cc_h = cc.total_repair_time(RepairMethod.R_ALL) / HOUR
    text = format_table(
        ["Dp pool disks", "pool TB", "R_ALL repair h", "P[cat]/yr"],
        rows,
        title=(
            "Ablation: D/D local pool size "
            f"(C/C reference repair: {cc_h:.0f} h)"
        ),
    )
    return results, cc_h, text


def test_ablation_pool_size():
    results, cc_hours, text = build_figure()
    emit("ablation_pool_size", text)

    repair_hours = [results[d][0] for d in POOL_SIZES]
    # Repair time scales with the pool size (more data to reconstruct).
    assert repair_hours == sorted(repair_hours)
    assert repair_hours[-1] / repair_hours[0] == pytest.approx(
        POOL_SIZES[-1] / POOL_SIZES[0], rel=0.01
    )
    # The paper's speculation: small-enough Dp pools beat C/C's 444 h.
    assert repair_hours[0] < cc_hours
    assert results[240][0] > cc_hours
    # Durability trade-off: smaller pools mean more pools and slower
    # declustered repair, so the catastrophic probability rises.
    probs = [results[d][1] for d in POOL_SIZES]
    assert probs == sorted(probs, reverse=True)
