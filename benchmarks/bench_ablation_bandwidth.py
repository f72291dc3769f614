"""Ablation: repair-bandwidth cap sensitivity.

The paper caps repair traffic at 20% of raw bandwidth to protect
foreground I/O (§3).  This ablation sweeps the cap and quantifies the
trade the policy encodes: more repair bandwidth, faster catastrophic-state
exits, more nines -- with diminishing returns once detection time
dominates (mirroring §4.2.3 Finding 3's bottleneck argument).
"""

import pytest
from _harness import emit

from repro import PAPER_MLEC, RepairMethod, mlec_scheme_from_name
from repro.analysis.durability import mlec_durability_nines
from repro.core.config import BandwidthConfig
from repro.repair import BandwidthModel, CatastrophicRepairModel
from repro.reporting import format_table

FRACTIONS = (0.05, 0.1, 0.2, 0.5, 1.0)
HOUR = 3600.0


def build_figure():
    rows = []
    results = {}
    for frac in FRACTIONS:
        bw = BandwidthConfig(repair_fraction=frac)
        per_scheme = {}
        for name in ("C/C", "C/D"):
            scheme = mlec_scheme_from_name(name, PAPER_MLEC)
            single_h = BandwidthModel(scheme, bw).single_disk_repair_time() / HOUR
            cat_h = CatastrophicRepairModel(scheme, bw).total_repair_time(
                RepairMethod.R_ALL
            ) / HOUR
            nines = mlec_durability_nines(scheme, RepairMethod.R_MIN, bw=bw)
            per_scheme[name] = (single_h, cat_h, nines)
        results[frac] = per_scheme
        rows.append([
            f"{frac:.0%}",
            per_scheme["C/C"][0], per_scheme["C/C"][1],
            round(per_scheme["C/C"][2], 1),
            per_scheme["C/D"][0], round(per_scheme["C/D"][2], 1),
        ])
    text = format_table(
        ["repair cap", "C/C disk h", "C/C pool h", "C/C nines",
         "C/D disk h", "C/D nines"],
        rows,
        title="Ablation: repair-bandwidth cap (paper uses 20%)",
    )
    return results, text


def test_ablation_bandwidth():
    results, text = build_figure()
    emit("ablation_bandwidth", text)

    # Repair times scale exactly inversely with the cap.
    t_low = results[0.1]["C/C"][0]
    t_high = results[0.2]["C/C"][0]
    assert t_low / t_high == pytest.approx(2.0, rel=0.01)

    # More repair bandwidth never hurts durability.
    for name in ("C/C", "C/D"):
        nines = [results[f][name][2] for f in FRACTIONS]
        assert all(b >= a - 1e-9 for a, b in zip(nines, nines[1:]))

    # Diminishing returns: C/D (detection-bound after R_MIN) gains less
    # from 20% -> 100% than C/C (repair-bound) does.
    gain_cc = results[1.0]["C/C"][2] - results[0.2]["C/C"][2]
    gain_cd = results[1.0]["C/D"][2] - results[0.2]["C/D"][2]
    assert gain_cc > gain_cd
