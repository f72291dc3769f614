"""Ablation: failure-detection time (paper §5.2.2 discussion).

The paper attributes part of the durability ceiling to the 30-minute
detection delay and speculates about 1-minute detection.  This ablation
sweeps the delay and shows which schemes are detection-bound.
"""

from _harness import emit

from repro import PAPER_MLEC, RepairMethod, mlec_scheme_from_name
from repro.analysis.durability import lrc_durability_nines, mlec_durability_nines
from repro.core.config import FailureConfig, LRCParams
from repro.core.scheme import LRCScheme
from repro.reporting import format_table

DELAYS = (60.0, 600.0, 1800.0, 7200.0)  # 1 min .. 2 h


def build_figure():
    rows = []
    results = {}
    for name in ("C/C", "C/D", "D/D"):
        scheme = mlec_scheme_from_name(name, PAPER_MLEC)
        nines = [
            mlec_durability_nines(
                scheme, RepairMethod.R_MIN,
                failures=FailureConfig(detection_time=d),
            )
            for d in DELAYS
        ]
        results[name] = nines
        rows.append([f"MLEC {name} R_MIN"] + [round(v, 1) for v in nines])
    lrc = LRCScheme(LRCParams(14, 2, 4))
    lrc_nines = [
        lrc_durability_nines(lrc, failures=FailureConfig(detection_time=d))
        for d in DELAYS
    ]
    results["LRC"] = lrc_nines
    rows.append(["LRC-Dp (14,2,4)"] + [round(v, 1) for v in lrc_nines])
    text = format_table(
        ["scheme"] + [f"detect {int(d)}s" for d in DELAYS],
        rows,
        title="Ablation: one-year durability (nines) vs detection delay",
    )
    return results, text


def test_ablation_detection_time():
    results, text = build_figure()
    emit("ablation_detection_time", text)

    # Durability never improves with slower detection.
    for nines in results.values():
        assert all(a >= b - 1e-9 for a, b in zip(nines, nines[1:]))
    # Dp-local schemes are detection-bound: 1-minute detection buys them
    # far more than it buys C/C (whose repair, not detection, dominates).
    gain_cd = results["C/D"][0] - results["C/D"][2]
    gain_cc = results["C/C"][0] - results["C/C"][2]
    assert gain_cd > gain_cc + 1.0
    # LRC also benefits from fast detection (paper's 1-minute speculation).
    assert results["LRC"][0] > results["LRC"][2] + 1.0
