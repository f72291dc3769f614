"""Figure 15: MLEC C/D vs LRC-Dp durability/throughput trade-off.

Regenerates the two scatter families at ~30% parity overhead and pins
§5.2.2 Findings 1-2.
"""

from _harness import emit

from repro.analysis.tradeoff import lrc_tradeoff, mlec_tradeoff, pareto_front
from repro.reporting import format_table


def build_figure():
    cd = mlec_tradeoff("C/D")
    lrc = lrc_tradeoff()
    sections = []
    for label, points in (("C/D", cd), ("LRC-Dp", lrc)):
        rows = [
            [p.config, round(p.durability_nines, 1), round(p.throughput_gb_per_s, 2)]
            for p in pareto_front(points)
        ]
        sections.append(format_table(
            ["config", "nines/yr", "GB/s"], rows,
            title=f"Figure 15 ({label}): Pareto front of {len(points)} configs",
        ))
    return cd, lrc, "\n\n".join(sections)


def test_fig15_mlec_vs_lrc():
    cd, lrc, text = build_figure()
    emit("fig15_mlec_vs_lrc", text)

    def best_throughput_above(points, nines):
        return max(
            (p.throughput_gb_per_s for p in points if p.durability_nines >= nines),
            default=0.0,
        )

    # F#1: MLEC reaches high durability at higher encoding throughput.
    assert best_throughput_above(cd, 30) > 2 * best_throughput_above(lrc, 30)
    # The throughput-matched comparison of §5.2.3: the paper's (14,2,4)
    # LRC sits in the enumeration and below C/D's frontier.
    lrc_1424 = [p for p in lrc if p.config == "(14,2,4)"]
    assert lrc_1424, "(14,2,4) must be enumerated"
    point = lrc_1424[0]
    dominating = [
        p for p in cd
        if p.durability_nines > point.durability_nines
        and p.throughput_bytes_per_s > point.throughput_bytes_per_s
    ]
    assert dominating, "some C/D config must dominate (14,2,4) LRC-Dp"
