"""Figure 12: MLEC vs SLEC durability/throughput trade-off at ~30% parity.

Regenerates both panels -- (a) C/C vs clustered SLECs, (b) C/D vs
declustered SLECs -- as Pareto-front tables and pins §5.1.2 Findings 1-2.
"""

from _harness import emit

from repro.analysis.tradeoff import mlec_tradeoff, pareto_front, slec_tradeoff
from repro.core.types import Level, Placement
from repro.reporting import format_table


def build_figure():
    panels = {
        "12a C/C": mlec_tradeoff("C/C"),
        "12a Loc-Cp-S": slec_tradeoff(Level.LOCAL, Placement.CLUSTERED),
        "12a Net-Cp-S": slec_tradeoff(Level.NETWORK, Placement.CLUSTERED),
        "12b C/D": mlec_tradeoff("C/D"),
        "12b Loc-Dp-S": slec_tradeoff(Level.LOCAL, Placement.DECLUSTERED),
        "12b Net-Dp-S": slec_tradeoff(Level.NETWORK, Placement.DECLUSTERED),
    }
    sections = []
    for label, points in panels.items():
        rows = [
            [p.config, round(p.durability_nines, 1), round(p.throughput_gb_per_s, 2)]
            for p in pareto_front(points)
        ]
        sections.append(format_table(
            ["config", "nines/yr", "GB/s"], rows,
            title=f"Figure {label}: Pareto front ({len(points)} configs)",
        ))
    return panels, "\n\n".join(sections)


def test_fig12_mlec_vs_slec():
    panels, text = build_figure()
    emit("fig12_mlec_vs_slec", text)

    # F#1: within every family, max-durability config is not max-throughput.
    for points in panels.values():
        if len(points) < 3:
            continue
        most_durable = max(points, key=lambda p: p.durability_nines)
        fastest = max(points, key=lambda p: p.throughput_bytes_per_s)
        assert most_durable.config != fastest.config

    # F#2: at high durability MLEC keeps much higher throughput than SLEC.
    def best_throughput_above(points, nines):
        qualified = [p for p in points if p.durability_nines >= nines]
        return max((p.throughput_gb_per_s for p in qualified), default=0.0)

    assert best_throughput_above(panels["12a C/C"], 25) > 2.0
    assert best_throughput_above(panels["12a C/C"], 25) > 1.5 * best_throughput_above(
        panels["12a Loc-Cp-S"], 25
    )
    assert best_throughput_above(panels["12b C/D"], 30) > 2 * best_throughput_above(
        panels["12b Loc-Dp-S"], 30
    )
