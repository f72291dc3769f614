"""Section 5.1.4 (text-only in the paper): repair network traffic vs SLEC.

The paper reports no figure: "a (7+3) network SLEC requires hundreds of TB
repair network traffic every day ... MLEC only requires a few TB every
thousand of years".  This benchmark regenerates that comparison as a table.
"""

import pytest
from _harness import emit

from repro import PAPER_MLEC, RepairMethod, mlec_scheme_from_name
from repro.analysis.markov import local_pool_catastrophic_rate
from repro.core.config import SLECParams
from repro.core.scheme import SLECScheme
from repro.core.types import Level, Placement
from repro.repair.traffic_comparison import (
    mlec_annual_cross_rack_traffic,
    slec_annual_cross_rack_traffic,
    years_per_terabyte,
)
from repro.reporting import format_table


def build_figure():
    rows = []
    values = {}
    for k, p in [(7, 3), (14, 6), (28, 12)]:
        scheme = SLECScheme(SLECParams(k, p), Level.NETWORK, Placement.DECLUSTERED)
        rate = slec_annual_cross_rack_traffic(scheme)
        values[f"Net-S ({k}+{p})"] = rate
        rows.append([f"Net-Dp-S ({k}+{p})", rate.tb_per_day, rate.tb_per_year])
    for name in ("C/C", "C/D"):
        scheme = mlec_scheme_from_name(name, PAPER_MLEC)
        pool_rate = local_pool_catastrophic_rate(scheme) * scheme.total_local_pools
        for method in (RepairMethod.R_ALL, RepairMethod.R_MIN):
            rate = mlec_annual_cross_rack_traffic(scheme, method, pool_rate)
            values[f"MLEC {name} {method}"] = rate
            rows.append([f"MLEC {name} {method}", rate.tb_per_day, rate.tb_per_year])
    text = format_table(
        ["scheme", "TB/day", "TB/year"],
        rows,
        title="Section 5.1.4: expected cross-rack repair traffic",
    )
    return values, text


def test_sec514_slec_traffic():
    values, text = build_figure()
    emit("sec514_slec_traffic", text)

    # "Hundreds of TB every day" for (7+3) network SLEC: 252 TB/day.
    assert values["Net-S (7+3)"].tb_per_day == pytest.approx(252, abs=0.5)
    # "A few TB every thousand of years" for optimized MLEC.
    assert years_per_terabyte(values["MLEC C/D RMIN"]) > 1e3
    # Even R_ALL MLEC is orders of magnitude below network SLEC.
    assert (
        values["Net-S (7+3)"].bytes_per_year
        > 1e4 * values["MLEC C/D RALL"].bytes_per_year
    )
