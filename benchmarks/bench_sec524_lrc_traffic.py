"""Section 5.2.4 (text-only in the paper): repair network traffic vs LRC.

"LRC-Dp's repair network traffic is less than network SLEC ... However,
every repair still needs to read and write over the network ... MLEC
requires much less network traffic."
"""

import pytest
from _harness import emit

from repro import PAPER_MLEC, RepairMethod, mlec_scheme_from_name
from repro.analysis.markov import local_pool_catastrophic_rate
from repro.core.config import LRCParams, SLECParams
from repro.core.scheme import LRCScheme, SLECScheme
from repro.core.types import Level, Placement
from repro.repair.traffic_comparison import (
    lrc_annual_cross_rack_traffic,
    mlec_annual_cross_rack_traffic,
    slec_annual_cross_rack_traffic,
)
from repro.reporting import format_table


def build_figure():
    rows = []
    lrc = LRCScheme(LRCParams(14, 2, 4))
    lrc_rate = lrc_annual_cross_rack_traffic(lrc)
    rows.append(["LRC-Dp (14,2,4)", lrc_rate.tb_per_day])

    # A durability-comparable wide network SLEC (same 30% overhead band).
    slec = SLECScheme(SLECParams(14, 6), Level.NETWORK, Placement.DECLUSTERED)
    slec_rate = slec_annual_cross_rack_traffic(slec)
    rows.append(["Net-Dp-S (14+6)", slec_rate.tb_per_day])

    mlec = mlec_scheme_from_name("C/D", PAPER_MLEC)
    pool_rate = local_pool_catastrophic_rate(mlec) * mlec.total_local_pools
    mlec_rate = mlec_annual_cross_rack_traffic(mlec, RepairMethod.R_MIN, pool_rate)
    rows.append(["MLEC C/D R_MIN", mlec_rate.tb_per_day])

    text = format_table(
        ["scheme", "cross-rack TB/day"],
        rows,
        title="Section 5.2.4: LRC vs SLEC vs MLEC repair traffic",
    )
    return lrc_rate, slec_rate, mlec_rate, text


def test_sec524_lrc_traffic():
    lrc_rate, slec_rate, mlec_rate, text = build_figure()
    emit("sec524_lrc_traffic", text)

    # LRC < network SLEC (locality shrinks per-failure reads), 252 vs
    # 473 TB/day, but still substantial (every repair crosses racks)...
    assert lrc_rate.tb_per_day == pytest.approx(252, abs=0.5)
    assert slec_rate.tb_per_day == pytest.approx(473, abs=0.5)
    # ...while MLEC is orders of magnitude lower.
    assert lrc_rate.bytes_per_year > 1e6 * max(mlec_rate.bytes_per_year, 1e-30)
