"""Figure 6 + Table 2: repair time and available repair bandwidth (R_ALL).

Regenerates both panels -- (a) single-disk repair, (b) catastrophic local
pool repair -- together with Table 2's pool sizes and bandwidths, and pins
the paper's §4.1.2 Findings 1-4.
"""

import pytest
from _harness import emit

from repro import PAPER_MLEC, RepairMethod, mlec_scheme_from_name
from repro.core.config import FailureConfig
from repro.repair import BandwidthModel, CatastrophicRepairModel
from repro.reporting import format_table

SCHEMES = ("C/C", "C/D", "D/C", "D/D")
HOUR = 3600.0


def build_figure():
    detection = FailureConfig().detection_time
    rows = []
    data = {}
    for name in SCHEMES:
        scheme = mlec_scheme_from_name(name, PAPER_MLEC)
        bw = BandwidthModel(scheme)
        single_bw = bw.single_disk_repair_rate().rate
        single_t = bw.single_disk_repair_time(detection) / HOUR
        cat = CatastrophicRepairModel(scheme)
        cat_bw = bw.network_repair_rate().rate
        cat_t = cat.total_repair_time(RepairMethod.R_ALL, detection) / HOUR
        rows.append([
            name,
            scheme.dc.disk_capacity_bytes / 1e12,
            single_bw / 1e6,
            single_t,
            scheme.local_pool_capacity_bytes / 1e12,
            cat_bw / 1e6,
            cat_t,
        ])
        data[name] = dict(single_bw=single_bw, single_t=single_t,
                          cat_bw=cat_bw, cat_t=cat_t)
    text = format_table(
        ["scheme", "disk TB", "avail BW MB/s", "disk repair h",
         "pool TB", "avail BW MB/s", "pool repair h"],
        rows,
        title="Figure 6 / Table 2: repair size, bandwidth and time (R_ALL)",
    )
    return data, text


def test_fig06_repair_time():
    data, text = build_figure()
    emit("fig06_table2_repair_time", text)

    # Table 2 bandwidth anchors.
    assert data["C/C"]["single_bw"] == pytest.approx(40e6)
    assert data["C/D"]["single_bw"] == pytest.approx(264e6, rel=0.01)
    assert data["C/C"]["cat_bw"] == pytest.approx(250e6)
    assert data["D/C"]["cat_bw"] == pytest.approx(1363e6, rel=0.01)
    # F#1: local declustering makes single-disk repair ~6x faster.
    assert data["C/C"]["single_t"] / data["C/D"]["single_t"] == pytest.approx(6.3, rel=0.1)
    # F#2: C/D is the slowest catastrophic repair; F#3: D/C the fastest.
    cat_times = {k: v["cat_t"] for k, v in data.items()}
    assert max(cat_times, key=cat_times.get) == "C/D"
    assert min(cat_times, key=cat_times.get) == "D/C"
    # F#4: D/D ~5x faster than C/D, ~6x slower than D/C, a bit over C/C.
    assert cat_times["C/D"] / cat_times["D/D"] == pytest.approx(5.45, rel=0.1)
    assert cat_times["D/D"] / cat_times["D/C"] == pytest.approx(6.0, rel=0.1)
    assert cat_times["D/D"] > cat_times["C/C"]
    # The catastrophic-repair hours EXPERIMENTS.md records.
    assert [cat_times[name] for name in SCHEMES] == pytest.approx(
        [445, 2667, 82, 489], abs=0.5
    )
