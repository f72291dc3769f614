"""Figure 11: single-core encoding throughput across (k+p) configurations.

Regenerates the heatmap with the calibrated analytic model (the ISA-L
substitute) and takes live measurements of this library's NumPy RS encoder
at a few corners to verify the functional shape on real hardware.
"""

import numpy as np
from _harness import emit

from repro.codes.throughput import IsalThroughputModel, measure_encoding_throughput
from repro.core.config import GB, SLECParams
from repro.reporting import format_table


def build_figure():
    model = IsalThroughputModel()
    k_values = np.arange(2, 51, 4)
    p_values = np.arange(1, 11)
    grid = model.heatmap(k_values, p_values)

    rows = [
        [int(p)] + [round(grid[i, j] / GB, 2) for j in range(len(k_values))]
        for i, p in enumerate(p_values)
    ]
    text = format_table(
        ["p \\ k"] + [str(int(k)) for k in k_values],
        rows,
        title="Figure 11: modelled encoding throughput (GB/s), ISA-L-calibrated",
    )

    # Live corners with the library's own encoder.
    corners = [(4, 1), (4, 8), (48, 1), (48, 8)]
    measured = {
        (k, p): measure_encoding_throughput(k, p, chunk_bytes=1 << 19, repeats=2)
        for (k, p) in corners
    }
    meas_rows = [
        [f"({k}+{p})", measured[(k, p)] / 1e6,
         IsalThroughputModel().slec_throughput(SLECParams(k, p)) / GB]
        for (k, p) in corners
    ]
    text += "\n\n" + format_table(
        ["config", "measured NumPy MB/s", "modelled ISA-L GB/s"],
        meas_rows,
        title="Live measurement corners (shape check; absolute scale differs):",
    )
    return grid, measured, text


def test_fig11_encoding_throughput():
    grid, measured, text = build_figure()
    emit("fig11_encoding_throughput", text)

    # Shape: throughput decreases along both axes.
    assert np.all(np.diff(grid, axis=0) <= 1e-9)  # more parities
    assert np.all(np.diff(grid, axis=1) <= 1e-9)  # wider stripes
    # Scale matches the paper's colorbar: ~12 GB/s down to < 1 GB/s.
    assert grid.max() <= 12 * GB + 1
    assert grid.min() < 1 * GB
    # The live encoder shows the same p-direction shape.
    assert measured[(4, 1)] > measured[(4, 8)]
    assert measured[(48, 1)] > measured[(48, 8)]
