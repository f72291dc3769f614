"""Figure 1: storage scaling over the years.

Regenerates both panels -- disks per system (Backblaze / US DOE) and
capacity per disk (max available / average sold) -- from the transcribed
dataset and checks the motivating growth trends.
"""

from _harness import emit

from repro.datasets.scaling import storage_scaling_table
from repro.reporting import format_table


def build_figure():
    table = storage_scaling_table()
    years = table["Backblaze"].years
    rows = []
    for i, year in enumerate(years):
        rows.append([
            int(year),
            round(float(table["Backblaze"].values[i]), 1),
            round(float(table["US DOE"].values[i]), 1),
            round(float(table["Max Available"].values[i]), 1),
            round(float(table["Average Sold"].values[i]), 1),
        ])
    text = format_table(
        ["year", "Backblaze (k disks)", "US DOE (k disks)",
         "max avail (TB)", "avg sold (TB)"],
        rows,
        title="Figure 1: storage scaling over the years",
    )
    return table, text


def test_fig01_storage_scaling():
    table, text = build_figure()
    emit("fig01_storage_scaling", text)
    # Paper's motivation: both fleet sizes and disk capacities keep growing.
    assert table["Backblaze"].at(2022) > 200  # ~202k disks
    assert table["US DOE"].at(2022) > 50
    assert table["Max Available"].at(2022) >= 20
    for series in table.values():
        assert series.growth_factor() > 5
