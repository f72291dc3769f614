"""Codec round-trips on the paper-sized codes.

Encodes random 64 KiB chunks with the GF(2^8) codecs at the paper's
configurations -- RS (17+3), Azure LRC (14,2,4) and the (10+2)/(17+3)
MLEC product code -- erases chunks, and asserts the decode restores the
stripe bit for bit.  The unit tests cover the same decoders on small codes
only.
"""

import numpy as np
import pytest

from repro.codes import AzureLRC, MLECCodec, ReedSolomon

CHUNK = 1 << 16


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_rs_17_3_three_erasures(rng):
    rs = ReedSolomon(17, 3)
    stripe = rs.encode(rng.integers(0, 256, size=(17, CHUNK), dtype=np.uint8))
    assert np.array_equal(stripe[17:], rs.parity(stripe[:17]))
    corrupted = stripe.copy()
    corrupted[[0, 8, 19]] = 0
    assert np.array_equal(rs.decode(corrupted, [0, 8, 19]), stripe)


def test_lrc_14_2_4_local_repair(rng):
    lrc = AzureLRC(14, 2, 4)
    stripe = lrc.encode(rng.integers(0, 256, size=(14, CHUNK), dtype=np.uint8))
    corrupted = stripe.copy()
    corrupted[3] = 0
    assert np.array_equal(lrc.decode(corrupted, [3]), stripe)


def test_mlec_paper_code_iterative_decode(rng):
    codec = MLECCodec(10, 2, 17, 3)
    data = rng.integers(0, 256, size=(codec.data_chunks, 1 << 12), dtype=np.uint8)
    grid = codec.encode(data)
    erasures = [(3, 0), (3, 5), (3, 11), (3, 19), (7, 2)]
    corrupted = grid.copy()
    for cell in erasures:
        corrupted[cell] = 0
    assert np.array_equal(codec.decode(corrupted, erasures), grid)
    assert np.array_equal(codec.extract_data(grid), data)
