"""The counter-based normal generator is reproducible and its bitstream fixed."""

import hashlib

import numpy as np
import pytest

from dgff import kernels


def test_normals_reproducible_across_calls():
    streams = np.arange(4)
    a = kernels.normal_block(123, streams, 0, 8)
    b = kernels.normal_block(123, streams, 0, 8)
    np.testing.assert_array_equal(a, b)


def test_normals_depend_on_all_counter_parts():
    streams = np.arange(4)
    base = kernels.normal_block(1, streams, 0, 3)
    assert not np.array_equal(base, kernels.normal_block(2, streams, 0, 3))
    assert not np.array_equal(base, kernels.normal_block(1, streams + 10, 0, 3))
    assert not np.array_equal(base, kernels.normal_block(1, streams, 3, 3))


def test_draw_offset_is_a_shift():
    streams = np.arange(5)
    whole = kernels.normal_block(7, streams, 0, 10)
    tail = kernels.normal_block(7, streams, 6, 4)
    np.testing.assert_array_equal(whole[6:], tail)


# SHA-256 of the float64 bytes of normal_block(seed, streams, draw0, ndraws).
# The blocks of 180000 and 72600 entries span several internal chunks.
# Any change here changes every sample and must bump the stream version.
DIGESTS = [
    ((0, [0, 1, 2, 3], 0, 8),
     "eae1e9ebea17142d3085a9fed3f40f537bfa6caf9e28a0629404dc9f3b72fb1a"),
    ((123, [5, 2, 900], 7, 11),
     "a2a90bd541de6140be2970eef4fb510773d066636eab0d7ab79423350919019b"),
    ((2 ** 64 - 1, [0, 3, 10 ** 6], 2 ** 40, 6),
     "094c46729684f898b0c22d6f1f8098117e8a7c03e3a6ac34ce7fab189c4b3960"),
    ((-5, list(range(9)), 0, 20000),
     "7853c8c98c5de2ac7cedd0ca3dc4bde89c0405b27f539b685a1125109e50b103"),
    ((42, list(range(121)), 100000, 600),
     "ce2415738b509e1e22bff6c9ec9dcdbb048f73207c690be3ddf7fe53bf6f19e9"),
]


@pytest.mark.parametrize("args,digest", DIGESTS)
def test_normal_block_bitstream_pinned(args, digest):
    seed, streams, draw0, ndraws = args
    z = kernels.normal_block(seed, np.array(streams), draw0, ndraws)
    assert z.shape == (ndraws, len(streams)) and z.dtype == np.float64
    assert hashlib.sha256(z.tobytes()).hexdigest() == digest


def test_chunked_rows_match_single_rows():
    streams = np.arange(3)
    whole = kernels.normal_block(11, streams, 0, kernels._CHUNK)
    for t in (0, kernels._CHUNK // 3 - 1, kernels._CHUNK // 3, kernels._CHUNK - 1):
        np.testing.assert_array_equal(whole[t], kernels.normal_block(11, streams, t, 1)[0])


def test_empty_blocks():
    assert kernels.normal_block(1, np.arange(3), 0, 0).shape == (0, 3)
    assert kernels.normal_block(1, np.arange(0), 0, 4).shape == (4, 0)
