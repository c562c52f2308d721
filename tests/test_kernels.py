"""The counter-based normal generator is reproducible, its bitstream fixed,
and its draws standard normal."""

import hashlib
import math

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


@pytest.mark.parametrize("draw0,ndraws", [(1, 5), (3, 10), (5, 1), (7, 0), (2, 7),
                                          (1, 38), (39, 1), (0, 1)])
def test_odd_boundaries_are_slices_of_a_larger_block(draw0, ndraws):
    # a boundary pair is computed whole and half of it dropped
    streams = np.arange(6)
    whole = kernels.normal_block(7, streams, 0, 40)
    np.testing.assert_array_equal(kernels.normal_block(7, streams, draw0, ndraws),
                                  whole[draw0:draw0 + ndraws])


# SHA-256 of the float64 bytes of normal_block(seed, streams, draw0, ndraws),
# stream version 2. The block of 180000 entries spans two internal chunks,
# and the one of 33 entries starts at an odd draw.
# Any change here changes every sample and must bump the stream version.
DIGESTS = [
    pytest.param((0, [0, 1, 2, 3], 0, 8),
                 "d3d819049038597a23e8919d5ffc2d7ea91fc146fb9f9fad18677f69813ed945",
                 id="seed0"),
    pytest.param((123, [5, 2, 900], 7, 11),
                 "64b9f8eabf56daefc00d640b119c07c898dfc469ce3196e62ae9bfc3c079d460",
                 id="seed123-odd-draw0"),
    pytest.param((2 ** 64 - 1, [0, 3, 10 ** 6], 2 ** 40, 6),
                 "0e801ea35b35ed85d4b24f46fe36543c6008c35dea97a23d92048fda899f6832",
                 id="max-seed"),
    pytest.param((-5, list(range(9)), 0, 20000),
                 "ddd21dea21f8da538dc5c9ae2882f87792ef29ff69c6f7de42cfe1d2c2a234cc",
                 id="seed-5-two-chunks"),
    pytest.param((42, list(range(121)), 100000, 600),
                 "5dd05eb391588b5c2c25116c25fda10fce1e4382a5b662a8c339bd609f82bf3a",
                 id="seed42-k121"),
]


@pytest.mark.parametrize("args,digest", DIGESTS)
def test_normal_block_bitstream_pinned(args, digest):
    seed, streams, draw0, ndraws = args
    z = kernels.normal_block(seed, np.array(streams), draw0, ndraws)
    assert z.shape == (ndraws, len(streams)) and z.dtype == np.float64
    assert hashlib.sha256(z.tobytes()).hexdigest() == digest


def test_chunked_rows_match_single_rows():
    # pairs are chunked _CHUNK // 3 at a time: draw `edge` opens the second chunk
    streams = np.arange(3)
    edge = 2 * (kernels._CHUNK // 3)
    whole = kernels.normal_block(11, streams, 0, edge + 4)
    for t in (0, 1, edge - 2, edge - 1, edge, edge + 1, edge + 3):
        np.testing.assert_array_equal(whole[t], kernels.normal_block(11, streams, t, 1)[0])


def test_every_row_matches_its_single_draw(monkeypatch):
    # chunks of two pairs: every row, odd and even, on both sides of six chunk edges
    monkeypatch.setattr(kernels, "_CHUNK", 6)
    streams = np.array([4, 0, 17])
    whole = kernels.normal_block(5, streams, 3, 26)
    for t in range(26):
        np.testing.assert_array_equal(whole[t], kernels.normal_block(5, streams, 3 + t, 1)[0])


def _hashes(seed, streams, counters):
    """The 53-bit hashes of `counters` on `streams`, as normal_block forms them."""
    with np.errstate(over="ignore"):
        h = np.full(1, (seed & kernels._MASK) ^ kernels._GOLDEN, dtype=np.uint64)
        kernels._fmix64(h, np.empty_like(h))
        hs = streams.astype(np.uint64) * np.uint64(kernels._GOLDEN) + np.uint64(1)
        hs ^= h
        kernels._fmix64(hs, np.empty_like(hs))
        z = np.empty((len(counters), len(streams)), dtype=np.uint64)
        kernels._hash(hs, counters.astype(np.uint64), z, np.empty_like(z))
    return z


def test_pair_is_r_cos_and_r_sin_of_one_angle():
    # draws 2p and 2p+1 read the hash counters 2p (u1) and 2p+1 (u2)
    streams, pairs = np.arange(5), np.arange(10, 30)
    h1 = _hashes(9, streams, 2 * pairs).astype(float)
    h2 = _hashes(9, streams, 2 * pairs + 1).astype(float)
    r = np.sqrt(-2.0 * np.log((h1 + 1.0) * 2.0 ** -53))
    theta = 2.0 * math.pi * h2 * 2.0 ** -53 - math.pi
    z = kernels.normal_block(9, streams, 2 * pairs[0], 2 * len(pairs))
    np.testing.assert_allclose(z[0::2], r * np.cos(theta), rtol=0, atol=1e-13)
    np.testing.assert_allclose(z[1::2], r * np.sin(theta), rtol=0, atol=1e-13)


def test_extreme_hashes_give_finite_bounded_normals():
    # u2 = 0 is tan(-pi/2) and u2 = 1 - 2^-53 its other end; u1 = 2^-53 and 1
    top = 2 ** 53 - 1
    h1 = np.array([0, 0, top, top, 0, 1 << 52], dtype=np.uint64)
    h2 = np.array([0, top, 0, top, 1 << 52, 0], dtype=np.uint64)
    r = np.sqrt(-2.0 * np.log((h1.astype(float) + 1.0) * 2.0 ** -53))
    cos_r, sin_r = np.empty(len(h1)), np.empty(len(h1))
    kernels._box_muller(h1.copy(), h2.copy(), np.empty_like(h1), cos_r, sin_r)
    assert np.isfinite(cos_r).all() and np.isfinite(sin_r).all()
    assert np.all(np.abs(cos_r) <= r) and np.all(np.abs(sin_r) <= r)
    np.testing.assert_allclose(np.hypot(cos_r, sin_r), r, rtol=1e-15, atol=0)
    # theta = -pi at both ends of u2 (cos = -1, sin = 0); theta = 0 at u2 = 1/2
    np.testing.assert_allclose(cos_r, [-r[0], -r[1], 0, 0, r[4], -r[5]], rtol=1e-15)
    np.testing.assert_allclose(sin_r, 0.0, atol=1e-14)


def test_moments_of_a_million_draws():
    """Mean, variance, fourth moment and the dependence of a pair's two
    members, each as a z-score against its normal value, gated at 5."""
    z = kernels.normal_block(2024, np.array([3, 8]), 1, 1_000_000)
    n = z.size
    scores = {
        "mean": z.mean() / math.sqrt(1.0 / n),
        "variance": ((z ** 2).mean() - 1.0) / math.sqrt(2.0 / n),
        "fourth": ((z ** 4).mean() - 3.0) / math.sqrt(96.0 / n),
    }
    # rows 1, 3, ... are draws 2, 4, ...: the cos halves, the next row their sines
    a, b = z[1:-1:2].ravel(), z[2::2].ravel()
    m = a.size
    scores["pair"] = (a * b).mean() / math.sqrt(1.0 / m)
    scores["pair_squares"] = ((a * a * b * b).mean() - 1.0) / math.sqrt(8.0 / m)
    assert all(abs(s) < 5.0 for s in scores.values()), scores


def test_empty_blocks():
    assert kernels.normal_block(1, np.arange(3), 0, 0).shape == (0, 3)
    assert kernels.normal_block(1, np.arange(0), 0, 4).shape == (4, 0)
    assert kernels.normal_block(1, np.arange(3), 5, 0).shape == (0, 3)
