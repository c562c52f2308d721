"""The counter-based standard normal generator.

One normal per (seed, stream id, draw index). Two 64-bit hashes feed a
Box-Muller transform:

  h      = fmix64(seed ^ GOLDEN)
  h_s    = fmix64(h ^ (stream * GOLDEN + 1))
  h_c    = fmix64(h_s ^ ((2*draw + slot) * SPLIT + 1))   slot in {0, 1}
  u1     = ((h_c0 >> 11) + 1) * 2^-53        in (0, 1]
  u2     = (h_c1 >> 11) * 2^-53              in [0, 1)
  normal = sqrt(-2 ln u1) * cos(2 pi u2)

fmix64 is the standard 64-bit avalanche finalizer (xor-shift / multiply).
The integer hashes are exact on every platform; the floating-point tail
uses numpy's log, sqrt and cos, so the bitstream is fixed for a given
numpy build. Linear algebra lives in ``dgff.linalg`` on LAPACK.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_SPLIT = 0xD6E8FEB86659FD93
_FM1 = 0xFF51AFD7ED558CCD
_FM2 = 0xC4CEB9FE1A85EC53
_MASK = (1 << 64) - 1
_TWO_NEG53 = 2.0 ** -53
_CHUNK = 1 << 16  # entries per chunk: two 512 KiB uint64 scratch arrays


def _fmix64(z: np.ndarray, tmp: np.ndarray) -> None:
    """fmix64 of uint64 array z, in place; tmp is scratch of z's shape."""
    for mult in (_FM1, _FM2):
        np.right_shift(z, np.uint64(33), out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(33), out=tmp)
    z ^= tmp


def _hash(hs: np.ndarray, counters: np.ndarray, z: np.ndarray, tmp: np.ndarray) -> None:
    """z[t, j] = fmix64(hs[j] ^ (counters[t] * SPLIT + 1)) >> 11, in place."""
    np.bitwise_xor(hs[None, :], (counters * np.uint64(_SPLIT) + np.uint64(1))[:, None], out=z)
    _fmix64(z, tmp)
    z >>= np.uint64(11)


def normal_block(seed: int, streams: np.ndarray, draw0: int, ndraws: int) -> np.ndarray:
    """Standard normals, shape (ndraws, len(streams)); row t uses draw draw0+t.

    Rows are generated in chunks of about _CHUNK entries, in place: two
    uint64 scratch arrays of one chunk each are all the memory needed
    beyond the output. Every entry depends only on its own counter, so the
    chunking does not change the values.
    """
    s = np.asarray(streams, dtype=np.uint64)
    out = np.empty((ndraws, s.shape[0]))
    rows = max(1, min(ndraws, _CHUNK // max(s.shape[0], 1)))
    z = np.empty((rows, s.shape[0]), dtype=np.uint64)
    tmp = np.empty_like(z)
    with np.errstate(over="ignore"):
        h = np.full(1, (seed & _MASK) ^ _GOLDEN, dtype=np.uint64)
        _fmix64(h, np.empty_like(h))
        hs = s * np.uint64(_GOLDEN) + np.uint64(1)
        hs ^= h
        _fmix64(hs, np.empty_like(hs))
        for r0 in range(0, ndraws, rows):
            o = out[r0:r0 + rows]
            zc, tc = z[:len(o)], tmp[:len(o)]
            c = np.uint64(2) * (np.arange(r0, r0 + len(o), dtype=np.uint64) + np.uint64(draw0))
            _hash(hs, c, zc, tc)
            np.add(zc, 1.0, out=o)               # u1 in (0, 1], then sqrt(-2 ln u1)
            o *= _TWO_NEG53
            np.log(o, out=o)
            o *= -2.0
            np.sqrt(o, out=o)
            _hash(hs, c + np.uint64(1), zc, tc)
            u2 = tc.view(np.float64)             # tc is free again: reuse as u2
            np.copyto(u2, zc, casting="unsafe")
            u2 *= _TWO_NEG53
            u2 *= 2.0 * math.pi
            np.cos(u2, out=u2)
            o *= u2
    return out
