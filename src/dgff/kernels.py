"""The counter-based standard normal generator (stream version 2).

One normal per (seed, stream id, draw index). Draws 2p and 2p+1 of a
stream are the two outputs of one Box-Muller pair, fed by two 64-bit
hashes:

  h      = fmix64(seed ^ GOLDEN)
  h_s    = fmix64(h ^ (stream * GOLDEN + 1))
  h_c    = fmix64(h_s ^ ((2*p + slot) * SPLIT + 1))   slot in {0, 1}
  u1     = ((h_c0 >> 11) + 1) * 2^-53        in (0, 1]
  u2     = (h_c1 >> 11) * 2^-53              in [0, 1)
  r      = sqrt(-2 ln u1)
  t      = tan(pi (u2 - 1/2))                 a Cauchy variate, t = tan(theta/2)
  q      = 2 / (1 + t^2)
  draw 2p   = r (q - 1)  = r (1 - t^2) / (1 + t^2) = r cos theta
  draw 2p+1 = r t q      = r 2t / (1 + t^2)        = r sin theta

with theta = 2 pi u2 - pi uniform on [-pi, pi) (Box & Muller 1958). Each
normal costs half a hash pair, half a log and sqrt, and half a tan.

fmix64 is the standard 64-bit avalanche finalizer (xor-shift / multiply).
The integer hashes are exact on every platform; the floating-point tail
uses numpy's log, sqrt and tan, so the bitstream is fixed for a given
numpy build. Stream version 1 drew one normal, sqrt(-2 ln u1) cos(2 pi u2),
per hash pair and discarded the sine. Linear algebra lives in
``dgff.linalg`` on LAPACK.
"""

from __future__ import annotations

import math

import numpy as np

STREAM_VERSION = 2
_GOLDEN = 0x9E3779B97F4A7C15
_SPLIT = 0xD6E8FEB86659FD93
_FM1 = 0xFF51AFD7ED558CCD
_FM2 = 0xC4CEB9FE1A85EC53
_MASK = (1 << 64) - 1
_TWO_NEG53 = 2.0 ** -53
_CHUNK = 1 << 16  # pairs x streams per chunk: three 512 KiB uint64 scratch arrays


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


def _box_muller(h1: np.ndarray, h2: np.ndarray, tmp: np.ndarray, cos_out: np.ndarray,
                sin_out: np.ndarray) -> None:
    """The two normals r cos theta and r sin theta of each pair of 53-bit
    hashes (h1, h2), written to `cos_out` and `sin_out`; the three uint64
    arrays of one shape are used as scratch and clobbered.

    r, t and q live in the contiguous scratch, viewed as float64; the
    outputs, strided views into a pairs buffer, are written once each, by
    one multiply.

    h2 = 0 gives t = tan(-pi/2 rounded), about -1.6e16, and h2 = 2^53 - 1
    gives t about 2.0e15: t^2 stays finite, q - 1 = -1 and t q is about 0.
    """
    r = tmp.view(np.float64)                     # u1 in (0, 1], then r = sqrt(-2 ln u1)
    np.add(h1, 1.0, out=r)
    r *= _TWO_NEG53
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t = h1.view(np.float64)                      # h1 is free again: reuse as t
    np.copyto(t, h2, casting="unsafe")
    t -= 2.0 ** 52                               # exact: pi (u2 - 1/2) scaled by 2^53
    t *= math.pi * _TWO_NEG53
    np.tan(t, out=t)
    q = h2.view(np.float64)                      # h2 is free too: q = 2 / (1 + t^2)
    np.multiply(t, t, out=q)
    q += 1.0
    np.divide(2.0, q, out=q)
    t *= q                                       # sin theta
    q -= 1.0                                     # cos theta
    np.multiply(r, t, out=sin_out)
    np.multiply(r, q, out=cos_out)


def _stream_hashes(seed: int, streams: np.ndarray) -> np.ndarray:
    """h_s of each uint64 stream id under `seed`."""
    with np.errstate(over="ignore"):
        h = np.full(1, (seed & _MASK) ^ _GOLDEN, dtype=np.uint64)
        _fmix64(h, np.empty_like(h))
        hs = streams * np.uint64(_GOLDEN) + np.uint64(1)
        hs ^= h
        _fmix64(hs, np.empty_like(hs))
    return hs


def _pairs(draw0: int, ndraws: int) -> int:
    """Number of Box-Muller pairs covering draws [draw0, draw0 + ndraws)."""
    return (draw0 + ndraws + 1) // 2 - draw0 // 2


def _scratch(npairs: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three uint64 scratch arrays of `_fill_draws`: one chunk of about
    _CHUNK hash pairs, or `npairs` rows of k if fewer."""
    rows = max(1, min(npairs, _CHUNK // max(k, 1)))
    return tuple(np.empty((rows, k), dtype=np.uint64) for _ in range(3))


def _fill_draws(hs: np.ndarray, draw0: int, ndraws: int, pairs: np.ndarray,
                h1: np.ndarray, h2: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Draws [draw0, draw0 + ndraws) of the streams hashed `hs`, made in
    caller-owned buffers and returned as an (ndraws, k) view into `pairs`.

    `pairs` holds at least `_pairs(draw0, ndraws)` rows of shape (2, k):
    row i gets draws 2(p0 + i) and 2(p0 + i) + 1, p0 = draw0 // 2. They
    are made len(h1) rows at a time in the scratch h1, h2, tmp (`_scratch`).
    Every entry depends only on its own pair's counters, so neither the
    chunking nor the buffers change the values; an odd `draw0` or end
    computes its boundary pair whole and drops the other half. numpy's
    error state is per thread, so it is set here, where a draw thread
    enters.
    """
    p0, rows = draw0 // 2, len(h1)
    npairs = _pairs(draw0, ndraws)
    with np.errstate(over="ignore"):
        for r0 in range(0, npairs, rows):
            o = pairs[r0:min(r0 + rows, npairs)]
            m = len(o)
            c = np.uint64(2) * (np.arange(r0, r0 + m, dtype=np.uint64) + np.uint64(p0))
            _hash(hs, c, h1[:m], tmp[:m])
            _hash(hs, c + np.uint64(1), h2[:m], tmp[:m])
            _box_muller(h1[:m], h2[:m], tmp[:m], o[:, 0], o[:, 1])
    return pairs[:npairs].reshape(2 * npairs, hs.shape[0])[draw0 - 2 * p0:][:ndraws]


def normal_block(seed: int, streams: np.ndarray, draw0: int, ndraws: int) -> np.ndarray:
    """Standard normals, shape (ndraws, len(streams)); row t uses draw draw0+t.

    The pairs covering the draws are generated in chunks of about _CHUNK
    hash pairs, in place: three uint64 scratch arrays of one chunk each are
    all the memory needed beyond the output (`_fill_draws`).
    """
    s = np.asarray(streams, dtype=np.uint64)
    npairs = _pairs(draw0, ndraws)
    return _fill_draws(_stream_hashes(seed, s), draw0, ndraws,
                       np.empty((npairs, 2, s.shape[0])), *_scratch(npairs, s.shape[0]))
