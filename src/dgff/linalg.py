"""Dense symmetric linear algebra on LAPACK through ``numpy.linalg`` (PSD
square root, Cholesky factorization, SPD inverse), and the block traversals
that read or symmetrize a k x k matrix without a k x k temporary.

Matrices are plain float ndarrays. Symmetry is a contract, not a wrapper
class: every matrix the package factorizes is built exactly symmetric, so
each entry point rejects a non-finite entry, then any inexact symmetry
(``exactly_symmetric``, with ``NotSymmetricError``), and hands its input to
LAPACK unchanged, neither copied nor mirrored. LAPACK failures surface as
the package's own errors (``ConvergenceError``,
``NotPositiveDefiniteError``), never as ``numpy.linalg.LinAlgError``.
Results repeat bit for bit on a fixed machine and BLAS build; across builds
they agree to rounding only.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConvergenceError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    NotSymmetricError,
)

PSD_CLAMP_REL = 1e-8
BLOCK_ENTRIES = 1 << 16  # entries per row block of a k x k pass
_TILE = 128  # side of a square tile; a tile pair's temporaries stay in cache


def row_blocks(k: int, width: int | None = None):
    """Slices of at most BLOCK_ENTRIES // width rows (width k by default)
    that cover 0..k."""
    step = max(1, BLOCK_ENTRIES // max(k if width is None else width, 1))
    return (slice(r, r + step) for r in range(0, k, step))


def tiles(k: int):
    """Slices of _TILE indices that cover 0..k: the sides of square tiles."""
    return (slice(i, i + _TILE) for i in range(0, k, _TILE))


def tile_pairs(k: int):
    """Square tiles (r, c) of a k x k matrix with c at or right of r: each
    pair of mirror tiles, [r, c] and [c, r], is met once."""
    return ((r, c) for r in tiles(k) for c in tiles(k) if c.start >= r.start)


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Set m to (m + m^T) / 2 in place, one tile pair at a time, and return
    it: exactly symmetric, because float addition commutes, and unchanged
    when m is exactly symmetric."""
    for r, c in tile_pairs(m.shape[0]):
        s = m[r, c] + m[c, r].T
        s /= 2.0
        m[r, c] = s
        m[c, r] = s.T
    return m


def exactly_symmetric(m: np.ndarray) -> bool:
    """m is square and m == m^T, compared one pair of mirror tiles at a time."""
    return (m.ndim == 2 and m.shape[0] == m.shape[1]
            and all(np.array_equal(m[r, c], m[c, r].T) for r, c in tile_pairs(m.shape[0])))


def _symmetric_input(a, not_finite: type[Exception]) -> np.ndarray:
    """a as a float array, neither copied nor mirrored. Raises `not_finite`
    on a non-finite entry (checked first: NaN != NaN), then
    NotSymmetricError unless a is exactly symmetric."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise not_finite("matrix has a non-finite entry")
    if not exactly_symmetric(a):
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NotSymmetricError("matrix must be square")
        gap = max(np.abs(a[r, c] - a[c, r].T).max() for r, c in tile_pairs(len(a)))
        raise NotSymmetricError(f"matrix is not exactly symmetric: max |a - a^T| = {gap:.3e}")
    return a


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via ``numpy.linalg.eigh`` (LAPACK ``syevd``)
    of an exactly symmetric, finite a (NotPositiveSemidefiniteError on a
    non-finite entry).

    Eigenvalues in [-PSD_CLAMP_REL * ||a||, 0) are clamped to zero; anything
    more negative raises NotPositiveSemidefiniteError.
    """
    a = _symmetric_input(a, NotPositiveSemidefiniteError)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as e:
        raise ConvergenceError(f"symmetric eigensolver failed: {e}") from None
    scale = max(np.abs(w).max(), np.finfo(float).tiny)
    if w[0] < -PSD_CLAMP_REL * scale:
        raise NotPositiveSemidefiniteError(f"eigenvalue {w[0]:.3e} below -{PSD_CLAMP_REL:.0e} * scale")
    root = np.sqrt(np.clip(w, 0.0, None))
    return symmetrize((v * root) @ v.T)


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L L^T = a (LAPACK ``potrf``), of an
    exactly symmetric a. Raises NotPositiveDefiniteError when a is not
    positive definite or has a non-finite entry."""
    a = _symmetric_input(a, NotPositiveDefiniteError)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("matrix is not positive definite") from None


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of an exactly symmetric positive definite matrix, exactly
    symmetric.

    The Cholesky factorization (`cholesky`) certifies positive definiteness.
    The inverse itself comes from one LU inverse of a: numpy exposes no
    triangular solver, and at n = 841 that is faster and more accurate than
    two general solves against the factor. A matrix that passes the
    factorization but is singular to working precision is not positive
    definite either.
    """
    a = np.asarray(a, dtype=float)
    cholesky(a)  # the factor is dropped before the inverse is formed
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("matrix is singular to working precision") from None
    return symmetrize(x)


def write_matrix_csv(fh, row_ids, col_ids, m: np.ndarray) -> None:
    """Matrix CSV: first row/column carry ids, entries at 17 significant digits."""
    fh.write("," + ",".join(col_ids) + "\n")
    for rid, row in zip(row_ids, np.atleast_2d(m)):
        fh.write(rid + "," + ",".join("%.17g" % x for x in row) + "\n")
