"""Dense symmetric positive definite factorizations on LAPACK through
``numpy.linalg`` (the square root by eigendecomposition, the Cholesky
factor), and the block traversals that read or symmetrize a k x k matrix
without a k x k temporary.

Matrices are plain float ndarrays. Symmetry is a contract, not a wrapper
class: every matrix the package factorizes is built exactly symmetric, so
each entry point rejects a non-finite entry, then any inexact symmetry
(``exactly_symmetric``, with ``NotSymmetricError``), and hands its input to
LAPACK unchanged, neither copied nor mirrored. Each factorization is also
the test of positive definiteness: a matrix that fails it, or that the
Cholesky pivot test finds singular to working precision, raises
``NotPositiveDefiniteError``; a solver failure raises ``ConvergenceError``.
Neither surfaces as ``numpy.linalg.LinAlgError``.
Results repeat bit for bit on a fixed machine and BLAS build; across builds
they agree to rounding only.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, NotPositiveDefiniteError, NotSymmetricError

_TILE = 128  # side of a square tile; a tile pair's temporaries stay in cache


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


def _symmetric_input(a) -> np.ndarray:
    """a as a float array, neither copied nor mirrored. Raises
    NotPositiveDefiniteError on a non-finite entry (checked first:
    NaN != NaN), then NotSymmetricError unless a is exactly symmetric."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise NotPositiveDefiniteError("matrix has a non-finite entry")
    if not exactly_symmetric(a):
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NotSymmetricError("matrix must be square")
        gap = max(np.abs(a[r, c] - a[c, r].T).max() for r, c in tile_pairs(len(a)))
        raise NotSymmetricError(f"matrix is not exactly symmetric: max |a - a^T| = {gap:.3e}")
    return a


def spd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric positive definite square root via ``numpy.linalg.eigh``
    (LAPACK ``syevd``) of an exactly symmetric a. The eigenvalues certify a:
    NotPositiveDefiniteError unless every one is > 0, or when a has a
    non-finite entry."""
    a = _symmetric_input(a)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as e:
        raise ConvergenceError(f"symmetric eigensolver failed: {e}") from None
    if (w <= 0).any():
        raise NotPositiveDefiniteError(f"smallest eigenvalue {w[0]:.3e} is not positive")
    return symmetrize((v * np.sqrt(w)) @ v.T)


def cholesky(a: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L L^T = a (LAPACK ``potrf``), of an
    exactly symmetric a. Raises NotPositiveDefiniteError when a is not
    positive definite, has a non-finite entry, or is singular to working
    precision: some L_ii^2 <= eps scale_i. For a Schur complement
    a = D - (...), scale is diag(D): the size of what rounding cancelled
    down to L_ii^2."""
    a = _symmetric_input(a)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("matrix is not positive definite") from None
    if (np.diag(low) ** 2 <= np.finfo(float).eps * scale).any():
        raise NotPositiveDefiniteError("matrix is singular to working precision")
    return low


def write_matrix_csv(fh, row_ids, col_ids, m: np.ndarray) -> None:
    """Matrix CSV: first row/column carry ids, entries at 17 significant digits."""
    m = np.atleast_2d(m)
    fh.write("," + ",".join(col_ids) + "\n")
    fmt = ",".join(["%.17g"] * m.shape[1])
    for rid, row in zip(row_ids, m):
        fh.write(rid + "," + fmt % tuple(row) + "\n")
