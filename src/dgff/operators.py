"""Per-cluster operators: Laplacian stencil, Green kernels, Poisson kernels
and the boundary Green restriction.

For a growth cluster U the Laplacian matrix has diag(x) = pi(x) and
off-diagonal -c(x, y) on cluster-internal edges; it is positive definite
whenever every component of U touches the complement. The normalized Green
matrix is its inverse, exactly symmetric; the unnormalized kernel is
G(x, y) = Gn(x, y) pi(y). The Poisson kernel of (U, W) extends data on W
harmonically into U with zero values outside U. The package holds the
Laplacian one way only, as a `Stencil` of padded neighbour rows read from
the graph's edges: products with it cost (deg + 1) k per column instead of
k^2, and the build gathers from it just the rows of the new layer.

Cluster n is cluster n-1 plus one layer, and the operators are built that
way. In layer-major order the Laplacian is A_n = [[A_{n-1}, U], [V, D]],
where D is the new layer's block and U, V couple it to the old cluster
(by locality, only through layer n-1). With X = G_{n-1} U and
Y = V G_{n-1}, the block-inverse (Schur complement) identity gives

    B_n = (D - V X)^-1                     boundary Green of the layer,
    G_n = [[G_{n-1} + X B_n Y, -X B_n], [-B_n Y, B_n]],

and the Poisson kernel's interior block is -X. Only a layer-sized matrix
is factorized per level; positive definiteness of A_n follows from that of
A_{n-1} and of the Schur complement, which a Cholesky factor certifies.
G_n is assembled in place, in one array: the rank-|L_n| update X B_n Y is
multiplied straight into its leading block and symmetrized there one tile
pair at a time, G_{n-1} is added to it, and the layer blocks are copied
in. Beyond G_{n-1} and G_n a step holds only k_n x |L_n| blocks and one
tile, and its bits are those of the block assembly.
Without the previous level the whole cluster is the new layer: the same
code is then the recursion's base step, the inverse of the whole cluster
Laplacian, which `dgff green` and `dgff poisson` use for a single level.

A tampered (direction-dependent) conductance table yields an asymmetric
Laplacian; the Green inverse then falls back to a general LU inverse of the
Schur complement, so the inverse identity still holds while the
reversibility identity pi(x) G(x, y) = pi(y) G(y, x) fails, which is exactly
what the verification ladder's negative controls rely on. Because the build
and the checks that multiply by A read the same stencil, a wrong stencil
entry is seen by the checks that read the graph's edge list instead
(`isometry`), not by `green_inverse`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotPositiveDefiniteError
from .foliation import GrowthCluster
from .graph import Graph


@dataclass(frozen=True)
class Stencil:
    """A cluster Laplacian stored as padded neighbour rows.

    Row i of A holds `val[i, j]` in column `idx[i, j]`: the diagonal first,
    then the in-cluster neighbours; a padding slot points at row i with
    value 0. `val_t` holds the rows of A^T on the same pattern (adjacency
    is symmetric), which differ from `val` only for a tampered,
    direction-dependent conductance. A product A X costs (deg + 1) k m for
    an m-column X instead of the dense k^2 m.
    """

    idx: np.ndarray
    val: np.ndarray
    val_t: np.ndarray

    @property
    def size(self) -> int:
        return self.idx.shape[0]

    @property
    def symmetric(self) -> bool:
        """True when the Laplacian is exactly symmetric."""
        return bool(np.array_equal(self.val, self.val_t))

    def leading(self, k: int) -> "Stencil":
        """Stencil of the leading k x k block: the first k rows, with the
        neighbours at positions >= k masked out."""
        idx = self.idx[:k]
        outside = idx >= k
        return Stencil(idx=np.where(outside, np.arange(k)[:, None], idx),
                       val=np.where(outside, 0.0, self.val[:k]),
                       val_t=np.where(outside, 0.0, self.val_t[:k]))

    def products(self, x: np.ndarray, rows: int | None = None,
                 transpose: bool = False):
        """Yield the rows of A X (A^T X with `transpose`), up to `rows`, as
        (start, chunk) pairs: row i is sum_j val[i, j] X[idx[i, j]], taken
        over row chunks as a batched (1 x w)(w x m) product so that each
        chunk's gather stays in cache."""
        idx = self.idx[:rows]
        val = (self.val_t if transpose else self.val)[:rows, None, :]
        for r in linalg.row_blocks(idx.shape[0], idx.shape[1] * x.shape[1]):
            yield r.start, (val[r] @ x[idx[r]])[:, 0]

    def apply(self, x: np.ndarray, rows: int | None = None,
              transpose: bool = False) -> np.ndarray:
        """A X (A^T X with `transpose`) for the first `rows` rows, gathered
        from `products`."""
        out = np.empty((self.idx[:rows].shape[0], x.shape[1]))
        for r, chunk in self.products(x, rows, transpose):
            out[r:r + len(chunk)] = chunk
        return out

    def dense(self, lo: int, hi: int, transpose: bool = False) -> np.ndarray:
        """Rows lo:hi of A (of A^T with `transpose`) as a dense block over
        columns :hi; entries in columns >= hi are left out."""
        idx = self.idx[lo:hi]
        val = (self.val_t if transpose else self.val)[lo:hi]
        i, j = np.nonzero(idx < hi)
        out = np.zeros((hi - lo, hi))
        # accumulated, not assigned: a padding slot repeats the diagonal's
        # column with value 0, and must not overwrite the diagonal
        np.add.at(out, (i, idx[i, j]), val[i, j])
        return out


def stencil(g: Graph, clu: GrowthCluster) -> Stencil:
    """The cluster Laplacian as a `Stencil`, read from the graph's
    adjacency and conductances."""
    rows = [[(li, g.pi[vi], g.pi[vi])]
            + [(clu.local[vj], -g.cond[(vi, vj)], -g.cond[(vj, vi)])
               for vj in g.adj[vi] if vj in clu.local]
            for li, vi in enumerate(clu.vertices)]
    width = max((len(row) for row in rows), default=1)
    idx = np.tile(np.arange(clu.size)[:, None], (1, width))
    val = np.zeros((clu.size, width))
    val_t = np.zeros((clu.size, width))
    for i, row in enumerate(rows):
        idx[i, :len(row)], val[i, :len(row)], val_t[i, :len(row)] = zip(*row)
    return Stencil(idx=idx, val=val, val_t=val_t)


@dataclass(frozen=True)
class GreenKernel:
    cluster: GrowthCluster
    normalized: np.ndarray  # inverse Laplacian
    pi: np.ndarray          # stationary weights on the cluster

    def unnormalized_rows(self, r: slice) -> np.ndarray:
        """Rows r of the unnormalized kernel G(x, y) = Gn(x, y) pi(y)."""
        return self.normalized[r] * self.pi[None, :]

    def scale(self) -> float:
        """max(max |G|, 1) for the unnormalized kernel G, the denominator of
        its relative residuals; a block of rows at a time, and NaN if G has
        a NaN."""
        peaks = [1.0]
        for r in linalg.row_blocks(self.cluster.size):
            m = self.unnormalized_rows(r)
            peaks += [m.max(), -m.min()]
        return float(np.max(peaks))


def _couple(g_prev: np.ndarray, u: np.ndarray) -> np.ndarray:
    """g_prev @ u, reading only the columns of g_prev where u has a nonzero
    row (layer n-1 when u couples layer n to cluster n-1)."""
    rows = np.flatnonzero(u.any(axis=1))
    return g_prev[:, rows] @ u[rows]


def green(g: Graph, clu: GrowthCluster, st: Stencil,
          prev: GreenKernel | None = None) -> GreenKernel:
    """Normalized Green matrix of the cluster (Laplacian inverse).

    `st` is the cluster's Laplacian stencil, of which only the rows of the
    new layer are read. With `prev`, the Green kernel of the cluster minus
    its top layer, the matrix is grown by that one layer (see the module
    docstring); without it the whole cluster is the new layer and is
    inverted at once. G_n is written block by block into one array: beyond
    G_{n-1} and G_n the step holds only layer-wide blocks.

    Raises NotPD when some cluster component is sealed off from the
    exterior, which makes the Laplacian singular.
    """
    k = 0 if prev is None else prev.cluster.size
    if st.size != clu.size:
        raise ValueError("st must be the stencil of the cluster")
    if prev is not None and prev.cluster.vertices != clu.vertices[:k]:
        raise ValueError("prev must be the Green kernel of a prefix of the cluster")
    g_prev = np.zeros((0, 0)) if prev is None else prev.normalized
    layer = st.dense(k, clu.size)
    v, d = layer[:, :k], layer[:, k:]
    u = st.dense(k, clu.size, transpose=True)[:, :k].T
    x = _couple(g_prev, u)
    try:
        if st.symmetric:
            b, y = linalg.spd_inverse(linalg.symmetrize(d - u.T @ x)), x.T
        else:
            y = v @ g_prev
            b = np.linalg.inv(d - v @ x)
    except (NotPositiveDefiniteError, np.linalg.LinAlgError):
        raise NotPositiveDefiniteError(
            f"cluster {clu.n} Laplacian is not positive definite; a component "
            "has no path to the exterior") from None
    xb = x @ b
    gn = np.empty((clu.size, clu.size))
    np.matmul(xb, y, out=gn[:k, :k])  # the rank-|L_n| update X B_n Y
    if st.symmetric:
        linalg.symmetrize(gn[:k, :k])
    gn[:k, :k] += g_prev
    gn[:k, k:] = -xb
    gn[k:, :k] = -xb.T if st.symmetric else -b @ y
    gn[k:, k:] = b
    pi = np.array([g.pi[v] for v in clu.vertices])
    return GreenKernel(cluster=clu, normalized=gn, pi=pi)


def poisson(clu: GrowthCluster, st: Stencil,
            green_prev: GreenKernel | None = None) -> np.ndarray:
    """Poisson kernel of the cluster and its top layer: rows over the
    cluster, columns over the layer; identity on the layer, harmonic
    elsewhere in the cluster, zero outside.

    At cluster 0 the layer is the whole cluster, there is no interior and
    the kernel is the identity. Any other cluster needs `green_prev`, the
    Green kernel of the cluster minus the layer: the interior block is
    -G_{n-1} U, with U the coupling read from the layer's rows of `st`,
    the cluster's Laplacian stencil.
    """
    top = clu.layer_slice(clu.n)
    k = top.start  # the interior is the prefix below the top layer
    p = np.zeros((clu.size, top.stop - k))
    p[top] = np.eye(top.stop - k)
    if k:
        if green_prev is None or green_prev.cluster.vertices != clu.vertices[:k]:
            raise ValueError("green_prev must be the Green kernel of the cluster minus the layer")
        u = st.dense(k, clu.size, transpose=True)[:, :k].T
        p[:k] = _couple(green_prev.normalized, -u)
    return p


def boundary_green(kern: GreenKernel) -> np.ndarray:
    """Green matrix restricted to the cluster's top layer, as a copy that
    does not keep the k_n x k_n matrix alive; positive definite by theory.

    For a reversible graph the Green matrix is exactly symmetric, so the
    restriction is too, and a Cholesky factor certifies it positive
    definite. A tampered (asymmetric) Green matrix skips the check.
    """
    top = kern.cluster.layer_slice(kern.cluster.n)
    bg = kern.normalized[top, top].copy()
    if np.array_equal(bg, bg.T):
        try:
            linalg.cholesky(bg)
        except NotPositiveDefiniteError:
            raise NotPositiveDefiniteError(
                f"boundary Green on layer of cluster {kern.cluster.n} is not "
                "positive definite") from None
    return bg


def verify_green_variation(green_n: GreenKernel, green_prev: GreenKernel,
                           poisson_n: np.ndarray) -> float:
    """Max-abs residual of the one-layer Green update on cluster n:

        G_n(x, y) - G_{n-1}(x, y) = sum over top-layer xi of
                                    P_n(x, xi) G_n(xi, y)

    with G_{n-1} zero-extended; `poisson_n` is the Poisson kernel of
    cluster n and its top layer. The residual is formed and reduced a block
    of rows at a time.
    """
    clu = green_n.cluster
    k_prev = green_prev.cluster.size
    top = green_n.unnormalized_rows(clu.layer_slice(clu.n))
    worst = []
    for r in linalg.row_blocks(clu.size):
        d = poisson_n[r] @ top  # the residual's negative, in place
        d -= green_n.unnormalized_rows(r)
        below = green_prev.unnormalized_rows(r)  # the rows of r under k_prev
        d[: below.shape[0], :k_prev] += below
        worst.append((d.max(), -d.min()))
    return abs(float(np.max(worst)))
