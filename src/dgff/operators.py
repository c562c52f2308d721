"""Per-cluster operators: Laplacian stencil, the layer step (Poisson kernel
and boundary Green) and Green kernels.

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
way. In layer-major order the Laplacian is A_n = [[A_{n-1}, U], [U^T, D]],
where D is the new layer's block and U couples it to the old cluster (by
locality, only through layer n-1). With X = G_{n-1} U, the block-inverse
(Schur complement) identity gives

    B_n = (D - U^T X)^-1                   boundary Green of the layer,
    P_n = [-X; I]                          Poisson kernel of the layer,
    G_n = [[G_{n-1} + X B_n X^T, -X B_n], [-B_n X^T, B_n]].

This is the recursive Green's function method (Lake, Klimeck, Bowen &
Jovanovic 1997). U is nonzero only on the rows of L_{n-1}, so `layer_step`
makes (P_n, B_n) from level n-1's layer columns
G_{n-1}[:, L_{n-1}] = P_{n-1} B_{n-1} alone: the kernels, and the samples,
need no dense G_n. Only layer-sized matrices are factorized, each once per
level: the Schur pivot S_n = D - U^T X by a Cholesky factor whose pivot test
(`linalg.cholesky`, shared with the oracle) certifies A_n positive definite
and not singular to working precision, and B_n by the eigendecomposition
that gives its square root R_n and certifies it in turn.
`green` assembles G_n, the target of the Monte Carlo checks and the
output of `dgff green`, from G_{n-1} and the step in one array: the update
(-X B_n)(-X)^T is multiplied straight into its leading block and
symmetrized there one tile pair at a time, G_{n-1} is added and the layer
blocks are copied in, holding only k_n x |L_n| blocks and one tile beyond
G_{n-1} and G_n; its bits are those of the block assembly. Without layer
columns the whole cluster is the layer: the base step (P = I, B = A^-1),
which the recursion takes at level 0 only.

Conductances are symmetric, c(x, y) = c(y, x), so every A_n is exactly
symmetric and is built one way. Both graph parsers refuse a
direction-dependent conductance; `stencil` refuses one that reached a graph
past them (NotSymmetric), so nothing is built from it. Because the build
and the checks that multiply by A read the same stencil, a wrong stencil
entry is seen by the checks that read the graph's edge list instead
(`isometry`, a level at a time, and the oracle), not by `green_inverse`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotPositiveDefiniteError, NotSymmetricError
from .foliation import GrowthCluster
from .graph import Graph

_CHUNK_ENTRIES = 1 << 16  # gathered entries per row chunk of a stencil product


@dataclass(frozen=True)
class Stencil:
    """A cluster Laplacian stored as padded neighbour rows.

    Row i of A holds `val[i, j]` in column `idx[i, j]`: the diagonal first,
    then the in-cluster neighbours; a padding slot points at row i with
    value 0. A is exactly symmetric (`stencil` refuses anything else), so
    the rows are also those of A^T. A product A X costs (deg + 1) k m for
    an m-column X instead of the dense k^2 m.
    """

    idx: np.ndarray
    val: np.ndarray

    @property
    def size(self) -> int:
        return self.idx.shape[0]

    def leading(self, k: int) -> "Stencil":
        """Stencil of the leading k x k block: the first k rows, with the
        neighbours at positions >= k masked out."""
        idx = self.idx[:k]
        outside = idx >= k
        return Stencil(idx=np.where(outside, np.arange(k)[:, None], idx),
                       val=np.where(outside, 0.0, self.val[:k]))

    def apply(self, x: np.ndarray, rows: int | None = None) -> np.ndarray:
        """A X for the first `rows` rows: row i is sum_j val[i, j] X[idx[i, j]],
        taken over row chunks as a batched (1 x w)(w x m) product so that
        each chunk's gather stays in cache."""
        idx = self.idx[:rows]
        val = self.val[:rows, None, :]
        out = np.empty((idx.shape[0], x.shape[1]))
        step = max(1, _CHUNK_ENTRIES // max(idx.shape[1] * x.shape[1], 1))
        for r in range(0, len(idx), step):
            out[r:r + step] = (val[r:r + step] @ x[idx[r:r + step]])[:, 0]
        return out

    def dense(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of A as a dense block over columns :hi; entries in
        columns >= hi are left out."""
        idx = self.idx[lo:hi]
        val = self.val[lo:hi]
        i, j = np.nonzero(idx < hi)
        out = np.zeros((hi - lo, hi))
        # accumulated, not assigned: a padding slot repeats the diagonal's
        # column with value 0, and must not overwrite the diagonal
        np.add.at(out, (i, idx[i, j]), val[i, j])
        return out


def stencil(g: Graph, clu: GrowthCluster) -> Stencil:
    """The cluster Laplacian as a `Stencil`, read from the graph's
    adjacency and conductances. Raises NotSymmetric, naming the edge, when
    an edge at a cluster vertex has a direction-dependent conductance,
    which no graph parser lets through."""
    for vi in clu.vertices:
        for vj in g.adj[vi]:
            if g.cond[(vi, vj)] != g.cond[(vj, vi)]:
                x, y = g.vertices[vi], g.vertices[vj]
                raise NotSymmetricError(
                    f"conductance of edge ({x}, {y}) depends on its direction: "
                    f"c({x}, {y}) = {g.cond[(vi, vj)]!r}, c({y}, {x}) = {g.cond[(vj, vi)]!r}")
    local = {v: i for i, v in enumerate(clu.vertices)}
    rows = [[(li, g.pi[vi])] + [(local[vj], -g.cond[(vi, vj)]) for vj in g.adj[vi] if vj in local]
            for li, vi in enumerate(clu.vertices)]
    width = max((len(row) for row in rows), default=1)
    idx = np.tile(np.arange(clu.size)[:, None], (1, width))
    val = np.zeros((clu.size, width))
    for i, row in enumerate(rows):
        idx[i, :len(row)], val[i, :len(row)] = zip(*row)
    return Stencil(idx=idx, val=val)


@dataclass(frozen=True)
class GreenKernel:
    cluster: GrowthCluster
    normalized: np.ndarray  # inverse Laplacian


def layer_step(clu: GrowthCluster, st: Stencil,
               cols_prev: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Schur step: the Poisson kernel P_n = [-X; I], the boundary Green
    B_n = S_n^-1 with S_n = D - U^T X, and B_n's square root R_n, of the
    cluster's top layer, with X = G_{n-1} U read from `cols_prev`, the layer
    columns G_{n-1}[:, L_{n-1}] of the cluster minus its top layer. `st` is
    the cluster's Laplacian stencil. With `cols_prev` None it is the base
    step: P = I and B = A^-1.

    Each matrix is factored once, and its factorization is its test. The
    Cholesky factor of S_n, with the pivot test against diag(D), raises
    NotPD when some cluster component is sealed off from the exterior or the
    Laplacian is singular to working precision; the eigendecomposition that
    gives R_n raises NotPD unless B_n is positive definite.
    """
    if st.size != clu.size:
        raise ValueError("st must be the stencil of the cluster")
    cols = np.zeros((0, 0)) if cols_prev is None else cols_prev
    k = 0 if cols_prev is None else clu.layer_slice(clu.n).start
    if cols_prev is not None and (not clu.n or cols.shape != (k, k - clu.layer_start[clu.n - 1])):
        raise ValueError("cols_prev must be the layer columns of the cluster minus its top layer")
    layer = st.dense(k, clu.size)
    u, d = layer[:, :k].T, layer[:, k:]
    rows = np.flatnonzero(u.any(axis=1))  # within L_{n-1}, which starts at k - |L_{n-1}|
    x = cols[:, rows - (k - cols.shape[1])] @ u[rows]
    s = linalg.symmetrize(d - u.T @ x)
    try:
        linalg.cholesky(s, np.diag(d))  # the factor certifies S_n and is dropped
        # one LU inverse: numpy exposes no triangular solver, and at n = 841
        # that is faster and more accurate than two general solves
        b = linalg.symmetrize(np.linalg.inv(s))
    except (NotPositiveDefiniteError, np.linalg.LinAlgError):
        raise NotPositiveDefiniteError(
            f"cluster {clu.n} Laplacian is not positive definite; a component "
            "has no path to the exterior or it is singular to working precision") from None
    try:
        r = linalg.spd_sqrt(b)
    except NotPositiveDefiniteError:
        raise NotPositiveDefiniteError(
            f"boundary Green on layer of cluster {clu.n} is not positive definite") from None
    p = np.empty((clu.size, clu.size - k))
    np.negative(x, out=p[:k])
    p[k:] = np.eye(clu.size - k)
    return p, b, r


def green(clu: GrowthCluster, prev: GreenKernel | None,
          step: tuple[np.ndarray, np.ndarray, np.ndarray]) -> GreenKernel:
    """Normalized Green matrix of the cluster (Laplacian inverse), assembled
    in one array from `prev`, the Green kernel of the cluster minus its top
    layer (None for the base step), and `step`, the layer's (P_n, B_n, R_n)
    from `layer_step`.
    """
    k = 0 if prev is None else prev.cluster.size
    p, b, _ = step
    if prev is not None and prev.cluster.vertices != clu.vertices[:k]:
        raise ValueError("prev must be the Green kernel of a prefix of the cluster")
    if p.shape != (clu.size, clu.size - k):
        raise ValueError("step must be the layer step of the cluster over prev")
    g_prev = np.zeros((0, 0)) if prev is None else prev.normalized
    pb = p[:k] @ b  # -X B_n
    gn = np.empty((clu.size, clu.size))
    np.matmul(pb, p[:k].T, out=gn[:k, :k])  # the rank-|L_n| update (-X B_n)(-X)^T
    linalg.symmetrize(gn[:k, :k])
    gn[:k, :k] += g_prev
    gn[:k, k:] = pb
    gn[k:, :k] = pb.T
    gn[k:, k:] = b
    return GreenKernel(cluster=clu, normalized=gn)
