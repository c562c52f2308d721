"""The layer-by-layer growth operator and the variational identities behind it.

Per layer n the boundary Green matrix gets a canonical symmetric PSD square
root R_n. Extending R_n harmonically into the cluster gives the kernel
K_n = P_n R_n (rows over the cluster, columns over the layer); stacking the
kernels column-by-column yields the growth operator Q_n, whose column for a
vertex y of layer m is K_m(., y) zero-extended. In layer-major vertex order
Q_n is block upper triangular with the R_m blocks on the diagonal.

Two matrix identities make Q_n useful:

* Q_n Q_n^T equals the normalized Green matrix of the cluster, and
* the columns of Q_n are orthonormal in the Dirichlet inner product,
  so Q_n maps white noise to a field with Green covariance.

Both hold one layer at a time. The discrete Hadamard variational formula
G_n - (G_{n-1} + 0) = K_n K_n^T is the first identity's increment, which
`dgff.verify.increment_residual` checks; read on a test function f it says
that f_n^T G_n f_n = ||Q_n^* f||^2 at every level. A column supported on
cluster m has the same Dirichlet energy at every level n >= m, so the
Dirichlet Gram of Q_n is the leading block of the top level's.

`OperatorStack` memoizes the per-level operators for a foliated graph and
is the single entry point the commands, the sampling and the checks build
on; it holds no check code. It stores Q only as its kernel list K_0..K_n,
sum_m k_m |L_m| numbers: samples grow from the kernels a layer at a time
(`dgff.sampling`), and `growth_adjoint_apply` returns Q_top^* f, whose
leading k_n entries are Q_n^* f. `growth(n)` assembles a dense Q_n afresh
on each call, for `dgff hadamard` and the `isometry` rung, which reads
Q_top.
It builds the operators as the paper grows the cluster, one layer at a
time: level n's Poisson kernel P_n and boundary Green B_n come from one
Schur step on level n-1's layer columns P_{n-1} B_{n-1} and the new
layer's rows of the Laplacian, factorizing only a layer-sized matrix (see
`dgff.operators`). So the kernels, and the samples grown from them, cost
sum_n k_n |L_n| memory; the dense Green kernel G_n is assembled from
G_{n-1} and that step only when a check reads it. The Laplacian is held
once, as the top cluster's padded neighbour stencil read from the graph's
edges; level n's is its leading block. The build gathers its layer rows
from it and the checks multiply by it, while `dirichlet_gram` and
`dirichlet_matrix` read the edge list directly, so the `isometry` check and
the Cholesky oracle (`oracle_kernels`) stay independent of the stencil.
"""

from __future__ import annotations

import time

import numpy as np

from . import linalg
from .errors import FoliationError
from .foliation import Foliation, GrowthCluster, cluster as make_cluster
from .graph import Graph
from .operators import GreenKernel, Stencil, green, layer_step, stencil


def hadamard_Q(clu: GrowthCluster, kernels: list[np.ndarray]) -> np.ndarray:
    """Assemble the growth operator of cluster n from kernels K_0..K_n.

    Column y (a vertex of layer m) is K_m(., y) zero-extended to the
    cluster; the layer-major prefix ordering makes the extension a zero pad.
    """
    if len(kernels) != clu.n + 1:
        raise FoliationError(f"cluster {clu.n} needs kernels 0..{clu.n}",
                             code="IndexOutOfRange")
    q = np.zeros((clu.size, clu.size))
    for m, k_m in enumerate(kernels):
        rows = k_m.shape[0]
        q[:rows, clu.layer_slice(m)] = k_m
    return q


def _edge_ends(g: Graph, clu: GrowthCluster) -> tuple[np.ndarray, np.ndarray]:
    """Positions in the cluster's order of both ends of every edge, in
    `edge_list` order; clu.size stands for a vertex outside the cluster."""
    pos = np.full(g.n_vertices, clu.size)
    pos[list(clu.vertices)] = np.arange(clu.size)
    ends = pos[np.array(g.edge_list, dtype=int).reshape(-1, 2)]
    return ends[:, 0], ends[:, 1]


def dirichlet_gram(g: Graph, clu: GrowthCluster, q: np.ndarray) -> np.ndarray:
    """Gram matrix of Q's columns in the Dirichlet inner product.

    Computed through the edge route, independent of the Laplacian assembly:
    the Gram of the rows sqrt(c) (Q[x] - Q[y]), one per edge touching the
    cluster, in `edge_list` order, where a zero row stands for every vertex
    outside it. The rows are formed in place, one block of edges at a time.
    When one block holds every edge, the Gram is that block's own product.
    Otherwise each block adds its share of the upper triangle, a block of
    columns at a time, and the lower triangle mirrors the sum: no edge-row
    matrix of the whole cluster is formed.
    """
    li, lj = _edge_ends(g, clu)
    touch = (li < clu.size) | (lj < clu.size)
    li, lj, root = li[touch], lj[touch], np.sqrt(g.conductances[touch])
    last, width = clu.size - 1, q.shape[1]

    def edge_rows(e: slice) -> np.ndarray:
        dq = q[np.minimum(li[e], last)]
        dq[li[e] > last] = 0.0
        other = q[np.minimum(lj[e], last)]
        other[lj[e] > last] = 0.0
        dq -= other
        dq *= root[e, None]
        return dq

    blocks = list(linalg.row_blocks(len(li), width))
    if len(blocks) == 1:
        dq = edge_rows(blocks[0])
        return dq.T @ dq
    gram = np.zeros((width, width))
    for e in blocks:
        dq = edge_rows(e)
        for c in linalg.tiles(width):  # rows :c.stop, the upper triangle's
            gram[: c.stop, c] += dq[:, : c.stop].T @ dq[:, c]
    for r, c in linalg.tile_pairs(width):  # the lower triangle mirrors the upper
        if r == c:
            tile = gram[r, c]
            tile[...] = np.triu(tile) + np.triu(tile, 1).T
        else:
            gram[c, r] = gram[r, c].T
    return gram


def dirichlet_matrix(g: Graph, clu: GrowthCluster) -> np.ndarray:
    """The cluster's Laplacian A read from the edge list: the Dirichlet Gram
    of its coordinate basis, `dirichlet_gram(g, clu, I)` up to rounding,
    scattered in O(E + k^2) instead of multiplied through in E k^2.

    An edge xy of conductance c adds c to A[x, x] and A[y, y] and -c to
    A[x, y] and A[y, x]; the entries of a vertex outside the cluster land in
    a padding row and column that is dropped.
    """
    k = clu.size
    (x, y), w, c = _edge_ends(g, clu), k + 1, g.conductances
    flat = np.concatenate([x * w + x, y * w + y, x * w + y, y * w + x])
    a = np.bincount(flat, np.concatenate([c, c, -c, -c]), minlength=w * w)
    return a.reshape(w, w)[:k, :k].copy()


def oracle_kernels(graph: Graph, top: GrowthCluster) -> list[np.ndarray]:
    """Layer columns W[:k_n, L_n] of the oracle W = L^{-T}, A_top = L L^T the
    top Laplacian read from the edge list (`dirichlet_matrix`), not from
    anything the stack built. W is upper triangular and W_n = W[:k_n, :k_n]
    has W_n W_n^T = G_n (Rue & Held 2005, sec. 2.4)."""
    low = linalg.cholesky(dirichlet_matrix(graph, top))
    w = np.linalg.inv(low.T)  # no row swaps: W stays exactly triangular
    return [w[: top.layer_slice(n).stop, top.layer_slice(n)] for n in range(top.n + 1)]


def verify_isometry(gram: np.ndarray) -> float:
    """Max-abs residual of a `dirichlet_gram` matrix against the identity.

    The identity is subtracted in place and the diagonal restored after, so
    no k x k temporary is formed."""
    diag = gram.diagonal().copy()
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    try:
        return max(float(gram.max()), -float(gram.min()))
    finally:
        gram.flat[:: gram.shape[0] + 1] = diag


class OperatorStack:
    """Memoized per-level operator family for a foliated graph.

    Levels are computed on first use, so partially valid inputs (the
    tampering controls) can exercise early identities before later
    constructions fail. Asking for level n builds the missing levels below
    it first, since each layer step reads the previous one and each Green
    kernel is grown from the previous one; a cached level n-1 is grown from
    directly. `build_seconds` adds up the wall time spent building
    operators.

    Every operator but the dense Green matrix is at most k_n x |L_n|, and
    none of them reads a Green kernel: the layer steps (P_n, B_n) are
    cached under ("step", n), and `poisson` and `boundary_green` return
    their parts. A checker that walks the levels upward keeps a window of
    two Green levels, G_{n-1} and G_n, all that level n's checks read, by
    releasing each level it is done with (`release_green`): the memory is
    then O(k_top^2) instead of sum_n k_n^2. A released level that is asked
    for again is rebuilt, bit for bit, from the lowest level still cached.
    """

    def __init__(self, graph: Graph, fol: Foliation):
        self.graph = graph
        self.foliation = fol
        self._cache: dict[tuple[str, int], object] = {}
        self.build_seconds = 0.0
        self._nested = 0

    @property
    def depth(self) -> int:
        return self.foliation.depth

    def _memo(self, kind: str, n: int, build):
        key = (kind, n)
        if key not in self._cache:
            start = time.perf_counter()
            self._nested += 1
            try:
                self._cache[key] = build()
            finally:
                self._nested -= 1
                if not self._nested:  # a build inside a build is counted once
                    self.build_seconds += time.perf_counter() - start
        return self._cache[key]

    def _memo_upward(self, kind: str, n: int, build):
        """Memoize `build(n)` for a kind whose level n is built from level
        n-1: the missing lower levels are filled first, bottom up in a loop,
        so a deep foliation never nests one call per level. A cached level
        n is returned as it is, whatever is missing below it."""
        if (kind, n) not in self._cache:
            low = n
            while low > 0 and (kind, low - 1) not in self._cache:
                low -= 1
            for m in range(low, n):
                self._memo(kind, m, lambda: build(m))
        return self._memo(kind, n, lambda: build(n))

    def cluster(self, n: int) -> GrowthCluster:
        return self._memo("cluster", n, lambda: make_cluster(self.foliation, n))

    def stencil(self, n: int) -> Stencil:
        """Laplacian of cluster n as padded neighbour rows: the top cluster's
        stencil, built once, with the neighbours outside cluster n masked."""
        top = self._memo("stencil", self.depth,
                         lambda: stencil(self.graph, self.cluster(self.depth)))
        return top if n == self.depth else top.leading(self.cluster(n).size)

    def _step(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Level n's layer step (P_n, B_n), from level n-1's layer columns
        G_{n-1}[:, L_{n-1}] = P_{n-1} B_{n-1}, formed afresh and not kept."""
        return self._memo_upward("step", n, lambda m: layer_step(
            self.cluster(m), self.stencil(m), np.matmul(*self._step(m - 1)) if m else None))

    def green(self, n: int) -> GreenKernel:
        """Green kernel of cluster n, assembled from G_{n-1} and the layer
        step."""
        return self._memo_upward("green", n, lambda m: green(
            self.graph, self.cluster(m), self.stencil(m), self.green(m - 1) if m else None,
            self._step(m)))

    def release_green(self, n: int) -> None:
        """Drop level n's cached Green kernel, if any; the other operators
        stay cached."""
        self._cache.pop(("green", n), None)

    def poisson(self, n: int) -> np.ndarray:
        """Poisson kernel of cluster n and its top layer."""
        return self._step(n)[0]

    def boundary_green(self, n: int) -> np.ndarray:
        return self._step(n)[1]

    def layer_sqrt(self, n: int) -> np.ndarray:
        return self._memo("sqrt", n, lambda: linalg.psd_sqrt(self.boundary_green(n)))

    def kernel(self, n: int) -> np.ndarray:
        return self._memo("kernel", n, lambda: self.poisson(n) @ self.layer_sqrt(n))

    def growth(self, n: int) -> np.ndarray:
        """The growth operator Q_n, assembled from the cached kernels; the
        dense matrix itself is not kept."""
        return hadamard_Q(self.cluster(n), [self.kernel(m) for m in range(n + 1)])

    def growth_adjoint_apply(self, f: np.ndarray) -> np.ndarray:
        """Q_top^* f on the top cluster, for ambient f (restriction built in).

        Q's layer-m columns are K_m zero-extended, so the layer-m piece is
        K_m^T f[:k_m]. The pieces of level n are the first n+1 of the top
        level's: Q_n^* f is the leading k_n entries of the result.
        """
        loc = np.asarray(f, dtype=float)[np.array(self.cluster(self.depth).vertices)]
        return np.concatenate([self.kernel(m).T @ loc[: self.cluster(m).size]
                               for m in range(self.depth + 1)])
