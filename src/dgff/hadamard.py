"""The layer-by-layer growth operator and the variational identities behind it.

Per layer n the boundary Green matrix gets a canonical symmetric positive
definite square root R_n. Extending R_n harmonically into the cluster gives
the kernel K_n = P_n R_n (rows over the cluster, columns over the layer);
stacking the kernels column-by-column yields the growth operator Q_n, whose
column for a vertex y of layer m is K_m(., y) zero-extended. In layer-major vertex order
Q_n is block upper triangular with the R_m blocks on the diagonal.

Two matrix identities make Q_n useful:

* Q_n Q_n^T equals the normalized Green matrix of the cluster, and
* the columns of Q_n are orthonormal in the Dirichlet inner product,
  so Q_n maps white noise to a field with Green covariance.

Both hold one layer at a time. The discrete Hadamard variational formula
G_n - (G_{n-1} + 0) = K_n K_n^T is the first identity's increment; given
the layer step it is R_n R_n = B_n and K_n = P_n R_n, which
`dgff.verify.layer_identity` checks. Read on a test function f it says
that f_n^T G_n f_n = ||Q_n^* f||^2 at every level. A column supported on
cluster m has the same Dirichlet energy at every level n >= m, so the
Dirichlet Gram of Q_n is the leading block of the top level's.

`OperatorStack` memoizes the per-level operators for a foliated graph; the
commands, the sampling and the checks build on it, and it holds no check
code. It grows the cluster as the paper does, one layer at a time: level
n's Poisson kernel P_n, boundary Green B_n and its square root R_n come from
one Schur step on level n-1's layer columns P_{n-1} B_{n-1} and the new
layer's rows of the Laplacian, held once as the top cluster's padded
neighbour stencil (see `dgff.operators`). Q is held as its kernels K_m,
each read in round m of `walk`, which drops it after that round: samples
grow from them (`dgff.sampling`), the pairing checks collect Q_top^* f a
layer piece K_m^T f[:k_m] at a time, and `dgff hadamard --out` writes Q_n a
layer block at a time. G_n is assembled only for the Monte Carlo checks and
`dgff green`.
The independent side reads the edge list, not the stencil, also a layer at
a time: `dirichlet_rows` gives Q_n's edge rows and A K_m from K_m alone, and
`oracle_kernels` the Cholesky oracle W = L^{-T}, A_top = L L^T. A_top is
block tridiagonal in layer order, so L is block lower bidiagonal and each
level factors one layer-sized pivot. That pivot is the layer step's S_n
formed another way, and both are factored by `linalg.cholesky` with the same
singularity test. No k_top x k_top Laplacian is formed.
"""

from __future__ import annotations

import time
from collections.abc import Iterator

import numpy as np

from . import linalg
from .errors import NotPositiveDefiniteError
from .foliation import Foliation, GrowthCluster, cluster as make_cluster
from .graph import Graph
from .operators import GreenKernel, Stencil, green, layer_step, stencil


def _edge_ends(g: Graph, clu: GrowthCluster) -> tuple[np.ndarray, np.ndarray]:
    """Positions in the cluster's order of both ends of every edge, in
    `edge_list` order; clu.size stands for a vertex outside the cluster."""
    pos = np.full(g.n_vertices, clu.size)
    pos[list(clu.vertices)] = np.arange(clu.size)
    ends = pos[np.array(g.edge_list, dtype=int).reshape(-1, 2)]
    return ends[:, 0], ends[:, 1]


def dirichlet_rows(stack: OperatorStack, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield, for m = 0..n, the edge rows D_m = sqrt(c) (K_m[x] - K_m[y]) of
    Q_n's layer-m columns, K_m zero outside cluster m, and (A K_m)[:k_{m-1}],
    from the edge list and K_m alone. Sorted stably by the lower layer of
    their two ends (outside cluster n counting as n + 1), the edges that
    touch cluster m are a prefix, E_m long: block (p, m) of the Dirichlet
    Gram is D_p^T D_m[:E_p], and the first E_{m-1} rows, scattered back to
    their ends through sqrt(c), give A K_m on cluster m-1."""
    clu = stack.cluster(n)
    x, y = _edge_ends(stack.graph, clu)
    low = np.searchsorted(clu.layer_start, np.minimum(x, y), side="right") - 1
    order = np.argsort(low, kind="stable")
    x, y, root = x[order], y[order], np.sqrt(stack.graph.conductances[order])
    stops = np.searchsorted(low[order], np.arange(-1, n + 1), side="right")
    for m in range(n + 1):
        e = stops[m + 1]
        yield _edge_rows(stack.kernel(m), x[:e], y[:e], root[:e], stops[m], clu.layer_start[m])


def _edge_rows(k: np.ndarray, x: np.ndarray, y: np.ndarray, root: np.ndarray,
               inner: int, below: int) -> tuple[np.ndarray, np.ndarray]:
    """D = sqrt(c) (k[x] - k[y]), and its first `inner` rows scattered."""
    pad = np.vstack((k, np.zeros_like(k[:1])))  # its last row: outside the cluster
    d = pad[np.minimum(x, len(k))]
    d -= pad[np.minimum(y, len(k))]
    d *= root[:, None]
    w = d[:inner] * root[:inner, None]
    ak = np.zeros((below + 1, k.shape[1]))  # its last row: outside cluster m-1
    np.add.at(ak, np.minimum(x[:inner], below), w)
    np.subtract.at(ak, np.minimum(y[:inner], below), w)
    return d, ak[:below]


def oracle_kernels(graph: Graph, top: GrowthCluster) -> Iterator[np.ndarray]:
    """Yield the layer columns W[:k_n, L_n], n = 0..N, of the oracle
    W = L^{-T}, A_top = L L^T, read from the edge list: W_n = W[:k_n, :k_n]
    has W_n W_n^T = G_n (Rue & Held 2005, sec. 2.4). Level n scatters
    A[L_n, L_{n-1} u L_n] in edge order; C_n = A_{n,n-1} W_{n-1,n-1},
    L_nn L_nn^T = A_nn - C_n C_n^T and W_nn = L_nn^{-T} give the column
    [-(W[:k_{n-1}, L_{n-1}] C_n^T) W_nn; W_nn]. NotPD names the layer whose
    pivot fails to factor or is numerically singular, L_nn[i, i]^2 <=
    eps A_nn[i, i] (`linalg.cholesky`'s test)."""
    (x, y), c = _edge_ends(graph, top), graph.conductances
    i, j, v = (np.concatenate(t) for t in ((x, y, x, y), (x, y, y, x), (c, c, -c, -c)))
    order = np.argsort(i, kind="stable")  # by row; an entry's summands keep their order
    i, j, v, cuts = i[order], j[order], v[order], np.searchsorted(i[order], top.layer_start)
    w = np.zeros((0, 0))
    for n in range(top.n + 1):
        lo, s, hi = top.layer_start[max(n - 1, 0)], top.layer_start[n], top.layer_start[n + 1]
        row, col, val = (t[cuts[n]: cuts[n + 1]] for t in (i, j, v))
        keep = (lo <= col) & (col < hi)  # A[L_n, L_{n-1} u L_n]
        a = np.bincount((row[keep] - s) * (hi - lo) + col[keep] - lo, val[keep],
                        minlength=(hi - s) * (hi - lo)).reshape(hi - s, hi - lo)
        a_nn, c_n = a[:, s - lo:], a[:, : s - lo] @ w[len(w) - (s - lo):]
        try:
            low = linalg.cholesky(linalg.symmetrize(a_nn - c_n @ c_n.T), np.diag(a_nn))
        except NotPositiveDefiniteError:
            raise NotPositiveDefiniteError(
                f"oracle pivot on layer {n} is numerically singular") from None
        w_nn = np.linalg.inv(low.T)  # triangular: no row swaps, W_nn stays exactly triangular
        w = np.vstack((-(w @ c_n.T) @ w_nn, w_nn))
        yield w


class OperatorStack:
    """Memoized per-level operator family for a foliated graph.

    Levels are computed on first use: a level that cannot be built (a
    cluster component sealed off from the exterior) fails only the checks
    that read it, after the levels below it were checked, and an operator
    placed in the cache (a negative control) is read as it stands. Asking for level n builds the missing levels below
    it first, since each layer step reads the previous one and each Green
    kernel is grown from the previous one; a cached level n-1 is grown from
    directly. `build_seconds` adds up the wall time spent building
    operators.

    Every operator but the dense Green matrix is at most k_n x |L_n|, and
    none of them reads a Green kernel: the layer steps (P_n, B_n, R_n) are
    cached under ("step", n), and `poisson`, `boundary_green` and
    `layer_sqrt` return their parts. Q_n is kept as its kernels only.
    `walk` alone drops cached levels: a caller that reads level m in its
    round m holds two layer steps (and Green levels), all that level m
    reads, and one kernel, so the memory is O(k_top |L_top|), or O(k_top^2)
    with Green levels, not sum_n k_n^2. A dropped level asked for again is
    rebuilt, bit for bit, from the lowest level still cached.
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

    def _step(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Level n's layer step (P_n, B_n, R_n), from level n-1's layer
        columns G_{n-1}[:, L_{n-1}] = P_{n-1} B_{n-1}, formed afresh and not
        kept."""
        return self._memo_upward("step", n, lambda m: layer_step(
            self.cluster(m), self.stencil(m),
            self.poisson(m - 1) @ self.boundary_green(m - 1) if m else None))

    def green(self, n: int) -> GreenKernel:
        """Green kernel of cluster n, assembled from G_{n-1} and the layer
        step."""
        return self._memo_upward("green", n, lambda m: green(
            self.cluster(m), self.green(m - 1) if m else None, self._step(m)))

    def walk(self, n: int) -> Iterator[int]:
        """Yield the rounds m = 0..n of a caller that reads level m in round
        m. After round m, level m-1's layer step and Green level and K_m are
        dropped, and after the last round level n's step and Green level:
        the clusters and the stencil stay cached."""
        for m in range(n + 1):
            yield m
            for key in (("step", m - 1), ("green", m - 1), ("kernel", m)):
                self._cache.pop(key, None)
        for key in (("step", n), ("green", n)):
            self._cache.pop(key, None)

    def poisson(self, n: int) -> np.ndarray:
        """Poisson kernel of cluster n and its top layer."""
        return self._step(n)[0]

    def boundary_green(self, n: int) -> np.ndarray:
        return self._step(n)[1]

    def layer_sqrt(self, n: int) -> np.ndarray:
        return self._step(n)[2]

    def kernel(self, n: int) -> np.ndarray:
        return self._memo("kernel", n, lambda: self.poisson(n) @ self.layer_sqrt(n))
