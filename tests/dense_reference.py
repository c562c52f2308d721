"""The dense route: a cluster's Laplacian assembled entry by entry from the
graph, its inverse, and the Poisson kernel by a Cholesky solve of the
interior system. The library builds every level from the neighbour
stencil, one layer at a time; these functions share none of that code and
are the reference it is tested against. Four more are whole-matrix forms
of what the library reads or writes a block at a time: the unnormalized
Green matrix, the one-layer Green step assembled by `np.block`, the growth
operator Q_n assembled from its kernels, and its Dirichlet Gram as the
product of its edge rows, formed one edge at a time. `dirichlet_blocks`
reads that Gram a pair of layers at a time, as the `isometry` rung did
before it read one level at a time (`verify.isometry_readings`), and
`isometry_residual` reads its blocks against the identity. `poisson_from_green`
and `boundary_green` read a layer's Poisson kernel and boundary Green out
of the dense Green matrices, as the library did before its layer step made
them directly. The last group is the dense route of the six Green rungs,
which read whole Green levels before the ladder read the layer steps:
`green_statistics` gives their statistics for the negative controls that
run through both routes."""

import numpy as np

from dgff.errors import DGFFError
from dgff.foliation import GrowthCluster
from dgff.graph import Graph
from dgff.hadamard import _edge_ends
from dgff.operators import GreenKernel, Stencil


def _positions(clu: GrowthCluster) -> dict[int, int]:
    """Vertex -> position in the cluster's order."""
    return {v: i for i, v in enumerate(clu.vertices)}


def laplacian(g: Graph, clu: GrowthCluster) -> np.ndarray:
    """Cluster Laplacian in the cluster's vertex order."""
    k = clu.size
    a = np.zeros((k, k))
    local = _positions(clu)
    for li, vi in enumerate(clu.vertices):
        a[li, li] = g.pi[vi]
        for vj in g.adj[vi]:
            lj = local.get(vj)
            if lj is not None:
                a[li, lj] = -g.cond[(vi, vj)]
    return a


def green(g: Graph, clu: GrowthCluster) -> GreenKernel:
    """Green kernel of the cluster as the inverse of its whole Laplacian."""
    return GreenKernel(cluster=clu, normalized=np.linalg.inv(laplacian(g, clu)))


def poisson(g: Graph, clu: GrowthCluster) -> np.ndarray:
    """Poisson kernel of the cluster and its top layer: the identity on the
    layer and, on the interior I, the solution of A[I, I] P = -A[I, layer]
    through the Cholesky factor L, as L^T P = L^-1 (-A[I, layer])."""
    top = clu.layer_slice(clu.n)
    k = top.start
    p = np.zeros((clu.size, top.stop - k))
    p[top] = np.eye(top.stop - k)
    if k:
        a = laplacian(g, clu)
        low = np.linalg.cholesky(a[:k, :k])
        p[:k] = np.linalg.solve(low.T, np.linalg.solve(low, -a[:k, top]))
    return p


def poisson_from_green(clu: GrowthCluster, st: Stencil,
                       green_prev: GreenKernel | None = None) -> np.ndarray:
    """Poisson kernel of the cluster and its top layer with the interior
    block -G_{n-1} U, read from the whole G_{n-1} on the rows where the
    coupling U, gathered from the stencil `st`, is nonzero."""
    top = clu.layer_slice(clu.n)
    k = top.start
    p = np.zeros((clu.size, top.stop - k))
    p[top] = np.eye(top.stop - k)
    if k:
        u = st.dense(k, clu.size)[:, :k].T
        rows = np.flatnonzero(u.any(axis=1))
        p[:k] = green_prev.normalized[:, rows] @ -u[rows]
    return p


def boundary_green(kern: GreenKernel) -> np.ndarray:
    """G_n restricted to the cluster's top layer, as a copy; an exactly
    symmetric restriction is certified positive definite by numpy's Cholesky
    factor (LinAlgError otherwise)."""
    top = kern.cluster.layer_slice(kern.cluster.n)
    bg = kern.normalized[top, top].copy()
    if np.array_equal(bg, bg.T):
        np.linalg.cholesky(bg)
    return bg


def weights(g: Graph, clu: GrowthCluster) -> np.ndarray:
    """The stationary weights pi on the cluster, in its order."""
    return g.pi[np.array(clu.vertices)]


def unnormalized(g: Graph, kern: GreenKernel) -> np.ndarray:
    """The unnormalized Green matrix G(x, y) = Gn(x, y) pi(y), whole."""
    return kern.normalized * weights(g, kern.cluster)[None, :]


def growth(clu: GrowthCluster, kernels: list[np.ndarray]) -> np.ndarray:
    """The growth operator of cluster n from its kernels K_0..K_n: column y
    of layer m is K_m(., y), zero below cluster m."""
    q = np.zeros((clu.size, clu.size))
    for m, k_m in enumerate(kernels):
        q[: len(k_m), clu.layer_slice(m)] = k_m
    return q


def dirichlet_gram(g: Graph, clu: GrowthCluster, q: np.ndarray) -> np.ndarray:
    """The Gram of q's columns in the Dirichlet inner product, dq^T dq with
    one row sqrt(c) (q[x] - q[y]) per edge touching the cluster, in
    `edge_list` order, q being zero at a vertex outside the cluster."""
    zero = np.zeros(q.shape[1])
    rows = []
    local = _positions(clu)
    for (i, j), c in zip(g.edge_list, g.conductances):
        li, lj = local.get(i), local.get(j)
        if li is not None or lj is not None:
            rows.append(np.sqrt(c) * ((zero if li is None else q[li])
                                      - (zero if lj is None else q[lj])))
    dq = np.array(rows)
    return dq.T @ dq


def dirichlet_blocks(stack, n: int):
    """Gram matrix of Q_n's columns in the Dirichlet inner product, as its
    layer blocks (p, m, Q_n[:, L_p]^T A Q_n[:, L_m]) for p <= m <= n.

    Read from the edge list and the kernels. In the columns of layer m the
    edge rows are D_m = sqrt(c) (K_m[x] - K_m[y]), with a zero row for a
    vertex outside cluster m. Sorted stably by the lower layer of their two
    ends (outside cluster n counting as n + 1), the edges that touch
    cluster m are a prefix, E_m long, so block (p, m) is D_p^T D_m[:E_p].
    Every D_m read so far is kept.
    """
    clu = stack.cluster(n)
    x, y = _edge_ends(stack.graph, clu)
    low = np.searchsorted(clu.layer_start, np.minimum(x, y), side="right") - 1
    order = np.argsort(low, kind="stable")
    x, y, root = x[order], y[order], np.sqrt(stack.graph.conductances[order])
    stops = np.searchsorted(low[order], np.arange(n + 1), side="right")
    rows = []
    for m, e in enumerate(stops):
        k_m = stack.kernel(m)
        pad = np.vstack((k_m, np.zeros_like(k_m[:1])))  # its last row: outside cluster m
        d = pad[np.minimum(x[:e], len(k_m))] - pad[np.minimum(y[:e], len(k_m))]
        d *= root[:e, None]
        rows.append(d)
        for p in range(m + 1):
            yield p, m, rows[p].T @ d[: len(rows[p])]


def isometry_residual(blocks) -> float:
    """max |block - delta_pm I| over the layer blocks (p, m, block) of a
    Dirichlet Gram (`dirichlet_blocks`); np.max keeps a NaN."""
    return float(np.max([0.0] + [np.abs(b - np.eye(len(b)) if p == m else b).max()
                                 for p, m, b in blocks]))


def block_green(g: Graph, clu: GrowthCluster, st: Stencil,
                prev: GreenKernel | None = None) -> np.ndarray:
    """The one-layer step of `operators.green`, with G_n assembled by
    `np.block` from freshly allocated blocks: G_{n-1} + X B_n X^T, -X B_n,
    -B_n X^T and B_n, with B_n numpy's inverse of the Schur complement, and
    it, its input and the update each symmetrized as (m + m^T) / 2. The
    package writes the same blocks into one array, and must give the same
    bits."""
    k = 0 if prev is None else prev.cluster.size
    g_prev = np.zeros((0, 0)) if prev is None else prev.normalized
    layer = st.dense(k, clu.size)
    u, d = layer[:, :k].T, layer[:, k:]
    rows = np.flatnonzero(u.any(axis=1))
    x = g_prev[:, rows] @ u[rows]
    s = d - u.T @ x
    b = np.linalg.inv((s + s.T) / 2.0)
    b = (b + b.T) / 2.0
    xb = x @ b
    update = xb @ x.T
    return np.block([[g_prev + (update + update.T) / 2.0, -xb], [-xb.T, b]])


# The dense route of the six Green rungs, as the ladder read them before it
# read the layer steps: each reads the whole G_n (and G_{n-1}) of a stack,
# and the statistics are relative max-norm residuals, as the rungs' are.

def increment_residual(lhs: np.ndarray, rhs: np.ndarray, gn: np.ndarray,
                       prev: np.ndarray | None = None) -> float:
    """max |lhs rhs - (gn - (prev + 0))|, with prev empty by default; np.max
    keeps a NaN."""
    d = lhs @ rhs - gn
    if prev is not None:
        d[: prev.shape[0], : prev.shape[1]] += prev
    return float(np.max(np.abs(d)))


def _scale(m: np.ndarray) -> float:
    return float(np.max(np.abs(m), initial=1.0))


def inverse_residual(stack, n: int) -> float:
    """max |A G_n - I| and max |G_n A - I|, with A the stack's stencil."""
    gn = stack.green(n).normalized
    a = stack.stencil(n).dense(0, len(gn))
    eye = np.eye(len(gn))
    return float(np.max([np.abs(a @ gn - eye).max(), np.abs(gn @ a - eye).max()]))


def asymmetry(stack, n: int) -> float:
    """max |pi(x) G(x, y) - pi(y) G(y, x)| / max(|pi G|, 1), G unnormalized."""
    kern = stack.green(n)
    w = weights(stack.graph, kern.cluster)[:, None] * unnormalized(stack.graph, kern)
    return float(np.max(np.abs(w - w.T))) / _scale(w)


def positive_drop(stack, n: int) -> float:
    """The largest negative part of G_n relative to max(|G_n|, 1)."""
    gn = stack.green(n).normalized
    return float(np.max(-gn, initial=0.0)) / _scale(gn)


def monotone_drop(stack, n: int) -> float:
    """The largest negative part of G_n - (G_{n-1} + 0), unnormalized,
    relative to max(|G_n|, 1)."""
    g = stack.graph
    gn, prev = unnormalized(g, stack.green(n)), unnormalized(g, stack.green(n - 1))
    d = gn.copy()
    d[: len(prev), : len(prev)] -= prev
    return float(np.max(-d, initial=0.0)) / _scale(gn)


def variation_residual(stack, n: int) -> float:
    """The residual of G_n - (G_{n-1} + 0) = P_n G_n[L_n, :] for the
    unnormalized G, relative to max(|G_n|, 1)."""
    kern = stack.green(n)
    g = stack.graph
    gn, prev = unnormalized(g, kern), unnormalized(g, stack.green(n - 1))
    top = gn[kern.cluster.layer_slice(n)]
    return increment_residual(stack.poisson(n), top, gn, prev) / _scale(gn)


def identity_bounds(stack) -> list[float]:
    """Per level n, sum_{m <= n} |G_m - (G_{m-1} + 0) - K_m K_m^T| relative to
    max(|G_n|, 1): a bound on |Q_n Q_n^T - G_n| up to rounding."""
    total, out = 0.0, []
    for n in range(stack.depth + 1):
        gn = stack.green(n).normalized
        prev = stack.green(n - 1).normalized if n else None
        k = stack.kernel(n)
        total += increment_residual(k, k.T, gn, prev)
        out.append(total / _scale(gn))
    return out


def green_statistics(stack) -> dict[str, float]:
    """The six Green rungs' statistics by the dense route, each the largest
    over the levels it reads; NaN where a level is NaN, and a rung whose
    levels cannot be built reads inf."""
    levels = range(stack.depth + 1)
    readers = {
        "green_inverse": (inverse_residual, levels),
        "green_symmetry": (asymmetry, levels),
        "green_positive": (positive_drop, levels),
        "green_variation": (variation_residual, levels[1:]),
        "green_monotone": (monotone_drop, levels[1:]),
    }
    out = {}
    for name, (read, at) in readers.items():
        try:
            out[name] = float(np.max([read(stack, n) for n in at], initial=0.0))
        except DGFFError:
            out[name] = np.inf
    try:
        out["hadamard_identity"] = float(np.max(identity_bounds(stack)))
    except DGFFError:
        out["hadamard_identity"] = np.inf
    return out
