"""Per-cluster operators: Laplacian, Green kernels, Poisson kernels and the
boundary Green restriction.

For a growth cluster U the Laplacian matrix has diag(x) = pi(x) and
off-diagonal -c(x, y) on cluster-internal edges; it is positive definite
whenever every component of U touches the complement. The normalized Green
matrix is its inverse, exactly symmetric; the unnormalized kernel is
G(x, y) = Gn(x, y) pi(y). The Poisson kernel of (U, W) extends data on W
harmonically into U with zero values outside U. A `Stencil` holds the same
Laplacian as padded neighbour rows, for products that cost (deg + 1) k per
column instead of k^2.

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
Without the previous level the whole cluster is the new layer, and the
same code is the dense inverse, which the tests use as the reference.

A tampered (direction-dependent) conductance table yields an asymmetric
Laplacian; the Green inverse then falls back to a general LU inverse of the
Schur complement, so the inverse identity still holds while the
reversibility identity pi(x) G(x, y) = pi(y) G(y, x) fails, which is exactly
what the verification ladder's negative controls rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotPositiveDefiniteError
from .foliation import GrowthCluster
from .graph import Graph


def laplacian(g: Graph, clu: GrowthCluster) -> np.ndarray:
    """Cluster Laplacian in the cluster's vertex order."""
    k = clu.size
    a = np.zeros((k, k))
    for li, vi in enumerate(clu.vertices):
        a[li, li] = g.pi[vi]
        for vj in g.adj[vi]:
            lj = clu.local.get(vj)
            if lj is not None:
                a[li, lj] = -g.cond[(vi, vj)]
    return a


_GATHER_BYTES = 1 << 18


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

    def apply(self, x: np.ndarray, rows: int | None = None,
              transpose: bool = False) -> np.ndarray:
        """A X (A^T X with `transpose`) for the first `rows` rows: row i is
        sum_j val[i, j] X[idx[i, j]], taken over row chunks as a batched
        (1 x w)(w x m) product so that each chunk's gather stays in cache."""
        idx = self.idx[:rows]
        val = (self.val_t if transpose else self.val)[:rows, None, :]
        out = np.empty((idx.shape[0], x.shape[1]))
        step = max(1, _GATHER_BYTES // max(x[:1].nbytes * idx.shape[1], 1))
        for r in range(0, idx.shape[0], step):
            out[r:r + step] = (val[r:r + step] @ x[idx[r:r + step]])[:, 0]
        return out


def stencil(g: Graph, clu: GrowthCluster) -> Stencil:
    """The cluster Laplacian of `laplacian` as a `Stencil`, read from the
    graph's adjacency and conductances."""
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


def _is_exactly_symmetric(a: np.ndarray) -> bool:
    return bool(np.array_equal(a, a.T))


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """SPD solve by the Cholesky factor L, as L^T x = L^-1 b (the factor
    certifies positive definiteness); general LU for asymmetric input."""
    if _is_exactly_symmetric(a):
        low = linalg.cholesky(a)
        return np.linalg.solve(low.T, np.linalg.solve(low, b))
    return np.linalg.solve(a, b)


@dataclass(frozen=True)
class GreenKernel:
    cluster: GrowthCluster
    normalized: np.ndarray  # inverse Laplacian
    pi: np.ndarray          # stationary weights on the cluster

    @property
    def unnormalized(self) -> np.ndarray:
        """G(x, y) = Gn(x, y) pi(y)."""
        return self.normalized * self.pi[None, :]


def _couple(g_prev: np.ndarray, u: np.ndarray) -> np.ndarray:
    """g_prev @ u, reading only the columns of g_prev where u has a nonzero
    row (layer n-1 when u couples layer n to cluster n-1)."""
    rows = np.flatnonzero(u.any(axis=1))
    return g_prev[:, rows] @ u[rows]


def _symmetric_part(m: np.ndarray) -> np.ndarray:
    """(m + m^T) / 2: exactly symmetric, because float addition commutes,
    and m itself when m is exactly symmetric."""
    return (m + m.T) / 2.0


def green(g: Graph, clu: GrowthCluster, prev: GreenKernel | None = None,
          lap: np.ndarray | None = None) -> GreenKernel:
    """Normalized Green matrix of the cluster (Laplacian inverse).

    With `prev`, the Green kernel of the cluster minus its top layer, the
    matrix is grown by that one layer (see the module docstring); without
    it the whole cluster is inverted at once. `lap` is the cluster
    Laplacian, for a caller that already holds it.

    Raises NotPD when some cluster component is sealed off from the
    exterior, which makes the Laplacian singular.
    """
    a = laplacian(g, clu) if lap is None else lap
    k = 0 if prev is None else prev.cluster.size
    if prev is not None and prev.cluster.vertices != clu.vertices[:k]:
        raise ValueError("prev must be the Green kernel of a prefix of the cluster")
    g_prev = np.zeros((0, 0)) if prev is None else prev.normalized
    u, v, d = a[:k, k:], a[k:, :k], a[k:, k:]
    x = _couple(g_prev, u)
    try:
        if _is_exactly_symmetric(a):
            b = linalg.spd_inverse(_symmetric_part(d - u.T @ x))
            xb = x @ b
            gn = np.block([[g_prev + _symmetric_part(xb @ x.T), -xb], [-xb.T, b]])
        else:
            y = v @ g_prev
            b = np.linalg.inv(d - v @ x)
            xb = x @ b
            gn = np.block([[g_prev + xb @ y, -xb], [-b @ y, b]])
    except (NotPositiveDefiniteError, np.linalg.LinAlgError):
        raise NotPositiveDefiniteError(
            f"cluster {clu.n} Laplacian is not positive definite; a component "
            "has no path to the exterior") from None
    pi = np.array([g.pi[v] for v in clu.vertices])
    return GreenKernel(cluster=clu, normalized=gn, pi=pi)


def poisson(g: Graph, clu: GrowthCluster, green_prev: GreenKernel | None = None,
            lap: np.ndarray | None = None) -> np.ndarray:
    """Poisson kernel of the cluster and its top layer: rows over the
    cluster, columns over the layer; identity on the layer, harmonic
    elsewhere in the cluster, zero outside.

    At cluster 0 the layer is the whole cluster, there is no interior and
    the kernel is the identity. With `green_prev`, the Green kernel of the
    cluster minus the layer, the interior block is one product of it with
    the coupling to the layer; without it the interior system is solved
    directly. `lap` is the cluster Laplacian, for a caller that already
    holds it.
    """
    top = clu.layer_slice(clu.n)
    k = top.start  # the interior is the prefix below the top layer
    p = np.zeros((clu.size, top.stop - k))
    p[top] = np.eye(top.stop - k)
    if k:
        a = laplacian(g, clu) if lap is None else lap
        rhs = -a[:k, top]
        if green_prev is None:
            p[:k] = _solve(a[:k, :k], rhs)
        elif green_prev.cluster.vertices != clu.vertices[:k]:
            raise ValueError("green_prev must be the Green kernel of the cluster minus the layer")
        else:
            p[:k] = _couple(green_prev.normalized, rhs)
    return p


def boundary_green(kern: GreenKernel) -> np.ndarray:
    """Green matrix restricted to the cluster's top layer; positive
    definite by theory.

    For a reversible graph the Green matrix is exactly symmetric, so the
    restriction is too, and a Cholesky factor certifies it positive
    definite. A tampered (asymmetric) Green matrix skips the check.
    """
    top = kern.cluster.layer_slice(kern.cluster.n)
    bg = kern.normalized[top, top]
    if _is_exactly_symmetric(np.asarray(bg)):
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
    cluster n and its top layer.
    """
    clu = green_n.cluster
    k_prev = green_prev.cluster.size
    g_n = green_n.unnormalized
    d = poisson_n @ g_n[clu.layer_slice(clu.n), :]  # the residual's negative, in place
    d -= g_n
    d[:k_prev, :k_prev] += green_prev.unnormalized  # prefix vertex order
    return max(float(d.max()), -float(d.min()))
