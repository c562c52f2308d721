"""Per-cluster operators: Laplacian, Green kernels, Poisson kernels and the
boundary Green restriction.

For a growth cluster U the Laplacian matrix has diag(x) = pi(x) and
off-diagonal -c(x, y) on cluster-internal edges; it is positive definite
whenever every component of U touches the complement. The normalized Green
matrix is its inverse, certified positive definite by a Cholesky factor and
exactly symmetric; the unnormalized kernel is G(x, y) = Gn(x, y) pi(y). The
Poisson kernel of (U, W) extends data on W harmonically into U with zero
values outside U; its columns solve the interior system with the conductance
coupling to the pinned vertex as right-hand side.

A tampered (direction-dependent) conductance table yields an asymmetric
Laplacian; the Green inverse then falls back to a general LU inverse so the
inverse identity still holds while the reversibility identity
pi(x) G(x, y) = pi(y) G(y, x) fails, which is exactly what the verification
ladder's negative controls rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotPositiveDefiniteError
from .foliation import Foliation, GrowthCluster, cluster as make_cluster
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


def _is_exactly_symmetric(a: np.ndarray) -> bool:
    return bool(np.array_equal(a, a.T))


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """SPD solve via Cholesky; general LU fallback for asymmetric input."""
    if _is_exactly_symmetric(a):
        return linalg.solve_spd(a, b)
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


def green(g: Graph, clu: GrowthCluster) -> GreenKernel:
    """Normalized Green matrix of the cluster (Laplacian inverse).

    Raises NotPD when some cluster component is sealed off from the
    exterior, which makes the Laplacian singular.
    """
    a = laplacian(g, clu)
    try:
        gn = linalg.spd_inverse(a) if _is_exactly_symmetric(a) else np.linalg.inv(a)
    except NotPositiveDefiniteError:
        raise NotPositiveDefiniteError(
            f"cluster {clu.n} Laplacian is not positive definite; a component "
            "has no path to the exterior") from None
    pi = np.array([g.pi[v] for v in clu.vertices])
    return GreenKernel(cluster=clu, normalized=gn, pi=pi)


def poisson(g: Graph, clu: GrowthCluster, layer) -> np.ndarray:
    """Poisson kernel of (cluster, layer): rows over the cluster, columns
    over the layer; identity on the layer, harmonic elsewhere in the
    cluster, zero outside.

    With layer == cluster there is no interior and the kernel is the
    identity.
    """
    layer = tuple(layer)
    lay_pos = [clu.local[v] for v in layer]
    interior = [p for p in range(clu.size) if p not in set(lay_pos)]
    p = np.zeros((clu.size, len(layer)))
    for col, pos in enumerate(lay_pos):
        p[pos, col] = 1.0
    if interior:
        a = laplacian(g, clu)
        a_int = a[np.ix_(interior, interior)]
        rhs = -a[np.ix_(interior, lay_pos)]
        p[interior, :] = _solve(a_int, rhs)
    return p


def boundary_green(kern: GreenKernel, layer) -> np.ndarray:
    """Green matrix restricted to a layer; positive definite by theory.

    For a reversible graph the Green matrix is exactly symmetric, so the
    restriction is too, and its smallest eigenvalue is checked. A tampered
    (asymmetric) Green matrix skips the check.
    """
    pos = [kern.cluster.local[v] for v in tuple(layer)]
    bg = kern.normalized[np.ix_(pos, pos)]
    if _is_exactly_symmetric(np.asarray(bg)):
        w, _ = linalg.jacobi_eigen(bg)
        if w[0] <= 0.0:
            raise NotPositiveDefiniteError(
                f"boundary Green on layer of cluster {kern.cluster.n} has "
                f"eigenvalue {w[0]:.3e}")
    return bg


def embed_matrix(clu: GrowthCluster, m: np.ndarray, ambient: int) -> np.ndarray:
    """Zero-extend a cluster matrix to ambient (full vertex set) indexing."""
    out = np.zeros((ambient, ambient))
    idx = np.array(clu.vertices)
    out[np.ix_(idx, idx)] = m
    return out


def embed_vector(clu: GrowthCluster, v: np.ndarray, ambient: int) -> np.ndarray:
    out = np.zeros(ambient)
    out[np.array(clu.vertices)] = v
    return out


def verify_green_variation(g: Graph, fol: Foliation, n: int,
                           green_n: GreenKernel | None = None,
                           green_prev: GreenKernel | None = None,
                           poisson_n: np.ndarray | None = None) -> float:
    """Max-abs residual of the one-layer Green update on cluster n:

        G_n(x, y) - G_{n-1}(x, y) = sum over top-layer xi of
                                    P_n(x, xi) G_n(xi, y)

    with G_{n-1} zero-extended. Pass precomputed operators to reuse them.
    """
    if n < 1:
        raise ValueError("variation needs n >= 1")
    clu = green_n.cluster if green_n is not None else make_cluster(fol, n)
    if green_n is None:
        green_n = green(g, clu)
    if green_prev is None:
        green_prev = green(g, make_cluster(fol, n - 1))
    if poisson_n is None:
        poisson_n = poisson(g, clu, clu.top_layer)
    k_prev = green_prev.cluster.size
    g_n = green_n.unnormalized
    g_prev = np.zeros_like(g_n)
    g_prev[:k_prev, :k_prev] = green_prev.unnormalized  # prefix vertex order
    rhs = poisson_n @ g_n[clu.layer_slice(n), :]
    return float(np.abs(g_n - g_prev - rhs).max())
