"""The dense route: a cluster's Laplacian assembled entry by entry from the
graph, its inverse, and the Poisson kernel by a Cholesky solve of the
interior system. The library builds every level from the neighbour
stencil, one layer at a time; these functions share none of that code and
are the reference it is tested against."""

import numpy as np

from dgff.foliation import GrowthCluster
from dgff.graph import Graph
from dgff.operators import GreenKernel


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


def green(g: Graph, clu: GrowthCluster) -> GreenKernel:
    """Green kernel of the cluster as the inverse of its whole Laplacian."""
    return GreenKernel(cluster=clu, normalized=np.linalg.inv(laplacian(g, clu)),
                       pi=np.array([g.pi[v] for v in clu.vertices]))


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
