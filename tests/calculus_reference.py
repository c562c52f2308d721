"""The discrete calculus on a weighted graph, kept as the tests' independent
reference for the Laplacian, the Dirichlet form and the stationary weights.

The coboundary operator d maps vertex functions to antisymmetric edge
fields, d f(x,y) = sqrt(c(x,y)) (f(x) - f(y)); its adjoint d* maps edge
fields back to vertex functions. The Dirichlet energy is the quadratic form
of d*d: sum over unordered edges of c (f(x) - f(y))^2. The library reads the
same form from the edge list, a layer at a time
(`dgff.hadamard.dirichlet_rows`); these functions share none of that code.
"""

from dataclasses import dataclass

import numpy as np

from dgff.graph import Graph, recompute_pi_from


def recompute_pi(g: Graph) -> np.ndarray:
    """Recompute pi from the stored edges; equals g.pi bit-for-bit."""
    return recompute_pi_from(g.adj, g.cond)


@dataclass(frozen=True)
class EdgeField:
    """Antisymmetric edge function, stored on one orientation per edge."""

    graph: Graph
    values: np.ndarray  # aligned with graph.edge_list (orientation i -> j)

    def value(self, x: int, y: int) -> float:
        """phi(x, y); antisymmetry phi(y, x) = -phi(x, y) by lookup."""
        i, j = (x, y) if x < y else (y, x)
        try:
            k = self.graph.edge_list.index((i, j))
        except ValueError:
            return 0.0
        return float(self.values[k]) if x < y else -float(self.values[k])


def coboundary(g: Graph, f: np.ndarray) -> EdgeField:
    """d f(x, y) = sqrt(c(x, y)) (f(x) - f(y)) on the stored orientation."""
    f = np.asarray(f, dtype=float)
    i = np.fromiter((e[0] for e in g.edge_list), dtype=int, count=len(g.edge_list))
    j = np.fromiter((e[1] for e in g.edge_list), dtype=int, count=len(g.edge_list))
    return EdgeField(g, np.sqrt(g.conductances) * (f[i] - f[j]))


def divergence(g: Graph, phi: EdgeField | np.ndarray) -> np.ndarray:
    """The adjoint d*: d* phi(x) = sum over edges leaving x of sqrt(c) phi."""
    vals = phi.values if isinstance(phi, EdgeField) else np.asarray(phi, dtype=float)
    out = np.zeros(g.n_vertices)
    sq = np.sqrt(g.conductances)
    for k, (i, j) in enumerate(g.edge_list):
        out[i] += sq[k] * vals[k]
        out[j] -= sq[k] * vals[k]
    return out


def dirichlet_inner(g: Graph, f: np.ndarray, h: np.ndarray, support=None) -> float:
    """Dirichlet pairing: sum over edges of c (f(x)-f(y)) (h(x)-h(y)).

    With `support` given (vertex indices), only edges touching the support
    set contribute, matching the energy on that vertex set.
    """
    f = np.asarray(f, dtype=float)
    h = np.asarray(h, dtype=float)
    total = 0.0
    if support is not None:
        support = set(support)
    for k, (i, j) in enumerate(g.edge_list):
        if support is not None and i not in support and j not in support:
            continue
        total += g.conductances[k] * (f[i] - f[j]) * (h[i] - h[j])
    return float(total)


def delta(g: Graph, vertex: str | int) -> np.ndarray:
    """Kronecker vector at a vertex (id or index)."""
    i = g.index[vertex] if isinstance(vertex, str) else int(vertex)
    out = np.zeros(g.n_vertices)
    out[i] = 1.0
    return out
