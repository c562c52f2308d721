import dataclasses

import numpy as np
import pytest
from hypothesis import strategies as st

from dgff import OperatorStack
from dgff.fixtures import standard_fixture
from dgff.graph import from_edges
from dgff.sampling import green_energy

FIXTURES = ("p4", "p5", "grid5", "tree3")


@st.composite
def small_graphs(draw):
    """Random connected weighted graph: a path spine plus extra chords,
    last vertex exterior."""
    n = draw(st.integers(min_value=3, max_value=8))
    ids = [f"x{i}" for i in range(n)]
    conds = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
    edges = [(ids[i], ids[i + 1], draw(conds)) for i in range(n - 1)]
    extra = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1] - 1),
        max_size=4))
    for i, j in sorted(extra):
        edges.append((ids[i], ids[j], draw(conds)))
    return from_edges(ids, [ids[-1]], edges)


@pytest.fixture(scope="session")
def fixture_set():
    return {name: standard_fixture(name) for name in FIXTURES}


@pytest.fixture(scope="session")
def stack_set(fixture_set):
    return {name: OperatorStack(g, fol) for name, (g, fol) in fixture_set.items()}


def green_energies(stack, f):
    """f_n^T G_n f_n at every level, the Green side of `brownian_check`."""
    return [green_energy(stack.green(n), f) for n in range(stack.depth + 1)]


def layer_sweeps(stack, f):
    """P_n^* f = P_n^T f[cluster n] at every level n >= 1, the sweeps
    `sweep_average_check` reads."""
    return [stack.poisson(n).T @ f[np.array(stack.cluster(n).vertices)]
            for n in range(1, stack.depth + 1)]


def green_diagonals(stack):
    """The diagonal of G_n at every level, read by `increment_cross_zmax`."""
    return [np.diag(stack.green(n).normalized) for n in range(stack.depth + 1)]


def tamper_directed(g, u: str, v: str, c: float):
    """Set a single directed conductance, bypassing parse validation.

    The stationary weights are recomputed as out-sums so the tampered model
    is self-consistent row-wise but no longer reversible.
    """
    cond = dict(g.cond)
    cond[(g.index[u], g.index[v])] = float(c)
    pi = np.zeros(g.n_vertices)
    for i, nbrs in enumerate(g.adj):
        pi[i] = sum(cond[(i, j)] for j in nbrs)
    return dataclasses.replace(g, cond=cond, pi=pi)


def gram_from_rows(clu, rows):
    """The whole Dirichlet Gram of cluster `clu`'s growth operator from the
    edge rows D_m of its layers, as `dirichlet_rows` yields them: block
    (p, m), p <= m, is D_p^T D_m[:E_p], as `dgff hadamard --out` writes it."""
    gram = np.full((clu.size, clu.size), np.nan)
    for m, d in enumerate(rows):
        for p in range(m + 1):
            b = rows[p].T @ d[: len(rows[p])]
            gram[clu.layer_slice(p), clu.layer_slice(m)] = b
            gram[clu.layer_slice(m), clu.layer_slice(p)] = b.T
    return gram
