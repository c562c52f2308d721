import dataclasses

import numpy as np
import pytest
from hypothesis import strategies as st

from dgff import OperatorStack
from dgff.fixtures import standard_fixture
from dgff.graph import from_edges
from dgff.sampling import green_energy, increment_cross_zmax

import dense_reference

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


def dense_growth(stack, n):
    """The growth operator Q_n, assembled whole from the stack's kernels."""
    return dense_reference.growth(stack.cluster(n), [stack.kernel(m) for m in range(n + 1)])


def adjoint_pieces(stack, f):
    """The layer pieces K_n^T f[:k_n] of Q_top^* f at every level, which
    `brownian_check` reads."""
    loc = np.asarray(f, dtype=float)[np.array(stack.cluster(stack.depth).vertices)]
    return [stack.kernel(n).T @ loc[: stack.cluster(n).size] for n in range(stack.depth + 1)]


def sweep_pieces(stack, f):
    """The pieces `sweep_average_check` reads, level by level: those of
    Q_top^* f, then those of Q_top^* s_n, s_n the sweep P_n^* f =
    P_n^T f[cluster n] placed on layer n, n >= 1."""
    vectors = [f]
    for n in range(1, stack.depth + 1):
        placed = np.zeros(stack.graph.n_vertices)
        placed[np.array(stack.cluster(n).top_layer)] = \
            stack.poisson(n).T @ f[np.array(stack.cluster(n).vertices)]
        vectors.append(placed)
    return [list(level) for level in zip(*(adjoint_pieces(stack, v) for v in vectors))]


def increment_zmax(stack, gram):
    """`increment_cross_zmax` at every level n >= 1, reduced as the ladder
    reduces the rung's yields: the largest |z| and the entries' sum."""
    kernels, variances, zs, entries = [], [], [0.0], 0
    for n in range(stack.depth + 1):
        var = np.diag(stack.green(n).normalized).copy()
        if n:
            var[: stack.cluster(n - 1).size] -= np.diag(stack.green(n - 1).normalized)
        kernels.append(stack.kernel(n))
        variances.append(var)
        if n:
            z, m = increment_cross_zmax(gram, kernels, variances)
            zs.append(z)
            entries += m
    return float(np.max(zs)), entries


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
