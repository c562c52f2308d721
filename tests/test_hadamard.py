import math

import numpy as np
import pytest

from dgff import OperatorStack, bfs_foliate
from dgff import linalg
from dgff.errors import FoliationError
from dgff.fixtures import binary_tree, grid_graph, standard_fixture, weighted
from dgff.hadamard import dirichlet_rows, oracle_kernels
from dgff.sampling import brownian_check
from dgff.verify import isometry_readings

import dense_reference
from dense_reference import dirichlet_blocks, isometry_residual
from calculus_reference import dirichlet_inner
from conftest import adjoint_pieces, dense_growth, gram_from_rows, green_energies

SQ12 = math.sqrt(0.5)
SQ23 = math.sqrt(2.0 / 3.0)


@pytest.fixture(scope="module")
def p4_stack():
    g, fol = standard_fixture("p4")
    return g, OperatorStack(g, fol)


class TestLayerSqrt:
    def test_p4_levels(self, p4_stack):
        _, stack = p4_stack
        assert stack.layer_sqrt(0)[0, 0] == pytest.approx(SQ12, abs=1e-12)
        assert stack.layer_sqrt(1)[0, 0] == pytest.approx(SQ23, abs=1e-12)

    def test_diagonal_boundary_green(self):
        s = linalg.spd_sqrt(np.diag([4.0, 0.25]))
        np.testing.assert_allclose(s, np.diag([2.0, 0.5]), atol=1e-12)

    def test_square_reproduces_boundary_green(self):
        g, fol = standard_fixture("grid5")
        stack = OperatorStack(g, fol)
        for n in range(fol.depth + 1):
            bg = stack.boundary_green(n)
            r = stack.layer_sqrt(n)
            assert np.abs(r @ r - bg).max() <= 1e-10 * np.abs(bg).max()
            np.testing.assert_array_equal(r, r.T)


class TestKernel:
    def test_level_zero_kernel_is_the_square_root(self, p4_stack):
        _, stack = p4_stack
        np.testing.assert_array_equal(stack.kernel(0), stack.layer_sqrt(0))

    def test_p4_level_one_values(self, p4_stack):
        _, stack = p4_stack
        k1 = stack.kernel(1)
        assert k1[0, 0] == pytest.approx(0.5 * SQ23, abs=1e-12)  # row v1
        assert k1[1, 0] == pytest.approx(SQ23, abs=1e-12)        # row v2

    def test_restriction_to_layer_is_sqrt(self):
        g, fol = standard_fixture("grid5")
        stack = OperatorStack(g, fol)
        for n in range(fol.depth + 1):
            clu = stack.cluster(n)
            k = stack.kernel(n)
            np.testing.assert_allclose(k[clu.layer_slice(n), :], stack.layer_sqrt(n),
                                       atol=1e-13)

    def test_zero_extension_rows_exact(self, p4_stack):
        _, stack = p4_stack
        q = dense_growth(stack, 1)
        # column of the level-0 vertex has exact zeros below its cluster
        assert q[1, 0] == 0.0


class TestGrowthMatrix:
    def test_p4_matrix(self, p4_stack):
        _, stack = p4_stack
        expect = np.array([[SQ12, 0.5 * SQ23], [0.0, SQ23]])
        np.testing.assert_allclose(dense_growth(stack, 1), expect, atol=1e-12)

    def test_level_zero_equals_sqrt(self, p4_stack):
        _, stack = p4_stack
        np.testing.assert_array_equal(dense_growth(stack, 0), stack.layer_sqrt(0))

    def test_stability_columns_identical(self):
        g, fol = standard_fixture("grid5")
        stack = OperatorStack(g, fol)
        q1, q2 = dense_growth(stack, 1), dense_growth(stack, 2)
        k1 = stack.cluster(1).size
        # the shared kernels make old columns bit-identical, zero-padded
        np.testing.assert_array_equal(q2[:k1, :k1], q1)
        np.testing.assert_array_equal(q2[k1:, :k1], 0.0)

    def test_missing_kernels_rejected(self, p4_stack):
        # p4 has levels 0 and 1: level 2 has no kernels to read
        _, stack = p4_stack
        with pytest.raises(FoliationError):
            dense_growth(stack, 2)
        with pytest.raises(FoliationError):
            next(dirichlet_rows(stack, 2))

    def test_block_triangular(self):
        g, fol = standard_fixture("tree3")
        stack = OperatorStack(g, fol)
        q = dense_growth(stack, fol.depth)
        clu = stack.cluster(fol.depth)
        for m in range(fol.depth + 1):
            rows_below = clu.layer_start[m + 1]
            np.testing.assert_array_equal(q[rows_below:, clu.layer_slice(m)], 0.0)


class TestIdentity:
    def test_p4_hand_arithmetic(self, p4_stack):
        _, stack = p4_stack
        q = dense_growth(stack, 1)
        qqt = q @ q.T
        assert qqt[0, 0] == pytest.approx(0.5 + 1.0 / 6.0, abs=1e-12)
        assert qqt[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert dense_reference.increment_residual(q, q.T, stack.green(1).normalized) <= 1e-12

    def test_fixtures_within_tolerance(self):
        for name in ("p5", "grid5", "tree3"):
            g, fol = standard_fixture(name)
            stack = OperatorStack(g, fol)
            for n in range(fol.depth + 1):
                gn = stack.green(n).normalized
                q = dense_growth(stack, n)
                resid = dense_reference.increment_residual(q, q.T, gn)
                assert resid <= 1e-10 * np.abs(gn).max()


class TestIsometry:
    def test_p4_energies(self, p4_stack):
        g, stack = p4_stack
        q = dense_growth(stack, 1)
        clu = stack.cluster(1)
        cols = []
        for k in range(2):
            f = np.zeros(g.n_vertices)
            f[np.array(clu.vertices)] = q[:, k]
            cols.append(f)
        assert dirichlet_inner(g, cols[0], cols[0]) == pytest.approx(1.0, abs=1e-12)
        assert dirichlet_inner(g, cols[1], cols[1]) == pytest.approx(1.0, abs=1e-12)
        assert dirichlet_inner(g, cols[0], cols[1]) == pytest.approx(0.0, abs=1e-12)

    def test_singleton_energy(self, p4_stack):
        g, stack = p4_stack
        # the one-vertex field sqrt(1/2) * delta has energy pi * 1/2 = 1
        f = np.zeros(g.n_vertices)
        f[stack.cluster(0).vertices[0]] = dense_growth(stack, 0)[0, 0]
        assert dirichlet_inner(g, f, f) == pytest.approx(1.0, abs=1e-12)

    def test_fixtures_gram_identity(self):
        for name in ("p4", "p5", "grid5", "tree3"):
            g, fol = standard_fixture(name)
            stack = OperatorStack(g, fol)
            for n in range(fol.depth + 1):
                assert isometry_residual(dirichlet_blocks(stack, n)) <= 1e-10
                assert max(isometry_readings(stack, n)) <= 1e-10

    def test_gram_matches_edge_by_edge_reference(self):
        # reference: Q_n assembled whole, and one row sqrt(c) (Q[x] - Q[y])
        # per edge touching the cluster, in edge_list order, with Q zero
        # outside the cluster; the layer blocks of the edge rows, assembled,
        # differ from its dq^T dq by rounding only, and are the bits of the
        # pairs of layers that the Gram route (`dense_reference`) reads
        graphs = [standard_fixture(name) for name in ("p4", "p5", "grid5", "tree3", "grid13")]
        for g, fol in graphs + _weighted_graphs():
            stack = OperatorStack(g, fol)
            for n in range(fol.depth + 1):
                clu = stack.cluster(n)
                ref = dense_reference.dirichlet_gram(
                    g, clu, dense_reference.growth(clu, [stack.kernel(m) for m in range(n + 1)]))
                gram = gram_from_rows(clu, [d for d, _ in dirichlet_rows(stack, n)])
                assert np.abs(gram - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())
                for p, m, block in dirichlet_blocks(stack, n):
                    np.testing.assert_array_equal(
                        gram[clu.layer_slice(p), clu.layer_slice(m)], block)

    def test_rows_scatter_to_the_laplacian_of_each_kernel(self):
        # the second part of each level: (A K_m)[:k_{m-1}], A assembled
        # entry by entry, K_m zero outside cluster m, up to rounding
        graphs = [standard_fixture(name) for name in ("p5", "grid5", "tree3", "grid13")]
        for g, fol in graphs + _weighted_graphs():
            stack = OperatorStack(g, fol)
            for m, (_, ak) in enumerate(dirichlet_rows(stack, fol.depth)):
                clu, k = stack.cluster(m), stack.kernel(m)
                ref = (dense_reference.laplacian(g, clu) @ k)[: clu.layer_start[m]]
                assert ak.shape == ref.shape
                scale = np.abs(dense_reference.laplacian(g, clu)).max() * np.abs(k).max()
                assert np.abs(ak - ref).max(initial=0.0) <= 1e-14 * scale, m

    def test_gram_summed_over_edge_and_column_blocks(self):
        # random kernels in the stack, so no block is near 0 or I: each
        # block sums a prefix of the sorted edge rows into the columns of two
        # layers, and the assembled Gram is exactly symmetric and equals
        # dq^T dq and Q^T A Q up to rounding. Each of the three differs from
        # the exact Gram by at most about (E + k) eps (|Q|^T |A| |Q|)
        # entrywise, as |dq|^T |dq| <= |Q|^T |A| |Q|
        rng = np.random.default_rng(7)
        for g, fol in _weighted_graphs():
            stack = OperatorStack(g, fol)
            for m in range(fol.depth + 1):
                stack._cache[("kernel", m)] = rng.normal(size=stack.kernel(m).shape)
            clu = stack.cluster(fol.depth)
            q = dense_reference.growth(clu, [stack.kernel(m) for m in range(fol.depth + 1)])
            gram = gram_from_rows(clu, [d for d, _ in dirichlet_rows(stack, fol.depth)])
            np.testing.assert_array_equal(gram, gram.T)
            a = dense_reference.laplacian(g, clu)
            eps = np.finfo(float).eps
            bound = (2 * (len(g.edge_list) + clu.size) * eps
                     * (np.abs(q).T @ np.abs(a) @ np.abs(q)))
            assert (np.abs(gram - dense_reference.dirichlet_gram(g, clu, q)) <= bound).all()
            assert (np.abs(gram - q.T @ a @ q) <= bound).all()


def _weighted_graphs():
    """A 21x21 grid and a depth-8 binary tree with conductances spread over
    two decades, foliated from the centre and from the root."""
    grid = weighted(grid_graph(21), seed=5, lo=0.1, hi=10.0)
    tree = weighted(binary_tree(8), seed=6, lo=0.1, hi=10.0)
    return [(grid, bfs_foliate(grid, ["r10c10"])), (tree, bfs_foliate(tree, ["t1"]))]


class TestInjectivity:
    """Q_n is injective: Q_n f = b has a solution with a small residual,
    and only f = 0 maps to zero."""

    def test_solve_growth_residual(self):
        g, fol = standard_fixture("grid5")
        stack = OperatorStack(g, fol)
        rng = np.random.default_rng(17)
        for n in range(fol.depth + 1):
            b = rng.normal(size=stack.cluster(n).size)
            f = np.linalg.solve(dense_growth(stack, n), b)
            assert np.abs(dense_growth(stack, n) @ f - b).max() <= 1e-8 * max(1.0, np.abs(b).max())

    def test_zero_maps_to_zero_only(self):
        g, fol = standard_fixture("p5")
        stack = OperatorStack(g, fol)
        q = dense_growth(stack, fol.depth)
        f = np.linalg.solve(q, np.zeros(len(q)))
        np.testing.assert_array_equal(f, 0.0)


def test_kernel_columns_harmonic_below_their_layer():
    g, fol = standard_fixture("grid5")
    stack = OperatorStack(g, fol)
    for n in range(1, fol.depth + 1):
        a = dense_reference.laplacian(g, stack.cluster(n))
        k = stack.kernel(n)
        interior = stack.cluster(n - 1).size
        assert np.abs((a @ k)[:interior]).max() <= 1e-10 * np.abs(a).max()


def test_walk_drops_each_level_after_its_round():
    # round m may read levels m and m-1; after it, level m-1 and K_m go,
    # and after the last round level n. A walk below the top builds and
    # keeps nothing above it
    g, fol = standard_fixture("grid5")
    stack = OperatorStack(g, fol)

    def levels():
        return sorted(key for key in stack._cache if key[0] in ("kernel", "step", "green"))

    for m in stack.walk(1):
        stack.kernel(m)
        stack.green(m)
        below = [("green", m - 1), ("step", m - 1)] if m else []
        assert levels() == sorted(below + [("green", m), ("kernel", m), ("step", m)])
    assert fol.depth > 1 and levels() == []


def test_kernel_is_poisson_times_sqrt(p4_stack):
    _, stack = p4_stack
    np.testing.assert_array_equal(stack.kernel(1), stack.poisson(1) @ stack.layer_sqrt(1))


@pytest.mark.parametrize("name", ("p4", "p5", "grid5", "tree3", "grid13"))
def test_adjoint_from_kernels_matches_dense_growth(name):
    # the layer pieces K_m^T f[:k_m] give Q_top^* f; reference: the
    # assembled Q_n. The bases expand with n, so every level's coefficients,
    # and the Brownian check's pairing rows, are prefixes of the top level's.
    g, fol = standard_fixture(name)
    stack = OperatorStack(g, fol)
    f = np.random.default_rng(5).normal(size=g.n_vertices)
    top = stack.cluster(fol.depth)
    top_ref = dense_reference.growth(top, [stack.kernel(m) for m in range(fol.depth + 1)]).T \
        @ f[np.array(top.vertices)]
    rows = brownian_check(adjoint_pieces(stack, f), green_energies(stack, f)).coef
    coef = np.concatenate(adjoint_pieces(stack, f))
    assert coef.shape == (top.size,)
    for n in range(fol.depth + 1):
        clu = stack.cluster(n)
        q = dense_reference.growth(clu, [stack.kernel(m) for m in range(n + 1)])
        ref = q.T @ f[np.array(clu.vertices)]
        tol = 1e-12 * max(1.0, float(np.abs(ref).max()))
        np.testing.assert_allclose(coef[: clu.size], ref, rtol=0, atol=tol)
        np.testing.assert_allclose(ref, top_ref[: clu.size], rtol=0, atol=tol)
        np.testing.assert_allclose(rows[n, : clu.size], top_ref[: clu.size], rtol=0, atol=tol)
        np.testing.assert_array_equal(rows[n, clu.size:], 0.0)


@pytest.mark.parametrize("name", ("p4", "p5", "grid5", "tree3", "grid13-weighted"))
def test_scattered_laplacian_is_the_dirichlet_gram_of_the_identity(name):
    # the oracle's A_top, scattered from the edge list a layer at a time,
    # is factored at every level: W_n^T A_n W_n = I with A_n the Dirichlet
    # Gram of the identity, formed edge by edge, which is the Laplacian
    g, fol = standard_fixture(name.split("-")[0])
    if name.endswith("weighted"):
        g = weighted(g, seed=4, lo=0.1, hi=10.0)
    stack = OperatorStack(g, fol)
    kerns = list(oracle_kernels(g, stack.cluster(stack.depth)))
    for n in range(stack.depth + 1):
        clu = stack.cluster(n)
        ref = dense_reference.dirichlet_gram(g, clu, np.eye(clu.size))
        tol = 1e-14 * np.abs(ref).max()
        assert np.abs(ref - dense_reference.laplacian(g, clu)).max() <= tol
        w = dense_reference.growth(clu, kerns[: n + 1])
        assert np.abs(w.T @ ref @ w - np.eye(clu.size)).max() <= 1e-13
