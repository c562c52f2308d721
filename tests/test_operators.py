import inspect
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings

from dgff import (FoliationError, NotPositiveDefiniteError, NotSymmetricError, OperatorStack,
                  bfs_foliate, cluster, parse_graph)
from dgff import linalg
from dgff.cli import main
from dgff.fixtures import grid_graph, path_graph, standard_fixture
from dgff.foliation import GrowthCluster
from dgff.graph import Graph, from_edges, graph_to_json, recompute_pi_from
from dgff.operators import green, layer_step, stencil
from dgff.verify import run_ladder

import dense_reference
from conftest import FIXTURES, small_graphs, tamper_directed


def base_green(g, clu):
    """The recursion's base step: the whole cluster inverted at once."""
    st = stencil(g, clu)
    return green(clu, None, layer_step(clu, st, None))


def variation(g, kern, prev, p):
    """The variation formula's residual |P_n G_n[L_n, :] - (G_n - (G_{n-1} + 0))|
    for unnormalized kernels."""
    gn, g_prev = dense_reference.unnormalized(g, kern), dense_reference.unnormalized(g, prev)
    top = gn[kern.cluster.layer_slice(kern.cluster.n)]
    return dense_reference.increment_residual(p, top, gn, g_prev)


def top_step(g, fol, n):
    """Cluster n's layer step from the layer columns of cluster n-1's base
    step."""
    clu = cluster(fol, n)
    if not n:
        return layer_step(clu, stencil(g, clu), None)
    inner = cluster(fol, n - 1)
    cols = base_green(g, inner).normalized[:, inner.layer_slice(n - 1)]
    return layer_step(clu, stencil(g, clu), cols)


@pytest.fixture(scope="module")
def p4_parts():
    g, fol = standard_fixture("p4")
    return g, fol, cluster(fol, 0), cluster(fol, 1)


class TestLaplacian:
    def test_p4_two_vertex_cluster(self, p4_parts):
        g, _, _, c1 = p4_parts
        np.testing.assert_array_equal(stencil(g, c1).dense(0, 2), [[2.0, -1.0], [-1.0, 2.0]])

    def test_singleton_is_pi(self, p4_parts):
        g, _, c0, _ = p4_parts
        np.testing.assert_array_equal(stencil(g, c0).dense(0, 1), [[2.0]])

    def test_cycle_without_exterior_not_pd(self):
        # constants are harmonic on the whole cycle, so the inverse must fail
        ids = [f"c{i}" for i in range(5)]
        edges = [(ids[i], ids[(i + 1) % 5], 1.0) for i in range(5)]
        g = from_edges(ids, [], edges)
        clu = GrowthCluster(n=0, vertices=tuple(range(5)), layer_start=(0, 5))
        with pytest.raises(NotPositiveDefiniteError):
            base_green(g, clu)

    @pytest.mark.parametrize("c", ["5e300", "1e300", "3e299", "7e299", "4"])
    def test_numerically_singular_cluster_is_not_pd(self, c):
        # pi(b) rounds to c(a, b), so A_1 = [[c, -c], [-c, c]] as stored is
        # exactly singular. With c = 5e300 the Schur pivot rounds to a small
        # positive number instead of zero, which only the pivot test refuses
        g = parse_graph(f"!exterior e\na b {c}\nb c 1e-300\nc e 1\n", "edgelist")
        stack = OperatorStack(g, bfs_foliate(g, ["a"]))
        with pytest.raises(NotPositiveDefiniteError, match="cluster 1 Laplacian"):
            stack.green(1)


@pytest.fixture(scope="module", params=FIXTURES + ("grid13",))
def stencil_case(request):
    g, fol = standard_fixture(request.param)
    return g, fol, OperatorStack(g, fol)


class TestStencil:
    def test_dense_rows_match_the_dense_laplacian(self, stencil_case):
        # every level's rows, the full cluster and each top layer's, bit for
        # bit; padding slots repeat the diagonal's column with value 0
        g, fol, stack = stencil_case
        for n in range(fol.depth + 1):
            clu = cluster(fol, n)
            a = dense_reference.laplacian(g, clu)
            st = stack.stencil(n)
            lo = clu.layer_slice(n).start
            np.testing.assert_array_equal(st.dense(0, clu.size), a)
            np.testing.assert_array_equal(st.dense(lo, clu.size), a[lo:])
            np.testing.assert_array_equal(stencil(g, clu).dense(0, clu.size), a)

    def test_products_match_the_dense_laplacian(self, stencil_case):
        g, fol, stack = stencil_case
        rng = np.random.default_rng(5)
        for n in range(fol.depth + 1):
            a = dense_reference.laplacian(g, cluster(fol, n))
            st = stack.stencil(n)
            assert st.size == a.shape[0]
            x = rng.normal(size=(a.shape[0], a.shape[0] + 3))
            scale = float((np.abs(a) @ np.abs(x)).max())
            assert np.abs(st.apply(x) - a @ x).max() <= 1e-15 * scale
            rows = (a.shape[0] + 1) // 2
            assert np.abs(st.apply(x, rows=rows) - (a @ x)[:rows]).max() <= 1e-15 * scale
            # A = A^T, so the rows of A Y^T are the columns of Y A
            assert np.array_equal(a, a.T)
            y = x.T
            scale = float((np.abs(y) @ np.abs(a)).max())
            assert np.abs(st.apply(y.T).T - y @ a).max() <= 1e-15 * scale


class TestGreen:
    def test_singleton_unnormalized_is_one(self, p4_parts):
        g, _, c0, _ = p4_parts
        k = base_green(g, c0)
        assert dense_reference.unnormalized(g, k)[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_p4_normalized_matrix(self, p4_parts):
        g, _, _, c1 = p4_parts
        k = base_green(g, c1)
        np.testing.assert_allclose(k.normalized, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3,
                                   atol=1e-12)
        assert dense_reference.unnormalized(g, k)[0, 1] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_inverse_identities(self, p4_parts):
        g, fol, _, _ = p4_parts
        for n in range(fol.depth + 1):
            clu = cluster(fol, n)
            a = dense_reference.laplacian(g, clu)
            gn = base_green(g, clu).normalized
            assert np.abs(a @ gn - np.eye(clu.size)).max() <= 1e-10
            assert np.abs(gn @ a - np.eye(clu.size)).max() <= 1e-10

    def test_weighted_symmetry(self):
        g = path_graph(4, conductances=[3.0, 1.0, 1.0])
        fol = bfs_foliate(g, ["v1"])
        k = base_green(g, cluster(fol, 1))
        pi = dense_reference.weights(g, k.cluster)
        weighted = pi[:, None] * dense_reference.unnormalized(g, k)
        assert np.abs(weighted - weighted.T).max() <= 1e-12 * np.abs(weighted).max()

    def test_entries_nonnegative_diagonal_positive(self):
        g, fol = standard_fixture("grid5")
        for n in range(fol.depth + 1):
            k = base_green(g, cluster(fol, n))
            assert k.normalized.min() >= -1e-14
            assert np.diag(k.normalized).min() > 0


class TestPoisson:
    def test_p4_half(self, p4_parts):
        g, fol, _, _ = p4_parts
        p = OperatorStack(g, fol).poisson(1)
        np.testing.assert_allclose(p.ravel(), [0.5, 1.0], atol=1e-14)

    def test_layer_equals_cluster_gives_identity(self, p4_parts):
        # only at cluster 0 is the top layer the whole cluster
        g = p4_parts[0]
        c0 = cluster(bfs_foliate(g, ["v1", "v2"]), 0)
        np.testing.assert_array_equal(layer_step(c0, stencil(g, c0), None)[0], np.eye(2))

    def test_grid_row_sums_at_most_one(self):
        g, fol = standard_fixture("grid5")
        stack = OperatorStack(g, fol)
        for n in range(fol.depth + 1):
            p = stack.poisson(n)
            assert p.min() >= -1e-14
            assert p.max() <= 1.0 + 1e-14
            assert p.sum(axis=1).max() <= 1.0 + 1e-12

    def test_columns_harmonic_on_interior(self):
        g, fol = standard_fixture("tree3")
        n = fol.depth
        a = dense_reference.laplacian(g, cluster(fol, n))
        p = OperatorStack(g, fol).poisson(n)
        interior = cluster(fol, n - 1).size
        assert np.abs((a @ p)[:interior]).max() <= 1e-12 * np.abs(a).max()

    def test_pinned_rows_are_kronecker(self):
        g, fol = standard_fixture("grid5")
        clu = cluster(fol, 2)
        p = OperatorStack(g, fol).poisson(2)
        np.testing.assert_array_equal(p[clu.layer_slice(2), :], np.eye(4))

    def test_interior_sealed_off_from_the_layer_is_not_pd(self):
        # a 5-cycle without exterior, and a layer vertex w that no edge
        # reaches: constants are harmonic on the interior, so the interior's
        # Green kernel, which the Poisson kernel is built from, must fail
        # (the graph is disconnected, so it is built raw, past the
        # factories' checks)
        ids = tuple(f"c{i}" for i in range(5)) + ("w",)
        edge_list = tuple(sorted((min(i, (i + 1) % 5), max(i, (i + 1) % 5)) for i in range(5)))
        cond = {e: 1.0 for i, j in edge_list for e in ((i, j), (j, i))}
        adj = tuple(tuple(sorted(j for i, j in cond if i == v)) for v in range(len(ids)))
        g = Graph(vertices=ids, exterior=frozenset(), edge_list=edge_list,
                  conductances=np.ones(len(edge_list)), cond=cond,
                  pi=recompute_pi_from(adj, cond), index={v: i for i, v in enumerate(ids)},
                  adj=adj)
        interior = GrowthCluster(n=0, vertices=tuple(range(5)), layer_start=(0, 5))
        with pytest.raises(NotPositiveDefiniteError):
            base_green(g, interior)


class TestBoundaryGreen:
    def test_p4_level_one(self, p4_parts):
        g, fol, _, _ = p4_parts
        bg = top_step(g, fol, 1)[1]
        np.testing.assert_allclose(bg, [[2.0 / 3.0]], atol=1e-12)

    def test_level_zero_is_whole_green(self, p4_parts):
        g, _, c0, _ = p4_parts
        k = base_green(g, c0)
        np.testing.assert_array_equal(layer_step(c0, stencil(g, c0), None)[1], k.normalized)

    def test_grid_eigenvalues_positive(self):
        g, fol = standard_fixture("grid5")
        for n in range(fol.depth + 1):
            bg = top_step(g, fol, n)[1]
            assert np.linalg.eigvalsh(bg)[0] > 0

    def test_exactly_symmetric_at_every_level(self):
        # exact symmetry is what makes the positive-definite check run
        g, fol = standard_fixture("grid13")
        for n in range(fol.depth + 1):
            bg = top_step(g, fol, n)[1]
            assert np.array_equal(bg, bg.T), n

    def test_indefinite_restriction_rejected(self, monkeypatch):
        # the Schur pivot passes its Cholesky test, but its inverse comes
        # back symmetric with a unit diagonal and the indefinite corner
        # [[1, 2], [2, 1]]: the square root's eigenvalues refuse it
        g, fol = standard_fixture("grid5")
        inner, clu = cluster(fol, 0), cluster(fol, 1)
        cols = base_green(g, inner).normalized[:, inner.layer_slice(0)]
        bad = np.eye(len(fol.layers[1]))
        bad[0, 1] = bad[1, 0] = 2.0
        monkeypatch.setattr(np.linalg, "inv", lambda a: bad.copy())
        with pytest.raises(NotPositiveDefiniteError, match="boundary Green"):
            layer_step(clu, stencil(g, clu), cols)

    def test_one_eigendecomposition_per_level(self, monkeypatch):
        # and one Cholesky factor: each matrix of the layer step, the Schur
        # pivot S_n and B_n, is factored once, and the ladder reuses them
        calls = {"spd_sqrt": 0, "cholesky": 0, "eigh": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(linalg, "spd_sqrt", counted("spd_sqrt", linalg.spd_sqrt))
        g, fol = standard_fixture("grid5")
        assert run_ladder(g, fol, trials=0)["pass"]
        assert calls["spd_sqrt"] == fol.depth + 1
        for name in ("cholesky", "eigh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        stack = OperatorStack(g, fol)
        for n in range(fol.depth + 1):
            stack.kernel(n)
            stack.green(n)
        assert calls["cholesky"] == calls["eigh"] == fol.depth + 1


def assert_stack_matches_dense(g, fol):
    """Every level of the one-layer build against the dense reference."""
    stack = OperatorStack(g, fol)
    for n in range(fol.depth + 1):
        clu = cluster(fol, n)
        ref = dense_reference.green(g, clu).normalized
        np.testing.assert_allclose(stack.green(n).normalized, ref, rtol=1e-12)
        p_ref = dense_reference.poisson(g, clu)
        np.testing.assert_allclose(stack.poisson(n), p_ref, rtol=1e-12)
        top = clu.layer_slice(n)
        np.testing.assert_allclose(stack.boundary_green(n), ref[top, top], rtol=1e-12)


class TestOneLayerBuild:
    @pytest.mark.parametrize("name", FIXTURES + ("grid13",))
    def test_stack_matches_dense_reference(self, name):
        assert_stack_matches_dense(*standard_fixture(name))

    @settings(deadline=None, max_examples=30)
    @given(small_graphs())
    def test_stack_matches_dense_on_random_graphs(self, g):
        try:
            fol = bfs_foliate(g, [g.vertices[0]])
        except FoliationError:
            assume(False)
        assert_stack_matches_dense(g, fol)

    def test_green_is_exactly_symmetric_at_every_level(self):
        g, fol = standard_fixture("grid13")
        stack = OperatorStack(g, fol)
        for n in range(fol.depth + 1):
            gn = stack.green(n).normalized
            assert np.array_equal(gn, gn.T), n

    @staticmethod
    def assert_refused_at_the_stencil(c):
        # past the parsers' ConflictingConductance: c(v2, v1) = c, c(v1, v2) = 1
        g, fol = standard_fixture("p4")
        tampered = tamper_directed(g, "v2", "v1", c)
        with pytest.raises(NotSymmetricError, match=r"edge \(v1, v2\)"):
            stencil(tampered, cluster(fol, 1))
        with pytest.raises(NotSymmetricError, match=r"edge \(v1, v2\)"):
            OperatorStack(tampered, fol).green(1)

    def test_direction_dependent_conductance_is_refused_at_the_stencil(self):
        self.assert_refused_at_the_stencil(2.0)

    def test_negative_reverse_conductance_is_refused_at_the_stencil(self):
        # c = -2 once made the level-1 Schur complement singular; it now
        # fails the symmetry check before any factorisation
        self.assert_refused_at_the_stencil(-2.0)

    @pytest.mark.parametrize("name", FIXTURES + ("grid13", "grid21"))
    def test_in_place_build_equals_the_block_assembly(self, name):
        # G_n is written into one array; the bits must be those of the
        # np.block assembly of fresh blocks
        if name == "grid21":
            g = grid_graph(21)
            fol = bfs_foliate(g, ["r10c10"])
        else:
            g, fol = standard_fixture(name)
        prev, cols = None, None
        for n in range(fol.depth + 1):
            clu = cluster(fol, n)
            st = stencil(g, clu)
            p, b, _ = step = layer_step(clu, st, cols)
            kern = green(clu, prev, step)
            ref = dense_reference.block_green(g, clu, st, prev)
            assert kern.normalized.tobytes() == ref.tobytes(), n
            # the step's P_n and B_n are those read out of G_{n-1} and G_n
            assert p.tobytes() == dense_reference.poisson_from_green(clu, st, prev).tobytes(), n
            assert b.tobytes() == dense_reference.boundary_green(kern).tobytes(), n
            # and the next step's layer columns P_n B_n are G_n's
            cols = p @ b
            assert cols.tobytes() == kern.normalized[:, clu.layer_slice(n)].tobytes(), n
            prev = kern
        assert np.array_equal(prev.normalized, prev.normalized.T)

    def test_one_step_allocates_one_level_and_layer_wide_blocks(self):
        # beyond its inputs, a layer step and the assembly of G_n hold G_n
        # and blocks of k_n x |L_n| (the np.block assembly held several
        # k_n x k_n temporaries, 13.7 to 27 k_n |L_n| beyond G_n on these
        # levels), plus one tile of the symmetrization
        g = grid_graph(31)
        fol = bfs_foliate(g, ["r15c15"])
        stack = OperatorStack(g, fol)
        for m in stack.walk(fol.depth - 1):  # round m reads G_m, for level n = m + 1
            n = m + 1
            prev, clu, st = stack.green(m), stack.cluster(n), stack.stencil(n)
            cols = prev.normalized[:, prev.cluster.layer_slice(m)]
            width = len(fol.layers[n])
            if width < 32:
                continue
            tracemalloc.start()
            try:
                green(clu, prev, layer_step(clu, st, cols))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 8 * (clu.size ** 2 + 8 * clu.size * width + linalg._TILE ** 2), n

    def test_factorizes_nothing_wider_than_a_layer(self, monkeypatch, tmp_path, capsys):
        shapes = []

        def recording(fn):
            def wrapper(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(linalg, "cholesky", recording(linalg.cholesky))
        monkeypatch.setattr(linalg, "spd_sqrt", recording(linalg.spd_sqrt))
        g, fol = standard_fixture("grid13")
        stack = OperatorStack(g, fol)
        for n in range(fol.depth + 1):
            stack.kernel(n)
            stack.green(n)
        # and neither does a command that prints one level's operator
        path = tmp_path / "grid13.json"
        path.write_text(json.dumps(graph_to_json(g)))
        for command in ("green", "poisson"):
            assert main([command, "--graph", str(path), "--roots", "r6c6"]) == 0
        capsys.readouterr()
        widest = max(len(layer) for layer in fol.layers)
        assert shapes and max(max(s) for s in shapes) <= widest

    def test_deep_foliation_builds_without_nesting_calls(self):
        # a path rooted next to one end has one layer per vertex; the stack
        # must reach its top level with a call depth independent of depth
        g = path_graph(202)
        fol = bfs_foliate(g, ["v1"])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            gn = OperatorStack(g, fol).green(fol.depth).normalized
        finally:
            sys.setrecursionlimit(limit)
        assert fol.depth == 199
        assert gn[0, 0] == pytest.approx(200 / 201, rel=1e-12)

    def test_prev_must_be_a_prefix(self, p4_parts):
        g, _, c0, c1 = p4_parts
        st0, st1 = stencil(g, c0), stencil(g, c1)
        with pytest.raises(ValueError):
            green(c0, base_green(g, c1), layer_step(c0, st0, None))
        with pytest.raises(ValueError):
            green(c1, base_green(g, c0), layer_step(c1, st1, None))  # not the step over prev
        with pytest.raises(ValueError):
            layer_step(c1, st0, None)  # not the cluster's stencil
        with pytest.raises(ValueError):
            layer_step(c1, st1, base_green(g, c1).normalized)  # not the cluster minus the layer
        with pytest.raises(ValueError):
            layer_step(c0, st0, np.ones((1, 1)))  # cluster 0 has no level below
        # without layer columns the whole cluster is the layer: the base step
        p, b, _ = layer_step(c1, st1, None)
        np.testing.assert_array_equal(p, np.eye(2))
        assert b.tobytes() == base_green(g, c1).normalized.tobytes()


class TestVariation:
    def test_p4_hand_identity(self, p4_parts):
        g, fol, c0, c1 = p4_parts
        g1 = dense_reference.unnormalized(g, base_green(g, c1))
        g0 = dense_reference.unnormalized(g, base_green(g, c0))
        # new minus old at (v1, v1) equals 1/3, and so does the harmonic route
        assert g1[0, 0] - g0[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        p = layer_step(c1, stencil(g, c1), base_green(g, c0).normalized)[0]
        assert p[0, 0] * g1[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert variation(g, base_green(g, c1), base_green(g, c0), p) <= 1e-12

    def test_residual_small_on_fixtures(self):
        for name in ("p5", "grid5", "tree3"):
            g, fol = standard_fixture(name)
            for n in range(1, fol.depth + 1):
                clu = cluster(fol, n)
                green_n = dense_reference.green(g, clu)
                scale = np.abs(dense_reference.unnormalized(g, green_n)).max()
                resid = variation(g, green_n, dense_reference.green(g, cluster(fol, n - 1)),
                                  dense_reference.poisson(g, clu))
                assert resid <= 1e-10 * scale

    def test_monotone_growth(self):
        g, fol = standard_fixture("grid5")
        for n in range(1, fol.depth + 1):
            gn = dense_reference.unnormalized(g, base_green(g, cluster(fol, n)))
            prev = dense_reference.unnormalized(g, base_green(g, cluster(fol, n - 1)))
            diff = gn.copy()
            diff[: prev.shape[0], : prev.shape[1]] -= prev
            assert diff.min() >= -1e-12 * np.abs(gn).max()
