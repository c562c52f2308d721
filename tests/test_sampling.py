import dataclasses
import tracemalloc

import numpy as np
import pytest

from dgff import GaussianStream, OperatorStack, SupportViolationError, kernels
from dgff.errors import NotPositiveDefiniteError
from dgff.fixtures import grid_graph, standard_fixture, weighted
from dgff.foliation import bfs_foliate, cluster
from dgff.graph import parse_graph
from dgff.hadamard import oracle_kernels
from dgff.sampling import (
    NoiseGram,
    brownian_check,
    dgff_block,
    grown_covariances,
    moment_report,
    sweep_average_check,
    two_sample_zmax,
    wnf_block,
)

import dense_reference
from conftest import green_energies, layer_sweeps
from block_reference import (
    covariance_report,
    cross_covariance_zmax,
    known_mean_covariance,
    pairing_block,
)

TRIALS = 20_000
ZMAX = 5.0


@pytest.fixture(scope="module")
def p4_stack():
    g, fol = standard_fixture("p4")
    return g, OperatorStack(g, fol)


@pytest.fixture(scope="module")
def grid_stack():
    g, fol = standard_fixture("grid5")
    return g, OperatorStack(g, fol)


class TestStream:
    def test_same_seed_same_sample(self, p4_stack):
        g, stack = p4_stack
        dom = stack.cluster(1).vertices
        s = GaussianStream(5)
        a = wnf_block(dom, s, 1)
        b = wnf_block(dom, GaussianStream(5), 1)
        np.testing.assert_array_equal(a, b)
        assert s.seed == 5 and s.counter == 1

    def test_counter_advances(self):
        s = GaussianStream(1)
        first = s.block(np.arange(3), 2)
        assert s.counter == 2
        second = s.block(np.arange(3), 2)
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("counter", [0, 3])
    def test_reserved_layer_draws_are_the_block_columns(self, counter):
        # a draw is a pure function of (seed, stream, counter): each layer's
        # columns drawn later from a reserved range, an odd start included,
        # are bit for bit those of one block over the top cluster
        stack = OperatorStack(*standard_fixture("grid13"))
        top = stack.cluster(stack.depth)
        block = wnf_block(top.vertices, GaussianStream(9, counter), 100)
        s = GaussianStream(9, counter)
        draws = s.reserve(100)
        assert s.counter == counter + 100
        after = s.block(top.vertices, 1)
        for n in reversed(range(stack.depth + 1)):
            np.testing.assert_array_equal(draws(stack.cluster(n).top_layer),
                                          block[:, top.layer_slice(n)])
        np.testing.assert_array_equal(after, GaussianStream(9, counter + 100).block(
            top.vertices, 1))

    def test_wnf_moments(self):
        z = wnf_block(range(6), GaussianStream(99), TRIALS)
        rep = covariance_report(z, np.eye(6), 99)
        assert rep.max_abs_z <= ZMAX
        assert np.abs(z.mean(axis=0)).max() <= ZMAX / np.sqrt(TRIALS)

    def test_disjoint_substreams_independent(self):
        # same seed, disjoint vertex sets: cross-covariance consistent with 0
        s1 = GaussianStream(7)
        s2 = GaussianStream(7)
        a = wnf_block(range(0, 5), s1, TRIALS)
        b = wnf_block(range(5, 10), s2, TRIALS)
        assert cross_covariance_zmax(a, b, np.ones(5), np.ones(5)) <= ZMAX

    def test_basis_choice_does_not_change_law(self):
        # a deterministic random orthogonal basis: QR with positive diagonal
        q, r = np.linalg.qr(kernels.normal_block(31, np.arange(5), 0, 5))
        basis = q * np.sign(np.diag(r))[None, :]
        kron = wnf_block(range(5), GaussianStream(8), TRIALS)
        rotated = wnf_block(range(5), GaussianStream(9), TRIALS) @ basis.T
        rep = covariance_report(rotated, np.eye(5), 9)
        assert rep.max_abs_z <= ZMAX
        emp_a = known_mean_covariance(kron)
        emp_b = known_mean_covariance(rotated)
        z, entries = two_sample_zmax(emp_a, emp_b, TRIALS, np.eye(5))
        assert z <= ZMAX and entries == 25


class TestGrow:
    def test_zero_noise_gives_zero_field(self, p4_stack):
        g, stack = p4_stack
        for psi in dgff_block(stack, np.zeros((1, stack.cluster(1).size))):
            np.testing.assert_array_equal(psi, 0.0)

    def test_field_vanishes_off_cluster(self, grid_stack):
        # Psi_1 has one column per vertex of cluster 1 and reads no noise
        # outside it
        g, stack = grid_stack
        k1 = stack.cluster(1).size
        phi = wnf_block(stack.cluster(2).vertices, GaussianStream(3), 1)
        psi = list(dgff_block(stack, phi))[1]
        assert psi.shape == (1, k1)
        other = phi.copy()
        other[:, k1:] = 7.0
        np.testing.assert_array_equal(list(dgff_block(stack, other))[1], psi)

    def test_p4_variance_matches_green(self, p4_stack):
        g, stack = p4_stack
        phi = wnf_block(stack.cluster(1).vertices, GaussianStream(21), TRIALS)
        psi = list(dgff_block(stack, phi))[1]
        rep = covariance_report(psi, stack.green(1).normalized, 21)
        assert rep.max_abs_z <= ZMAX
        v11 = psi[:, 0] @ psi[:, 0] / TRIALS
        assert abs(v11 - 2.0 / 3.0) <= ZMAX * np.sqrt(2 * (2.0 / 3.0) ** 2 / TRIALS)

    def test_block_matches_single_samples(self, p4_stack):
        g, stack = p4_stack
        stream = GaussianStream(4)
        block = wnf_block(stack.cluster(1).vertices, stream, 3)
        single = GaussianStream(4).draw(stack.cluster(1).vertices)
        np.testing.assert_array_equal(block[0], single)
        np.testing.assert_allclose(list(dgff_block(stack, block))[1][0],
                                   stack.growth(1) @ single, atol=1e-14)

    @pytest.mark.parametrize("name", ("p4", "p5", "grid5", "tree3", "grid13"))
    def test_recursion_matches_the_dense_growth_operator(self, name):
        # Psi_n = (Psi_{n-1} + 0) + K_n z_{L_n} against Psi_n = Q_n z
        stack = OperatorStack(*standard_fixture(name))
        top = stack.cluster(stack.depth)
        phi = wnf_block(top.vertices, GaussianStream(17), 50)
        fields = list(dgff_block(stack, phi))
        assert len(fields) == stack.depth + 1
        for n, psi in enumerate(fields):
            k = stack.cluster(n).size
            ref = phi[:, :k] @ stack.growth(n).T
            assert psi.shape == ref.shape
            assert np.abs(psi - ref).max() <= 1e-12 * max(1.0, float(np.abs(ref).max()))


def _increment(stack, phi, n):
    """Psi_n - Psi_{n-1} on cluster n, one row per row of `phi`."""
    fields = list(dgff_block(stack, phi))
    inc = fields[n].copy()
    inc[:, : fields[n - 1].shape[1]] -= fields[n - 1]
    return inc


class TestIncrement:
    def test_two_routes_agree_per_sample(self, grid_stack):
        # the increment equals the harmonic extension of the
        # square-root-weighted layer noise
        g, stack = grid_stack
        top = stack.cluster(2)
        for seed in range(5):
            phi = wnf_block(top.vertices, GaussianStream(seed), 1)
            for n in (1, 2):
                inc = _increment(stack, phi, n)
                noise = phi[0, top.layer_slice(n)]
                other = stack.poisson(n) @ (stack.layer_sqrt(n) @ noise)
                scale = max(1.0, np.abs(inc).max())
                assert np.abs(inc[0] - other).max() <= 1e-12 * scale

    def test_increment_harmonic_below_layer(self, grid_stack):
        g, stack = grid_stack
        phi = wnf_block(stack.cluster(2).vertices, GaussianStream(11), 1)
        local = _increment(stack, phi, 2)[0]
        a = dense_reference.laplacian(g, stack.cluster(2))
        resid = (a @ local)[: stack.cluster(1).size]
        assert np.abs(resid).max() <= 1e-10 * max(1.0, np.abs(local).max()) * 4

    def test_increments_independent(self, grid_stack):
        g, stack = grid_stack
        phi = wnf_block(stack.cluster(2).vertices, GaussianStream(13), TRIALS)
        psi0, psi1, psi2 = dgff_block(stack, phi)
        d1 = psi1.copy()
        d1[:, :1] -= psi0
        d2 = psi2.copy()
        d2[:, :5] -= psi1
        var0 = np.diag(stack.green(0).normalized)
        var1 = np.diag(stack.green(1).normalized).copy()
        var1[:1] -= var0
        var2 = np.diag(stack.green(2).normalized).copy()
        var2[:5] -= np.diag(stack.green(1).normalized)
        assert cross_covariance_zmax(psi0, d1, var0, var1) <= ZMAX
        assert cross_covariance_zmax(psi0, d2, var0, var2) <= ZMAX
        assert cross_covariance_zmax(d1, d2, var1, var2) <= ZMAX

    def test_markov_step_independent_of_past_noise(self, grid_stack):
        # the n->n+1 step never reads noise below the new layer
        g, stack = grid_stack
        phi = wnf_block(stack.cluster(2).vertices, GaussianStream(29), TRIALS)
        d2 = _increment(stack, phi, 2)
        lower_noise = phi[:, :5]
        var2 = np.diag(stack.green(2).normalized).copy()
        var2[:5] -= np.diag(stack.green(1).normalized)
        assert cross_covariance_zmax(lower_noise, d2, np.ones(5), var2) <= ZMAX


class TestOracle:
    def test_factor_property(self):
        # W_n, assembled from the oracle's layer columns like Q_n, is an upper
        # triangular factor of G_n with a positive diagonal at every level;
        # that factor is unique, so W_n is L_n^{-T} with no dense reference
        grid = weighted(grid_graph(21), seed=5, lo=0.1, hi=10.0)
        graphs = [standard_fixture(name) for name in ("p4", "p5", "grid5", "tree3", "grid13")]
        for g, fol in graphs + [(grid, bfs_foliate(grid, ["r10c10"]))]:
            stack = OperatorStack(g, fol)
            kerns = []
            for n, kern in enumerate(oracle_kernels(g, stack.cluster(stack.depth))):
                kerns.append(kern)
                w = dense_reference.growth(stack.cluster(n), kerns)
                gn = stack.green(n).normalized
                np.testing.assert_array_equal(w, np.triu(w))
                assert (np.diag(w) > 0).all()
                assert np.abs(w @ w.T - gn).max() <= 1e-12 * np.abs(gn).max()
            assert len(kerns) == stack.depth + 1

    @pytest.mark.parametrize("c", ("1e300", "4"))
    def test_singular_pivot_names_its_layer(self, c):
        # pi(b) rounds to c(a, b), so cluster 1 is singular to working
        # precision: the pivot of layer 1, A_11 - C_1^2, is one rounding of
        # A_11 = 1e300, or exactly zero for c(a, b) = 4, whose root is exact
        g = parse_graph(f"!exterior e\na b {c}\nb c 1e-300\nc e 1\n", "edgelist")
        top = cluster(bfs_foliate(g, ["a"]), 2)
        levels = oracle_kernels(g, top)
        assert next(levels).shape == (1, 1)
        with pytest.raises(NotPositiveDefiniteError, match="layer 1 is numerically singular"):
            next(levels)

    def test_oracle_memory_is_layer_columns(self):
        # consumed level by level, the oracle holds a layer's blocks and two
        # levels' layer columns, never a k_top x k_top Laplacian or factor
        g = grid_graph(31)
        fol = bfs_foliate(g, ["r15c15"])
        top = cluster(fol, fol.depth)
        tracemalloc.start()
        try:
            for _ in oracle_kernels(g, top):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert top.size == 841
        assert peak <= 0.25 * 8 * top.size ** 2

    def test_oracle_covariance(self, grid_stack):
        g, stack = grid_stack
        top = stack.cluster(2)
        gram = GaussianStream(37).gram(top.vertices, TRIALS)
        for n, emp in enumerate(grown_covariances(oracle_kernels(g, top), gram)):
            rep = moment_report(emp, stack.green(n).normalized, TRIALS, 37)
            assert rep.max_abs_z <= ZMAX

    def test_oracle_agrees_with_grown_field(self, p4_stack):
        g, stack = p4_stack
        target = stack.green(1).normalized
        grown = list(dgff_block(stack, wnf_block(stack.cluster(1).vertices,
                                                 GaussianStream(41), TRIALS)))[1]
        gram = GaussianStream(42).gram(stack.cluster(1).vertices, TRIALS)
        direct = list(grown_covariances(oracle_kernels(g, stack.cluster(1)), gram))[1]
        z, entries = two_sample_zmax(known_mean_covariance(grown), direct, TRIALS, target)
        assert z <= ZMAX and entries == target.size

    def test_oracle_single_sample_support(self, p4_stack):
        # the oracle on cluster 0 lives on its one vertex: it reads only the
        # leading noise coordinate of a top-cluster Gram
        g, stack = p4_stack
        gram = GaussianStream(1).gram(stack.cluster(1).vertices, 10)
        w0 = next(oracle_kernels(g, stack.cluster(1)))
        (moment,) = grown_covariances([w0], gram)
        assert moment.shape == (1, 1) == w0.shape
        np.testing.assert_allclose(moment, w0 @ gram.total[:1, :1] @ w0.T / 10, rtol=1e-15)
        other = gram.total.copy()
        other[1:] = other[:, 1:] = 7.0
        np.testing.assert_array_equal(next(grown_covariances([w0], NoiseGram(other, 10))),
                                      moment)


@pytest.mark.parametrize("name", ("p4", "p5", "grid5", "tree3", "grid13"))
class TestGrownCovariances:
    def test_random_gram_matches_the_dense_growth_operator(self, name):
        stack = OperatorStack(*standard_fixture(name))
        z = kernels.normal_block(19, np.arange(stack.cluster(stack.depth).size), 0, 300)
        gram = NoiseGram(z.T @ z, 300)
        covs = list(grown_covariances([stack.kernel(n) for n in range(stack.depth + 1)], gram))
        assert len(covs) == stack.depth + 1
        for n, cov in enumerate(covs):
            ref = gram.cross(stack.growth(n))
            assert cov.shape == ref.shape
            assert np.abs(cov - ref).max() <= 1e-12 * max(1.0, float(np.abs(ref).max()))

    def test_white_gram_gives_the_green_matrix_for_both_kernel_lists(self, name):
        # S = I: T_n T_n^T = G_n, the Hadamard formula summed over the layers
        g, fol = standard_fixture(name)
        stack = OperatorStack(g, fol)
        top = stack.cluster(stack.depth)
        gram = NoiseGram(300.0 * np.eye(top.size), 300)
        for kerns in ([stack.kernel(n) for n in range(stack.depth + 1)],
                      oracle_kernels(g, top)):
            for n, cov in enumerate(grown_covariances(kerns, gram)):
                gn = stack.green(n).normalized
                assert np.abs(cov - gn).max() <= 1e-12 * max(1.0, float(np.abs(gn).max()))


class TestBrownian:
    def test_p4_hand_targets(self, p4_stack):
        g, stack = p4_stack
        f = np.zeros(g.n_vertices)
        f[g.index["v1"]] = 1.0
        rep = brownian_check(stack, f, green_energies(stack, f))
        np.testing.assert_allclose(rep.variance_targets, [0.5, 2.0 / 3.0], atol=1e-12)
        # level 1's layer pieces: K_0^T f on layer 0, K_1^T f on layer 1
        np.testing.assert_allclose(rep.coef[1] ** 2, [0.5, 1.0 / 6.0], atol=1e-12)
        np.testing.assert_array_equal(rep.coef[0, 1:], 0.0)
        np.testing.assert_allclose(rep.target, [[0.5, 0.5], [0.5, 2.0 / 3.0]], atol=1e-12)
        assert rep.pythagoras_residual <= 1e-14
        assert rep.targets_monotone

    def test_monotone_reads_the_green_energies(self):
        # T_n grows by construction (a prefix sum of squares); the check
        # reads f_n^T G_n f_n, which a halved G_1 makes fall from 1/2 to 1/3
        g, fol = standard_fixture("p4")
        stack = OperatorStack(g, fol)
        stack.kernel(1)
        kern = stack.green(1)
        stack._cache[("green", 1)] = dataclasses.replace(kern, normalized=kern.normalized / 2)
        f = np.zeros(g.n_vertices)
        f[g.index["v1"]] = 1.0
        rep = brownian_check(stack, f, green_energies(stack, f))
        np.testing.assert_allclose(rep.variance_targets, [0.5, 2.0 / 3.0], atol=1e-12)
        assert not rep.targets_monotone
        assert rep.pythagoras_residual == pytest.approx(1.0 / 3.0)

    def test_zero_vector(self, p4_stack):
        g, stack = p4_stack
        f = np.zeros(g.n_vertices)
        rep = brownian_check(stack, f, green_energies(stack, f))
        np.testing.assert_array_equal(rep.variance_targets, 0.0)

    def test_pairing_covariance(self, grid_stack):
        g, stack = grid_stack
        rng = np.random.default_rng(0)
        f = np.zeros(g.n_vertices)
        f[np.array(stack.cluster(2).vertices)] = rng.normal(size=9)
        rep = brownian_check(stack, f, green_energies(stack, f))
        gram = GaussianStream(53).gram(stack.cluster(2).vertices, TRIALS)
        # stationarity in the later index: cov(F_n, F_m) targets min(T_n, T_m)
        assert moment_report(gram.cross(rep.coef), rep.target, TRIALS, 53).max_abs_z <= ZMAX

    def test_pairing_block_shape(self, grid_stack):
        g, stack = grid_stack
        phi = wnf_block(stack.cluster(2).vertices, GaussianStream(2), 10)
        f = np.zeros(g.n_vertices)
        f[stack.cluster(0).vertices[0]] = 1.0
        assert pairing_block(stack, f, phi).shape == (10, 3)


class TestSweep:
    def test_p4_variance_target(self, p4_stack):
        g, stack = p4_stack
        f = np.zeros(g.n_vertices)
        f[g.index["v1"]] = 1.0
        rep = sweep_average_check(stack, f, layer_sweeps(stack, f))
        np.testing.assert_allclose(rep.variance_targets, [2.0 / 3.0 - 0.5], atol=1e-12)
        assert rep.identity_residual <= 1e-10 * rep.identity_scale
        gram = GaussianStream(61).gram(stack.cluster(1).vertices, TRIALS)
        assert moment_report(gram.cross(rep.coef), rep.target, TRIALS, 61).max_abs_z <= ZMAX

    def test_grid_telescoping_and_moments(self, grid_stack):
        g, stack = grid_stack
        rng = np.random.default_rng(1)
        f = np.zeros(g.n_vertices)
        f[np.array(stack.cluster(1).vertices)] = rng.normal(size=5)
        rep = sweep_average_check(stack, f, layer_sweeps(stack, f))
        assert rep.identity_residual <= 1e-10 * rep.identity_scale
        gram = GaussianStream(67).gram(stack.cluster(2).vertices, TRIALS)
        assert moment_report(gram.cross(rep.coef), rep.target, TRIALS, 67).max_abs_z <= ZMAX
        # endpoint n = n2 is the plain last increment
        c = stack.growth_adjoint_apply(f)
        t = [float(c[:k] @ c[:k]) for k in (stack.cluster(n).size for n in range(3))]
        np.testing.assert_allclose(rep.variance_targets, [t[2] - t[0], t[2] - t[1]],
                                   atol=1e-12)

    def test_support_violation(self, grid_stack):
        g, stack = grid_stack
        f = np.zeros(g.n_vertices)
        f[np.array(stack.cluster(2).vertices)] = 1.0  # wider than cluster 1
        with pytest.raises(SupportViolationError):
            sweep_average_check(stack, f, layer_sweeps(stack, f))


def test_covariance_stderr_formula():
    # variance entries get SE = sigma^2 sqrt(2/N)
    target = np.diag([2.0, 0.5])
    from dgff.sampling import covariance_stderr

    se = covariance_stderr(target, 100)
    assert se[0, 0] == pytest.approx(2.0 * np.sqrt(2 / 100))
    assert se[0, 1] == pytest.approx(np.sqrt(1.0 / 100))
