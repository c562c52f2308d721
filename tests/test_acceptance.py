"""Acceptance suite: one test per criterion, at the stated tolerance, with a
printed pass/fail line each (run with -s to see them)."""

import time

import numpy as np
import pytest

import dgff
from dgff import OperatorStack, validate_foliation
from dgff.fixtures import standard_fixture, weighted
from dgff.hadamard import oracle_kernels
from dgff.sampling import (
    GaussianStream,
    NoiseGram,
    dgff_block,
    grown_covariances,
    moment_report,
    sweep_average_check,
    two_sample_zmax,
    wnf_block,
)
from dgff.verify import run_ladder

import dense_reference
from block_reference import covariance_report, cross_covariance_zmax, pairing_block
from conftest import adjoint_pieces, dense_growth, sweep_pieces, tamper_directed

TOL_EXACT = 1e-10
TOL_STRICT = 1e-12
Z_MAX = 5.0
TRIALS = 100_000
SEED = 42
FIXTURES = ("p4", "p5", "grid5", "tree3")
MC_FIXTURES = ("p4", "grid5")


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def mc(stack_set):
    """Shared Monte Carlo blocks: one WNF block per fixture, one seed."""
    out = {}
    for name in FIXTURES:
        stack = stack_set[name]
        stream = GaussianStream(SEED)
        top = stack.cluster(stack.depth)
        out[name] = {
            "stack": stack,
            "stream": stream,
            "phi": wnf_block(top.vertices, stream, TRIALS),
        }
    return out


def test_criterion_1_green_inverse(stack_set):
    t0 = time.perf_counter()
    worst = 0.0
    for name in FIXTURES:
        stack = stack_set[name]
        for n in range(stack.depth + 1):
            a = dense_reference.laplacian(stack.graph, stack.cluster(n))
            gn = stack.green(n).normalized
            eye = np.eye(a.shape[0])
            worst = max(worst, np.abs(a @ gn - eye).max(), np.abs(gn @ a - eye).max())
    elapsed = time.perf_counter() - t0
    _line(1, worst <= TOL_EXACT and elapsed < 1.0,
          f"inverse residual {worst:.2e} <= {TOL_EXACT:g}, {elapsed:.2f}s < 1s")


def test_criterion_2_green_symmetry(stack_set):
    worst = 0.0
    cases = [stack_set[name] for name in FIXTURES]
    cases.append(OperatorStack(*_weighted_fixture("p4", seed=5)))
    cases.append(OperatorStack(*_weighted_fixture("grid5", seed=6)))
    for stack in cases:
        for n in range(stack.depth + 1):
            k = stack.green(n)
            pi = dense_reference.weights(stack.graph, k.cluster)
            w = pi[:, None] * dense_reference.unnormalized(stack.graph, k)
            worst = max(worst, np.abs(w - w.T).max() / max(np.abs(w).max(), 1.0))
    _line(2, worst <= TOL_EXACT,
          f"weighted-symmetry residual {worst:.2e} <= {TOL_EXACT:g} incl. non-unit conductances")


def _weighted_fixture(name, seed):
    g, _ = standard_fixture(name)
    g = weighted(g, seed=seed)
    from dgff import bfs_foliate
    from dgff.fixtures import standard_roots

    return g, bfs_foliate(g, standard_roots(name))


def test_criterion_3_variation_and_monotone(stack_set):
    worst_var = 0.0
    worst_mono = 0.0
    for name in FIXTURES:
        stack = stack_set[name]
        for n in range(1, stack.depth + 1):
            g_n = dense_reference.unnormalized(stack.graph, stack.green(n))
            scale = max(np.abs(g_n).max(), 1.0)
            worst_var = max(worst_var, dense_reference.variation_residual(stack, n))
            diff = g_n.copy()
            prev = dense_reference.unnormalized(stack.graph, stack.green(n - 1))
            diff[: prev.shape[0], : prev.shape[1]] -= prev
            worst_mono = max(worst_mono, max(0.0, -diff.min()) / scale)
    _line(3, worst_var <= TOL_EXACT and worst_mono <= TOL_STRICT,
          f"variation residual {worst_var:.2e} <= {TOL_EXACT:g}, "
          f"monotonicity defect {worst_mono:.2e} <= {TOL_STRICT:g}")


def test_criterion_4_hadamard_identity(stack_set):
    worst = 0.0
    for name in FIXTURES:
        stack = stack_set[name]
        for n in range(stack.depth + 1):
            gn = stack.green(n).normalized
            q = dense_growth(stack, n)
            resid = dense_reference.increment_residual(q, q.T, gn)
            worst = max(worst, resid / max(np.abs(gn).max(), 1.0))
    # hand-checked values on the four-vertex path against a 2x2 inversion oracle
    stack = stack_set["p4"]
    a = dense_reference.laplacian(stack.graph, stack.cluster(1))
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    oracle = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
    qqt = dense_growth(stack, 1) @ dense_growth(stack, 1).T
    hand_ok = (
        abs(oracle[0, 0] - 2.0 / 3.0) <= TOL_STRICT
        and abs(qqt[0, 0] - (0.5 + 1.0 / 6.0)) <= TOL_STRICT
        and abs(qqt[0, 1] - 1.0 / 3.0) <= TOL_STRICT
        and abs(qqt[0, 0] - oracle[0, 0]) <= TOL_STRICT
        and abs(qqt[0, 1] - oracle[0, 1]) <= TOL_STRICT
    )
    _line(4, worst <= TOL_EXACT and hand_ok,
          f"identity residual {worst:.2e} <= {TOL_EXACT:g}, path hand values at {TOL_STRICT:g}")


def test_criterion_5_isometry(stack_set):
    t0 = time.perf_counter()
    worst = 0.0
    stacks = [stack_set[name] for name in FIXTURES]
    stacks.append(OperatorStack(*standard_fixture("grid13")))  # 121-vertex interior
    for stack in stacks:
        for n in range(stack.depth + 1):
            worst = max(worst, dense_reference.isometry_residual(
                dense_reference.dirichlet_blocks(stack, n)))
    elapsed = time.perf_counter() - t0
    _line(5, worst <= TOL_EXACT and elapsed < 10.0,
          f"Dirichlet Gram residual {worst:.2e} <= {TOL_EXACT:g} up to 121 interior "
          f"vertices, {elapsed:.1f}s < 10s")


def test_criterion_6_increment_identity(stack_set):
    worst = 0.0
    for name in FIXTURES:
        stack = stack_set[name]
        if stack.depth == 0:
            continue
        top = stack.cluster(stack.depth)
        block = wnf_block(top.vertices, GaussianStream(SEED + 6), 100)
        fields = list(dgff_block(stack, block))
        for n in range(1, stack.depth + 1):
            hi, lo = fields[n], fields[n - 1]
            diff = hi.copy()
            diff[:, : lo.shape[1]] -= lo
            other = block[:, top.layer_slice(n)] @ stack.layer_sqrt(n).T @ stack.poisson(n).T
            worst = max(worst, np.abs(diff - other).max() / max(np.abs(diff).max(), 1.0))
    _line(6, worst <= TOL_STRICT,
          f"increment equals extended layer noise, residual {worst:.2e} <= {TOL_STRICT:g} "
          "over 100 seeded samples per fixture")


def test_criterion_7_covariance(mc):
    ok = True
    details = []
    for name in MC_FIXTURES:
        t0 = time.perf_counter()
        stack = mc[name]["stack"]
        phi = mc[name]["phi"]
        # one oracle noise block over the top cluster, after the field's draws;
        # the oracle grows W_n = (W_{n-1} + 0 | W[:k_n, L_n]), W = L^{-T}, A_top = L L^T
        top = stack.cluster(stack.depth)
        oracle = list(grown_covariances(oracle_kernels(stack.graph, top),
                                        mc[name]["stream"].gram(top.vertices, TRIALS)))
        worst = 0.0
        for n, grown in enumerate(dgff_block(stack, phi)):
            target = stack.green(n).normalized
            rep = covariance_report(grown, target, SEED)
            rep_o = moment_report(oracle[n], target, TRIALS, SEED)
            z_joint, _ = two_sample_zmax(rep.empirical, rep_o.empirical, TRIALS, target)
            worst = max(worst, rep.max_abs_z, rep_o.max_abs_z, z_joint)
        elapsed = time.perf_counter() - t0
        ok = ok and worst <= Z_MAX and elapsed < 60.0
        details.append(f"{name} max|z|={worst:.2f}, {elapsed:.1f}s")
    _line(7, ok, f"N={TRIALS} field and oracle covariances within {Z_MAX} SE "
                 f"({'; '.join(details)})")


def test_criterion_8_increment_independence(mc):
    worst = 0.0
    for name in MC_FIXTURES:
        stack = mc[name]["stack"]
        phi = mc[name]["phi"]
        blocks, variances = [], []
        fields = list(dgff_block(stack, phi))
        prev = fields[0]
        blocks.append(prev)
        variances.append(np.diag(stack.green(0).normalized))
        for n in range(1, stack.depth + 1):
            hi = fields[n]
            diff = hi.copy()
            diff[:, : prev.shape[1]] -= prev
            var = np.diag(stack.green(n).normalized).copy()
            var[: prev.shape[1]] -= np.diag(stack.green(n - 1).normalized)
            blocks.append(diff)
            variances.append(var)
            prev = hi
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                worst = max(worst, cross_covariance_zmax(blocks[i], blocks[j],
                                                         variances[i], variances[j]))
    _line(8, worst <= Z_MAX,
          f"disjoint increments uncorrelated, max|z| {worst:.2f} <= {Z_MAX} at N={TRIALS}")


def test_criterion_9_brownian(mc, stack_set):
    worst_pyth = 0.0
    monotone = True
    worst_z = 0.0
    for name in FIXTURES:
        stack = stack_set[name]
        top = stack.cluster(stack.depth)
        fstream = GaussianStream(SEED + 9)
        for trial in range(20):
            f = np.zeros(stack.graph.n_vertices)
            f[np.array(top.vertices)] = fstream.draw(top.vertices)
            targets = np.zeros(stack.depth + 1)
            energies = np.zeros(stack.depth + 1)
            coef = np.concatenate(adjoint_pieces(stack, f))  # Q_n^* f: its leading k_n entries
            for n in range(stack.depth + 1):
                qf = coef[: stack.cluster(n).size]
                targets[n] = qf @ qf
                f_n = f[np.array(stack.cluster(n).vertices)]
                energies[n] = f_n @ stack.green(n).normalized @ f_n
                scale = max(targets[n], 1.0)
                worst_pyth = max(worst_pyth, abs(energies[n] - targets[n]) / scale)
            monotone = monotone and np.all(
                np.diff(energies) >= -TOL_STRICT * max(energies.max(), 1.0))
            if name in MC_FIXTURES and trial < 5:
                pair = pairing_block(stack, f, mc[name]["phi"])
                rep = covariance_report(pair, np.minimum.outer(targets, targets), SEED)
                worst_z = max(worst_z, rep.max_abs_z)
    _line(9, worst_pyth <= TOL_STRICT and monotone and worst_z <= Z_MAX,
          f"Pythagoras f_n^T G_n f_n = |Q_n^* f|^2 to {worst_pyth:.2e} <= {TOL_STRICT:g} "
          "(20 f per fixture), "
          f"pairing covariance max|z| {worst_z:.2f} <= {Z_MAX}")


def test_criterion_10_sweep(mc, stack_set):
    worst_ident = 0.0
    worst_z = 0.0
    for name in FIXTURES:
        stack = stack_set[name]
        base = stack.cluster(1)
        fstream = GaussianStream(SEED + 10)
        f = np.zeros(stack.graph.n_vertices)
        f[np.array(base.vertices)] = fstream.draw(base.vertices)
        phi = mc[name]["phi"]
        rep = sweep_average_check(stack, f, sweep_pieces(stack, f))
        cov = moment_report(NoiseGram(phi.T @ phi, TRIALS).cross(rep.coef), rep.target,
                            TRIALS, SEED)
        worst_ident = max(worst_ident, rep.identity_residual / rep.identity_scale)
        worst_z = max(worst_z, cov.max_abs_z)
    _line(10, worst_ident <= TOL_EXACT and worst_z <= Z_MAX,
          f"boundary-average identity on coefficients {worst_ident:.2e} <= {TOL_EXACT:g}, "
          f"variance match max|z| {worst_z:.2f} <= {Z_MAX}")


def test_criterion_11_negative_controls(stack_set):
    # (a) direction-dependent conductance, past the parsers' validation: the
    #     build refuses it, so every rung records NotSymmetric (or that a
    #     rung it reads from did not run) and the ladder still ends
    g, fol = standard_fixture("p4")
    rep = run_ladder(tamper_directed(g, "v2", "v1", 2.0), fol, seed=1, trials=2000)
    errors = {r["name"]: r.get("error") for r in rep["checks"]}
    asym_ok = (not rep["pass"] and errors["green_inverse"] == "NotSymmetric"
               and set(errors.values()) == {"NotSymmetric", "PrerequisiteFailed"})

    # (b) wrong layer assignment is stopped by validation before any check
    try:
        validate_foliation(standard_fixture("p5")[0], [["v1"], ["v3"], ["v2"]])
        layer_ok = False
    except dgff.FoliationError as e:
        layer_ok = e.code == "LocalityViolation"

    # (c) a corrupted kernel column first trips the operator identity
    g5, fol5 = standard_fixture("grid5")
    stack = OperatorStack(g5, fol5)
    k1 = stack.kernel(1).copy()
    k1[:, 0] = 0.0
    k1[stack.cluster(1).layer_start[1], 0] = stack.layer_sqrt(1)[0, 0]
    stack._cache[("kernel", 1)] = k1
    rep = run_ladder(g5, fol5, seed=1, trials=2000, stack=stack)
    first_fail = next(r["name"] for r in rep["checks"] if not r["passed"])
    kernel_ok = first_fail == "hadamard_identity"

    # (d) a cached layer step whose B_1 has one entry raised by 1e-6 trips
    #     reversibility: G_1 is symmetric when B_1 is. max |B_1| < 1, so the
    #     statistic is the raise itself, up to rounding
    stack = OperatorStack(g5, fol5)
    p1, b1, r1 = stack.poisson(1), stack.boundary_green(1).copy(), stack.layer_sqrt(1)
    b1[0, 1] += 1e-6
    stack._cache[("step", 1)] = (p1, b1, r1)
    rep = run_ladder(g5, fol5, seed=1, trials=2000, stack=stack)
    sym = next(r for r in rep["checks"] if r["name"] == "green_symmetry")
    green_ok = not sym["passed"] and sym["statistic"] == pytest.approx(1e-6, rel=1e-9)

    _line(11, asym_ok and layer_ok and kernel_ok and green_ok,
          "tampered inputs fail where intended: asymmetric conductance -> NotSymmetric "
          "at the build, wrong layers -> validation, corrupted kernel -> identity, "
          f"asymmetric B_1 -> reversibility ({sym['statistic']:.1e})")
