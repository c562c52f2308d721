"""The ladder's exact rungs read per-level facts from the layer steps
instead of Σ k_n³ checks on the dense Green levels; these tests pin the
readings to the dense checks they replace (`dense_reference`), keep the
negative controls live through both routes, and guard the cost and the
report's contract."""

import dataclasses
import json
import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from dgff import OperatorStack
from dgff import hadamard, linalg, operators, sampling, verify
from dgff.cli import main
from dgff.errors import DGFFError
from dgff.fixtures import (grid_graph, path_graph, standard_fixture, weighted,
                           write_fixture_files)
from dgff.foliation import bfs_foliate
from dgff.graph import from_edges, graph_to_json
from dgff.operators import GreenKernel
from dgff.verify import isometry_readings, layer_identity, run_ladder

import dense_reference
from dense_reference import dirichlet_blocks, isometry_residual
from conftest import FIXTURES, tamper_directed


def _row(rep, name):
    return next(r for r in rep["checks"] if r["name"] == name)


class TestHadamardIdentity:
    @pytest.mark.parametrize("name", FIXTURES + ("grid13",))
    def test_bounds_the_full_residual(self, name):
        """The bound `verify`'s docstring states: with K_m = P_m R_m,
        |Q_n Q_n^T - G_n| <= sum_{m <= n} |R_m R_m - B_m| + eps max diag G_n,
        at every level, the rounding term measured rather than proved."""
        g, fol = standard_fixture(name)
        stack = OperatorStack(g, fol)
        eps, total = np.finfo(float).eps, 0.0
        for n in range(fol.depth + 1):
            b, r = stack.boundary_green(n), stack.layer_sqrt(n)
            np.testing.assert_array_equal(stack.kernel(n), stack.poisson(n) @ r)
            total += np.abs(r @ r - b).max()
            gn, q = stack.green(n).normalized, stack.growth(n)
            full = dense_reference.increment_residual(q, q.T, gn)
            assert full <= total + eps * np.diag(gn).max(), n
        assert _row(run_ladder(g, fol, trials=0), "hadamard_identity")["passed"]

    def test_reads_the_full_residual_at_level_zero_only(self):
        # at level 0 Q_0 = K_0 = R_0, so the reading |R_0 R_0 - B_0| is the
        # full residual |Q_0 Q_0^T - G_0|; above it each reading is layer-sized
        g, fol = standard_fixture("grid13")
        stack = OperatorStack(g, fol)
        g0, q0 = stack.green(0).normalized, stack.growth(0)
        full = dense_reference.increment_residual(q0, q0.T, g0) / max(np.abs(g0).max(), 1.0)
        assert layer_identity(stack, 0) == pytest.approx(full, abs=4 * np.finfo(float).eps)

    def test_corrupted_top_kernel_fails(self):
        g, fol = standard_fixture("grid5")
        stack = OperatorStack(g, fol)
        top = stack.depth
        bad = stack.kernel(top).copy()
        bad[:, 0] *= 0.5
        stack._cache[("kernel", top)] = bad
        rep = run_ladder(g, fol, trials=0, stack=stack)
        assert not _row(rep, "hadamard_identity")["passed"]
        assert _row(rep, "green_inverse")["passed"]

    @pytest.mark.parametrize("n", [0, 1])
    def test_corrupted_lower_kernel_fails(self, n):
        # Q is stored as its kernels: a corrupted K_n reaches every Q_m, m >= n
        g, fol = standard_fixture("grid5")
        stack = OperatorStack(g, fol)
        bad = stack.kernel(n).copy()
        bad[0, -1] += 0.25
        stack._cache[("kernel", n)] = bad
        rep = run_ladder(g, fol, trials=0, stack=stack)
        assert n < stack.depth
        assert not _row(rep, "hadamard_identity")["passed"]
        assert not _row(rep, "isometry")["passed"]
        if n:  # the sampled increments K_n z_{L_n}, n >= 1, read only K_n
            assert not _row(rep, "increment_identity")["passed"]
            assert not _row(rep, "increment_harmonic")["passed"]


class TestBrownianPythagoras:
    def test_corrupted_kernel_fails_the_pythagoras_check(self):
        # the pairing rows come from the kernels and the energies
        # f_n^T G_n f_n from the Green matrices: a corrupted K_1 parts them
        g, fol = standard_fixture("grid5")
        stack = OperatorStack(g, fol)
        bad = stack.kernel(1).copy()
        bad[0, -1] += 0.25
        stack._cache[("kernel", 1)] = bad
        rep = run_ladder(g, fol, seed=1, trials=2000, stack=stack)
        row = _row(rep, "brownian_moments")
        assert not row["passed"] and row["statistic"] is None
        assert "Pythagoras" in row["reason"]
        assert row["entries"] == (stack.depth + 1) ** 2


def test_tampered_poisson_kernel_fails_the_increment_identity():
    # the kernels, and so the grown increments K_n z_{L_n}, come from the
    # true P_1; the rung's other route z R_1^T P_1^T must read the P_1 cached
    # when level 1 is checked, the corrupted one, and not one rebuilt after
    # the ladder released level 1
    g, fol = standard_fixture("grid5")
    stack = OperatorStack(g, fol)
    for n in range(stack.depth + 1):
        stack.kernel(n)
    bad = stack.poisson(1).copy()
    bad[:, 0] *= 0.5
    stack._cache[("step", 1)] = (bad, stack.boundary_green(1), stack.layer_sqrt(1))
    rep = run_ladder(g, fol, trials=0, stack=stack)
    assert not _row(rep, "increment_identity")["passed"]
    assert _row(rep, "increment_harmonic")["passed"]


class TestIsometry:
    def test_top_gram_blocks_equal_the_per_level_grams(self):
        # level n's blocks are the top level's blocks (p, m) with m <= n, bit
        # for bit: the edges touching cluster m are the same prefix at every
        # level n >= m. So are the per-level readings, from the same rows
        g, fol = standard_fixture("grid13")
        stack = OperatorStack(g, fol)
        top = list(dirichlet_blocks(stack, stack.depth))
        readings = list(isometry_readings(stack, stack.depth))
        for n in range(stack.depth + 1):
            own = list(dirichlet_blocks(stack, n))
            leading = [(p, m, b) for p, m, b in top if m <= n]
            assert [(p, m) for p, m, _ in own] == [(p, m) for p, m, _ in leading]
            for (_, _, mine), (_, _, theirs) in zip(own, leading):
                np.testing.assert_array_equal(mine, theirs)
            assert isometry_residual(own) == isometry_residual(leading)
            assert list(isometry_readings(stack, n)) == readings[: n + 1]
        assert isometry_residual(top) == max(isometry_residual(dirichlet_blocks(stack, n))
                                             for n in range(stack.depth + 1))

    def test_reading_memory_is_the_edge_rows(self):
        """With the kernels cached, the reading holds one level's edge rows
        D_m and A K_m at a time: on the 31x31 grid its traced peak, 0.37
        k_top^2 doubles, stays under 0.4. Keeping every D_m, as the Gram
        route does, put it at 1.16, and a dense Q_top and its k_top x k_top
        Gram at 2.3."""
        g = grid_graph(31)
        stack = OperatorStack(g, bfs_foliate(g, ("r15c15",)))
        k_top = 29 * 29
        for m in range(stack.depth + 1):
            stack.kernel(m)
        tracemalloc.start()
        try:
            assert max(isometry_readings(stack, stack.depth)) <= 1e-12
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.4 * k_top * k_top * 8

    @pytest.mark.parametrize("name", ("grid5", "grid13"))
    def test_wrong_stencil_entry_fails_here_not_in_green_inverse(self, name):
        # the build and green_inverse read the same cached stencil, so a
        # wrong conductance in it is invisible to green_inverse; isometry
        # and the oracle read the graph's edge list and must see it
        g, fol = standard_fixture(name)
        stack = OperatorStack(g, fol)
        st = stack.stencil(stack.depth)  # the top stencil, before any build
        i, j = 0, int(st.idx[0, 1])  # the root and its first neighbour
        for a, b in ((i, j), (j, i)):
            slot = int(np.flatnonzero(st.idx[a] == b)[0])
            st.val[a, slot] *= 1.5
        rep = run_ladder(g, fol, seed=1, trials=2000, stack=stack)
        assert not _row(rep, "isometry")["passed"]
        assert _row(rep, "green_inverse")["passed"]
        assert not _row(rep, "oracle_covariance")["passed"]
        assert not _row(rep, "oracle_agreement")["passed"]


class _SquareMatmuls(np.ndarray):
    """An array that records every matmul of two k x k operands, k > side,
    and every square array wider than that which a ufunc returns."""

    seen: list = []
    formed: list = []
    side = 50

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _SquareMatmuls) else x for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, _SquareMatmuls) else o
                                  for o in kwargs["out"])
        shapes = [np.shape(x) for x in plain]
        if (ufunc is np.matmul and len(shapes) == 2 and shapes[0] == shapes[1]
                and len(shapes[0]) == 2 and shapes[0][0] == shapes[0][1] > self.side):
            _SquareMatmuls.seen.append(shapes[0])
        out = getattr(ufunc, method)(*plain, **kwargs)
        shape = np.shape(out)
        if len(shape) == 2 and shape[0] == shape[1] > self.side:
            _SquareMatmuls.formed.append(shape)
        return out.view(_SquareMatmuls) if isinstance(out, np.ndarray) else out


def _guard_ladder(monkeypatch, graph="grid13", **ladder_args):
    """Run a graph's ladder with the cached operators and every noise Gram
    viewed as `_SquareMatmuls`, which records squares wider than the widest
    layer; return the report, the call counts, the widths gathered from the
    stencil and the sizes of the matrices given to `linalg.cholesky`.
    `operators.green` counts as "green", and the dense route's
    `dirichlet_blocks`, which no package code may call, as well."""
    counts = {"stencil": 0, "dirichlet_rows": 0, "dirichlet_blocks": 0, "growth": 0,
              "green": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    build = counted("stencil", operators.stencil)
    monkeypatch.setattr(operators, "stencil", build)
    monkeypatch.setattr(hadamard, "stencil", build)
    gathered = []
    dense = operators.Stencil.dense
    monkeypatch.setattr(operators.Stencil, "dense", lambda st, lo, hi: (
        gathered.append(hi - lo) or dense(st, lo, hi)))
    rows = counted("dirichlet_rows", hadamard.dirichlet_rows)
    for mod in (hadamard, verify):
        monkeypatch.setattr(mod, "dirichlet_rows", rows)
    monkeypatch.setattr(dense_reference, "dirichlet_blocks",
                        counted("dirichlet_blocks", dense_reference.dirichlet_blocks))
    factored = []
    cholesky = linalg.cholesky
    monkeypatch.setattr(linalg, "cholesky",
                        lambda a, scale: factored.append(len(a)) or cholesky(a, scale))
    noise_gram = sampling.noise_gram

    def viewed_gram(*args):
        out = noise_gram(*args)
        return dataclasses.replace(out, total=out.total.view(_SquareMatmuls))

    monkeypatch.setattr(sampling, "noise_gram", viewed_gram)

    memo = OperatorStack._memo

    def spied(stack, kind, n, build):
        def wrapped():
            out = build()
            if isinstance(out, np.ndarray):
                return out.view(_SquareMatmuls)
            if isinstance(out, GreenKernel):
                return dataclasses.replace(out, normalized=out.normalized.view(_SquareMatmuls))
            if isinstance(out, tuple):  # a layer step (P_n, B_n, R_n)
                return tuple(m.view(_SquareMatmuls) for m in out)
            return out
        return memo(stack, kind, n, wrapped)

    monkeypatch.setattr(OperatorStack, "_memo", spied)
    monkeypatch.setattr(OperatorStack, "growth", counted("growth", OperatorStack.growth))
    monkeypatch.setattr(hadamard, "green", counted("green", hadamard.green))
    g, fol = _graph(graph)
    widest = max(len(layer) for layer in fol.layers)
    monkeypatch.setattr(_SquareMatmuls, "seen", [])
    monkeypatch.setattr(_SquareMatmuls, "formed", [])
    monkeypatch.setattr(_SquareMatmuls, "side", max(widest, 50))
    rep = run_ladder(g, fol, **ladder_args)
    return rep, counts, gathered, factored, widest


def test_exact_ladder_cost_guard(monkeypatch):
    """On grid13 the exact ladder builds one Laplacian stencil and no dense
    Laplacian (it gathers no block wider than a layer from the stencil),
    reads the edge rows of the levels in one pass and no Dirichlet Gram,
    assembles no dense Q and no Green level, and multiplies no two
    k_n x k_n matrices for k_n > 50."""
    assert not hasattr(operators, "laplacian") and not hasattr(hadamard, "dirichlet_blocks")
    rep, counts, gathered, factored, widest = _guard_ladder(monkeypatch, trials=0)
    assert rep["pass"] and len(rep["checks"]) == 11
    assert counts == {"stencil": 1, "dirichlet_rows": 1, "dirichlet_blocks": 0, "growth": 0,
                      "green": 0}
    assert gathered and max(gathered) <= widest
    assert max(factored) <= widest
    assert _SquareMatmuls.seen == [] and _SquareMatmuls.formed == []


@pytest.mark.parametrize("graph", FIXTURES + ("grid13", "grid21", "grid31"))
def test_exact_ladder_builds_no_green_level(monkeypatch, graph):
    """Every exact rung reads the layer steps: the exact ladder never calls
    `operators.green`, memoizes no ("green", n) entry, and multiplies or
    forms no square array wider than the widest layer (or 50)."""
    builds, held = _spy_memo(monkeypatch, "green")
    rep, counts, _, _, _ = _guard_ladder(monkeypatch, graph, trials=0)
    assert rep["pass"] and len(rep["checks"]) == 11
    assert counts["green"] == 0 and sum(builds.values()) == 0 and max(held) == 0
    assert _SquareMatmuls.seen == [] and _SquareMatmuls.formed == []


def test_monte_carlo_ladder_cost_guard(monkeypatch):
    """Both covariance rungs grow their covariances a layer at a time: with
    2000 trials on grid13 the ladder still assembles no dense Q and
    multiplies no two k_n x k_n matrices, not even against a noise Gram,
    and factors nothing wider than a layer: the oracle factors its pivots
    one layer at a time, not the top Laplacian."""
    rep, counts, _, factored, widest = _guard_ladder(monkeypatch, seed=1, trials=2000)
    assert rep["pass"] and len(rep["checks"]) == 17
    assert counts == {"stencil": 1, "dirichlet_rows": 1, "dirichlet_blocks": 0, "growth": 0,
                      "green": standard_fixture("grid13")[1].depth + 1}
    assert max(factored) <= widest
    assert _SquareMatmuls.seen == []


def test_stack_keeps_no_dense_growth_operator(monkeypatch):
    # the samples, both covariance rungs and the isometry's Dirichlet Gram
    # read the kernels; no dense Q is assembled
    sizes = []
    assemble = OperatorStack.growth
    monkeypatch.setattr(OperatorStack, "growth",
                        lambda stack, n: sizes.append(n) or assemble(stack, n))
    g, fol = standard_fixture("grid5")
    stack = OperatorStack(g, fol)
    assert run_ladder(g, fol, seed=1, trials=2000, stack=stack)["pass"]
    assert sizes == []
    assert ("kernel", stack.depth) in stack._cache
    assert not [key for key in stack._cache if key[0] == "growth"]


def _spy_memo(monkeypatch, kind):
    """Count the builds of each level of one memo kind ("green", "step"),
    and record after every memoized call how many of its levels the stack
    holds."""
    builds, held = Counter(), []
    memo = OperatorStack._memo

    def spied(stack, memo_kind, n, build):
        def counted():
            builds[n] += memo_kind == kind
            return build()
        out = memo(stack, memo_kind, n, counted)
        held.append(sum(key[0] == kind for key in stack._cache))
        return out

    monkeypatch.setattr(OperatorStack, "_memo", spied)
    return builds, held


def _graph(name):
    """A shipped fixture, or a grid foliated from its centre: the 21x21,
    31x31 or 41x41 grid, or the 21x21 grid with `weighted(g, 5, 0.1, 10.0)`."""
    side = {"grid21": 21, "grid31": 31, "grid41": 41, "weighted21": 21}.get(name)
    if side is None:
        return standard_fixture(name)
    g = grid_graph(side)
    if name == "weighted21":
        g = weighted(g, 5, 0.1, 10.0)
    return g, bfs_foliate(g, (f"r{side // 2}c{side // 2}",))


@pytest.mark.parametrize("graph, trials", [("grid13", 2000)])
def test_ladder_builds_each_green_level_once_and_holds_two(monkeypatch, graph, trials):
    """With trials the Monte Carlo rungs read G_n, their target: the ladder
    walks the levels once, every Green level is built exactly once, and the
    stack never holds more than G_{n-1} and G_n."""
    builds, held = _spy_memo(monkeypatch, "green")
    g, fol = standard_fixture(graph)
    stack = OperatorStack(g, fol)
    rep = run_ladder(g, fol, seed=1, trials=trials, stack=stack)
    assert rep["pass"] and len(rep["checks"]) == 17
    assert dict(builds) == {n: 1 for n in range(stack.depth + 1)}
    assert max(held) == 2
    assert not [key for key in stack._cache if key[0] == "green"]


@pytest.mark.parametrize("graph, trials", [("grid21", 0), ("grid13", 2000)])
def test_ladder_builds_each_layer_step_once_and_holds_two(monkeypatch, graph, trials):
    """Each round reads P_n and R_n while level n is live: every layer step
    (P_n, B_n, R_n) is built exactly once, the stack never holds more than
    steps n-1 and n, and it ends holding none. Without trials it drops each
    kernel with its step; with them the Monte Carlo rungs read every kernel
    at their end, and the stack keeps them."""
    builds, held = _spy_memo(monkeypatch, "step")
    g, fol = _graph(graph)
    stack = OperatorStack(g, fol)
    rep = run_ladder(g, fol, seed=1, trials=trials, stack=stack)
    assert rep["pass"] and len(rep["checks"]) == (17 if trials else 11)
    assert dict(builds) == {n: 1 for n in range(stack.depth + 1)}
    assert max(held) == 2
    assert not [key for key in stack._cache if key[0] == "step"]
    kernels = sorted(n for kind, n in stack._cache if kind == "kernel")
    assert kernels == (list(range(stack.depth + 1)) if trials else [])


def test_exact_ladder_memory_is_a_few_top_levels():
    """No Green level, no k_n x k_n temporary and no kernel past its round:
    the traced peak of the 21x21 exact ladder, 2.40 k_top^2 doubles, stays
    under 2.55, a margin of 0.15 over it. Keeping every kernel and reading
    the Dirichlet Gram at the top put it at 2.77, reading two dense Green
    levels at 4.86; the whole Green family, sum_n k_n^2, is 7.3 k_top^2 on
    this grid."""
    k_top = 19 * 19
    assert _exact_ladder_peak(21) <= 2.55 * k_top * k_top * 8


def _exact_ladder_peak(side):
    """The traced peak of the exact ladder on a grid foliated from its
    centre, in bytes."""
    g, fol = _graph(f"grid{side}")
    tracemalloc.start()
    try:
        assert run_ladder(g, fol, trials=0)["pass"]
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_ladder_memory_is_two_layer_steps():
    """Every exact reading is layer-sized, and the stack keeps two layer
    steps and drops each kernel after its round: the traced peak of the
    31x31 exact ladder, 0.91 k_top^2 doubles, stays under 1.0, a margin of
    0.09 over it. Keeping every kernel and `isometry`'s edge rows at the
    end put it at 1.98, reading two dense Green levels as well at 3.32,
    keeping every layer step at 3.72, and k_top^2 temporaries made it 5.7."""
    k_top = 29 * 29
    assert _exact_ladder_peak(31) <= 1.0 * k_top * k_top * 8


def test_exact_ladder_memory_grows_like_the_widest_layer_columns():
    """From 21x21 to 41x41 the exact ladder's traced peak grows 3.9 times,
    less than k_top max_n |L_n|, which grows 8.9 times (361 * 36 to
    1521 * 76), and far less than k_top^2, which grows 17.7 times. Keeping
    every kernel made it grow 11.4 times."""
    def columns(side):
        _, fol = _graph(f"grid{side}")
        return sum(len(layer) for layer in fol.layers) * max(len(layer) for layer in fol.layers)

    assert _exact_ladder_peak(41) / _exact_ladder_peak(21) <= columns(41) / columns(21)


def test_sample_builds_no_green_level(monkeypatch, tmp_path):
    """`dgff sample` grows its fields from the layer steps alone."""
    builds, held = _spy_memo(monkeypatch, "green")
    g, _ = _graph("grid21")
    path = tmp_path / "grid21.json"
    path.write_text(json.dumps(graph_to_json(g)))
    assert main(["sample", "--graph", str(path), "--roots", "r10c10", "--n-samples", "2",
                 "--out", str(tmp_path / "out")]) == 0
    assert sum(builds.values()) == 0 and held and max(held) == 0


def test_sample_builds_each_layer_step_once_and_holds_two(monkeypatch, tmp_path):
    """`dgff sample` releases each level once the next is grown."""
    builds, held = _spy_memo(monkeypatch, "step")
    g, fol = _graph("grid21")
    path = tmp_path / "grid21.json"
    path.write_text(json.dumps(graph_to_json(g)))
    assert main(["sample", "--graph", str(path), "--roots", "r10c10", "--n-samples", "2",
                 "--out", str(tmp_path / "out")]) == 0
    assert dict(builds) == {n: 1 for n in range(fol.depth + 1)}
    assert max(held) == 2


def test_sample_memory_is_the_layer_operators_and_the_blocks():
    """`dgff_block`, walked as `dgff sample` walks it, releasing level n-1
    and K_n once it has Psi_n, holds two layer steps, a kernel, the noise
    block and the field blocks: on the 31x31 grid its traced peak, 0.44
    times every kernel K_n (sum_n k_n |L_n| numbers) and the blocks, stays
    under 0.5 times, a margin of 0.06. Keeping every kernel put it at 1.10
    times, keeping every P_n as well at 1.99 times, and building each dense
    G_n at 5.1 times."""
    g = grid_graph(31)
    fol = bfs_foliate(g, ("r15c15",))
    stack = OperatorStack(g, fol)
    trials = 8
    phi = sampling.wnf_block(stack.cluster(stack.depth).vertices, sampling.GaussianStream(3),
                             trials)
    sizes = [stack.cluster(n).size for n in range(stack.depth + 1)]
    columns = sum(k * len(layer) for k, layer in zip(sizes, fol.layers))
    blocks = trials * (sizes[-1] + sum(sizes))
    tracemalloc.start()
    try:
        fields = []
        for n, psi in enumerate(sampling.dgff_block(stack, phi)):
            fields.append(psi)
            stack.release(n - 1)
            stack.release_kernel(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fields) == stack.depth + 1
    assert peak <= 0.5 * (columns + blocks) * 8


def test_guard_sees_a_square_product(monkeypatch):
    monkeypatch.setattr(_SquareMatmuls, "seen", [])
    a = np.eye(60).view(_SquareMatmuls)
    a @ np.eye(60)
    a @ np.ones((60, 3))
    assert _SquareMatmuls.seen == [(60, 60)]


class TestReport:
    @pytest.mark.parametrize("exc", [np.linalg.LinAlgError, FloatingPointError])
    def test_numeric_error_stays_in_its_rung(self, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc("injected")
            yield  # a generator, as the reader is: it raises when the ladder reads it

        monkeypatch.setattr(verify, "isometry_readings", fail)
        rep = run_ladder(*standard_fixture("p4"), seed=1, trials=2000)
        assert len(rep["checks"]) == 17
        row = _row(rep, "isometry")
        assert row["error"] == "NumericError" and row["statistic"] is None
        assert not row["passed"] and not rep["pass"]
        assert all(r["passed"] for r in rep["checks"] if r["name"] != "isometry")

    def test_every_row_carries_its_seconds(self):
        rep = run_ladder(*standard_fixture("grid5"), seed=1, trials=2000)
        assert len(rep["checks"]) == 17 and rep["schema"] == 1
        for row in rep["checks"]:
            assert math.isfinite(row["seconds"]) and row["seconds"] >= 0
            assert 0 <= row["build_seconds"] <= row["seconds"]
        # the first rung builds every level's layer step
        assert rep["checks"][0]["build_seconds"] > 0

    def test_failed_exact_part_is_null_with_a_reason_in_strict_json(
            self, monkeypatch, tmp_path, capsys):
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        real_brownian, real_sweep = verify.brownian_check, verify.sweep_average_check
        monkeypatch.setattr(verify, "brownian_check", lambda *a, **kw: dataclasses.replace(
            real_brownian(*a, **kw), targets_monotone=False))
        monkeypatch.setattr(verify, "sweep_average_check", lambda *a, **kw: dataclasses.replace(
            real_sweep(*a, **kw), identity_residual=math.inf))
        write_fixture_files(tmp_path)
        code = main(["verify", "--graph", str(tmp_path / "grid5.json"), "--roots", "r2c2",
                     "--trials", "2000", "--seed", "1"])
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert code == 3 and doc["pass"] is False
        for name in ("brownian_moments", "sweep_moments"):
            row = _row(doc, name)
            assert row["statistic"] is None and not row["passed"] and row["reason"]
            assert row["entries"] > 0


class TestRungProtocol:
    """Rungs yield per-level statistics; `_Ladder.run` advances a rung one
    level per call and alone reduces the yields."""

    @staticmethod
    def _run(kind, rung, depth=2):
        # one call per level 0..depth, then one to run the rung to its end
        ladder = verify._Ladder(SimpleNamespace(build_seconds=0.0, depth=depth))
        for _ in range(depth + 2):
            ladder.run("stub", kind, 5.0, rung)
        (row,) = ladder.checks
        return row

    def test_each_call_advances_one_level_and_the_last_runs_to_the_end(self):
        seen = []

        def rung():
            for n in range(3):
                seen.append(n)
                yield float(n)
            seen.append("after the top")
            yield 1.0
            yield 9.0

        ladder = verify._Ladder(SimpleNamespace(build_seconds=0.0, depth=2))
        for n in range(3):
            ladder.run("stub", "exact", 5.0, rung)
            assert seen == list(range(n + 1))
            assert "statistic" not in ladder.checks[0]  # recorded when it ends
        ladder.run("stub", "exact", 5.0, rung)
        assert seen == [0, 1, 2, "after the top"]
        (row,) = ladder.checks
        assert row["statistic"] == 9.0 and not row["passed"]
        ladder.run("stub", "exact", 5.0, rung)  # an ended rung is not advanced
        assert ladder.checks == [row] and seen[-1] == "after the top"

    def test_none_is_no_statistic(self):
        row = self._run("statistical", lambda: iter([None, (3.0, 2), None, (1.0, 5)]))
        assert row["statistic"] == 3.0 and row["entries"] == 7
        row = self._run("exact", lambda: iter([None, None, None]))
        assert row["statistic"] is None and row["passed"] and row["skipped"]

    def test_rows_keep_the_order_of_the_first_calls(self):
        ladder = verify._Ladder(SimpleNamespace(build_seconds=0.0, depth=0))
        for _ in range(2):
            ladder.run("long", "exact", 5.0, lambda: iter([None, 1.0]))
            ladder.run("short", "exact", 5.0, lambda: iter(()))
        assert [row["name"] for row in ladder.checks] == ["long", "short"]
        assert [row["statistic"] for row in ladder.checks] == [1.0, None]

    def test_exact_statistic_is_the_largest_yield(self):
        row = self._run("exact", lambda: iter([1.0, 7.0, 2.0]))
        assert row["statistic"] == 7.0 and not row["passed"]
        assert "entries" not in row

    def test_pairs_give_the_largest_z_and_the_summed_entries(self):
        row = self._run("statistical", lambda: iter([(1.5, 3), (4.0, 10), (2.0, 7)]))
        assert row["statistic"] == 4.0 and row["passed"]
        assert row["entries"] == 20
        assert row["false_alarm_bound"] == pytest.approx(20 * math.erfc(5 / math.sqrt(2)))

    @pytest.mark.parametrize("kind", ["exact", "statistical"])
    def test_empty_rung_is_skipped(self, kind):
        row = self._run(kind, lambda: iter(()))
        assert row["statistic"] is None and row["passed"] and row["skipped"]
        assert row.get("entries") is None

    @pytest.mark.parametrize("exc, code", [(DGFFError("bad", code="NotPD"), "NotPD"),
                                           (np.linalg.LinAlgError("bad"), "NumericError")])
    def test_raising_after_yielding_records_the_error_only(self, exc, code):
        def rung():
            yield 1.0, 4
            raise exc

        row = self._run("statistical", rung)
        assert row["error"] == code and row["message"] == "bad"
        assert row["statistic"] is None and not row["passed"] and "skipped" not in row
        assert row["entries"] is None and row["false_alarm_bound"] is None

    def test_refuted_after_yielding_keeps_its_entries(self):
        def rung():
            yield 1.0, 4
            raise verify._Refuted("exact part failed")

        row = self._run("statistical", rung)
        assert row["reason"] == "exact part failed" and "error" not in row
        assert row["statistic"] is None and not row["passed"] and row["entries"] == 4

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_yield_at_any_level_fails(self, bad):
        row = self._run("exact", lambda: iter([0.0, bad, 1.0]))
        assert row["statistic"] is None and not row["passed"]
        assert row["reason"] == f"statistic is {bad}"

    def test_nan_in_one_level_fails_the_rungs_that_read_it(self):
        # a NaN in B_top alone: each rung's other levels are finite, and a
        # running max(worst, nan) would keep the finite worst and pass
        g, fol = standard_fixture("grid5")
        stack = OperatorStack(g, fol)
        p, b, r = stack._step(stack.depth)
        bad = b.copy()
        bad[0, 0] = np.nan
        stack._cache[("step", stack.depth)] = (p, bad, r)
        rep = run_ladder(g, fol, trials=0, stack=stack)
        assert not rep["pass"]
        for name in ("green_inverse", "green_symmetry", "green_positive",
                     "green_variation", "green_monotone", "hadamard_identity"):
            row = _row(rep, name)
            assert row["statistic"] is None and row["reason"] == "statistic is nan"

    def test_nan_in_the_top_poisson_kernel_fails_poisson_bounds(self):
        # max(0.0, -p.min(), ...) in Python's max drops the NaN and reads 0.0.
        # The Green rungs that read P_n see the NaN too; those that read B_n
        # and R_n alone do not
        g, fol = standard_fixture("grid5")
        stack = OperatorStack(g, fol)
        bad = stack.poisson(stack.depth).copy()
        bad[0, 0] = np.nan
        stack._cache[("step", stack.depth)] = (bad, stack.boundary_green(stack.depth),
                                               stack.layer_sqrt(stack.depth))
        rep = run_ladder(g, fol, trials=0, stack=stack)
        for name in ("poisson_bounds", "poisson_harmonic", "green_inverse", "green_variation",
                     "hadamard_identity"):
            row = _row(rep, name)
            assert row["statistic"] is None and row["reason"] == "statistic is nan"
        for name in ("green_symmetry", "green_positive", "green_monotone"):
            assert _row(rep, name)["passed"], name

    def test_nan_in_a_kernel_fails_the_statistical_rungs_that_read_it(self):
        # a NaN at K_5[0, 0] on grid13: a running max(worst, z) from 0.0 kept
        # increment_independence's finite worst (z 3.92), and a mask se > 0
        # dropped the pairings' NaN standard errors (sweep_moments read 0.0)
        g, fol = standard_fixture("grid13")
        stack = OperatorStack(g, fol)
        bad = stack.kernel(5).copy()
        bad[0, 0] = np.nan
        stack._cache[("kernel", 5)] = bad
        rep = run_ladder(g, fol, seed=1, trials=2000, stack=stack)
        for name in ("increment_independence", "sweep_moments"):
            row = _row(rep, name)
            assert row["statistic"] is None and row["reason"] == "statistic is nan", name

    def test_nan_standard_errors_count_and_zeros_do_not(self):
        dev = np.array([[0.1, 0.2], [0.3, 0.0]])
        se = np.array([[0.1, 0.0], [np.nan, 1.0]])
        z, entries = sampling._zmax(dev, se)
        assert math.isnan(z) and entries == 3
        se[1, 0] = 0.5
        assert sampling._zmax(dev, se) == (pytest.approx(1.0), 3)
        assert sampling._zmax(dev, np.zeros((2, 2))) == (0.0, 0)

    def test_nan_reductions(self):
        m = np.array([[0.5, -2.0], [np.nan, 1.0]])
        assert math.isnan(verify._absmax(m)) and math.isnan(verify._scale(m))
        assert math.isnan(verify._peak(1.0, math.nan)) and math.isnan(verify._peak(math.nan))
        assert verify._absmax(m[:1]) == 2.0 and verify._scale(m[:1] / 4) == 1.0
        # a zero reads +0.0, as np.abs(...).max() did
        assert math.copysign(1.0, verify._absmax(np.zeros((2, 2)))) == 1.0


def test_depth_zero_ladder_skips_every_rung_past_level_zero():
    g = path_graph(3)
    fol = bfs_foliate(g, ("v1",))
    rep = run_ladder(g, fol, seed=1, trials=2000)
    assert rep["depth"] == 0 and len(rep["checks"]) == 17 and rep["pass"]
    skipped = [r["name"] for r in rep["checks"] if r.get("skipped")]
    assert skipped == ["poisson_harmonic", "green_variation", "green_monotone",
                       "increment_identity", "increment_harmonic",
                       "increment_independence", "sweep_moments"]
    for row in rep["checks"]:
        assert (row["statistic"] is None) == (row["name"] in skipped)


def _log_uniform(d):
    """The 21x21 grid with conductances 10^U(-d, d), one per edge in edge
    order from `np.random.default_rng(3)`, foliated from its centre."""
    g = grid_graph(21)
    rng = np.random.default_rng(3)
    edges = [(g.vertices[i], g.vertices[j], float(10.0 ** rng.uniform(-d, d)))
             for i, j in g.edge_list]
    g = from_edges(g.vertices, sorted(g.exterior, key=g.index.__getitem__), edges)
    return g, bfs_foliate(g, ("r10c10",))


def _raise_b5(stack):
    """Raise B_5[0, 0] by a relative 1e-6 in the stack's step cache."""
    p, b, r = stack._step(5)
    bad = b.copy()
    bad[0, 0] *= 1.0 + 1e-6
    stack._cache[("step", 5)] = (p, bad, r)


GREEN_RUNGS = ("green_inverse", "green_symmetry", "green_positive", "green_variation",
               "green_monotone")


class TestHighContrast:
    """Log-uniform conductances over up to 20 decades: cond(A_n) grows with
    the contrast, and the fixed 1e-10 gate on max |A G - I| failed correct
    builds from d = 6 (5.06e-10 there). The componentwise backward error of
    the layer columns reads about 1e-15 at every d."""

    @pytest.mark.parametrize("d", [0, 4, 6, 8, 10])
    def test_green_rungs_pass_correct_builds(self, d):
        rep = run_ladder(*_log_uniform(d), seed=3, trials=0)
        for name in GREEN_RUNGS:
            row = _row(rep, name)
            assert row["passed"] and row["statistic"] <= 1e-14, (name, row["statistic"])

    @pytest.mark.parametrize("d", [0, 4, 6, 8, 10])
    def test_raised_boundary_green_entry_trips_green_inverse(self, d):
        # B_5[0, 0] raised by a relative 1e-6 in the step cache: S_5 B_5 - I
        # reads about 5e-7 componentwise, however ill-conditioned A_5 is
        g, fol = _log_uniform(d)
        stack = OperatorStack(g, fol)
        _raise_b5(stack)
        assert verify._inverse_error(stack, 5) > 1e-7
        # from d = 8 a level above 5, built from the raised B_5, is refused
        # (NotPD), and the rung records that error instead of its statistic
        row = _row(run_ladder(g, fol, seed=3, trials=0, stack=stack), "green_inverse")
        assert not row["passed"]
        assert row["statistic"] is None or row["statistic"] > 1e-7


def _inverse_bounds(stack):
    """The bound on max |A_n G_n - I| that `verify`'s docstring states, per
    level, from the layer steps alone:
    r_n = max(l_n, r_{n-1} + rho(H_n) max |B_n X^T|, rho(S_n B_n - I) max |X|)
    + eps rho(A_n) max diag G_n, with diag G_n grown a layer at a time."""
    eps, bound, diag, out = np.finfo(float).eps, 0.0, np.zeros(0), []
    for n in range(stack.depth + 1):
        st, p, b = stack.stencil(n), stack.poisson(n), stack.boundary_green(n)
        k = st.size - len(b)
        resid = st.apply(p @ b)
        resid[k:] -= np.eye(len(b))
        x = -p[:k]
        terms = [np.abs(resid).max()]
        if k:
            h = st.apply(p, rows=k)
            terms += [bound + np.abs(h).sum(axis=1).max() * np.abs(b @ x.T).max(),
                      np.abs(resid[k:]).sum(axis=1).max() * np.abs(x).max()]
        diag = np.concatenate((diag + np.einsum("ij,ij->i", x @ b, x), np.diag(b)))
        bound = max(terms) + eps * np.abs(st.val).sum(axis=1).max() * diag.max()
        out.append(bound)
    return out


@pytest.mark.parametrize("graph", FIXTURES + ("grid13", "grid31", "weighted21"))
def test_dense_inverse_residual_is_within_the_layer_bound(graph):
    stack = OperatorStack(*_graph(graph))
    for n, bound in enumerate(_inverse_bounds(stack)):
        assert dense_reference.inverse_residual(stack, n) <= bound, n
        stack.release(n - 1)


def _tamper_kernel(stack, n, edit):
    bad = stack.kernel(n).copy()
    edit(bad)
    stack._cache[("kernel", n)] = bad


def _tamper_step(stack, n, part, edit):
    step = list(stack._step(n))
    step[part] = step[part].copy()
    edit(step[part])
    stack._cache[("step", n)] = tuple(step)


def _every_kernel(stack):
    for n in range(stack.depth + 1):
        stack.kernel(n)


def _scaled(col, factor):
    def edit(m):
        m[:, col] *= factor
    return edit


def _raised(i, j, by):
    def edit(m):
        m[i, j] += by
    return edit


def _criterion_11c(stack):
    k1 = stack.kernel(1).copy()
    k1[:, 0] = 0.0
    k1[stack.cluster(1).layer_start[1], 0] = stack.layer_sqrt(1)[0, 0]
    stack._cache[("kernel", 1)] = k1


def _nan_poisson_after_green(stack):
    stack.green(stack.depth)
    _tamper_step(stack, stack.depth, 0, _raised(0, 0, np.nan))


def _wrong_stencil_entry(stack):
    st = stack.stencil(stack.depth)
    i, j = 0, int(st.idx[0, 1])
    for a, b in ((i, j), (j, i)):
        st.val[a, int(np.flatnonzero(st.idx[a] == b)[0])] *= 1.5


def _tampered_poisson_after_kernels(stack):
    _every_kernel(stack)
    _tamper_step(stack, 1, 0, _scaled(0, 0.5))


def _tampered_poisson_after_green(stack):
    for n in range(stack.depth + 1):
        stack.growth(n)
        stack.green(n)
    _tamper_step(stack, 1, 0, _scaled(0, 0.5))


def _directed_p4():
    g, fol = standard_fixture("p4")
    return tamper_directed(g, "v2", "v1", 2.0), fol


# Every exact negative control of the suite: (graph, the tamper of a stack).
NEGATIVE_CONTROLS = {
    "criterion 11(a)": ("directed p4", lambda s: None),
    "top kernel": ("grid5", lambda s: _tamper_kernel(s, s.depth, _scaled(0, 0.5))),
    "kernel 0": ("grid5", lambda s: _tamper_kernel(s, 0, _raised(0, -1, 0.25))),
    "kernel 1": ("grid5", lambda s: _tamper_kernel(s, 1, _raised(0, -1, 0.25))),
    "criterion 11(c)": ("grid5", _criterion_11c),
    "criterion 11(d)": ("grid5", lambda s: _tamper_step(s, 1, 1, _raised(0, 1, 1e-6))),
    "poisson 1 after the kernels": ("grid5", _tampered_poisson_after_kernels),
    "poisson 1 after the green levels": ("grid5", _tampered_poisson_after_green),
    "nan in the top boundary green": ("grid5", lambda s: _tamper_step(
        s, s.depth, 1, _raised(0, 0, np.nan))),
    "nan in the top poisson kernel": ("grid5", _nan_poisson_after_green),
    "nan in the top kernel": ("grid5", lambda s: _tamper_kernel(
        s, s.depth, _raised(0, 0, np.nan))),
    "wrong stencil entry, grid5": ("grid5", _wrong_stencil_entry),
    "wrong stencil entry, grid13": ("grid13", _wrong_stencil_entry),
    "raised B_5, d = 4": ("log-uniform 4", _raise_b5),
}


@pytest.mark.parametrize("control", NEGATIVE_CONTROLS)
def test_layer_rungs_trip_wherever_the_dense_route_does(control):
    """Each exact negative control, tampered into two stacks alike: one
    read by the ladder's layer rungs, one by the dense readers the rungs
    replaced (`dense_reference.green_statistics`). A Green rung whose dense
    reading fails (past its gate, NaN, or unbuildable) fails in the ladder
    too."""
    graph, tamper = NEGATIVE_CONTROLS[control]
    g, fol = {"log-uniform 4": lambda: _log_uniform(4), "directed p4": _directed_p4}.get(
        graph, lambda: _graph(graph))()
    layer, dense = OperatorStack(g, fol), OperatorStack(g, fol)
    tamper(layer)
    tamper(dense)
    rep = run_ladder(g, fol, trials=0, stack=layer)
    tripped = {row["name"] for row in rep["checks"] if not row["passed"]}
    gates = {row["name"]: row["threshold"] for row in rep["checks"]}
    dense_tripped = {rung for rung, stat in dense_reference.green_statistics(dense).items()
                     if not stat <= gates[rung]}
    assert dense_tripped <= tripped, dense_tripped - tripped


def _isometry_graph(name):
    """`_graph`'s graphs, and the log-uniform 21x21 grids by their d."""
    if name.startswith("log-uniform"):
        return _log_uniform(int(name.split()[-1]))
    return _graph(name)


@pytest.mark.parametrize("graph", FIXTURES + ("grid13", "grid31", "weighted21", "log-uniform 0",
                                              "log-uniform 4", "log-uniform 6"))
def test_dense_gram_residual_is_within_the_per_level_reading(graph):
    """The bound `verify`'s docstring states: at every level n the dense
    Gram residual max |Q_n^T A Q_n - I|, read through
    `dense_reference.dirichlet_blocks`, is at most the largest of
    `isometry`'s readings at levels 0..n, as `dgff hadamard` prints it. A
    single block need not be: on p4 the dense block (0, 1) rounds to
    1.8e-17, where A K_1 and so level 1's reading are exactly 0."""
    stack = OperatorStack(*_isometry_graph(graph))
    readings = list(isometry_readings(stack, stack.depth))
    for n in range(stack.depth + 1):
        assert isometry_residual(dirichlet_blocks(stack, n)) <= max(readings[: n + 1]), n


ISOMETRY_CONTROLS = {
    "wrong stencil entry, grid5": ("grid5", _wrong_stencil_entry),
    "wrong stencil entry, grid13": ("grid13", _wrong_stencil_entry),
    "criterion 11(c)": ("grid5", _criterion_11c),
    "kernel entry at mid-depth": ("grid13", lambda s: _tamper_kernel(
        s, s.depth // 2, _raised(0, 0, 1e-6))),
}


@pytest.mark.parametrize("control", ISOMETRY_CONTROLS)
def test_isometry_trips_wherever_the_dense_gram_does(control):
    """Each control tampered into two stacks alike: the dense Gram of one
    fails the gate, and the ladder's per-level `isometry` on the other
    fails too."""
    graph, tamper = ISOMETRY_CONTROLS[control]
    g, fol = _graph(graph)
    layer, dense = OperatorStack(g, fol), OperatorStack(g, fol)
    tamper(layer)
    tamper(dense)
    row = _row(run_ladder(g, fol, trials=0, stack=layer), "isometry")
    assert isometry_residual(dirichlet_blocks(dense, dense.depth)) > row["threshold"]
    assert not row["passed"]
