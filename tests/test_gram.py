"""The Gram route of the Monte Carlo rungs: streamed noise Gram matrices,
their merging, and their agreement with the statistics of explicit blocks."""

import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from dgff import OperatorStack, kernels, sampling
from dgff.fixtures import standard_fixture
from dgff.sampling import (
    GaussianStream,
    NoiseGram,
    brownian_check,
    dgff_block,
    increment_cross_zmax,
    moment_report,
    noise_gram,
    sweep_average_check,
    wnf_block,
)
from dgff.verify import run_ladder

from block_reference import (
    covariance_report,
    cross_covariance_zmax,
    pairing_block,
    serial_noise_gram,
)
from conftest import green_diagonals, green_energies, layer_sweeps

RTOL = 1e-9


@pytest.fixture(scope="module", params=["grid5", "grid13"])
def routes(request):
    """One noise block at 2e4 trials, and its Gram matrix."""
    g, fol = standard_fixture(request.param)
    stack = OperatorStack(g, fol)
    phi = wnf_block(stack.cluster(stack.depth).vertices, GaussianStream(11), 20_000)
    return g, stack, phi, NoiseGram(phi.T @ phi, phi.shape[0])


class TestNoiseGram:
    STREAMS = np.arange(3, 12)
    N = 3001

    def test_matches_the_block(self):
        z = kernels.normal_block(5, self.STREAMS, 17, self.N)
        gram = noise_gram(5, self.STREAMS, 17, self.N)
        assert gram.trials == self.N
        np.testing.assert_allclose(gram.total, z.T @ z, rtol=1e-12)

    @pytest.mark.parametrize("chunk", [9, 100, 1000, 1 << 20])
    def test_independent_of_chunk_size(self, monkeypatch, chunk):
        ref = noise_gram(5, self.STREAMS, 17, self.N)
        monkeypatch.setattr(kernels, "_CHUNK", chunk)
        np.testing.assert_allclose(noise_gram(5, self.STREAMS, 17, self.N).total, ref.total,
                                   rtol=1e-12)

    @pytest.mark.parametrize("rows", [1, 11, 1000])
    def test_gram_blocking_changes_rounding_only(self, monkeypatch, rows):
        # products of `rows` draws each instead of one: the normals are the
        # same bits, so the sums differ by rounding, on the scale of their
        # Cauchy-Schwarz bound sqrt(S_ii S_jj)
        ref = noise_gram(5, self.STREAMS, 17, self.N).total
        monkeypatch.setattr(sampling, "_GRAM_ROWS", rows)
        monkeypatch.setattr(kernels, "_CHUNK", len(self.STREAMS))
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.all(np.abs(noise_gram(5, self.STREAMS, 17, self.N).total - ref) <= 1e-12 * scale)

    def test_two_workers_equal_one(self):
        # a draw depends only on its counter, so trials split by draw range
        one = GaussianStream(5).gram(self.STREAMS, self.N)
        half = self.N // 2
        a = GaussianStream(5).gram(self.STREAMS, half)
        b = GaussianStream(5, counter=half).gram(self.STREAMS, self.N - half)
        assert a.trials + b.trials == one.trials == self.N
        np.testing.assert_allclose(a.total + b.total, one.total, rtol=1e-12)

    def test_stream_counter_advances(self):
        stream = GaussianStream(5)
        first = stream.gram(self.STREAMS, 10)
        assert stream.counter == 10
        np.testing.assert_array_equal(
            stream.gram(self.STREAMS, 10).total, noise_gram(5, self.STREAMS, 10, 10).total)
        assert not np.array_equal(first.total, noise_gram(5, self.STREAMS, 10, 10).total)

    def test_cross_reads_a_prefix(self):
        z = kernels.normal_block(2, self.STREAMS, 0, 500)
        gram = NoiseGram(z.T @ z, 500)
        a = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose(gram.cross(a), (z[:, :4] @ a.T).T @ (z[:, :4] @ a.T) / 500,
                                   rtol=1e-12)


def _cpus(monkeypatch, n):
    """Let noise_gram see n usable CPUs."""
    monkeypatch.setattr(sampling.os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs, as a list that grows."""
    threads, start = [], threading.Thread.start

    def record(self):
        threads.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", record)
    return threads


class Injected(Exception):
    pass


class TestThreadedGram:
    """noise_gram draws on two threads and adds the blocks in draw order, so
    its total is the serial sum's to the bit."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("k,ndraws", [
        (1, 0), (1, 300_001),               # 65536 draws per block: three tasks
        (9, 0), (9, 1000), (9, 40_000),     # 7281 per block: below it, and 5.5 blocks
        (121, 5000), (841, 700), (841, 5000)])  # 1024 per block
    def test_equals_the_serial_sum(self, monkeypatch, started, cpus, k, ndraws):
        _cpus(monkeypatch, cpus)
        streams = np.arange(2, 2 + k)
        gram = noise_gram(5, streams, 3, ndraws)
        assert gram.trials == ndraws
        np.testing.assert_array_equal(gram.total, serial_noise_gram(5, streams, 3, ndraws))
        tasks = -(-ndraws // (2 * max(sampling._GRAM_ROWS, kernels._CHUNK // k)))
        assert len(started) == (2 if cpus == 2 and tasks > 1 else 0)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("draw0", [0, 3])
    def test_tiny_blocks(self, monkeypatch, cpus, draw0):
        # blocks of two draws, tasks of four: odd boundaries inside and
        # between tasks, and many more tasks than threads
        _cpus(monkeypatch, cpus)
        monkeypatch.setattr(kernels, "_CHUNK", 6)
        monkeypatch.setattr(sampling, "_GRAM_ROWS", 1)
        streams = np.array([4, 0, 17])
        np.testing.assert_array_equal(noise_gram(5, streams, draw0, 27).total,
                                      serial_noise_gram(5, streams, draw0, 27))

    def test_worker_failure_is_raised_and_every_thread_joined(self, monkeypatch, started):
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(kernels, "_CHUNK", 6)
        monkeypatch.setattr(sampling, "_GRAM_ROWS", 1)
        calls, fill = itertools.count(1), kernels._fill_draws

        def fail_third(*args):
            if next(calls) == 5:  # a task draws two blocks: the third task's first
                raise Injected("third task")
            return fill(*args)

        monkeypatch.setattr(kernels, "_fill_draws", fail_third)
        baseline = threading.active_count()
        with pytest.raises(Injected, match="third task"):
            noise_gram(5, np.arange(3), 1, 40)
        assert len(started) == 2
        assert not any(t.is_alive() for t in started)
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_memory_does_not_grow_with_the_draws(self, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        streams = np.arange(9)

        def peak(ndraws):
            tracemalloc.start()
            try:
                noise_gram(5, streams, 0, ndraws)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        pairs = kernels._CHUNK // 9 // 2 + 1  # of one block of draws
        task_bytes = 8 * 9 * pairs * (2 + 3)    # a thread's pairs buffer and scratch
        assert abs(peak(1_000_000) - peak(100_000)) <= task_bytes
        assert peak(1_000_000) <= (cpus + 1) * task_bytes


def test_in_order_under_thread_switching():
    # eight threads on fewer CPUs, switching every microsecond: each task is
    # begun once and taken once, in order, with at most nine begun and not
    # yet taken
    workers, tasks, lock = 8, list(range(400)), threading.Lock()
    begun, taken, open_, most = [], [], [0], [0]

    def work(state, task):
        with lock:
            begun.append(task)
            open_[0] += 1
            most[0] = max(most[0], open_[0])
        return task * task

    def take(result):
        with lock:
            open_[0] -= 1
        taken.append(result)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=sampling._in_order, args=(tasks, lambda: None, work, take, workers))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(begun) == tasks and taken == [t * t for t in tasks]
    assert most[0] <= workers + 1


class TestEquivalence:
    """Same noise: the Gram route equals the block route to rtol 1e-9."""

    def test_dgff_covariance(self, routes):
        g, stack, phi, gram = routes
        for n, grown in enumerate(dgff_block(stack, phi)):
            target = stack.green(n).normalized
            block = covariance_report(grown, target, 11)
            streamed = moment_report(gram.cross(stack.growth(n)), target, gram.trials, 11)
            np.testing.assert_allclose(streamed.empirical, block.empirical, rtol=RTOL)
            assert streamed.max_abs_z == pytest.approx(block.max_abs_z, rel=RTOL)
            assert streamed.entries == block.entries == target.size

    def test_increment_independence(self, routes):
        g, stack, phi, gram = routes
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
        worst = 0.0
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                worst = max(worst, cross_covariance_zmax(blocks[i], blocks[j],
                                                         variances[i], variances[j]))
        assert (increment_cross_zmax(stack, gram, green_diagonals(stack))[0]
                == pytest.approx(worst, rel=RTOL))

    def test_brownian_moments(self, routes):
        g, stack, phi, gram = routes
        f = np.zeros(g.n_vertices)
        top = stack.cluster(stack.depth)
        f[np.array(top.vertices)] = GaussianStream(3).draw(top.vertices)
        rep = brownian_check(stack, f, green_energies(stack, f))
        target = np.minimum.outer(rep.variance_targets, rep.variance_targets)
        np.testing.assert_array_equal(rep.target, target)
        streamed = moment_report(gram.cross(rep.coef), rep.target, gram.trials, 11)
        block = covariance_report(pairing_block(stack, f, phi), target, 11)
        np.testing.assert_allclose(streamed.empirical, block.empirical, rtol=RTOL)
        assert streamed.max_abs_z == pytest.approx(block.max_abs_z, rel=RTOL)
        assert streamed.trials == phi.shape[0]

    def test_sweep_covariance(self, routes):
        g, stack, phi, gram = routes
        n2 = stack.depth
        f = np.zeros(g.n_vertices)
        base = stack.cluster(1)
        f[np.array(base.vertices)] = GaussianStream(4).draw(base.vertices)
        rep = sweep_average_check(stack, f, layer_sweeps(stack, f))
        streamed = moment_report(gram.cross(rep.coef), rep.target, gram.trials, 11)
        big = list(dgff_block(stack, phi))[n2]
        clu2 = stack.cluster(n2)
        a = np.column_stack([
            big[:, clu2.layer_slice(n)]
            @ (stack.poisson(n).T @ f[np.array(stack.cluster(n).vertices)])
            for n in range(1, n2 + 1)])
        idx = np.arange(n2)
        target = rep.variance_targets[np.maximum.outer(idx, idx)]
        np.testing.assert_array_equal(rep.target, target)
        block = covariance_report(a, target, 11)
        np.testing.assert_allclose(streamed.empirical, block.empirical, rtol=RTOL)
        assert streamed.max_abs_z == pytest.approx(block.max_abs_z, rel=RTOL)


class TestSweepIdentity:
    def test_holds_on_coefficients_without_noise(self):
        g, fol = standard_fixture("grid13")
        stack = OperatorStack(g, fol)
        f = np.zeros(g.n_vertices)
        base = stack.cluster(1)
        f[np.array(base.vertices)] = GaussianStream(8).draw(base.vertices)
        rep = sweep_average_check(stack, f, layer_sweeps(stack, f))
        assert rep.coef.shape == (stack.depth, stack.cluster(stack.depth).size)
        assert rep.identity_residual <= 1e-10 * rep.identity_scale
        coef = stack.growth_adjoint_apply(f)
        assert rep.identity_scale == max(1.0, float(np.abs(coef).max()))

    def test_tampered_poisson_kernel_fails_the_sweep_rung(self):
        # the kernels (and so the field) and the Green levels are built from
        # the true P_1; the sweep then reads a corrupted one
        g, fol = standard_fixture("grid5")
        stack = OperatorStack(g, fol)
        for n in range(stack.depth + 1):
            stack.growth(n)
            stack.green(n)
        bad = stack.poisson(1).copy()
        bad[:, 0] *= 0.5
        stack._cache[("step", 1)] = (bad, stack.boundary_green(1), stack.layer_sqrt(1))
        rep = run_ladder(g, fol, seed=1, trials=2000, stack=stack)
        row = next(r for r in rep["checks"] if r["name"] == "sweep_moments")
        assert not row["passed"] and row["statistic"] is None
        assert "boundary-average identity" in row["reason"]


def test_grid5_entry_counts():
    g, fol = standard_fixture("grid5")
    stack = OperatorStack(g, fol)
    rep = run_ladder(g, fol, seed=1, trials=2000, stack=stack)
    sizes = [stack.cluster(n).size for n in range(stack.depth + 1)]
    assert sizes == [1, 5, 9]
    squares = sum(k * k for k in sizes)
    expected = {
        "dgff_covariance": squares,
        "oracle_covariance": squares,
        "oracle_agreement": squares,
        "increment_independence": sum(sizes[i] * sizes[j] for i in range(3)
                                      for j in range(i + 1, 3)),
        "brownian_moments": (stack.depth + 1) ** 2,
        "sweep_moments": stack.depth ** 2,
    }
    rows = {r["name"]: r for r in rep["checks"] if r["kind"] == "statistical"}
    assert {name: r["entries"] for name, r in rows.items()} == expected
    for r in rows.values():
        assert r["false_alarm_bound"] == pytest.approx(
            min(1.0, r["entries"] * math.erfc(5.0 / math.sqrt(2))))
    assert all("entries" not in r for r in rep["checks"] if r["kind"] == "exact")


@pytest.mark.parametrize("name", ["grid5", "grid13"])
@pytest.mark.parametrize("seed", [1, 42])
def test_every_rung_passes_at_1e5_trials(name, seed):
    rep = run_ladder(*standard_fixture(name), seed=seed, trials=100_000)
    assert len(rep["checks"]) == 17
    assert rep["pass"], [r["name"] for r in rep["checks"] if not r["passed"]]
