"""Seeded Gaussian fields on foliated graphs and the statistics that verify
their laws.

Randomness is counter based: a draw is a pure function of (seed, stream id,
draw index), with the global vertex index as the stream id; draws 2p and
2p+1 are the two halves of one Box-Muller pair (`dgff.kernels`, stream
version 2), which a block starting or ending at an odd draw computes whole.
Identical seeds reproduce identical noise for a given numpy build, and
identical fields on a fixed machine and BLAS build; disjoint vertex sets get
independent substreams by construction.

The white noise field (WNF) puts an independent standard normal at every
vertex of its domain. Applying the growth operator of cluster n turns the
WNF on the top cluster into the discrete Gaussian free field (DGFF) on
cluster n, whose covariance is the normalized Green matrix. The per-level
increment equals the harmonic extension of the square-root-weighted layer
noise, a per-sample identity checked exactly. An independent oracle samples
the same law through the top Laplacian's Cholesky factor, grown like Q_n.

Distributional claims are tested through second moments, and every field
they look at is a linear image A z of the top cluster's white noise z: the
DGFF Q_n z, its increments K_n z_{L_n} = (Q_n - Q_{n-1} zero-extended) z,
the pairings <f, Psi_n> = (Q_n^* f) . z. So every empirical second moment
is A S B^T, with S = sum z z^T / N the noise's Gram matrix, and the Monte
Carlo keeps S alone (the Gram route). `noise_gram` sums it one block of at
least 1024 draws at a time, never holding a trials x k block. The blocks
are drawn on two threads when the process may use two CPUs, and added in
draw order, so S has the same bits on one thread or two; two draw ranges
merge by adding their sums, to rounding. `brownian_check` and
`sweep_average_check` draw nothing: they return the coefficient rows of
the pairings and of the boundary averages, all read off Q_top^* f and
Q_top^* of the sweeps P_n^* f (Q_n^* f is the leading k_n entries of
Q_top^* f), with their exact covariance, and the caller scores them on its
S. The caller collects each Q_top^* v a layer piece K_n^T v[:k_n] per level.
`grown_covariances` grows every level's T_n S T_n^T from the layer columns
of T, yielding one level at a time: the kernels K_n for the DGFF, and for
the oracle, whose noise Gram has its own disjoint draw range, those of W.
Explicit samples exist only as blocks of trials, one trial per row:
`wnf_block` draws the noise and `dgff_block` grows every level from it one
layer at a time (`grow_field`), for `dgff sample`; the exact per-sample
rungs grow theirs a level per round (`GaussianStream.reserve`).

The empirical covariance of a zero-mean Gaussian sample has per-entry
standard error sqrt((s_xx s_yy + s_xy^2) / N), and every check asserts |z|
below a fixed bound (5 by default, a per-entry false-alarm rate of 5.7e-7
for a normal z-score); each report counts the entries its maximum is
taken over.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import kernels
from .errors import SupportViolationError
from .hadamard import OperatorStack
from .operators import GreenKernel


@dataclass
class GaussianStream:
    """Counter-based source of standard normals with named substreams."""

    seed: int
    counter: int = 0

    def block(self, streams, ndraws: int) -> np.ndarray:
        """(ndraws, len(streams)) normals; advances the draw counter."""
        s = np.asarray(streams, dtype=np.uint64)
        out = kernels.normal_block(self.seed, s, self.counter, ndraws)
        self.counter += ndraws
        return out

    def draw(self, streams) -> np.ndarray:
        return self.block(streams, 1)[0]

    def reserve(self, ndraws: int) -> Callable[..., np.ndarray]:
        """Skip the next `ndraws` draws and return `draws(streams)`, which
        makes them later, bit for bit: a draw is a pure function of (seed,
        stream, counter), so they are the columns `block` would make now."""
        self.counter += ndraws
        return partial(kernels.normal_block, self.seed, draw0=self.counter - ndraws, ndraws=ndraws)

    def gram(self, streams, ndraws: int) -> NoiseGram:
        """`noise_gram` of the next `ndraws` draws; advances the draw counter."""
        out = noise_gram(self.seed, streams, self.counter, ndraws)
        self.counter += ndraws
        return out


def wnf_block(domain, stream: GaussianStream, trials: int) -> np.ndarray:
    """(trials, |domain|) WNF samples in the order of `domain`."""
    return stream.block(np.asarray(list(domain), dtype=int), trials)


def grow_field(kernel: np.ndarray, z: np.ndarray, prev: np.ndarray | None) -> np.ndarray:
    """Psi_n = (Psi_{n-1} + 0) + K_n z_{L_n} for a block of trials, one per
    row, from K_n, the layer noise z_{L_n} and Psi_{n-1} (None at level 0)."""
    psi = z @ kernel.T
    if prev is not None:
        psi[:, : prev.shape[1]] += prev
    return psi


def dgff_block(stack: OperatorStack, phi_block: np.ndarray) -> Iterator[np.ndarray]:
    """Yield DGFF samples Psi_0..Psi_N, one (trials, k_n) block per level,
    each grown by `grow_field` from the one before, with no dense Q_n.
    `phi_block` holds WNF rows over the top cluster, in its vertex order,
    whose prefix is the order of every smaller cluster. The kernels come
    from the layer steps alone, and no Green level is built: a caller that
    takes Psi_n in round n of `OperatorStack.walk` keeps two layer steps."""
    top = stack.cluster(stack.depth)
    psi = None
    for n in range(stack.depth + 1):
        psi = grow_field(stack.kernel(n), phi_block[:, top.layer_slice(n)], psi)
        yield psi


# ---------------------------------------------------------------------------
# Streamed second moments of the noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseGram:
    """Sufficient statistic of zero-mean noise over a range of draws: the
    sum of z z^T over the draws, and their number.

    Two ranges merge by adding totals and trial counts (Chan, Golub &
    LeVeque 1979; the mean is known to be zero, so no correction term).
    """

    total: np.ndarray
    trials: int

    def cross(self, a: np.ndarray) -> np.ndarray:
        """Empirical covariance a S a^T of the image a z, with
        S = sum z z^T / N. The columns of `a` cover the leading noise
        coordinates: every cluster order is a prefix of the top's."""
        return a @ self.total[: a.shape[1], : a.shape[1]] @ a.T / self.trials


_GRAM_ROWS = 1024  # fewest draws per z^T z product: narrower ones cost up to 1.8x more


def _workers() -> int:
    """Draw threads for `noise_gram`: two when this process may run on two
    CPUs, else one, which draws in the calling thread."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    return 2 if len(cpus) >= 2 else 1


def _task_grams(hs: np.ndarray, draw0: int, ndraws: int, rows: int,
                buffers: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """z_b^T z_b of each block of `rows` draws in [draw0, draw0 + ndraws),
    in order, each block drawn into one thread's `buffers`. No public dgff
    function is called here: the tracer's span stack is not thread-safe."""
    grams = []
    for r0 in range(0, ndraws, rows):
        z = kernels._fill_draws(hs, draw0 + r0, min(rows, ndraws - r0), *buffers)
        grams.append(z.T @ z)
    return grams


def _in_order(tasks: Sequence, start, work, take, workers: int) -> None:
    """take(work(start(), task)) for each task, in order of `tasks`.

    With two or more workers and tasks, `work` runs on that many threads,
    each with its own state from `start`, while the calling thread takes
    the results in order; at most workers + 1 tasks are begun and not yet
    taken. A worker's exception is raised here, after every thread has
    been joined. Otherwise everything runs in the calling thread.
    """
    if workers < 2 or len(tasks) < 2:
        state = start()
        for task in tasks:
            take(work(state, task))
        return
    done: dict[int, object] = {}
    failed: list[BaseException] = []
    begun = [0]
    cond, slots = threading.Condition(), threading.Semaphore(workers + 1)

    def run() -> None:
        try:
            state = start()
            while True:
                slots.acquire()
                with cond:
                    i = begun[0]
                    if i == len(tasks):
                        return
                    begun[0] += 1
                result = work(state, tasks[i])
                with cond:
                    done[i] = result
                    cond.notify_all()
        except BaseException as exc:  # re-raised by the calling thread
            with cond:
                failed.append(exc)
                cond.notify_all()

    threads = [threading.Thread(target=run, daemon=True) for _ in range(workers)]
    try:
        for t in threads:
            t.start()
        for i in range(len(tasks)):
            with cond:
                cond.wait_for(lambda: i in done or failed)
                if failed:
                    raise failed[0]
                result = done.pop(i)
            take(result)
            slots.release()
    finally:
        with cond:
            begun[0] = len(tasks)  # no task begins after this
        for _ in threads:
            slots.release()
        for t in threads:
            if t.ident is not None:  # started
                t.join()


def noise_gram(seed: int, streams, draw0: int, ndraws: int) -> NoiseGram:
    """Gram matrix of the normals of `streams` over draws [draw0, draw0 + ndraws).

    The draws are summed one block of rows at a time, about 2^16 normals
    (`kernels._CHUNK`) and at least _GRAM_ROWS draws: `total` adds each
    block's z_b^T z_b in block order. A task draws two blocks, one chunk of
    pairs when k <= 64, and the tasks run on two threads when the process
    may use two CPUs (`_workers`); numpy releases the GIL in its ufuncs and
    products. Each thread draws into buffers it allocates once per call,
    so memory stays O(_GRAM_ROWS k + k^2) per thread for any number of
    draws, and the calling thread adds the tasks' products in order: the
    bits of `total` do not depend on the number of threads. Each draw
    depends only on its own counter: a split of the range changes the sum
    only by rounding.
    """
    s = np.asarray(streams, dtype=np.uint64)
    k = s.shape[0]
    rows = max(_GRAM_ROWS, kernels._CHUNK // max(k, 1))
    hs = kernels._stream_hashes(seed, s)
    tasks = [(draw0 + r0, min(2 * rows, ndraws - r0)) for r0 in range(0, ndraws, 2 * rows)]
    npairs = min(rows, ndraws) // 2 + 1  # the most pairs a block can cover
    total = np.zeros((k, k))

    def add(grams: list[np.ndarray]) -> None:
        for g in grams:
            np.add(total, g, out=total)

    _in_order(tasks, lambda: (np.empty((npairs, 2, k)), *kernels._scratch(npairs, k)),
              lambda buffers, task: _task_grams(hs, *task, rows, buffers), add, _workers())
    return NoiseGram(total, ndraws)


def grown_covariances(kernels: Iterable[np.ndarray], gram: NoiseGram) -> Iterator[np.ndarray]:
    """Yield the empirical covariances C_n = T_n S T_n^T, n = 0..N,
    S = sum z z^T / N, of T_n = (T_{n-1} + 0 | K_n) given by its layer
    columns K_n, level by level.

    Level n grows from n-1 with U_n = T_n S[:k_n, :]: C_n = (C_{n-1} + 0) +
    X + X^T + K_n S[L_n, L_n] K_n^T, X = U_{n-1}[:, L_n] K_n^T in the leading
    k_{n-1} rows, and U_n = (U_{n-1} + 0) + K_n S[L_n, :]; sum_n k_n k_top |L_n|
    flops in all, against sum_n k_n^3 for the products with a dense T_n.
    K_n is read when level n is due, and only C_{n-1} is kept."""
    s = gram.total / gram.trials
    u, prev = np.zeros_like(s), None  # U_n is u[:k_n]
    for kern in kernels:
        k, lo = kern.shape[0], kern.shape[0] - kern.shape[1]  # L_n = lo:k
        x = u[:lo, lo:k] @ kern.T
        c = kern @ s[lo:k, lo:k] @ kern.T
        c[:lo] += x
        c[:, :lo] += x.T
        if prev is not None:
            c[:lo, :lo] += prev
        u[:k] += kern @ s[lo:k]
        yield c
        prev = c


# ---------------------------------------------------------------------------
# Covariance statistics
# ---------------------------------------------------------------------------

def covariance_stderr(target: np.ndarray, trials: int) -> np.ndarray:
    """Per-entry standard error of the zero-mean Gaussian covariance
    estimator: sqrt((s_xx s_yy + s_xy^2) / N)."""
    d = np.diag(target)
    return np.sqrt((np.outer(d, d) + target ** 2) / trials)


@dataclass
class CovarianceReport:
    empirical: np.ndarray
    target: np.ndarray
    max_abs_z: float
    trials: int
    seed: int
    entries: int          # z-scores with a positive standard error

    def summary(self) -> dict:
        """The statistic and what it was taken over, without the matrices."""
        return {"max_abs_z": self.max_abs_z, "entries": self.entries,
                "trials": self.trials, "seed": self.seed}

    def to_json(self) -> dict:
        return {**self.summary(), "empirical": self.empirical.tolist(),
                "target": self.target.tolist()}


def _zmax(dev: np.ndarray, se: np.ndarray) -> tuple[float, int]:
    """Largest |dev| / se over the entries whose se is not zero, and their
    number: a NaN standard error counts, and makes the largest |z| NaN."""
    mask = ~(se <= 0)
    if not mask.any():
        return 0.0, 0
    return float((np.abs(dev)[mask] / se[mask]).max()), int(np.count_nonzero(mask))


def moment_report(emp: np.ndarray, target: np.ndarray, trials: int,
                  seed: int) -> CovarianceReport:
    """z-scores of an empirical zero-mean covariance over `trials` draws."""
    with np.errstate(invalid="ignore"):
        z, entries = _zmax(emp - target, covariance_stderr(target, trials))
    return CovarianceReport(empirical=emp, target=target, max_abs_z=z,
                            trials=trials, seed=seed, entries=entries)


def cross_moment_zmax(emp: np.ndarray, var_a: np.ndarray, var_b: np.ndarray,
                      trials: int) -> tuple[float, int]:
    """Largest |z| of an empirical cross-covariance whose true value is
    zero, and the number of entries it is taken over; `var_a`/`var_b` are
    the exact variances."""
    return _zmax(emp, np.sqrt(np.outer(var_a, var_b) / trials))


def two_sample_zmax(emp_a: np.ndarray, emp_b: np.ndarray, trials: int,
                    target: np.ndarray) -> tuple[float, int]:
    """Largest |z| for the difference of two empirical covariances of the
    same law, each over `trials` draws, using the joint standard error, and
    the number of entries it is taken over."""
    return _zmax(emp_a - emp_b, np.sqrt(2.0 * covariance_stderr(target, trials) ** 2))


def increment_cross_zmax(gram: NoiseGram, kernels: Sequence[np.ndarray],
                         variances: Sequence[np.ndarray]) -> tuple[float, int]:
    """Largest |z| over the empirical cross-covariances of the increment of
    level n = len(kernels) - 1 with Psi_0 and each increment i < n, whose
    true values are zero; with the number of entries.

    The increment Psi_i - Psi_{i-1} is K_i z_{L_i} (Psi_0 is K_0 z_{L_0}),
    L_i the last |L_i| of K_i's k_i rows, so the cross-covariance of levels
    i and n is K_i S[L_i, L_n] K_n^T. `variances` holds the exact variances
    of levels 0..n: diag G_0, then diag G_i - (diag G_{i-1} + 0).
    """
    k_n, zs, entries = kernels[-1], [0.0], 0
    layer = slice(len(k_n) - k_n.shape[1], len(k_n))
    for k_i, var_i in zip(kernels[:-1], variances):
        s_in = gram.total[len(k_i) - k_i.shape[1]: len(k_i), layer]
        z, m = cross_moment_zmax(k_i @ s_in @ k_n.T / gram.trials, var_i, variances[-1],
                                 gram.trials)
        zs.append(z)
        entries += m
    return float(np.max(zs)), entries  # np.max keeps a NaN, which Python's max drops


# ---------------------------------------------------------------------------
# Brownian-motion and boundary-average coefficients
# ---------------------------------------------------------------------------

@dataclass
class BrownianReport:
    """Pairings F_n = <f, Psi_n> seen as a Brownian motion in the energy
    time T_n = ||Q_n^* f||^2: their coefficients over the top cluster's
    noise, their exact covariance and its exact diagnostics."""

    coef: np.ndarray                      # row n: Q_n^* f, zero-padded to k_top
    target: np.ndarray                    # cov(F_n, F_m) = min(T_n, T_m)
    variance_targets: np.ndarray          # T_n per level n
    pythagoras_residual: float            # max_n |f_n^T G_n f_n - T_n|
    targets_monotone: bool                # f_n^T G_n f_n grows with n

    def to_json(self, cov: CovarianceReport) -> dict:
        """The exact diagnostics, with the summary of `cov`, the pairings'
        empirical covariance scored against `target`."""
        return {
            "variance_targets": self.variance_targets.tolist(),
            "pythagoras_residual": self.pythagoras_residual,
            "targets_monotone": self.targets_monotone,
            **cov.summary(),
        }


def green_energy(kern: GreenKernel, f: np.ndarray) -> float:
    """The Green energy f_n^T G_n f_n of ambient f, f_n its restriction to
    the kernel's cluster."""
    f_n = np.asarray(f, dtype=float)[np.array(kern.cluster.vertices)]
    return float(f_n @ kern.normalized @ f_n)


def brownian_check(pieces: Sequence[np.ndarray], energies: Sequence[float]) -> BrownianReport:
    """Coefficients of the pairings of f with Psi_0..Psi_N, their exact
    covariance, and two exact checks on the Green route.

    `pieces` holds the layer pieces K_n^T f[:k_n] of c = Q_top^* f, n = 0..N.
    F_n is the pairing of the noise with Q_n^* f, the leading k_n entries
    of c, so T_n = |c[:k_n]|^2 and cov(F_n, F_m) = min(T_n, T_m).
    The checks read the Green matrices, not the kernels, through
    `energies`, the Green energies E_n = f_n^T G_n f_n (`green_energy`) of
    levels 0..N: the Hadamard formula summed over the layers is
    Q_n Q_n^T = G_n, so the Pythagoras residual compares E_n with T_n; and
    E_n grows with n, as G_n - (G_{n-1} + 0) is PSD.
    """
    c, sizes = np.concatenate(pieces), np.cumsum([len(p) for p in pieces])
    coef = np.zeros((len(sizes), c.shape[0]))
    targets, energies = np.empty(len(sizes)), np.array(energies, dtype=float)
    for n, k in enumerate(sizes):
        coef[n, :k] = c[:k]
        targets[n] = float(c[:k] @ c[:k])
    return BrownianReport(
        coef=coef, target=np.minimum.outer(targets, targets), variance_targets=targets,
        pythagoras_residual=float(np.abs(energies - targets).max()),
        targets_monotone=bool(np.all(np.diff(energies)
                                     >= -1e-12 * max(energies.max(), 1.0))))


@dataclass
class SweepReport:
    """Boundary averages A_n = <P_n^* f, Psi_N> for the layers n = 1..N:
    their coefficients over the top cluster's noise, their exact covariance
    and the telescoping identity's residual."""

    coef: np.ndarray                      # row n-1: a_n
    target: np.ndarray                    # cov(A_n, A_m) = T_N - T_{max(n, m)-1}
    variance_targets: np.ndarray          # T_N - T_{n-1}
    identity_residual: float              # a_n vs F_N - F_{n-1}, on coefficients
    identity_scale: float

    def to_json(self, cov: CovarianceReport) -> dict:
        """The exact diagnostics, with the summary of `cov`, the averages'
        empirical covariance scored against `target`."""
        return {
            "n1": 1,
            "n2": len(self.variance_targets),
            "identity_residual": self.identity_residual,
            "variance_targets": self.variance_targets.tolist(),
            **cov.summary(),
        }


def sweep_average_check(stack: OperatorStack, f: np.ndarray,
                        pieces: Sequence[Sequence[np.ndarray]]) -> SweepReport:
    """Sweep f, supported on cluster 1, onto each layer n = 1..N and pair
    with Psi_N; the foliation needs N >= 1. `pieces[m]` holds level m's
    layer pieces K_m^T v[:k_m] of Q_top^* v, m = 0..N, for v = f and then
    for each sweep s_n = P_n^* f = P_n^T f[cluster n] placed on layer n,
    n = 1..N, which the caller takes.

    The pairing telescopes: A_n(f) = F_N(f) - F_{n-1}(f), because
    Psi_N - Psi_{n-1} is the harmonic extension of Psi_N's layer-n values.
    All three are linear in the noise, so the identity is checked on their
    coefficient vectors over the top cluster's noise, which makes it hold
    for every noise vector. With c = Q_top^* f, F_{n-1} has coefficients
    c[:k_{n-1}], and A_n has a_n = Q_top^* s_n. The residual is the largest
    entry of a_n - (c - c[:k_{n-1}] + 0), the scale max(1, max |c|).
    Variances follow: for n <= m, cov(A_n, A_m) = T_N - T_{m-1}.
    """
    allowed = set(stack.cluster(1).vertices)
    if any(int(v) not in allowed for v in np.flatnonzero(f)):
        raise SupportViolationError("test vector must be supported on cluster 1")

    c, sizes = np.concatenate([p[0] for p in pieces]), np.cumsum([len(p[0]) for p in pieces])
    depth = len(sizes) - 1
    t = np.array([float(c[:k] @ c[:k]) for k in sizes])
    a = np.empty((depth, c.shape[0]))
    resid = [0.0]
    for n in range(1, depth + 1):
        a[n - 1] = np.concatenate([p[n] for p in pieces])
        telescoped = c.copy()
        telescoped[: sizes[n - 1]] = 0.0  # c[:k_{n-1}] is F_{n-1}'s coefficients
        resid.append(np.abs(a[n - 1] - telescoped).max())

    later = np.maximum.outer(np.arange(depth), np.arange(depth))  # max(n, m) - 1
    # np.max keeps a NaN, which Python's max drops
    return SweepReport(coef=a, target=t[depth] - t[later],
                       variance_targets=t[depth] - t[:depth],
                       identity_residual=float(np.max(resid)),
                       identity_scale=float(np.max((1.0, np.abs(c).max()))))
