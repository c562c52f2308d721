"""Seeded Gaussian fields on foliated graphs and the statistics that verify
their laws.

Randomness is counter based: a draw is a pure function of (seed, stream id,
draw index), with the global vertex index as the stream id. Identical seeds
reproduce identical noise for a given numpy build, and identical fields on a
fixed machine and BLAS build; disjoint vertex sets get independent
substreams by construction.

The white noise field (WNF) puts an independent standard normal at every
vertex of its domain. Applying the growth operator of cluster n turns the
WNF on the top cluster into the discrete Gaussian free field (DGFF) on
cluster n, whose covariance is the normalized Green matrix. The per-level
increment equals the harmonic extension of the square-root-weighted layer
noise, a per-sample identity checked exactly. An independent oracle samples
the same law directly through the Cholesky factor of the Green matrix.

Distributional claims are tested through second moments, and every field
they look at is a linear image A z of the top cluster's white noise z: the
DGFF Q_n z, its increments K_n z_{L_n} = (Q_n - Q_{n-1} zero-extended) z,
the pairings <f, Psi_n> = (Q_n^* f) . z. So every empirical second moment
is A S B^T, with S = sum z z^T / N the noise's Gram matrix, and the Monte
Carlo keeps S alone (the Gram route). `noise_gram` sums it one generator chunk of draws
at a time, never holding a trials x k block, and two draw ranges merge by
adding their sums, so the trials can be split across workers by draw
range. The oracle draws one top-cluster noise block of its own, in a draw
range disjoint from the DGFF's; cluster orders are prefixes of the top
cluster's, so level n's oracle uses the leading k_n x k_n corner of that
block's Gram matrix. Explicit samples exist only as blocks of trials, one
trial per row: `wnf_block` draws the noise and `dgff_block` grows it, for
`dgff sample` and the exact per-sample rungs.

The empirical covariance of a zero-mean Gaussian sample has per-entry
standard error sqrt((s_xx s_yy + s_xy^2) / N), and every check asserts |z|
below a fixed bound (5 by default, a per-entry false-alarm rate of 5.7e-7
for a normal z-score); each report counts the entries its maximum is
taken over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, linalg
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

    def gram(self, streams, ndraws: int) -> NoiseGram:
        """`noise_gram` of the next `ndraws` draws; advances the draw counter."""
        out = noise_gram(self.seed, streams, self.counter, ndraws)
        self.counter += ndraws
        return out


def wnf_block(domain, stream: GaussianStream, trials: int) -> np.ndarray:
    """(trials, |domain|) WNF samples in the order of `domain`."""
    return stream.block(np.asarray(list(domain), dtype=int), trials)


def dgff_block(stack: OperatorStack, n: int, phi_block: np.ndarray) -> np.ndarray:
    """DGFF samples on cluster n from WNF rows over the top cluster.

    `phi_block` columns follow the top cluster's vertex order, whose prefix
    is the order of every smaller cluster.
    """
    k = stack.cluster(n).size
    return phi_block[:, :k] @ stack.growth(n).T


# ---------------------------------------------------------------------------
# Streamed second moments of the noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseGram:
    """Sufficient statistic of zero-mean noise over a range of draws: the
    sum of z z^T over the draws, and their number.

    Two ranges merge by adding (Chan, Golub & LeVeque 1979; the mean is
    known to be zero, so no correction term appears).
    """

    total: np.ndarray
    trials: int

    def __add__(self, other: NoiseGram) -> NoiseGram:
        return NoiseGram(self.total + other.total, self.trials + other.trials)

    def cross(self, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
        """Empirical cross moment a S b^T of the images a z and b z, with
        S = sum z z^T / N. The columns of `a` and `b` cover the leading
        noise coordinates: every cluster order is a prefix of the top's."""
        b = a if b is None else b
        return a @ self.total[: a.shape[1], : b.shape[1]] @ b.T / self.trials


def noise_gram(seed: int, streams, draw0: int, ndraws: int) -> NoiseGram:
    """Gram matrix of the normals of `streams` over draws [draw0, draw0 + ndraws).

    The draws are made and summed one `kernels.normal_block` chunk of rows
    at a time, so memory stays O(chunk + k^2) for any number of draws. Each
    draw depends only on its own counter: the chunking, or a split of the
    range, changes the sum only by rounding.
    """
    s = np.asarray(streams, dtype=np.uint64)
    rows = max(1, kernels._CHUNK // max(s.shape[0], 1))
    total = np.zeros((s.shape[0], s.shape[0]))
    for r0 in range(0, ndraws, rows):
        z = kernels.normal_block(seed, s, draw0 + r0, min(rows, ndraws - r0))
        total += z.T @ z
    return NoiseGram(total, ndraws)


def oracle_moment(kern: GreenKernel, gram: NoiseGram) -> np.ndarray:
    """Empirical covariance L S L^T of the Cholesky oracle L z on the
    kernel's cluster, L L^T the normalized Green matrix."""
    return gram.cross(linalg.cholesky(kern.normalized))


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
    stderr: np.ndarray
    zscores: np.ndarray
    max_abs_z: float
    trials: int
    seed: int
    entries: int          # z-scores with a positive standard error

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "max_abs_z": self.max_abs_z,
            "entries": self.entries,
            "empirical": self.empirical.tolist(),
            "target": self.target.tolist(),
        }


def moment_report(emp: np.ndarray, target: np.ndarray, trials: int,
                  seed: int) -> CovarianceReport:
    """z-scores of an empirical zero-mean covariance over `trials` draws."""
    se = covariance_stderr(target, trials)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where(se > 0, (emp - target) / np.where(se > 0, se, 1.0), 0.0)
    return CovarianceReport(empirical=emp, target=target, stderr=se, zscores=z,
                            max_abs_z=float(np.abs(z).max()), trials=trials, seed=seed,
                            entries=int(np.count_nonzero(se > 0)))


def cross_moment_zmax(emp: np.ndarray, var_a: np.ndarray, var_b: np.ndarray,
                      trials: int) -> tuple[float, int]:
    """Largest |z| of an empirical cross-covariance whose true value is
    zero, and the number of entries it is taken over; `var_a`/`var_b` are
    the exact variances."""
    se = np.sqrt(np.outer(var_a, var_b) / trials)
    mask = se > 0
    if not mask.any():
        return 0.0, 0
    return float((np.abs(emp)[mask] / se[mask]).max()), int(np.count_nonzero(mask))


def two_sample_zmax(emp_a: np.ndarray, trials_a: int,
                    emp_b: np.ndarray, trials_b: int,
                    target: np.ndarray) -> float:
    """Largest |z| for the difference of two empirical covariances of the
    same law, using the joint standard error."""
    se = np.sqrt(covariance_stderr(target, trials_a) ** 2
                 + covariance_stderr(target, trials_b) ** 2)
    mask = se > 0
    if not mask.any():
        return 0.0
    return float((np.abs(emp_a - emp_b)[mask] / se[mask]).max())


def increment_cross_zmax(stack: OperatorStack, gram: NoiseGram) -> tuple[float, int]:
    """Largest |z| over the empirical cross-covariances (i < j) of Psi_0 and
    the increments, whose true values are zero; with the number of entries.

    The increment Psi_n - Psi_{n-1} is K_n z_{L_n} (Psi_0 is K_0 z_{L_0}),
    so the cross-covariance of levels i and j is K_i S[L_i, L_j] K_j^T. The
    variances are exact: G_0, then G_n - G_{n-1}.
    """
    top = stack.cluster(stack.depth)
    variances = [np.diag(stack.green(0).normalized)]
    for n in range(1, stack.depth + 1):
        var = np.diag(stack.green(n).normalized).copy()
        var[: stack.cluster(n - 1).size] -= np.diag(stack.green(n - 1).normalized)
        variances.append(var)
    worst, entries = 0.0, 0
    for i in range(stack.depth + 1):
        for j in range(i + 1, stack.depth + 1):
            s_ij = gram.total[top.layer_slice(i), top.layer_slice(j)]
            emp = stack.kernel(i) @ s_ij @ stack.kernel(j).T / gram.trials
            z, m = cross_moment_zmax(emp, variances[i], variances[j], gram.trials)
            worst, entries = max(worst, z), entries + m
    return worst, entries


# ---------------------------------------------------------------------------
# Brownian-motion and boundary-average statistics
# ---------------------------------------------------------------------------

@dataclass
class BrownianReport:
    """Pairings F_n = <f, Psi_n> seen as a Brownian motion in the energy
    time ||Q_n^* f||^2."""

    f: np.ndarray
    variance_targets: np.ndarray          # per level n
    layer_energies: list[np.ndarray]      # per level, one entry per layer
    pythagoras_residual: float
    targets_monotone: bool
    empirical: np.ndarray | None = None   # covariance of (F_0..F_N)
    zscores: np.ndarray | None = None
    max_abs_z: float = 0.0
    entries: int = 0
    trials: int = 0
    seed: int = 0

    def to_json(self) -> dict:
        return {
            "variance_targets": self.variance_targets.tolist(),
            "pythagoras_residual": self.pythagoras_residual,
            "targets_monotone": self.targets_monotone,
            "max_abs_z": self.max_abs_z,
            "entries": self.entries,
            "trials": self.trials,
            "seed": self.seed,
        }


def _top_gram(stack: OperatorStack, trials: int, seed: int) -> NoiseGram:
    return GaussianStream(seed).gram(stack.cluster(stack.depth).vertices, trials)


def brownian_check(stack: OperatorStack, f: np.ndarray, trials: int = 0,
                   seed: int = 0, gram: NoiseGram | None = None) -> BrownianReport:
    """Deterministic energy bookkeeping for f, plus an optional Monte Carlo
    check that cov(F_n, F_m) equals the smaller energy.

    The exact part: layer energies of Q_n^* f sum to the total energy
    (Pythagoras over the disjoint layers), and the energies grow with n.
    F_n is the pairing of the noise with Q_n^* f, so the empirical
    covariance of the pairings is C S C^T over those coefficient vectors;
    `gram` (by default `trials` fresh draws of `seed`) supplies S.
    """
    levels = stack.depth + 1
    targets = np.zeros(levels)
    coef = np.zeros((levels, stack.cluster(stack.depth).size))
    energies = []
    pyth = 0.0
    for n in range(levels):
        qf = stack.growth_adjoint_apply(n, f)
        coef[n, : qf.shape[0]] = qf
        targets[n] = float(qf @ qf)
        e = stack.layer_energies(n, f)
        energies.append(e)
        pyth = max(pyth, abs(float(e.sum()) - targets[n]))
    monotone = bool(np.all(np.diff(targets) >= -1e-12 * max(targets.max(), 1.0)))

    report = BrownianReport(f=np.asarray(f, dtype=float), variance_targets=targets,
                            layer_energies=energies, pythagoras_residual=pyth,
                            targets_monotone=monotone)
    if trials:
        if gram is None:
            gram = _top_gram(stack, trials, seed)
        target = np.minimum.outer(targets, targets)
        cov = moment_report(gram.cross(coef), target, gram.trials, seed)
        report.empirical = cov.empirical
        report.zscores = cov.zscores
        report.max_abs_z = cov.max_abs_z
        report.entries = cov.entries
        report.trials = gram.trials
        report.seed = seed
    return report


@dataclass
class SweepReport:
    """Boundary averages A_n = <P_n^* f, Psi_n2> for n = n1..n2."""

    f: np.ndarray
    n1: int
    n2: int
    identity_residual: float              # A_n vs F_n2 - F_{n-1}, on coefficients
    identity_scale: float
    variance_targets: np.ndarray          # T_n2 - T_{n-1}
    empirical: np.ndarray | None = None
    zscores: np.ndarray | None = None
    max_abs_z: float = 0.0
    entries: int = 0
    trials: int = 0
    seed: int = 0

    def to_json(self) -> dict:
        return {
            "n1": self.n1,
            "n2": self.n2,
            "identity_residual": self.identity_residual,
            "variance_targets": self.variance_targets.tolist(),
            "max_abs_z": self.max_abs_z,
            "entries": self.entries,
            "trials": self.trials,
            "seed": self.seed,
        }


def sweep_average_check(stack: OperatorStack, f: np.ndarray, n1: int, n2: int,
                        trials: int = 0, seed: int = 0,
                        gram: NoiseGram | None = None) -> SweepReport:
    """Sweep f onto each layer n in n1..n2 and pair with Psi_n2.

    The pairing telescopes: A_n(f) = F_n2(f) - F_{n-1}(f), because
    Psi_n2 - Psi_{n-1} is the harmonic extension of Psi_n2's layer-n
    values. All three are linear in the noise, so the identity is checked
    on their coefficient vectors over the top cluster's noise, which makes
    it hold for every noise vector: the residual is the largest entry of
    a_n - (c_n2 - c_{n-1}), the scale max(1, max |c_n2|). Variances follow:
    Var A_n = T_n2 - T_{n-1} and, for n <= m, cov(A_n, A_m) = T_n2 - T_{m-1};
    `gram` (by default `trials` fresh draws of `seed`) supplies the
    empirical ones.
    """
    if not 1 <= n1 <= n2 <= stack.depth:
        raise ValueError(f"need 1 <= n1 <= n2 <= {stack.depth}")
    f = np.asarray(f, dtype=float)
    support = np.flatnonzero(f)
    allowed = set(stack.cluster(n1).vertices)
    if any(int(v) not in allowed for v in support):
        raise SupportViolationError(
            f"test vector must be supported on cluster {n1}")

    coefs = [stack.growth_adjoint_apply(n, f) for n in range(stack.depth + 1)]
    t = np.array([float(c @ c) for c in coefs])
    clu2 = stack.cluster(n2)
    q2 = stack.growth(n2)
    levels = list(range(n1, n2 + 1))
    a = np.empty((len(levels), clu2.size))
    resid = 0.0
    for i, n in enumerate(levels):
        sweep = stack.poisson(n).T @ f[np.array(stack.cluster(n).vertices)]
        a[i] = sweep @ q2[clu2.layer_slice(n)]
        telescoped = coefs[n2].copy()
        telescoped[: coefs[n - 1].shape[0]] -= coefs[n - 1]
        resid = max(resid, float(np.abs(a[i] - telescoped).max()))
    scale = max(1.0, float(np.abs(coefs[n2]).max()))

    var_targets = np.array([t[n2] - t[n - 1] for n in levels])
    report = SweepReport(f=f, n1=n1, n2=n2, identity_residual=resid,
                         identity_scale=scale, variance_targets=var_targets)
    if trials:
        if gram is None:
            gram = _top_gram(stack, trials, seed)
        target = np.empty((len(levels), len(levels)))
        for i, n in enumerate(levels):
            for j, m in enumerate(levels):
                target[i, j] = t[n2] - t[max(n, m) - 1]
        cov = moment_report(gram.cross(a), target, gram.trials, seed)
        report.empirical = cov.empirical
        report.zscores = cov.zscores
        report.max_abs_z = cov.max_abs_z
        report.entries = cov.entries
        report.trials = gram.trials
        report.seed = seed
    return report

