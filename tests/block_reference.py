"""The block route: second-moment statistics from explicit samples, one
trial per row. The library keeps only the Gram route, which computes the
same statistics from the noise's Gram matrix; these functions are the
reference it is tested against."""

import numpy as np

from dgff import kernels, sampling
from dgff.sampling import CovarianceReport, cross_moment_zmax, dgff_block, moment_report


def known_mean_covariance(x: np.ndarray) -> np.ndarray:
    """Zero-mean empirical covariance, sum x x^T / N."""
    return x.T @ x / x.shape[0]


def covariance_report(samples: np.ndarray, target: np.ndarray, seed: int) -> CovarianceReport:
    """`moment_report` of a block of samples."""
    return moment_report(known_mean_covariance(samples), target, samples.shape[0], seed)


def cross_covariance_zmax(a: np.ndarray, b: np.ndarray,
                          var_a: np.ndarray, var_b: np.ndarray) -> float:
    """`cross_moment_zmax` of two blocks of samples."""
    return cross_moment_zmax(a.T @ b / a.shape[0], var_a, var_b, a.shape[0])[0]


def pairing_block(stack, f: np.ndarray, phi_block: np.ndarray) -> np.ndarray:
    """(trials, depth+1) matrix of pairings F_n = <f, Psi_n>."""
    f_top = np.asarray(f, dtype=float)[np.array(stack.cluster(stack.depth).vertices)]
    return np.column_stack([s @ f_top[: s.shape[1]] for s in dgff_block(stack, phi_block)])


def serial_noise_gram(seed: int, streams, draw0: int, ndraws: int) -> np.ndarray:
    """The noise Gram total drawn in one thread: `normal_block` blocks of
    `noise_gram`'s row count, their z^T z added in draw order."""
    s = np.asarray(streams)
    rows = max(sampling._GRAM_ROWS, kernels._CHUNK // max(len(s), 1))
    total = np.zeros((len(s), len(s)))
    for r0 in range(0, ndraws, rows):
        z = kernels.normal_block(seed, s, draw0 + r0, min(rows, ndraws - r0))
        total += z.T @ z
    return total
