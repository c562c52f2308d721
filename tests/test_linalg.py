import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgff import linalg
from dgff.errors import (
    ConvergenceError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    NotSymmetricError,
)
from dgff.linalg import as_symmetric, cholesky, psd_sqrt, spd_inverse


def random_psd(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n))
    return b @ b.T


class TestPsdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_scalar_two_thirds(self):
        s = psd_sqrt(np.array([[2.0 / 3.0]]))
        assert s[0, 0] == pytest.approx(0.816496580927726, abs=1e-12)

    def test_rank_one(self):
        v = np.array([1.0, 1.0])
        s = psd_sqrt(np.outer(v, v))
        np.testing.assert_allclose(s, np.outer(v, v) / math.sqrt(2), atol=1e-12)

    @pytest.mark.parametrize("n,seed", [(5, 0), (25, 1), (50, 2)])
    def test_square_reproduces(self, n, seed):
        a = random_psd(n, seed)
        s = psd_sqrt(a)
        np.testing.assert_array_equal(s, s.T)
        assert np.linalg.norm(s @ s - a) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.eigvalsh(s)[0] >= -1e-12 * np.linalg.norm(s)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            psd_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_clamps_tiny_negative(self):
        a = np.array([[1.0, 0.0], [0.0, -1e-15]])
        s = psd_sqrt(a)
        assert s[1, 1] == 0.0

    def test_deterministic_bit_identical(self):
        a = random_psd(17, 9)
        np.testing.assert_array_equal(psd_sqrt(a), psd_sqrt(a))

    def test_solver_failure_is_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            psd_sqrt(random_psd(4, 5))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(4)), np.eye(4))

    def test_hand_factor(self):
        low = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        np.testing.assert_allclose(low, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("n,seed", [(10, 0), (40, 1)])
    def test_factor_reproduces(self, n, seed):
        a = random_psd(n, seed) + n * np.eye(n)
        low = cholesky(a)
        assert np.abs(low @ low.T - a).max() <= 1e-12 * np.abs(a).max()
        assert np.diag(low).min() > 0


class TestNotPositiveDefinite:
    """Every SPD entry point reports a bad matrix as NotPositiveDefiniteError,
    never as numpy's LinAlgError."""

    BAD = {
        "indefinite": np.array([[1.0, 2.0], [2.0, 1.0]]),
        "singular": np.array([[0.0, 0.0], [0.0, 1.0]]),
        "negative_definite": -np.eye(3),
        "nan": np.array([[1.0, np.nan], [np.nan, 1.0]]),
        "inf_diagonal": np.array([[np.inf]]),
        "inf_offdiagonal": np.array([[2.0, np.inf], [np.inf, 2.0]]),
    }
    ENTRY_POINTS = {
        "cholesky": cholesky,
        "spd_inverse": spd_inverse,
    }

    @pytest.mark.parametrize("matrix", sorted(BAD))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_raises_not_pd(self, entry, matrix):
        with pytest.raises(NotPositiveDefiniteError):
            self.ENTRY_POINTS[entry](self.BAD[matrix])


class TestSpdInverse:
    @pytest.mark.parametrize("n,seed", [(1, 0), (12, 1), (60, 2)])
    def test_exactly_symmetric_inverse(self, n, seed):
        a = random_psd(n, seed) + n * np.eye(n)
        x = spd_inverse(a)
        np.testing.assert_array_equal(x, x.T)
        assert np.abs(a @ x - np.eye(n)).max() <= 1e-12

    def test_singular_past_the_factor_is_not_pd(self):
        # rounding lets the Cholesky factor through; the LU inverse then
        # meets an exact zero pivot
        a = np.array([[1e300, -1e300], [-1e300, 1e300]])
        cholesky(a)
        with pytest.raises(NotPositiveDefiniteError):
            spd_inverse(a)

    def test_mirrors_its_input_once(self, monkeypatch):
        calls = []
        mirror = linalg.as_symmetric
        monkeypatch.setattr(linalg, "as_symmetric", lambda a: calls.append(1) or mirror(a))
        spd_inverse(random_psd(5, 3) + 5 * np.eye(5))
        assert len(calls) == 1

    def test_hand_inverse(self):
        x = spd_inverse(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        np.testing.assert_allclose(x, [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]],
                                   atol=1e-15)


def test_as_symmetric_mirrors_exactly():
    a = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
    b = as_symmetric(a)
    np.testing.assert_array_equal(b, b.T)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 8), st.integers(0, 2 ** 31))
def test_psd_sqrt_property(n, seed):
    a = random_psd(n, seed)
    s = psd_sqrt(a)
    assert np.linalg.norm(s @ s - a) <= 1e-10 * max(np.linalg.norm(a), 1e-30)
