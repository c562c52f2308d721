import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgff.errors import ConvergenceError, NotPositiveDefiniteError, NotSymmetricError
from dgff.fixtures import grid_graph
from dgff.foliation import bfs_foliate, cluster
from dgff.linalg import cholesky, exactly_symmetric, spd_sqrt, write_matrix_csv

import dense_reference


def random_psd(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n))
    return b @ b.T


def cholesky_on_diagonal(a):
    """`cholesky` with the pivot test against a's own diagonal."""
    return cholesky(a, np.diag(np.asarray(a)))


class TestSpdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_scalar_two_thirds(self):
        s = spd_sqrt(np.array([[2.0 / 3.0]]))
        assert s[0, 0] == pytest.approx(0.816496580927726, abs=1e-12)

    @pytest.mark.parametrize("n,seed", [(5, 0), (25, 1), (50, 2)])
    def test_square_reproduces(self, n, seed):
        a = random_psd(n, seed)
        s = spd_sqrt(a)
        np.testing.assert_array_equal(s, s.T)
        assert np.linalg.norm(s @ s - a) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.eigvalsh(s)[0] >= -1e-12 * np.linalg.norm(s)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveDefiniteError, match=r"eigenvalue -1\.000e\+00 is not"):
            spd_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))

    @pytest.mark.parametrize("a", [np.outer([1.0, 1.0], [1.0, 1.0]), np.diag([1.0, 0.0]),
                                   np.diag([1.0, -1e-15])])
    def test_clamps_no_eigenvalue(self, a):
        # rank one (an exact zero eigenvalue), a zero and a tiny negative
        # eigenvalue: each is refused, none is rounded up to zero
        with pytest.raises(NotPositiveDefiniteError, match="not positive"):
            spd_sqrt(a)

    def test_deterministic_bit_identical(self):
        a = random_psd(17, 9)
        np.testing.assert_array_equal(spd_sqrt(a), spd_sqrt(a))

    def test_solver_failure_is_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            spd_sqrt(random_psd(4, 5))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            spd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_on_diagonal(np.eye(4)), np.eye(4))

    def test_hand_factor(self):
        low = cholesky_on_diagonal(np.array([[4.0, 2.0], [2.0, 5.0]]))
        np.testing.assert_allclose(low, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_on_diagonal(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("n,seed", [(10, 0), (40, 1)])
    def test_factor_reproduces(self, n, seed):
        a = random_psd(n, seed) + n * np.eye(n)
        low = cholesky_on_diagonal(a)
        assert np.abs(low @ low.T - a).max() <= 1e-12 * np.abs(a).max()
        assert np.diag(low).min() > 0

    def test_singular_past_the_factor_is_not_pd(self):
        # rounding lets LAPACK's factor through, with L_22^2 = 1.5e284; the
        # pivot test refuses it, since 1.5e284 <= eps * 1e300
        a = np.array([[1e300, -1e300], [-1e300, 1e300]])
        assert np.linalg.cholesky(a)[1, 1] > 0
        with pytest.raises(NotPositiveDefiniteError, match="singular to working precision"):
            cholesky_on_diagonal(a)

    def test_pivot_test_reads_the_scale(self):
        # a pivot is singular relative to the matrix it was cancelled from
        a = np.diag([1.0, 1e-20])
        np.testing.assert_array_equal(cholesky_on_diagonal(a), np.diag([1.0, 1e-10]))
        with pytest.raises(NotPositiveDefiniteError, match="singular to working precision"):
            cholesky(a, np.ones(2))


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
        "cholesky": cholesky_on_diagonal,
        "spd_sqrt": spd_sqrt,
    }

    @pytest.mark.parametrize("matrix", sorted(BAD))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_raises_not_pd(self, entry, matrix):
        with pytest.raises(NotPositiveDefiniteError):
            self.ENTRY_POINTS[entry](self.BAD[matrix])


class TestExactSymmetry:
    """Every entry point takes an exactly symmetric matrix as it is and
    refuses any other, however small its asymmetry."""

    ENTRY_POINTS = {"spd_sqrt": spd_sqrt, "cholesky": cholesky_on_diagonal}

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("n", [2, 300])
    def test_one_ulp_is_refused(self, entry, n):
        a = random_psd(n, 4) + n * np.eye(n)
        self.ENTRY_POINTS[entry](a)
        a[n - 1, 0] = np.nextafter(a[n - 1, 0], np.inf)
        with pytest.raises(NotSymmetricError, match="not exactly symmetric"):
            self.ENTRY_POINTS[entry](a)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_message_states_the_largest_asymmetry(self, entry):
        a = 300 * np.eye(300)
        a[299, 1] = 0.5   # in a tile below the diagonal
        a[0, 140] = 0.25  # in a tile above it
        with pytest.raises(NotSymmetricError, match=r"max \|a - a\^T\| = 5\.000e-01$"):
            self.ENTRY_POINTS[entry](a)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_non_square_is_refused(self, entry):
        with pytest.raises(NotSymmetricError, match="square"):
            self.ENTRY_POINTS[entry](np.ones((2, 3)))

    @pytest.mark.parametrize("entry,solver", [("cholesky", "cholesky"), ("spd_sqrt", "eigh")])
    def test_hands_its_input_to_lapack_unchanged(self, monkeypatch, entry, solver):
        seen = []
        lapack = getattr(np.linalg, solver)
        monkeypatch.setattr(np.linalg, solver, lambda m: seen.append(m) or lapack(m))
        a = random_psd(5, 3) + 5 * np.eye(5)
        self.ENTRY_POINTS[entry](a)
        assert len(seen) == 1 and seen[0] is a

    @pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 300])
    def test_exactly_symmetric_across_tiles(self, n):
        a = random_psd(n, 6)
        assert exactly_symmetric(a)
        if n > 1:
            a[n - 1, n // 2] = np.nextafter(a[n - 1, n // 2], np.inf)
            assert not exactly_symmetric(a) and not exactly_symmetric(a.T.copy())
        assert not exactly_symmetric(np.zeros((n, n + 1)))
        assert not exactly_symmetric(np.zeros(n))


@pytest.mark.parametrize("matrix", [np.array([[1.0, np.nan], [np.nan, 1.0]]),
                                    np.array([[np.inf]]),
                                    np.array([[2.0, -np.inf], [-np.inf, 2.0]])])
def test_spd_sqrt_refuses_a_non_finite_entry(matrix):
    with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
        spd_sqrt(matrix)


def test_cholesky_memory_is_the_factor():
    # neither a copy of the input nor an a - a^T temporary: the traced peak
    # is the k x k factor
    g = grid_graph(31)
    fol = bfs_foliate(g, ("r15c15",))
    a = dense_reference.laplacian(g, cluster(fol, fol.depth))
    k = a.shape[0]
    tracemalloc.start()
    try:
        low = cholesky(a, np.diag(a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k == 841
    assert np.abs(low @ low.T - a).max() <= 1e-12
    assert peak <= 1.1 * 8 * k * k


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 8), st.integers(0, 2 ** 31))
def test_spd_sqrt_property(n, seed):
    a = random_psd(n, seed)
    s = spd_sqrt(a)
    assert np.linalg.norm(s @ s - a) <= 1e-10 * max(np.linalg.norm(a), 1e-30)


def test_csv_rows_keep_their_bytes():
    # one format string per row writes what "%.17g" wrote entry by entry:
    # the non-finite values, a negative zero, the smallest subnormal and the
    # largest double, and 17 significant digits
    m = np.array([[np.nan, np.inf, -np.inf], [-0.0, 5e-324, 1.7976931348623157e308],
                  [0.1, -2.5, 1.0 / 3.0]])
    buf = io.StringIO()
    write_matrix_csv(buf, ["a", "b", "c"], ["x", "y", "z"], m)
    assert buf.getvalue() == (",x,y,z\n"
                              "a,nan,inf,-inf\n"
                              "b,-0,4.9406564584124654e-324,1.7976931348623157e+308\n"
                              "c,0.10000000000000001,-2.5,0.33333333333333331\n")
    buf = io.StringIO()
    write_matrix_csv(buf, ["a"], [], np.zeros((1, 0)))
    assert buf.getvalue() == ",\na,\n"
