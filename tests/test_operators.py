import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import semilab as sl
from semilab import operators
from semilab.errors import (ConfigError, ContourCrossesSpectrum, DimensionMismatch, EigenFailure,
                            SingularResolvent)
from semilab.operators import _GKL_MIN_DIM
from semilab.theorem import mu_box

from conftest import nonnormal_dense, random_vector


def sine_basis(n):
    """The orthonormal DST-I matrix S_jk = sqrt(2/(n+1)) sin(jk pi/(n+1)), formed
    with jk reduced mod 2(n+1) in integers, so each entry is good to a few ulps."""
    k = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(k, k) % (2 * (n + 1)) * np.pi / (n + 1))


def largest_array(obj):
    """The most entries of any array among obj's attributes (0 if none)."""
    return max([v.size for v in vars(obj).values() if isinstance(v, np.ndarray)], default=0)


def complex_hermitian_tridiagonal():
    """A 6 x 6 tridiagonal equal to its conjugate transpose, complex off the diagonal."""
    rng = np.random.default_rng(6)
    d = rng.standard_normal(6)
    e = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    return np.diag(d) + np.diag(e, 1) + np.diag(e.conj(), -1)


class TestNorms:
    def test_graph_norm_embedding(self, rng):
        # ||x||_0 <= ||x||_1 exactly: the embedding constant is 1
        op = sl.random_normal_operator(16, seed=3)
        for _ in range(20):
            x = random_vector(rng, 16)
            assert op.norm0(x) <= op.norm1(x)

    def test_norm1_is_graph_norm(self, diag_12):
        x = np.array([1.0, 1.0])
        # ||x||_0 + ||Ax||_0 with A = diag(-1,-2)
        assert diag_12.norm1(x) == pytest.approx(np.sqrt(2) + np.sqrt(5), abs=1e-14)

    def test_sup_norm_tag(self):
        op = sl.diagonal_operator([-1.0, -2.0], e0_norm="sup")
        assert op.norm0(np.array([3.0, -4.0])) == 4.0
        # induced operator norm = max absolute row sum
        assert op.operator_norm(np.array([[1.0, -2.0], [0.5, 0.25]])) == 3.0

    def test_euclidean_operator_norm_is_the_two_norm(self, rng):
        # the largest singular value, bit for bit as np.linalg.norm(B, 2) reads it,
        # of one matrix or of each matrix of a stack
        op = sl.jordan_block(-2.0, 8)
        for B in (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)),
                  np.eye(3), np.array([[1.0, -2.0], [0.5, 0.25]]), np.zeros((4, 4))):
            assert op.operator_norm(B) == float(np.linalg.norm(B, 2))
        B = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
        assert op.operator_norm(B).tolist() == [float(np.linalg.norm(b, 2)) for b in B]

    def test_unknown_norm_rejected(self):
        with pytest.raises(ConfigError):
            sl.OperatorPair(np.eye(2), e0_norm="manhattan")

    def test_dimension_mismatch(self, diag_12):
        with pytest.raises(DimensionMismatch):
            diag_12.check_vector(np.ones(3))

    def test_matrix_right_hand_side_rejected(self, diag_12):
        # every resolvent consumer takes one vector; a (dim, k) block is refused
        for f in (diag_12.resolvent_solve, lambda mu, y: diag_12.resolvent_sum([mu], [1.0], y)):
            with pytest.raises(DimensionMismatch):
                f(3.0, np.ones((2, 2)))

    @pytest.mark.parametrize("dim, ulps", [(1, 4), (3, 4), (16, 4), (64, 4), (256, 8), (512, 8)])
    def test_euclidean_rows_match_numpy(self, dim, ulps):
        # one sum of squares over the float view against numpy's pairwise
        # one: the lanes of the first sum its squares in sequence, so the
        # two part by a few ulp that grow with the row length
        op = sl.OperatorPair(np.eye(dim))
        rng = np.random.default_rng(dim)
        for scale in (1e-150, 1e-100, 1e-20, 1.0, 1e20, 1e100, 1e150):
            X = scale * (rng.standard_normal((50, dim)) + 1j * rng.standard_normal((50, dim)))
            ref = np.linalg.norm(X, axis=-1)
            assert np.all(np.abs(op.norm0_rows(X) - ref) <= ulps * np.spacing(ref)), scale

    @pytest.mark.parametrize("dim", [2, 37, 64])
    def test_equal_rows_get_bit_equal_norms(self, dim):
        op = sl.OperatorPair(np.eye(dim))
        rng = np.random.default_rng(dim)
        stack = rng.standard_normal((4, 9, dim)) + 1j * rng.standard_normal((4, 9, dim))
        norms = op.norm0_rows(stack)
        assert norms.shape == (4, 9)
        for a in range(4):
            block = op.norm0_rows(stack[a])
            assert np.array_equal(block, norms[a])
            for b in range(9):
                assert op.norm0_rows(stack[a, b]) == norms[a, b] == op.norm0(stack[a, b])

    def test_euclidean_rows_where_squares_overflow_or_underflow(self):
        op = sl.OperatorPair(np.eye(2))
        X = np.array([[1e200, 1j], [1e-200, 1e-200j], [1e154, 1e154j], [3.0, 4.0j]])
        with np.errstate(over="ignore"):
            ref = np.linalg.norm(X, axis=-1)
            assert np.array_equal(op.norm0_rows(X), ref)
        assert np.array_equal(ref, [np.inf, 0.0, np.inf, 5.0])

    def test_euclidean_rows_of_real_input(self):
        op = sl.OperatorPair(np.eye(2))
        assert np.array_equal(op.norm0_rows(np.array([[3.0, -4.0], [5.0, 12.0]])), [5.0, 13.0])
        assert np.array_equal(op.norm0_rows([[3, -4], [5, 12]]), [5.0, 13.0])
        x = np.random.default_rng(2).standard_normal((20, 2))
        ref = np.linalg.norm(x, axis=-1)
        assert np.all(np.abs(op.norm0_rows(x) - ref) <= 4 * np.spacing(ref))

    @pytest.mark.parametrize("make", [
        lambda: sl.laplacian_1d(16), lambda: sl.laplacian_1d(64), lambda: sl.laplacian_1d(256),
        lambda: sl.laplacian_1d(512), lambda: sl.jordan_block(-1.0, 3),
        lambda: sl.jordan_block(-2.0, 8), lambda: sl.diagonal_operator([-1.0, 2.5j, -7.0]),
        lambda: sl.random_normal_operator(16, seed=3), lambda: nonnormal_dense(40, seed=2),
        lambda: sl.OperatorPair(sum(np.diag(random_vector(np.random.default_rng(k + 1),
                                                          40 - abs(k)), k) for k in (-1, 0, 1))),
        lambda: sl.jordan_block(-2.0, 8, e0_norm="sup")],
        ids=["lap16", "lap64", "lap256", "lap512", "jordan3", "jordan8", "diag3", "normal16",
             "nonnormal40", "random-complex", "jordan8-sup"])
    def test_matrix_norm_is_the_frobenius_norm(self, monkeypatch, make):
        # ||A||_2 <= ||A||_F: the tolerances it scales never shrink; and no
        # SVD or banded eigensolver runs to compute it
        op = make()
        two_norm = np.linalg.norm(op.matrix, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("matrix_norm ran a decomposition")
        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(scipy.linalg, "eigvals_banded", refuse)
        assert op.matrix_norm == pytest.approx(np.linalg.norm(op.matrix), rel=1e-14, abs=0)
        assert op.matrix_norm >= two_norm

    @pytest.mark.parametrize("make", [lambda: sl.jordan_block(-1e160, 8),
                                      lambda: sl.OperatorPair(1e-200 * sl.laplacian_1d(16).matrix)],
                             ids=["jordan8-1e160", "lap16-1e-200"])
    def test_matrix_norm_where_squares_overflow_or_underflow(self, make):
        op = make()
        s = np.max(np.abs(op.matrix))
        assert 0 < op.matrix_norm < np.inf
        assert op.matrix_norm == pytest.approx(s * np.linalg.norm(op.matrix / s), rel=1e-14, abs=0)


class TestOperatorNorm:
    """operator_norm, the one dense E0 norm kernel: a stack of matrices in one
    LAPACK call, B^-1 where inverse, inf for a non-finite matrix or norm."""

    @staticmethod
    def stack(rng, k=6, n=5):
        return rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("e0_norm", ["euclidean", "sup"])
    def test_stack_equals_one_call_per_matrix(self, rng, e0_norm, inverse):
        op = sl.jordan_block(-2.0, 5, e0_norm=e0_norm)
        B = self.stack(rng)
        norms = op.operator_norm(B, inverse=inverse)
        assert norms.shape == (len(B),)
        assert norms.tolist() == [op.operator_norm(b, inverse=inverse) for b in B]
        assert type(op.operator_norm(B[0], inverse=inverse)) is float

    @pytest.mark.parametrize("e0_norm", ["euclidean", "sup"])
    @pytest.mark.parametrize("make", [lambda e0: sl.jordan_block(-2.0, 8, e0_norm=e0),
                                      lambda e0: sl.laplacian_1d(64, e0_norm=e0)],
                             ids=["jordan8", "lap64"])
    def test_inverse_keeps_the_dense_scan_formulas(self, make, e0_norm):
        # the formulas the dense resolvent norms used before they went through
        # this kernel, at the 105 points of the default scan
        op = make(e0_norm)
        mus = np.array(mu_box(0.5, 1e3, 5, -1e2, 1e2, 21))
        R = mus[:, None, None] * np.eye(op.dim) - op.matrix
        with operators._serial_lapack():
            if e0_norm == "euclidean":
                ref = 1.0 / np.linalg.svd(R, compute_uv=False)[:, -1]
            else:
                ref = np.max(np.sum(np.abs(np.linalg.inv(R)), axis=-1), axis=-1)
        assert len(mus) == 105 and np.all(np.isfinite(ref))
        assert np.array_equal(op.operator_norm(R, inverse=True), ref)

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("e0_norm", ["euclidean", "sup"])
    def test_non_finite_matrices_read_inf_without_lapack(self, rng, monkeypatch, e0_norm,
                                                          inverse):
        op = sl.jordan_block(-2.0, 5, e0_norm=e0_norm)
        B = self.stack(rng)
        B[1, 2, 3], B[4, 0, 0] = np.inf, complex(0.0, np.nan)
        ref = op.operator_norm(B[[0, 2, 3, 5]], inverse=inverse)

        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK saw a non-finite matrix")
        for name in ("svd", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert op.operator_norm(B[[1, 4]], inverse=inverse).tolist() == [np.inf, np.inf]
        assert op.operator_norm(B[4], inverse=inverse) == np.inf
        monkeypatch.undo()
        norms = op.operator_norm(B, inverse=inverse)
        assert norms[[1, 4]].tolist() == [np.inf, np.inf]
        assert np.array_equal(norms[[0, 2, 3, 5]], ref)

    def test_non_finite_norms_read_inf(self):
        # row sums past the largest float, and sigma_min = 0: inf, and no warning
        big = np.full((2, 2), 1e308)
        assert sl.jordan_block(-2.0, 2, e0_norm="sup").operator_norm(big) == np.inf
        assert sl.jordan_block(-2.0, 2).operator_norm(np.zeros((2, 2)), inverse=True) == np.inf

    def test_diagonal_sup_norm_reads_d(self, rng):
        # diag(d) with Z = I: max |d|, or inf where an entry is not finite, with
        # the bits of the dense row-sum rule, and no n x n array
        op = sl.diagonal_operator([-1.0, -2.0], e0_norm="sup")
        d = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        for bad in (None, np.inf, -np.inf, complex(np.nan, 1.0), complex(-np.inf, np.nan)):
            e = d.copy()
            if bad is not None:
                e[2] = bad
            got = op.operator_norm(operators.EigenMap(None, e))
            assert type(got) is float and got == op.operator_norm(np.diag(e)), bad
            assert (got == np.inf) == (bad is not None)
        n = 2000
        big = operators.EigenMap(None, rng.standard_normal(n) + 0j)
        tracemalloc.start()
        try:
            op.operator_norm(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * 4  # a few (n,) arrays; diag(d) would take 16 n^2 bytes

    def test_lapack_failure_is_an_eigen_failure(self):
        # two threads before the block, so that restoring them is seen
        pins = operators._openblas_threads()
        counts = [get() for get, _ in pins]
        for _, put in pins:
            put(2)
        try:
            with pytest.raises(EigenFailure, match="did not converge"):
                with operators._serial_lapack():
                    assert [get() for get, _ in pins] == [1] * len(pins)
                    raise np.linalg.LinAlgError("SVD did not converge")
            assert [get() for get, _ in pins] == [2] * len(pins)
        finally:
            for (_, put), count in zip(pins, counts):
                put(count)


class TestSpectrum:
    def test_diagonal_readoff(self, diag_12):
        assert sorted(diag_12.eigenvalues.real) == [-2.0, -1.0]
        assert diag_12.spectral_bound == -1.0

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_laplacian_eigenvalues_closed_form(self, n):
        # Dirichlet difference Laplacian on (0,1): lambda_k = -(4/h^2) sin^2(k pi h / 2)
        op = sl.laplacian_1d(n)
        h = 1.0 / (n + 1)
        k = np.arange(1, n + 1)
        exact = -4.0 / h**2 * np.sin(k * np.pi * h / 2.0) ** 2
        got = np.sort(op.eigenvalues.real)
        assert np.allclose(got, np.sort(exact), rtol=1e-10, atol=1e-8)

    def test_spectrum_report(self, diag_12):
        assert diag_12.spectral_bound == -1.0
        assert diag_12.e0_norm == "euclidean"


class TestResolvent:
    def test_diagonal_closed_form(self, diag_12):
        y = np.array([1.0, 1.0])
        x = diag_12.resolvent_solve(3.0, y)
        assert np.allclose(x, [0.25, 0.2], atol=1e-14)

    def test_normal_exactness(self):
        # euclidean resolvent norm of a diagonal operator = 1/dist(mu, spectrum)
        op = sl.diagonal_operator([-1.0, -5.0, -2.5])
        for mu in [0.3, 1j, 2.0 - 4.0j, -3.0 + 0.5j]:
            d = np.min(np.abs(mu - op.eigenvalues))
            assert op.resolvent_norm(mu) == pytest.approx(1.0 / d, rel=1e-12)

    def test_singular_resolvent(self, diag_12):
        with pytest.raises(SingularResolvent):
            diag_12.resolvent_solve(-1.0, np.array([1.0, 1.0]))
        with pytest.raises(SingularResolvent):
            diag_12.resolvent_norm(-2.0 + 1e-15j)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.complex_numbers(min_magnitude=0.1, max_magnitude=5.0,
                              allow_nan=False, allow_infinity=False),
           st.complex_numbers(min_magnitude=0.1, max_magnitude=5.0,
                              allow_nan=False, allow_infinity=False))
    def test_resolvent_identity(self, seed, mu, nu):
        # (mu-A)^-1 - (nu-A)^-1 = (nu-mu)(mu-A)^-1(nu-A)^-1
        op = sl.random_normal_operator(16, seed=seed)
        mu, nu = mu + 1.0, nu + 1.0   # keep both well inside rho(A)
        if abs(mu - nu) < 1e-3:
            return
        rng = np.random.default_rng(seed)
        y = random_vector(rng, 16)
        lhs = op.resolvent_solve(mu, y) - op.resolvent_solve(nu, y)
        rhs = (nu - mu) * op.resolvent_solve(mu, op.resolvent_solve(nu, y))
        assert op.norm0(lhs - rhs) <= 1e-10 * max(op.norm0(lhs), 1.0)


def _svd_norm(op, mu):
    return 1.0 / scipy.linalg.svdvals(mu * np.eye(op.dim) - op.matrix)[-1]


MUS = [0.3, 1j, 2.0 - 4.0j, 0.5 + 40.0j, 7.0]


class TestResolventFactor:
    """The cached factor A = Z T Z* against independent dense oracles."""

    @pytest.mark.parametrize("name", ["diag", "lap16", "lap64", "normal16"])
    def test_normal_norm_matches_svd(self, corpus, name):
        op = corpus[name]
        assert op.resolvent_backend == "normal"
        for mu in MUS:
            assert op.resolvent_norm(mu) == pytest.approx(_svd_norm(op, mu), rel=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False))
    def test_normal_norm_property(self, seed, mu):
        op = sl.random_normal_operator(16, seed=seed)
        mu = complex(abs(mu.real), mu.imag)   # Re mu >= 0 > -0.5 >= s(A)
        assert op.resolvent_backend == "normal"
        assert op.resolvent_norm(mu) == pytest.approx(_svd_norm(op, mu), rel=1e-10)

    @pytest.mark.parametrize("make", [lambda: sl.jordan_block(-1.0, 3),
                                      lambda: sl.jordan_block(-2.0, 8),
                                      lambda: nonnormal_dense(32, seed=4),
                                      lambda: nonnormal_dense(128, seed=4)],
                             ids=["jordan3", "jordan8", "nonnormal32", "nonnormal128"])
    def test_solve_matches_dense_solve(self, make, rng):
        op = make()
        assert op.resolvent_backend == "schur"
        Y = random_vector(rng, op.dim)[:, None] * np.ones(3) + np.eye(op.dim, 3)
        for mu in MUS:
            ref = np.linalg.solve(mu * np.eye(op.dim) - op.matrix, Y)
            for y, r in zip(Y.T, ref.T):
                assert np.linalg.norm(op.resolvent_solve(mu, y) - r) <= 1e-10 * np.linalg.norm(r)

    def test_factorizations_run_on_one_blas_thread(self, monkeypatch):
        pins = operators._openblas_threads()
        if not pins:
            pytest.skip("no OpenBLAS with a thread-count setter is loaded")
        before, seen = [get() for get, _ in pins], []

        def recording(f, fail=False):
            def wrapped(*args, **kwargs):
                seen.append([get() for get, _ in pins])
                if fail:
                    raise np.linalg.LinAlgError("no convergence")
                return f(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(scipy.linalg, "schur", recording(scipy.linalg.schur))
        monkeypatch.setattr(np.linalg, "eigvals", recording(np.linalg.eigvals))
        op = nonnormal_dense(16, seed=2)
        assert op.resolvent_backend == "schur" and len(op.eigenvalues) == 16
        monkeypatch.setattr(scipy.linalg, "schur", recording(None, fail=True))
        with pytest.raises(EigenFailure):
            nonnormal_dense(16, seed=2).resolvent_factor
        assert seen == [[1] * len(pins)] * 3
        assert [get() for get, _ in pins] == before

    def test_perturbed_normal_is_schur(self):
        base = sl.random_normal_operator(16, seed=7)
        G = np.random.default_rng(5).standard_normal((16, 16))
        op = sl.OperatorPair(base.matrix + 1e-6 * np.triu(G, 1))
        assert op.resolvent_backend == "schur"
        for mu in MUS:
            assert op.resolvent_norm(mu) == pytest.approx(_svd_norm(op, mu), rel=1e-12)

    def test_factor_computed_once(self, monkeypatch, rng):
        calls = []
        schur = scipy.linalg.schur
        monkeypatch.setattr(scipy.linalg, "schur",
                            lambda *a, **k: calls.append(1) or schur(*a, **k))
        for op in (sl.random_normal_operator(16, seed=3), nonnormal_dense(16, seed=3)):
            y = random_vector(rng, 16)
            for mu in MUS:
                op.resolvent_norm(mu)
                op.resolvent_solve(mu, y)
        assert len(calls) == 2

    def test_diagonal_solve_is_elementwise(self, rng):
        lam = -np.arange(1.0, 257.0) + 1j * np.linspace(-3.0, 3.0, 256)
        op = sl.diagonal_operator(lam)
        factor = op.resolvent_factor
        assert all(np.ndim(part) < 2 for part in (factor.Z, factor.d))
        Y = np.stack([random_vector(rng, 256) for _ in range(3)], axis=1)
        for mu in MUS:
            for y in Y.T:
                assert np.array_equal(op.resolvent_solve(mu, y), y / (mu - lam))

    def test_hermitian_diagonalization_is_the_factor(self, monkeypatch, rng):
        calls = []
        schur = scipy.linalg.schur
        monkeypatch.setattr(scipy.linalg, "schur",
                            lambda *a, **k: calls.append(1) or schur(*a, **k))

        def refuse(*args, **kwargs):
            raise AssertionError("a Hermitian factor ran eigh")
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        G = np.random.default_rng(8).standard_normal((12, 12))
        for op in (sl.laplacian_1d(16), sl.OperatorPair(G + G.T)):
            assert op.diagonalization is op.resolvent_factor
            assert op.resolvent_backend == "normal"
            y = random_vector(rng, op.dim)
            for mu in MUS:
                ref = np.linalg.solve(mu * np.eye(op.dim) - op.matrix, y)
                assert np.linalg.norm(op.resolvent_solve(mu, y) - ref) \
                    <= 1e-10 * np.linalg.norm(ref)
                assert op.resolvent_norm(mu) == pytest.approx(_svd_norm(op, mu), rel=1e-10)
        assert len(calls) == 1  # the dense Hermitian one; the Laplacian is tridiagonal

    @pytest.mark.parametrize("make", [lambda: sl.diagonal_operator([-1.0, -2.0]),
                                      lambda: sl.laplacian_1d(16),
                                      lambda: sl.random_normal_operator(16, seed=3),
                                      lambda: nonnormal_dense(128, seed=4)],
                             ids=["diag", "lap16", "normal16", "nonnormal128"])
    def test_factor_is_read_only(self, make):
        factor = make().resolvent_factor
        Z, T = (factor.Z, factor.d) if isinstance(factor, operators.EigenMap) else factor
        with pytest.raises(ValueError):
            T[0] = 0.0
        if Z is not None:
            with pytest.raises(ValueError):
                Z[0, 0] = 0.0

    def test_kernels_leave_the_factor_unchanged(self, rng):
        # a norm, a solve and a contour sum at one shift, bit-equal before
        # and after the kernels ran at other shifts
        op = nonnormal_dense(128, seed=4)
        x = random_vector(rng, op.dim)
        c = sl.build_contour(op, 0.1, node_count=32)

        def at_one_shift():
            return (op.resolvent_norm(MUS[2]), op.resolvent_solve(MUS[2], x),
                    sl.semigroup_apply_contour(op, c, 0.1, x).value)
        before = at_one_shift()
        for mu in MUS + [1e3j, -1e3 - 1e3j]:
            op.resolvent_norm(mu)
            op.resolvent_solve(mu, x)
        op.resolvent_sum(*sl.build_contour(op, 1.0, node_count=32).nodes_and_weights(), x)
        after = at_one_shift()
        assert before[0] == after[0]
        assert all(np.array_equal(b, a) for b, a in zip(before[1:], after[1:]))

    def test_diagonal_diagonalization_forms_no_basis(self):
        op = sl.diagonal_operator(-np.arange(1.0, 257.0))
        diag = op.diagonalization
        assert all(np.ndim(part) < 2 for part in (diag.Z, diag.d))
        assert diag is op.resolvent_factor

    def test_normal_norms_and_contour_need_no_svd_or_solve(self, monkeypatch, rng):
        op = sl.random_normal_operator(32, seed=5)
        calls = []
        for name in ("svd", "solve"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
        sl.halfplane_scan(op, -0.5, MUS)
        c = sl.build_contour(op, 0.1, node_count=32)
        sl.semigroup_apply_contour(op, c, 0.1, random_vector(rng, 32))
        assert op.resolvent_backend == "normal"
        assert calls == []

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_laplacian_basis_is_real(self, n):
        # below _SINE_MIN_DIM a stored real basis; from it on, none at all
        factor = sl.laplacian_1d(n).resolvent_factor
        if n < operators._SINE_MIN_DIM:
            Z = factor.Z
            assert Z.dtype == np.float64 and Z.nbytes == 8 * n * n
        else:
            assert isinstance(factor, operators.SineMap) and not hasattr(factor, "Z")
            assert largest_array(factor) == n

    def test_basis_is_real_where_the_off_diagonal_is(self):
        signs = sl.parse_operator_text("row = -2 -1 0\nrow = -1 -2 -1\nrow = 0 -1 -2\n")
        phase = sl.parse_operator_text("row = -2 1j 0\nrow = -1j -2 1j\nrow = 0 -1j -2\n")
        for op, kind in ((signs, "f"), (phase, "c")):
            factor = op.resolvent_factor
            Z, lam = factor.Z, factor.d
            assert isinstance(factor, operators.EigenMap) and Z.dtype.kind == kind
            assert np.allclose((Z * lam) @ Z.conj().T, op.matrix, rtol=0, atol=1e-14)

    def test_real_basis_sum_forms_no_complex_square(self, rng):
        op = sl.laplacian_1d(256)
        op.resolvent_factor  # the factor itself is kept, not part of the sum
        mus, weights = sl.build_contour(op, 0.1, node_count=64).nodes_and_weights()
        x = random_vector(rng, op.dim)
        tracemalloc.start()
        try:
            op.resolvent_sum(mus, weights, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * op.dim ** 2

    def test_complex_hermitian_tridiagonal(self):
        A = complex_hermitian_tridiagonal()
        op = sl.OperatorPair(A)
        ref = np.linalg.eigvalsh(A)
        assert np.allclose(np.sort(op.eigenvalues.real), ref, rtol=0, atol=1e-13)
        assert op.spectral_bound == pytest.approx(ref[-1], abs=1e-13)
        factor = op.resolvent_factor
        Z, lam = factor.Z, factor.d
        assert isinstance(factor, operators.EigenMap)
        assert np.allclose(Z @ np.diag(lam) @ Z.conj().T, A, rtol=0, atol=1e-13)
        assert np.allclose(Z.conj().T @ Z, np.eye(6), rtol=0, atol=1e-14)


class TestEigenMapBasis:
    """EigenMap.apply, adjoint and column against Z @ x, Z* y and Z[:, k] of
    the dense basis (I where Z is None), on each kind of basis a normal
    factor holds, for a vector and for a stack of three columns."""

    KINDS = {
        "diag": (lambda: sl.diagonal_operator(-np.arange(1.0, 17.0)), None),
        "lap16": (lambda: sl.laplacian_1d(16), "f"),
        "lap512": (lambda: sl.laplacian_1d(512), "sine"),  # no stored basis
        "phase3": (lambda: sl.parse_operator_text(
            "row = -2 1j 0\nrow = -1j -2 1j\nrow = 0 -1j -2\n"), "c"),  # eigh_tridiagonal
        "normal16": (lambda: sl.random_normal_operator(16, seed=3), "c"),  # Schur
    }

    @staticmethod
    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b)

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_methods_match_the_dense_basis(self, rng, name):
        make, kind = self.KINDS[name]
        op = make()
        factor = op.resolvent_factor
        assert isinstance(factor, operators.EigenMap) and op.diagonalization is factor
        n = op.dim
        if kind == "sine":  # the explicit S, columns in ascending order of d
            assert isinstance(factor, operators.SineMap)
            Z = sine_basis(n)[:, ::-1]
        else:
            assert factor.Z is None if kind is None else factor.Z.dtype.kind == kind
            Z = np.eye(n) if factor.Z is None else factor.Z
        X = np.stack([random_vector(rng, n) for _ in range(3)], axis=1)
        for arg in (X[:, 0], X):
            assert self.close(factor.apply(arg), Z @ arg)
            assert self.close(factor.adjoint(arg), Z.conj().T @ arg)
            assert factor.apply(arg).shape == factor.adjoint(arg).shape == arg.shape
        if not factor.identity:
            assert self.close(factor.rows(X.T), X.T @ Z.T)
        assert self.close(np.asarray(factor), (Z * factor.d) @ Z.conj().T)
        for k in range(n):
            column = factor.column(k)
            assert column.dtype == complex
            if kind == "sine":
                assert np.linalg.norm(column - Z[:, k]) <= 1e-14
            else:
                assert np.array_equal(column, Z[:, k])
            column[0] = 7.0  # a writable copy: a view of the read-only Z would raise

    def test_nonnormal_factor_is_a_read_only_pair(self):
        factor = nonnormal_dense(128, seed=4).resolvent_factor
        assert type(factor) is tuple and len(factor) == 2
        Z, T = factor
        assert Z.shape == T.shape == (128, 128) and Z.dtype == T.dtype == complex
        assert not Z.flags.writeable and not T.flags.writeable


def _toeplitz(n, a, b):
    """The real symmetric tridiagonal Toeplitz operator with a on the diagonal, b beside it."""
    return sl.OperatorPair.from_bands(np.full(n - 1, b), np.full(n, a), np.full(n - 1, b))


class TestSineBasis:
    """From _SINE_MIN_DIM on, a real symmetric tridiagonal Toeplitz operator's
    factor is a SineMap, the DST-I basis with the closed-form spectrum and no
    stored basis, checked against eigh_tridiagonal, which gave the factor
    before, and against the stored factor the same operator takes below."""

    @staticmethod
    def check_against_eigh(op):
        """The factor's columns, signs matched, and its eigenvalues against
        eigh_tridiagonal of op's bands: to 1e-10, and within its backward
        error n eps ||A||_2."""
        factor, n = op.resolvent_factor, op.dim
        assert isinstance(factor, operators.SineMap)
        _, d, e = op.bands
        lam, V = scipy.linalg.eigh_tridiagonal(d.real, e.real)
        got = factor.d
        assert not got.flags.writeable and not got.imag.any() and np.all(np.diff(got.real) > 0)
        assert np.max(np.abs(got.real - lam)) <= n * np.finfo(float).eps * np.max(np.abs(lam))
        for block in np.array_split(np.arange(n), 4):
            E = np.zeros((n, len(block)), dtype=complex)
            E[block, np.arange(len(block))] = 1.0
            columns = factor.apply(E)
            signs = np.sign(np.sum(columns.real * V[:, block], axis=0))
            assert np.max(np.abs(columns - signs * V[:, block])) <= 1e-10

    @pytest.mark.parametrize("n", [512, 1023, 2047])
    def test_laplacian_matches_eigh_tridiagonal(self, n):
        self.check_against_eigh(sl.laplacian_1d(n))

    @pytest.mark.parametrize("n, a, b", [(512, 3.0, -0.7), (600, -1.5, 2.5)])
    def test_any_real_toeplitz(self, n, a, b, rng):
        # b < 0 keeps the modes in order, b > 0 reverses them; 601 is prime
        op = _toeplitz(n, a, b)
        self.check_against_eigh(op)
        y = random_vector(rng, n)
        for mu in MUS:
            bands = np.array([np.full(n, -b), np.full(n, mu - a), np.full(n, -b)])
            ref = scipy.linalg.solve_banded((1, 1), bands, y)
            assert np.linalg.norm(op.resolvent_solve(mu, y) - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("make", [
        lambda: sl.laplacian_1d(operators._SINE_MIN_DIM - 1),
        lambda: sl.OperatorPair.from_bands(np.ones(511), -2.0 + 1e-3 * np.arange(512),
                                           np.ones(511)),
        lambda: sl.OperatorPair.from_bands(np.full(511, -1j), np.full(512, -2.0),
                                           np.full(511, 1j)),
        lambda: sl.OperatorPair.from_bands(np.full(511, 0.5), np.full(512, -2.0),
                                           np.full(511, 1.5))],
        ids=["lap511", "varying-diagonal", "complex-off-diagonal", "nonsymmetric"])
    def test_other_operators_keep_a_stored_factor(self, make):
        factor = make().resolvent_factor
        assert not isinstance(factor, operators.SineMap)

    def test_consumers_match_the_stored_basis(self, monkeypatch, rng):
        # the same lap512 through the DST and through eigh_tridiagonal's basis:
        # resolvent sums, solves in both coordinates, U_mu and V_mu, estimate_M
        grid = sl.TimeGrid.uniform(1.0, panels=4, nodes_per_panel=4)
        x, x0 = random_vector(rng, 512), random_vector(rng, 512)
        contour = sl.build_contour(sl.laplacian_1d(512), 0.1, node_count=32)
        mus, weights = contour.nodes_and_weights()
        results = []
        for threshold in (operators._SINE_MIN_DIM, 10**9):
            monkeypatch.setattr(operators, "_SINE_MIN_DIM", threshold)
            for e0 in ("euclidean", "sup"):
                op = sl.laplacian_1d(512, e0_norm=e0)
                kind = type(op.resolvent_factor)
                solver = sl.CauchySolver(op, grid)
                u = solver.solve(sl.ExpForcing(3.0 + 2.0j, x), x0)
                sd = sl.assemble_U_V(solver, 2.0 + 4.0j)
                results.append((kind, op.resolvent_sum(mus, weights, x),
                                *(getattr(u, attr) for attr in ("values", "derivative_values",
                                                                 "operator_values")),
                                sd.U @ x, np.asarray(sd.V), sd.V_norm,
                                sl.estimate_M(solver, sl.default_probes(op, seed=1)).ratios))
                # a residual of rounding size, not a value to compare
                assert sl.surjectivity_identity_check(op, sd, x) <= 1e-10
        for sine, stored in zip(results[:2], results[2:]):
            assert sine[0] is operators.SineMap and stored[0] is operators.EigenMap
            for a, b in zip(sine[1:], stored[1:]):
                a, b = np.asarray(a), np.asarray(b)
                assert np.linalg.norm(a - b) <= 1e-11 * np.linalg.norm(b)

    def test_memory_is_of_order_n_times_nodes(self, rng):
        # n = 16383: the stored basis would be 2.1 GB real; eigh_tridiagonal's
        # O(n^2) eigenvalues (about 4 s here) are taken outside the trace
        op = sl.laplacian_1d(16383)
        op.eigenvalues
        n, nodes = op.dim, 64
        x = random_vector(rng, n)
        grid = sl.TimeGrid.uniform(1.0, panels=4, nodes_per_panel=4)
        tracemalloc.start()
        try:
            factor = op.resolvent_factor
            mus, weights = sl.build_contour(op, 0.1, node_count=nodes).nodes_and_weights()
            op.resolvent_sum(mus, weights, x)
            sl.estimate_M(sl.CauchySolver(op, grid),
                          [(sl.ExpForcing(1.0, x), np.zeros(n, complex)),
                           (sl.ZeroForcing(n), factor.column(0))])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(factor, operators.SineMap) and len(grid.nodes) <= nodes
        assert peak < 8 * 16 * n * nodes  # 134 MB; an n x n real array is 2147 MB


class TestDenseCap:
    """A dense consumer refuses a dim x dim array past _DENSE_MAX_DIM with a
    ConfigError, allocating nothing of that size."""

    def test_refused_past_the_cap(self, monkeypatch, rng):
        monkeypatch.setattr(operators, "_DENSE_MAX_DIM", 8)
        assert sl.laplacian_1d(8).matrix.shape == (8, 8)
        for op in (sl.laplacian_1d(9), sl.jordan_block(-1.0, 9)):
            with pytest.raises(ConfigError, match="dense 9 x 9"):
                op.matrix

    def test_large_operators_allocate_nothing(self, rng):
        n = operators._DENSE_MAX_DIM + 1
        lap, x = sl.laplacian_1d(n), random_vector(rng, n)
        lap.eigenvalues  # eigh_tridiagonal, O(n) memory; not a dense consumer
        tracemalloc.start()
        try:
            for consume in (lambda: lap.matrix, lambda: sl.jordan_block(-1.0, n).eigenvalues,
                            lambda: lap.semigroup_apply_oracle(0.5, x),
                            lambda: np.asarray(lap.resolvent_factor),
                            lambda: sl.laplacian_1d(n, e0_norm="sup").resolvent_norms([1.0])):
                with pytest.raises(ConfigError, match=f"dense {n} x {n}"):
                    consume()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the complex matrix would be 268 MB


class TestGKLNorm:
    """Golub-Kahan-Lanczos on the Schur factor, the euclidean resolvent norm
    of a non-normal operator of dim >= _GKL_MIN_DIM, against scipy's SVD of
    mu - A."""

    @staticmethod
    def _rtol(op, mu, ref):
        # 1e-10, or what a backward error eps ||mu - A|| in either method
        # moves sigma_min by: the SVDs of mu - A and of mu - T themselves
        # differ by 5e-9 relative at norms near 1e7
        return max(1e-10, np.finfo(float).eps * np.linalg.norm(mu * np.eye(op.dim) - op.matrix, 2)
                   * ref)

    @pytest.mark.parametrize("seed", [4, 11])
    def test_matches_svd(self, seed):
        op = nonnormal_dense(128, seed)
        assert op.dim >= _GKL_MIN_DIM and op.resolvent_backend == "schur"
        lam = op.eigenvalues[np.argmax(op.eigenvalues.real)]
        mus = MUS + [lam + 1e-2j, lam + 1e-4j, 1e3, 1e3j, -1e3 - 1e3j]
        for mu in mus:
            ref = _svd_norm(op, mu)
            assert op.resolvent_norm(mu) == pytest.approx(ref, rel=self._rtol(op, mu, ref), abs=0)

    @pytest.mark.parametrize("dist, log10_norm", [(0.1, 128), (0.01, 256)])
    def test_jordan_beyond_squaring_range(self, dist, log10_norm):
        # ||(mu - J)^-1|| ~ dist^-128; at 1e256 its square, the norm of
        # ((mu - J)* (mu - J))^-1, overflows
        op = sl.jordan_block(-1.0, 128)
        norm = op.resolvent_norm(-1.0 + dist)
        assert 10.0 ** (log10_norm - 1) < norm < 10.0 ** (log10_norm + 1)
        assert norm == pytest.approx(_svd_norm(op, -1.0 + dist), rel=1e-10, abs=0)

    def test_no_svd_from_the_gate_on(self, monkeypatch):
        above, below = nonnormal_dense(_GKL_MIN_DIM, 3), nonnormal_dense(_GKL_MIN_DIM - 1, 3)
        for op in (above, below):
            op.resolvent_factor  # the factor's own norms may take SVDs
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        sl.halfplane_scan(above, -0.5, MUS)
        sl.rplus_verdict(above, scan_imag_axis=[-1.0, 0.0, 1.0])
        assert calls == []
        below.resolvent_norm(MUS[0])  # below the gate the dense SVD stays
        assert calls == [1]

    def test_dense_path_raises_where_sigma_min_underflows(self):
        # below the gate, sigma_min of mu - J underflows to 0 at distance 1e-6
        # (||(mu - J)^-1|| ~ 1e336): SingularResolvent, as on the GKL path
        op = sl.jordan_block(-1.0, 56)
        assert op.dim < _GKL_MIN_DIM and op.resolvent_backend == "schur"
        with pytest.raises(SingularResolvent):
            op.resolvent_norm(-1.0 + 1e-6)
        scan = sl.halfplane_scan(op, -1.0, [-1.0 + 1e-6, 1.0])
        assert scan.scan[0][1] == np.inf and np.isfinite(scan.scan[1][1])

    def test_hard_operators_match_svd(self, monkeypatch):
        grcar = sl.OperatorPair(  # Toeplitz: -1 below the diagonal, 1 on it and three above
            -np.eye(128, k=-1) + sum(np.eye(128, k=k) for k in range(4)) - 5.0 * np.eye(128))
        solves = []
        ztrsv = operators.ztrsv
        monkeypatch.setattr(operators, "ztrsv",
                            lambda M, x, trans=0: solves.append(trans) or ztrsv(M, x, trans=trans))
        steps = []
        for op in (grcar, nonnormal_dense(128, 4, scale=25.0)):
            assert op.dim >= _GKL_MIN_DIM and op.resolvent_backend == "schur"
            for mu in MUS + [1e3, 1e3j, 20.0 + 20.0j]:
                solves.clear()
                norm = op.resolvent_norm(mu)
                steps.append(solves.count(0))
                ref = _svd_norm(op, mu)
                assert norm == pytest.approx(ref, rel=self._rtol(op, mu, ref), abs=0)
        # Grcar at 1e3j takes about 70 steps, past the 40-50 of the benchmark's points
        assert max(steps) >= 60

    def test_unsettled_ritz_value_falls_back_to_one_svd(self, monkeypatch):
        op = nonnormal_dense(128, 4)
        op.resolvent_factor  # the factor's own norms may take SVDs
        monkeypatch.setattr(operators, "_GKL_RTOL", -1.0)  # the stop test never passes
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        mu = MUS[2]
        norm = op.resolvent_norm(mu)
        assert calls == [1]
        with operators._serial_lapack():  # as the fallback runs it: its bits depend on the count
            assert norm == 1.0 / svd(mu * np.eye(op.dim) - op.matrix, compute_uv=False)[-1]

    def test_memory_is_linear_in_n(self):
        op = nonnormal_dense(256, 4)
        n = op.dim
        _, T = op.resolvent_factor
        M = operators._shifted_schur(MUS[2], T)
        tracemalloc.start()
        try:
            operators._inverse_norm(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 16 / 8  # an n x n complex basis is n^2 * 16 bytes

    def test_bit_equal_across_calls(self):
        op, again = nonnormal_dense(128, 4), nonnormal_dense(128, 4)
        for mu in MUS:
            assert op.resolvent_norm(mu) == op.resolvent_norm(mu) == again.resolvent_norm(mu)

    def test_top_singular_value_is_the_wrappers(self):
        # the direct LAPACK dstebz call on C C^T against scipy's
        # eigvalsh_tridiagonal of the same tridiagonal, bit for bit, on random
        # bidiagonals of every length the loop reads
        rng = np.random.default_rng(21)
        for m in range(1, 121):
            for scale in 10.0 ** rng.uniform(-5.0, 5.0, size=2):
                e = scale * rng.random(2 * m)
                s = e.max()
                alpha, beta = e[0::2] / s, e[1::2] / s
                ref = scipy.linalg.eigvalsh_tridiagonal(alpha * alpha + beta * beta,
                                                        alpha[1:] * beta[:-1],
                                                        select="i", select_range=(m - 1, m - 1))
                got = operators._top_singular_value(e, s)
                assert got == float(s * np.sqrt(ref[0])), (m, scale)

    def test_norms_unchanged_under_the_wrapper(self, monkeypatch):
        op = nonnormal_dense(128, 4)
        mus = MUS + [1e3j, -1e3 - 1e3j, op.eigenvalues[0] + 1e-3]
        direct = [op.resolvent_norm(mu) for mu in mus]

        def wrapper(e, s):
            alpha, beta = e[0::2] / s, e[1::2] / s
            m = len(alpha)
            return float(s * np.sqrt(scipy.linalg.eigvalsh_tridiagonal(
                alpha * alpha + beta * beta, alpha[1:] * beta[:-1],
                select="i", select_range=(m - 1, m - 1))[0]))
        monkeypatch.setattr(operators, "_top_singular_value", wrapper)
        assert [op.resolvent_norm(mu) for mu in mus] == direct

    def test_top_singular_value_matches_svd(self):
        # the m x m Ritz read C C^T against np.linalg.svd of the dense
        # m x (m + 1) bidiagonal C, at every length and scales past the
        # squaring range
        rng = np.random.default_rng(21)
        for m in range(1, 241):
            e = 10.0 ** rng.uniform(-200.0, 200.0) * rng.random(2 * m)
            C = np.zeros((m, m + 1))
            C[np.arange(m), np.arange(m)], C[np.arange(m), np.arange(1, m + 1)] = e[0::2], e[1::2]
            ref = np.linalg.svd(C, compute_uv=False)[0]
            assert operators._top_singular_value(e, e.max()) == pytest.approx(ref, rel=1e-14,
                                                                                abs=0), m


class TestResolventSum:
    """resolvent_sum, one pass through the cached factor for all shifts,
    against the weighted sum of one dense np.linalg.solve per shift."""

    @pytest.mark.parametrize("make", [lambda: sl.diagonal_operator([-1.0, -2.5, -4.0 + 1j]),
                                      lambda: sl.laplacian_1d(64),
                                      lambda: sl.random_normal_operator(16, seed=3),
                                      lambda: sl.jordan_block(-2.0, 8),
                                      lambda: nonnormal_dense(128, seed=4)],
                             ids=["diag", "lap64", "normal16", "jordan8", "nonnormal128"])
    def test_matches_per_shift_sum(self, make, rng):
        op = make()
        x = random_vector(rng, op.dim)
        c = sl.build_contour(op, 0.1, node_count=32)
        contour_nodes = c.nodes_and_weights()
        weights = rng.standard_normal(len(MUS)) + 1j * rng.standard_normal(len(MUS))
        for mus, w in (contour_nodes, (MUS, weights)):
            ref = sum(wk * np.linalg.solve(mk * np.eye(op.dim) - op.matrix, x)
                      for mk, wk in zip(mus, w))
            got = op.resolvent_sum(mus, w, x)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_one_ztrsv_per_shift(self, monkeypatch, rng):
        op = nonnormal_dense(128, seed=4)
        assert op.resolvent_backend == "schur"
        solves = []
        ztrsv = operators.ztrsv
        monkeypatch.setattr(operators, "ztrsv",
                            lambda M, x, trans=0: solves.append(trans) or ztrsv(M, x, trans=trans))
        x = random_vector(rng, op.dim)
        op.resolvent_solve(MUS[0], x)
        assert solves == [0]
        nodes, _ = sl.build_contour(op, 0.1, node_count=32).nodes_and_weights()
        for mus in (MUS, nodes):
            solves.clear()
            op.resolvent_sum(mus, np.ones(len(mus)), x)
            assert solves == [0] * len(mus)

    @pytest.mark.parametrize("make", [lambda: sl.diagonal_operator([-1.0, -2.0]),
                                      lambda: sl.jordan_block(-2.0, 8)], ids=["diag", "jordan8"])
    def test_shift_on_the_spectrum_raises(self, make):
        op = make()
        lam = op.eigenvalues[-1]
        with pytest.raises(SingularResolvent, match="mu="):
            op.resolvent_sum([1.0, lam + 0.5 * op.singular_tol], [1.0, 1.0], np.ones(op.dim))

    @pytest.mark.parametrize("upper", [0.0, 1.0], ids=["normal", "schur"])
    def test_half_rule_node_on_the_spectrum_raises(self, upper):
        # an eigenvalue on a node of the half-node-count rule alone: it lies
        # inside the full rule's contour and off its nodes, so the full rule's
        # sum is finite, and the error estimate's sum refuses the node with
        # the same error as a node of the full rule
        c = sl.build_contour(sl.diagonal_operator([-1.0]), 1.0, node_count=32)
        half = sl.Contour(16, c.t, c.scale * 0.5, c.shift)
        node = half.nodes_and_weights()[0][4]
        assert node.real < -1.0 and c.contains_left(node)
        op = sl.OperatorPair([[-1.0, upper], [0.0, node]])
        assert op.resolvent_backend == ("schur" if upper else "normal")
        x = np.ones(2)
        value = op.resolvent_sum(*c.nodes_and_weights(), x)
        assert np.all(np.isfinite(value))
        with pytest.raises(ContourCrossesSpectrum, match="node touches the eigenvalue"):
            sl.semigroup_apply_contour(op, c, 1.0, x)


class TestScansMatchSVD:
    """halfplane_scan and rplus_verdict share one resolvent-norm loop; both
    against a direct 1/sigma_min loop."""

    BETAS = np.concatenate([-np.logspace(-2, 3, 9)[::-1], [0.0], np.logspace(-2, 3, 9)])

    @pytest.mark.parametrize("make", [lambda: sl.jordan_block(-2.0, 8),
                                      lambda: nonnormal_dense(12, seed=2),
                                      lambda: nonnormal_dense(12, seed=9)],
                             ids=["jordan8", "nonnormal12-2", "nonnormal12-9"])
    def test_scan_and_verdict_match_svd(self, make):
        op = make()
        mus = MUS + [-0.8 + 0.2j, -0.5 - 3.0j]
        rep = sl.halfplane_scan(op, -0.9, mus)
        assert [m for m, _ in rep.scan] == [complex(m) for m in mus]
        for mu, norm in rep.scan:
            assert norm == pytest.approx(_svd_norm(op, mu), rel=1e-12, abs=0)
        direct = max((1.0 + abs(b)) * _svd_norm(op, 1j * b) for b in self.BETAS)
        verdict = sl.rplus_verdict(op, scan_imag_axis=self.BETAS)
        assert verdict.uniform_bound == pytest.approx(direct, rel=1e-12, abs=0)
        assert verdict.passed and verdict.singular_betas == []


class TestResolventNorms:
    """resolvent_norms, all points of a scan in one call, against one
    resolvent_norm per point: the same bits, inf where that raises."""

    MAKERS = {
        "diag4": lambda e0: sl.diagonal_operator([-1.0, -2.5, -4.0, -7.0], e0_norm=e0),
        "lap64": lambda e0: sl.laplacian_1d(64, e0_norm=e0),
        "jordan8": lambda e0: sl.jordan_block(-2.0, 8, e0_norm=e0),
        "normal16": lambda e0: sl.random_normal_operator(16, seed=3, e0_norm=e0),
        "jordan56": lambda e0: sl.jordan_block(-1.0, 56, e0_norm=e0),
        "nonnormal64": lambda e0: nonnormal_dense(64, seed=3),
    }

    @staticmethod
    def one_at_a_time(op, mus):
        norms = []
        for mu in mus:
            try:
                norms.append(op.resolvent_norm(mu))
            except SingularResolvent:
                norms.append(np.inf)
        return norms

    @pytest.mark.parametrize("e0_norm", ["euclidean", "sup"])
    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_match_resolvent_norm(self, name, e0_norm):
        op = self.MAKERS[name](e0_norm)
        omega = max(0.0, op.spectral_bound + 1e-9)
        # a 5 x 21 box right of omega, verdict's imaginary axis, points on and
        # next to the spectrum (inf: jordan56 at -1 + 1e-6, where sigma_min underflows)
        mus = (mu_box(omega + 0.5, 1e3, 5, -1e2, 1e2, 21)
               + [1j * b for b in np.logspace(-2, 3, 9)]
               + [complex(op.eigenvalues[0]), -1.0 + 1e-6, -2.0 + 1e-3j, 0.3])
        norms = op.resolvent_norms(mus)
        # bit for bit; inf where a sup-norm inverse overflows (jordan56), on both paths
        assert np.array_equal(norms, self.one_at_a_time(op, mus), equal_nan=True)
        assert np.isinf(norms[-4]) and np.isfinite(norms[-1])
        if e0_norm == "euclidean":
            assert np.isinf(norms[-3]) == (name == "jordan56")
        assert op.resolvent_norms([]).shape == (0,)

    def test_overflowed_sup_norm_fails_closed(self):
        # ||(mu - J)^-1|| ~ 1e336 at distance 1e-6: the row sums of the
        # overflowed inverse are NaN, which must read inf, so that N is inf
        # wherever the point sits in the grid
        op = sl.jordan_block(-1.0, 56, e0_norm="sup")
        mus = [-1.0 + 1e-6, 1.0]
        norms = op.resolvent_norms(mus)
        assert norms[0] == np.inf and np.isfinite(norms[1])
        with pytest.raises(SingularResolvent):
            op.resolvent_norm(mus[0])
        for grid in (mus, mus[::-1]):
            assert sl.halfplane_scan(op, -1.0, grid).bound_constant == np.inf

    def test_dense_scan_takes_one_svd(self, monkeypatch):
        op = sl.jordan_block(-2.0, 8)
        op.resolvent_factor  # the factor's own norms may take SVDs
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        rep = sl.halfplane_scan(op, 0.0, mu_box(0.5, 1e3, 5, -1e2, 1e2, 21))
        verdict = sl.rplus_verdict(op)
        assert len(rep.scan) == 105 and verdict.passed
        assert calls == [1, 1]  # one stacked SVD per scan

    def test_budget_cuts_a_scan_into_chunks(self, monkeypatch):
        op = sl.jordan_block(-2.0, 8, e0_norm="sup")
        mus = mu_box(0.5, 1e3, 5, -1e2, 1e2, 21)
        whole = op.resolvent_norms(mus)
        monkeypatch.setattr(operators, "BATCH_BYTES", 64 * 16 * op.dim ** 2)  # 16 points
        inverses = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(len(a)) or inv(a))
        assert np.array_equal(op.resolvent_norms(mus), whole)
        assert inverses == [16] * 6 + [9]


def _hermitian_tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    return np.diag(rng.standard_normal(n)) + np.diag(e, 1) + np.diag(e.conj(), -1)


class TestStructure:
    """The structure, which picks the spectral and resolvent paths, is read
    from the matrix."""

    @pytest.mark.parametrize("matrix, structure", [
        (np.diag([-1.0, 0.0, -2.5 + 1j]), "diagonal"),
        (_hermitian_tridiagonal(5, 6), "tridiagonal"),
        (np.diag([-1.0, -1.0, -1.0]) + np.diag([1.0, 1.0], 1), "tridiagonal"),
        (np.arange(1.0, 10.0).reshape(3, 3), "dense"),
        (np.array([[-3.0 + 2j]]), "diagonal"),
    ], ids=["diagonal", "hermitian-tridiagonal", "upper-bidiagonal", "full", "1x1"])
    def test_read_from_matrix(self, matrix, structure):
        assert sl.OperatorPair(matrix).structure == structure

    @pytest.mark.parametrize("case", ["hermitian", "near", "far", "nan", "inf", "inf-both",
                                      "complex-diagonal"])
    def test_hermitian_from_the_band(self, case):
        # the three diagonals give np.allclose's answer on the whole matrix
        A = _hermitian_tridiagonal(6, 3)
        tol = 1e-14 * (1 + np.linalg.norm(A))
        if case == "near":
            A[2, 3] += 0.5 * tol
        elif case == "far":
            A[2, 3] += 4 * tol
        elif case == "nan":
            A[1, 0] = np.nan
        elif case == "inf":
            A[4, 5] = np.inf
        elif case == "inf-both":
            A[4, 5] = A[5, 4] = np.inf
        elif case == "complex-diagonal":
            A[0, 0] += 1j
        op = sl.OperatorPair(A)
        assert op.structure == "tridiagonal"
        with np.errstate(invalid="ignore"):  # a NaN or inf tolerance
            dense = bool(np.allclose(A, A.conj().T, rtol=0, atol=1e-14 * (1 + op.matrix_norm)))
            assert op.is_hermitian == dense
        assert dense == (case in ("hermitian", "near", "inf-both"))

    def test_generators_and_rows_agree(self):
        text = "row = -1 0 0\nrow = 0 -2.5 0\nrow = 0 0 -4\n"
        assert sl.parse_operator_text(text).structure == "diagonal"
        assert sl.jordan_block(-2.0, 8).structure == "tridiagonal"
        assert not sl.jordan_block(-2.0, 8).is_hermitian


def _parent_laplacian(n):
    h = 1.0 / (n + 1)
    return (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
            + np.diag(np.ones(n - 1), -1)) / h**2


def _parent_jordan(lam, size):
    return np.diag(np.full(size, complex(lam))) + np.diag(np.ones(size - 1), 1)


_PHASE3 = "row = -2 1j 0\nrow = -1j -2 1j\nrow = 0 -1j -2\n"
_SIGNS3 = "row = -2 -1 0\nrow = -1 -2 -1\nrow = 0 -1 -2\n"
_SKEW3 = "row = -1 2 0\nrow = 0.5 -3 1+1j\nrow = 0 4 -2\n"
_DIAG4 = [-1.0, -2.5 + 1j, 0.0, -7.0]

# (the operator, its dense matrix as the constructors formed it before bands)
STORAGE = {
    **{f"lap{n}": (lambda n=n: sl.laplacian_1d(n), lambda n=n: _parent_laplacian(n))
       for n in (1, 2, 3, 64, 512)},
    **{f"jordan{k}": (lambda k=k: sl.jordan_block(-2.0, k), lambda k=k: _parent_jordan(-2.0, k))
       for k in (1, 2, 8)},
    "phase3": (lambda: sl.parse_operator_text(_PHASE3),
               lambda: np.array([[-2, 1j, 0], [-1j, -2, 1j], [0, -1j, -2]])),
    "signs3": (lambda: sl.parse_operator_text(_SIGNS3),
               lambda: np.array([[-2.0, -1, 0], [-1, -2, -1], [0, -1, -2]])),
    "skew3": (lambda: sl.parse_operator_text(_SKEW3),
              lambda: np.array([[-1, 2, 0], [0.5, -3, 1 + 1j], [0, 4, -2]])),
    "diag4": (lambda: sl.diagonal_operator(_DIAG4), lambda: np.diag(_DIAG4)),
}


def _parent_reads(A):
    """(structure, is_hermitian, matrix_norm, eigenvalues, (Z, T)) of the dense A
    by the formulas OperatorPair applied to its matrix before it held bands."""
    nonzero = np.count_nonzero(A)
    if nonzero == np.count_nonzero(np.diagonal(A)):
        structure = "diagonal"
    elif nonzero == sum(np.count_nonzero(np.diagonal(A, k)) for k in (-1, 0, 1)):
        structure = "tridiagonal"
    else:
        structure = "dense"
    norm = float(scipy.linalg.blas.dznrm2(A.ravel()))
    d, up, lo = (np.diagonal(A, k) for k in (0, 1, -1))
    hermitian = bool(np.allclose(np.concatenate([d, up, lo]), np.concatenate([d, lo, up]).conj(),
                                 rtol=0, atol=1e-14 * (1 + norm)))
    Z = None
    with operators._serial_lapack():
        if structure == "diagonal":
            eigs, T = np.diag(A).copy(), np.diag(A).copy()
        elif structure == "tridiagonal" and hermitian:
            e = np.diag(A, 1)
            eigs = scipy.linalg.eigh_tridiagonal(np.real(np.diag(A)), np.abs(e),
                                                 eigvals_only=True).astype(complex)
            lam, V = scipy.linalg.eigh_tridiagonal(np.real(np.diag(A)), np.abs(e))
            p = np.cumprod(np.divide(e.conj(), np.abs(e), out=np.ones_like(e), where=e != 0))
            p = p if e.imag.any() else p.real
            Z, T = np.concatenate([[1.0], p])[:, None] * V, lam.astype(complex)
        else:
            eigs = np.linalg.eigvals(A)
            T, Z = scipy.linalg.schur(A, output="complex")
    if T.ndim == 2 and np.linalg.norm(np.triu(T, 1)) <= 1e-12 * (1.0 + norm):
        T = np.diag(T).copy()
    return structure, hermitian, norm, eigs, (Z, T)


class TestBandedStorage:
    """A diagonal or tridiagonal operator is held as its bands: everything read
    from them equals, bit for bit, what the dense matrix gave, and its matrix
    is formed only for a dense consumer."""

    @pytest.mark.parametrize("name", sorted(STORAGE))
    def test_bands_read_as_the_dense_matrix(self, name):
        make, dense = STORAGE[name]
        op, A = make(), np.array(dense(), dtype=complex)
        structure, hermitian, norm, eigs, (Z, T) = _parent_reads(A)
        assert op.bands is not None and op.dim == len(A)
        assert op.structure == structure and op.matrix_norm == norm
        if structure == "tridiagonal":
            assert op.is_hermitian == hermitian
        assert "matrix" not in op.__dict__
        assert np.array_equal(op.eigenvalues, eigs)
        factor = op.resolvent_factor
        if isinstance(factor, operators.SineMap):
            # a Laplacian from _SINE_MIN_DIM on: the closed-form spectrum within
            # eigh_tridiagonal's backward error, and no basis (TestSineBasis)
            assert op.dim >= operators._SINE_MIN_DIM and Z is not None
            eps, two_norm = np.finfo(float).eps, np.max(np.abs(T))
            assert np.max(np.abs(factor.d - T)) <= op.dim * eps * two_norm
        elif isinstance(factor, operators.EigenMap):
            got_Z, got_T = factor.Z, factor.d
        else:
            got_Z, got_T = factor
        if not isinstance(factor, operators.SineMap):
            assert (got_Z is None) == (Z is None) and np.array_equal(got_T, T)
            if Z is not None:
                assert got_Z.dtype == Z.dtype and np.array_equal(got_Z, Z)
        # only a non-Hermitian tridiagonal's eigenvalues and Schur form read the matrix
        assert ("matrix" in op.__dict__) == (structure == "tridiagonal" and not hermitian)
        assert np.array_equal(op.matrix, A) and not op.matrix.flags.writeable
        assert op.matrix is op.matrix

    @pytest.mark.parametrize("name", sorted(STORAGE))
    def test_apply_matches_the_dense_product(self, name, rng):
        make, dense = STORAGE[name]
        op, A = make(), np.array(dense(), dtype=complex)
        n = op.dim
        for shape in ((n,), (3, n), (2, 5, n)):
            X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got, ref = op.apply(X), X @ A.T
            assert got.shape == ref.shape
            assert np.all(np.linalg.norm(got - ref, axis=-1)
                          <= 1e-15 * np.linalg.norm(ref, axis=-1))
        assert "matrix" not in op.__dict__

    @pytest.mark.parametrize("n", [3, 16, 64, 255, 256])
    def test_dense_apply_is_the_matrix_vector_product(self, n, rng):
        # bit for bit on a vector (a 2 x 2 is tridiagonal); a stack's norm1
        # reads each row as the vector's
        op = nonnormal_dense(n, seed=n)
        assert op.bands is None and op.structure == "dense"
        X = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        assert np.array_equal(op.apply(X[0]), op.matrix @ X[0])
        assert np.array_equal(op.apply(X), X @ op.matrix.T)
        assert op.norm1(X).tolist() == [op.norm1(x) for x in X]

    def test_dense_input_is_reduced_to_its_bands(self):
        A = _parent_laplacian(6)
        op = sl.OperatorPair(A)
        assert op.bands is not None and "matrix" not in op.__dict__
        assert np.array_equal(op.matrix, A)
        assert np.array_equal(sl.OperatorPair(np.eye(3)).bands[1], np.ones(3))
        assert sl.OperatorPair(np.ones((3, 3))).bands is None

    def test_bands_must_fit(self):
        with pytest.raises(DimensionMismatch):
            sl.OperatorPair.from_bands([1.0], [1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            sl.diagonal_operator([])

    def test_laplacian_memory_is_linear(self):
        # the dense 2048 x 2048 complex matrix alone is 67 MB
        tracemalloc.start()
        try:
            op = sl.laplacian_1d(2048)
            op.eigenvalues, op.matrix_norm
            op.norm1(np.ones(op.dim))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_spectral_path_forms_no_matrix(self, rng):
        op = sl.laplacian_1d(512)
        x = random_vector(rng, op.dim)
        sl.halfplane_scan(op, max(0.0, op.spectral_bound + 1e-9))
        assert sl.rplus_verdict(op).passed
        for t in (0.01, 0.1, 1.0):
            res = sl.semigroup_apply_contour(op, sl.build_contour(op, t, node_count=64), t, x)
            exact = op.semigroup_apply_oracle(t, x)
            assert op.norm0(res.value - exact) <= 1e-6 * op.norm0(exact)
        assert "matrix" not in op.__dict__
        assert largest_array(op.resolvent_factor) == op.dim  # its eigenvalues, no basis


class TestSemigroupOracle:
    def test_identity_semigroup(self, rng):
        op = sl.diagonal_operator([0.0, 0.0, 0.0])
        x = random_vector(rng, 3)
        assert np.allclose(op.semigroup_apply_oracle(2.7, x), x, atol=1e-14)

    def test_diagonal(self, diag_12):
        got = op_apply = diag_12.semigroup_apply_oracle(1.0, np.array([1.0, 1.0]))
        assert np.allclose(got, [np.exp(-1), np.exp(-2)], atol=1e-14)

    def test_jordan_closed_form(self):
        # e^{tJ} = e^{lambda t} (I + tN) for a 2x2 Jordan block
        op = sl.jordan_block(-1.0, 2)
        t = 2.0
        x = np.array([1.0, 1.0])
        exact = np.exp(-t) * np.array([[1.0, t], [0.0, 1.0]]) @ x
        assert np.allclose(op.semigroup_apply_oracle(t, x), exact, atol=1e-12)

    def test_semigroup_property(self, rng):
        op = sl.random_normal_operator(16, seed=11)
        for _ in range(20):
            s, t = rng.uniform(0.05, 1.5, size=2)
            x = random_vector(rng, 16)
            both = op.semigroup_apply_oracle(s + t, x)
            stepped = op.semigroup_apply_oracle(s, op.semigroup_apply_oracle(t, x))
            assert op.norm0(both - stepped) <= 1e-10 * max(op.norm0(both), 1e-30)

    def test_t_zero_exact(self, rng):
        op = sl.jordan_block(-3.0, 4)
        x = random_vector(rng, 4)
        assert np.array_equal(op.semigroup_apply_oracle(0.0, x), x.astype(complex))

    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_laplacian_sine_series(self, n, rng):
        # e^{tA} = V diag(e^{t lambda_k}) V^T: V_jk = sqrt(2h) sin(jk pi h),
        # lambda_k = -4 sin^2(k pi h / 2) / h^2, h = 1/(n+1)
        op, h = sl.laplacian_1d(n), 1.0 / (n + 1)
        k = np.arange(1, n + 1)
        V = np.sqrt(2 * h) * np.sin(np.outer(k, k) * np.pi * h)
        lam = -4.0 * np.sin(k * np.pi * h / 2) ** 2 / h**2
        x = random_vector(rng, n)
        for t in (0.01, 0.1, 1.0):
            exact = V @ (np.exp(t * lam) * (V.T @ x))
            assert op.norm0(op.semigroup_apply_oracle(t, x) - exact) <= 1e-10 * op.norm0(exact)

    @pytest.mark.parametrize("make", [lambda: sl.jordan_block(-2.0, 8),
                                      lambda: nonnormal_dense(12, seed=5, real=True)],
                             ids=["jordan8", "real-nonnormal12"])
    def test_real_matrix_matches_complex_expm(self, make, rng):
        op = make()
        x = random_vector(rng, op.dim)
        for t in (0.01, 0.1, 1.0):
            exact = scipy.linalg.expm(t * op.matrix) @ x  # complex arithmetic throughout
            assert op.norm0(op.semigroup_apply_oracle(t, x) - exact) <= 1e-13 * op.norm0(exact)

    @pytest.mark.parametrize("make, dtype", [
        (lambda: sl.jordan_block(-2.0, 8), np.float64),
        (lambda: nonnormal_dense(12, seed=5, real=True), np.float64),
        (lambda: sl.random_normal_operator(16, seed=3), np.complex128),
        (lambda: sl.jordan_block(-1 + 2j, 8), np.complex128)],
        ids=["jordan8", "real-nonnormal12", "normal16", "jordan-complex"])
    def test_real_operator_takes_real_expm(self, make, dtype, rng, monkeypatch):
        op, seen, expm = make(), [], scipy.linalg.expm

        def recording(M):
            seen.append(M.dtype)
            return expm(M)
        monkeypatch.setattr(scipy.linalg, "expm", recording)
        op.semigroup_apply_oracle(0.5, random_vector(rng, op.dim))
        assert seen == [dtype]

    @pytest.mark.parametrize("make", [lambda: sl.laplacian_1d(64),
                                      lambda: sl.OperatorPair(complex_hermitian_tridiagonal())],
                             ids=["lap64", "complex-hermitian"])
    def test_hermitian_tridiagonal_takes_its_eigendecomposition(self, make, rng, monkeypatch):
        # neither scaling and squaring nor the resolvent factor's eigensolver
        def refuse(*args, **kwargs):
            raise AssertionError("called")
        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)
        op = make()
        op.semigroup_apply_oracle(0.5, random_vector(rng, op.dim))
        assert "resolvent_factor" not in op.__dict__

    def test_complex_hermitian_matches_complex_expm(self, rng):
        op = sl.OperatorPair(complex_hermitian_tridiagonal())
        x = random_vector(rng, op.dim)
        for t in (0.01, 0.1, 1.0):
            exact = scipy.linalg.expm(t * op.matrix) @ x
            assert op.norm0(op.semigroup_apply_oracle(t, x) - exact) <= 1e-12 * op.norm0(exact)

    def test_one_ulp_off_hermitian_takes_expm(self, rng, monkeypatch):
        # is_hermitian's tolerance would pass it; the oracle's exact test does not
        A = complex_hermitian_tridiagonal()
        A[3, 2] = complex(np.nextafter(A[3, 2].real, np.inf), A[3, 2].imag)
        op, seen, expm = sl.OperatorPair(A), [], scipy.linalg.expm
        assert op.structure == "tridiagonal" and op.is_hermitian
        monkeypatch.setattr(scipy.linalg, "expm", lambda M: seen.append(M.dtype) or expm(M))
        x = random_vector(rng, op.dim)
        got = op.semigroup_apply_oracle(0.5, x)
        assert seen == [np.complex128]
        assert np.array_equal(got, expm(0.5 * A) @ x)

    def test_memory_of_the_laplacian(self, rng):
        # eigh takes about 3 n^2 doubles, real expm about 9 n^2
        op = sl.laplacian_1d(256)
        x = random_vector(rng, op.dim)
        tracemalloc.start()
        try:
            op.semigroup_apply_oracle(0.5, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * op.dim ** 2 * 8


class TestDescriptionFiles:
    def test_generators(self, tmp_path):
        f = tmp_path / "lap.op"
        f.write_text("matrix=laplacian1d n=8\n")
        op = sl.load_operator(f)
        assert op.dim == 8 and op.structure == "tridiagonal"

        f2 = tmp_path / "jord.op"
        f2.write_text("matrix=jordan lambda=-1 size=3\ne0_norm=sup\n")
        op2 = sl.load_operator(f2)
        assert op2.dim == 3 and op2.e0_norm == "sup"

    def test_inline_rows(self, tmp_path):
        f = tmp_path / "inline.op"
        f.write_text("dim=2\nrow=1,0\nrow=0,2\n")
        op = sl.load_operator(f)
        assert np.allclose(op.matrix, np.diag([1.0, 2.0]))

    def test_bad_file(self, tmp_path):
        f = tmp_path / "bad.op"
        f.write_text("matrix=frobnicate n=2\n")
        with pytest.raises(ConfigError):
            sl.load_operator(f)
