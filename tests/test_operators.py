import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import semilab as sl
from semilab.errors import ConfigError, DimensionMismatch, SingularResolvent
from semilab.operators import _GKL_MIN_DIM

from conftest import random_vector


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

    def test_unknown_norm_rejected(self):
        with pytest.raises(ConfigError):
            sl.OperatorPair(np.eye(2), e0_norm="manhattan")

    def test_dimension_mismatch(self, diag_12):
        with pytest.raises(DimensionMismatch):
            diag_12.check_vector(np.ones(3))


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


def _nonnormal_dense(n, seed):
    """Q (D + N) Q*: real spectrum in [-9, -1], strictly upper triangular N."""
    rng = np.random.default_rng(seed)
    d = -(1.0 + 8.0 * rng.random(n))
    N = np.triu(rng.standard_normal((n, n)), 1) * (2.0 / np.sqrt(n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return sl.OperatorPair(Q @ (np.diag(d) + N) @ Q.conj().T)


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
                                      lambda: _nonnormal_dense(32, seed=4),
                                      lambda: _nonnormal_dense(128, seed=4)],
                             ids=["jordan3", "jordan8", "nonnormal32", "nonnormal128"])
    def test_solve_matches_dense_solve(self, make, rng):
        op = make()
        assert op.resolvent_backend == "schur"
        Y = random_vector(rng, op.dim)[:, None] * np.ones(3) + np.eye(op.dim, 3)
        for mu in MUS:
            ref = np.linalg.solve(mu * np.eye(op.dim) - op.matrix, Y)
            got = op.resolvent_solve(mu, Y)
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
            assert np.linalg.norm(op.resolvent_solve(mu, Y[:, 0]) - ref[:, 0]) \
                <= 1e-10 * np.linalg.norm(ref[:, 0])

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
        for op in (sl.random_normal_operator(16, seed=3), _nonnormal_dense(16, seed=3)):
            y = random_vector(rng, 16)
            for mu in MUS:
                op.resolvent_norm(mu)
                op.resolvent_solve(mu, y)
        assert len(calls) == 2

    def test_diagonal_solve_is_elementwise(self, rng):
        lam = -np.arange(1.0, 257.0) + 1j * np.linspace(-3.0, 3.0, 256)
        op = sl.diagonal_operator(lam)
        assert all(np.ndim(part) < 2 for part in op.resolvent_factor)
        Y = np.stack([random_vector(rng, 256) for _ in range(3)], axis=1)
        for mu in MUS:
            assert np.array_equal(op.resolvent_solve(mu, Y[:, 0]), Y[:, 0] / (mu - lam))
            assert np.array_equal(op.resolvent_solve(mu, Y), Y / (mu - lam)[:, None])

    def test_hermitian_diagonalization_is_the_factor(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        G = np.random.default_rng(8).standard_normal((12, 12))
        for op in (sl.laplacian_1d(16), sl.OperatorPair(G + G.T)):
            Q, lam = op.diagonalization
            Z, T, normal = op.resolvent_factor
            assert Q is Z and lam is T and normal
        assert len(calls) == 1  # the dense Hermitian one; the Laplacian is tridiagonal

    def test_diagonal_diagonalization_forms_no_basis(self):
        op = sl.diagonal_operator(-np.arange(1.0, 257.0))
        assert all(np.ndim(part) < 2 for part in op.diagonalization)
        assert op.diagonalization[1] is op.resolvent_factor[1]

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

    def test_complex_hermitian_tridiagonal(self):
        rng = np.random.default_rng(6)
        d = rng.standard_normal(6)
        e = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        A = np.diag(d) + np.diag(e, 1) + np.diag(e.conj(), -1)
        op = sl.OperatorPair(A)
        ref = np.linalg.eigvalsh(A)
        assert np.allclose(np.sort(op.eigenvalues.real), ref, rtol=0, atol=1e-13)
        assert op.spectral_bound == pytest.approx(ref[-1], abs=1e-13)
        Z, lam, normal = op.resolvent_factor
        assert normal
        assert np.allclose(Z @ np.diag(lam) @ Z.conj().T, A, rtol=0, atol=1e-13)
        assert np.allclose(Z.conj().T @ Z, np.eye(6), rtol=0, atol=1e-14)


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
        op = _nonnormal_dense(128, seed)
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
        above, below = _nonnormal_dense(_GKL_MIN_DIM, 3), _nonnormal_dense(_GKL_MIN_DIM - 1, 3)
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

    def test_bit_equal_across_calls(self):
        op, again = _nonnormal_dense(128, 4), _nonnormal_dense(128, 4)
        for mu in MUS:
            assert op.resolvent_norm(mu) == op.resolvent_norm(mu) == again.resolvent_norm(mu)


class TestScansMatchSVD:
    """halfplane_scan and rplus_verdict share one resolvent-norm loop; both
    against a direct 1/sigma_min loop."""

    BETAS = np.concatenate([-np.logspace(-2, 3, 9)[::-1], [0.0], np.logspace(-2, 3, 9)])

    @pytest.mark.parametrize("make", [lambda: sl.jordan_block(-2.0, 8),
                                      lambda: _nonnormal_dense(12, seed=2),
                                      lambda: _nonnormal_dense(12, seed=9)],
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

    def test_generators_and_rows_agree(self):
        text = "row = -1 0 0\nrow = 0 -2.5 0\nrow = 0 0 -4\n"
        assert sl.parse_operator_text(text).structure == "diagonal"
        assert sl.jordan_block(-2.0, 8).structure == "tridiagonal"
        assert not sl.jordan_block(-2.0, 8).is_hermitian


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
