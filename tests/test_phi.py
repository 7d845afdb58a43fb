import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import semilab as sl
from semilab import phi
from semilab.phi import phi_matrices, phi_scalar
from semilab.timegrid import gauss_legendre_01


def phi_reference(k, z):
    """Brute-force phi_k by high-order series (mpmath-free oracle)."""
    total = 0.0 + 0.0j
    term = 1.0
    import math
    for j in range(60):
        total += z**j / math.factorial(j + k)
        if abs(z) ** (j + 1) / math.factorial(j + 1 + k) < 1e-20:
            break
    return total


def phi_exact(kmax, z, terms=80):
    """phi_0..phi_kmax at the float z, rounded from exact rationals: the
    series of phi_kmax to `terms` terms (tail below 1e-45 for |z| <= 8),
    then the downward recurrence phi_k = z phi_{k+1} + 1/k!, which is exact
    in rational arithmetic."""
    zr, zi = Fraction(z.real), Fraction(z.imag)
    re, im, pr, pi = Fraction(0), Fraction(0), Fraction(1), Fraction(0)
    for j in range(terms):
        f = math.factorial(j + kmax)
        re, im = re + pr / f, im + pi / f
        pr, pi = pr * zr - pi * zi, pr * zi + pi * zr
    out = [complex(float(re), float(im))]
    for k in range(kmax - 1, -1, -1):
        re, im = zr * re - zi * im + Fraction(1, math.factorial(k)), zr * im + zi * re
        out.append(complex(float(re), float(im)))
    return np.array(out[::-1])


def phi_matrices_expm(B, kmax):
    """Oracle: [e^B, phi_1(B), ..., phi_kmax(B)] from one augmented matrix
    exponential. exp of the block matrix [[B, I, 0, ...], [0, 0, I, ...], ...]
    carries phi_k(B) in its top block row."""
    d = B.shape[0]
    n = d * (kmax + 1)
    M = np.zeros((n, n), dtype=complex)
    M[:d, :d] = B
    for k in range(kmax):
        M[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = np.eye(d)
    E = scipy.linalg.expm(M)
    return np.array([E[:d, k * d:(k + 1) * d] for k in range(kmax + 1)])


def phi_matrices_sequential(B, kmax):
    """The same Taylor sum and modified squarings as phi_matrices, with the
    powers X^0..X^24 taken one product at a time and each sum over a list of
    matrices as np.tensordot."""
    X = np.asarray(B, dtype=complex).reshape((-1,) + B.shape[-2:])
    s = np.maximum(np.frexp(np.abs(X).sum(axis=-1).max(axis=-1) / phi._THETA)[1], 0)
    powers = [np.broadcast_to(np.eye(B.shape[-1]), X.shape), X * np.ldexp(1.0, -s)[:, None, None]]
    for _ in range(phi._TAYLOR_DEGREE - 1):
        powers.append(powers[-1] @ powers[1])
    k = np.arange(kmax + 1)
    inv_fact = np.array([1 / math.factorial(i) for i in range(kmax + phi._TAYLOR_DEGREE + 1)])
    PHI = np.tensordot(inv_fact[np.add.outer(k, np.arange(phi._TAYLOR_DEGREE + 1))], powers, axes=1)
    L = np.tril(inv_fact[np.abs(np.subtract.outer(k, k))]) * (k > 0)
    halve = np.ldexp(1.0, -k)[:, None, None, None]
    for i in range(s.max(initial=0)):
        Y = PHI[:, s > i]
        PHI[:, s > i] = halve * (Y[0] @ Y + np.tensordot(L, Y, axes=1))
    return PHI.reshape((kmax + 1,) + B.shape)


def squarings(stack):
    """The number of modified squarings phi_matrices takes for each matrix."""
    return np.maximum(np.frexp(np.abs(stack).sum(axis=-1).max(axis=-1) / phi._THETA)[1], 0)


def nonnormal_12(seed, d=None):
    """Q (D + N) Q*: eigenvalues d, strictly upper triangular N, unitary Q.
    Seed 12 without d is the operator of test_nonnormal_diagonalizable_is_dense."""
    g = np.random.default_rng(seed)
    if d is None:
        d = -(1.0 + 8.0 * g.random(12))
    N = np.triu(g.standard_normal((12, 12)), 1) * (2.0 / np.sqrt(12))
    Q, _ = np.linalg.qr(g.standard_normal((12, 12)) + 1j * g.standard_normal((12, 12)))
    return Q @ (np.diag(d) + N) @ Q.conj().T


def panel_stack(A, shift, h, q=8):
    """The matrices h r_j (A - shift) of one Cauchy-solver panel table."""
    xi = gauss_legendre_01(q)
    return np.multiply.outer(h * np.append(xi, 1.0), A - shift * np.eye(A.shape[0]))


def max_order_deviation(got, ref):
    """Largest deviation of any order k, relative to that order's largest entry."""
    return max(np.max(np.abs(got[k] - ref[k])) / np.max(np.abs(ref[k])) for k in range(len(ref)))


class TestPhiScalar:
    @pytest.mark.parametrize("z", [0.0, 1e-8, 0.5, -2.0, 10.0,
                                   3.0 + 4.0j, -0.3 - 0.1j])
    def test_against_series(self, z):
        # the series oracle itself loses accuracy beyond |z| ~ 30
        out = phi_scalar(4, np.array(z, dtype=complex))
        for k in range(5):
            assert out[k] == pytest.approx(phi_reference(k, z), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("z", [-50.0, -300.0, -1e5])
    def test_large_negative_closed_forms(self, z):
        # phi1 = (e^z - 1)/z and phi2 = (e^z - 1 - z)/z^2 are benign in
        # double precision for large negative z
        out = phi_scalar(2, np.array(z, dtype=complex))
        assert out[1] == pytest.approx((np.exp(z) - 1.0) / z, rel=1e-13)
        assert out[2] == pytest.approx((np.exp(z) - 1.0 - z) / z**2, rel=1e-13)

    def test_recurrence(self):
        # phi_{k+1}(z) = (phi_k(z) - 1/k!) / z
        import math
        z = np.array([0.7, -3.0, 2.0 + 1.0j], dtype=complex)
        out = phi_scalar(5, z)
        for k in range(5):
            lhs = out[k + 1]
            rhs = (out[k] - 1.0 / math.factorial(k)) / z
            assert np.allclose(lhs, rhs, rtol=1e-11)

    def test_phi0_is_exp(self):
        z = np.linspace(-30, 3, 37).astype(complex)
        assert np.allclose(phi_scalar(1, z)[0], np.exp(z), rtol=1e-13)

    def test_known_values_at_zero(self):
        out = phi_scalar(3, np.array(0.0, dtype=complex))
        assert np.allclose(out, [1.0, 1.0, 0.5, 1.0 / 6.0])

    R = phi._SCALAR_RADIUS
    RADII = [0.5, 1.0, 1.2, 2.0, 3.0, R * (1 - 1e-9), R * (1 + 1e-9), 6.0, 8.0]
    RAYS = {"negative-real": 1.0, "0.75pi": 0.75, "0.6pi": 0.6, "imaginary": 0.5,
            "0.25pi": 0.25}

    @pytest.mark.parametrize("ray", sorted(RAYS))
    def test_against_exact_rationals(self, ray):
        # every order phi_0..phi_9 (the solver's kmax = q + 1 on the default
        # grid) on both sides of the Horner radius
        z = np.array([r * np.exp(1j * np.pi * self.RAYS[ray]) for r in self.RADII])
        if ray == "negative-real":
            z = -np.array(self.RADII, dtype=complex)
        got = phi_scalar(9, z)
        for i, zi in enumerate(z):
            exact = phi_exact(9, zi)
            assert np.max(np.abs(got[:, i] - exact) / np.abs(exact)) <= 1e-13, zi

    @pytest.mark.parametrize("kmax", [13, 17])
    @pytest.mark.parametrize("ray", sorted(RAYS))
    def test_higher_kmax_against_exact_rationals(self, ray, kmax):
        # finer grids (nodes_per_panel 12, 16) on both sides of their own
        # Horner radius, which grows with kmax
        R = phi._scalar_series(kmax)[0]
        radii = [0.5, 1.0, 2.0, 3.0, 5.0, R * (1 - 1e-9), R * (1 + 1e-9), 10.0, 12.0]
        z = np.array([r * np.exp(1j * np.pi * self.RAYS[ray]) for r in radii])
        if ray == "negative-real":
            z = -np.array(radii, dtype=complex)
        got = phi_scalar(kmax, z)
        for i, zi in enumerate(z):
            exact = phi_exact(kmax, zi)
            assert np.max(np.abs(got[:, i] - exact) / np.abs(exact)) <= 2e-13, zi

    def test_lower_kmax_against_exact_rationals(self):
        z = np.array([-4.5, 2.0 + 3.0j, -5.5 + 0.5j, 0.7j])
        for kmax in (1, 2, 5):
            got = phi_scalar(kmax, z)
            for i, zi in enumerate(z):
                exact = phi_exact(kmax, zi)
                assert np.max(np.abs(got[:, i] - exact) / np.abs(exact)) <= 1e-13, (kmax, zi)


class TestPhiMatrices:
    def test_matches_scalar_on_diagonal(self):
        d = np.array([-1.0, 0.0, 2.5])
        B = np.diag(d)
        mats = phi_matrices(B, 3)
        scal = phi_scalar(3, d.astype(complex))
        for k in range(4):
            assert np.allclose(np.diag(mats[k]), scal[k], rtol=1e-12)

    def test_jordan_block_derivative_structure(self):
        # for B = [[l,1],[0,l]]: f(B) = [[f(l), f'(l)], [0, f(l)]]
        lam = -0.8
        B = np.array([[lam, 1.0], [0.0, lam]])
        mats = phi_matrices(B, 1)
        eps = 1e-6
        fp = (phi_reference(1, lam + eps) - phi_reference(1, lam - eps)) / (2 * eps)
        assert mats[1][0, 1] == pytest.approx(fp.real, rel=1e-8)
        assert mats[1][0, 0] == pytest.approx(phi_reference(1, lam).real, rel=1e-12)

    OPERATORS = {
        "jordan3": lambda: sl.jordan_block(-1.0, 3).matrix,
        "jordan8": lambda: sl.jordan_block(-2.0, 8).matrix,
        "nonnormal12": lambda: nonnormal_12(12),
    }

    @pytest.mark.parametrize("shift", [0.0, 30.0 + 100.0j, 1e3], ids=["0", "30+100i", "1e3"])
    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_panel_tables_against_augmented_expm(self, name, shift):
        A = self.OPERATORS[name]()
        for h in (1.0 / 16, 1.0):
            stack = panel_stack(A, shift, h)
            ref = np.array([phi_matrices_expm(B, 9) for B in stack]).swapaxes(0, 1)
            assert max_order_deviation(phi_matrices(stack, 9), ref) <= 1e-13, h

    @pytest.mark.parametrize("shift", [0.0, 30.0 + 100.0j, 1e3], ids=["0", "30+100i", "1e3"])
    def test_stiff_against_augmented_expm(self, shift):
        # eigenvalues from -1 down to -1e4: 13 or more squarings
        A = nonnormal_12(5, -np.logspace(0, 4, 12))
        stack = panel_stack(A, shift, 1.0)
        ref = np.array([phi_matrices_expm(B, 9) for B in stack]).swapaxes(0, 1)
        assert max_order_deviation(phi_matrices(stack, 9), ref) <= 1e-12

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_doubled_powers_match_sequential_powers(self, name):
        # the powers by doubling and the Taylor sum and L term as one real
        # product each, against one product per power and np.tensordot
        A = self.OPERATORS[name]()
        unsquared = panel_stack(A, 0.0, 1.0 / 16)
        assert np.all(squarings(unsquared) == 0)
        mixed = panel_stack(A, 30.0 + 100.0j, 1.0)
        squared = mixed[3:]
        assert squarings(mixed).min() == 1 and np.all(squarings(squared) >= 5)
        for stack in (unsquared, squared, mixed, unsquared[-1]):
            ref = phi_matrices_sequential(stack, 9)
            assert max_order_deviation(phi_matrices(stack, 9), ref) <= 1e-14

    @pytest.mark.parametrize("make, shift", [(lambda: nonnormal_12(12), 1e3),
                                             (lambda: nonnormal_12(5, -np.logspace(0, 4, 12)), 0.0)],
                             ids=["9", "13+"])
    def test_deep_squarings_match_sequential_powers(self, make, shift):
        # 9 or more squarings of a non-normal matrix: either Taylor sum is
        # 1e-13 from the augmented expm, and the two agree to 5e-13
        stack = panel_stack(make(), shift, 1.0)
        assert squarings(stack).max() >= 9
        ref = phi_matrices_sequential(stack, 9)
        assert max_order_deviation(phi_matrices(stack, 9), ref) <= 5e-13

    def test_stack_equals_single_calls(self):
        stack = panel_stack(sl.jordan_block(-2.0, 8).matrix, 30.0 + 100.0j, 0.25)
        out = phi_matrices(stack, 9)
        assert out.shape == (10,) + stack.shape
        for j, B in enumerate(stack):
            one = phi_matrices(B, 9)
            assert one.shape == (10, 8, 8)
            assert np.max(np.abs(out[:, j] - one)) <= 1e-15 * np.max(np.abs(one))

    def test_scalar_stack_matches_phi_scalar(self):
        z = np.array([-1e4, -300.0, -20.0, -4.9, -0.3 + 0.2j, 2.0 + 3.0j, -5.0 - 12.0j, 0.0])
        mats = phi_matrices(z[:, None, None], 9)[..., 0, 0]
        scal = phi_scalar(9, z)
        assert np.all(np.abs(mats - scal) <= 1e-13 * np.abs(scal))

    def test_kmax_zero_is_expm(self):
        B = nonnormal_12(3, -np.logspace(0, 2, 12))
        out = phi_matrices(B, 0)
        assert out.shape == (1, 12, 12)
        E = scipy.linalg.expm(B)
        assert np.max(np.abs(out[0] - E)) <= 1e-13 * np.max(np.abs(E))

    def test_zero_matrix(self):
        out = phi_matrices(np.zeros((2, 3, 3)), 5)
        for k in range(6):
            assert np.array_equal(out[k], np.broadcast_to(np.eye(3) / math.factorial(k), (2, 3, 3)))


class TestMatrixSeriesTables:
    def test_built_once_per_kmax(self, monkeypatch):
        # the inverse factorials, the squaring's L and the halving factors are
        # built on the first call for a kmax and only read after it
        B = np.array([[-40.0, 1.0], [0.0, -2.0]])  # three squarings
        first = phi_matrices(B, 9)
        calls = []
        factorial = math.factorial
        monkeypatch.setattr(phi.math, "factorial", lambda n: calls.append(n) or factorial(n))
        assert np.array_equal(phi_matrices(B, 9), first)
        assert calls == []
        tables = phi._matrix_series(9)
        assert tables is phi._matrix_series(9)
        assert not any(t.flags.writeable for t in tables)
