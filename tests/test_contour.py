import numpy as np
import pytest

import semilab as sl
from semilab.errors import ConfigError, ContourCrossesSpectrum

from conftest import nonnormal_dense, random_vector


class TestContourType:
    def test_node_count_validation(self, diag_12):
        with pytest.raises(ConfigError):
            sl.build_contour(diag_12, 1.0, node_count=7)
        with pytest.raises(ConfigError):
            sl.build_contour(diag_12, 1.0, node_count=6)

    def test_t_validation(self, diag_12):
        with pytest.raises(ConfigError):
            sl.build_contour(diag_12, 0.0)


class TestAgreementWithOracle:
    def test_scalar_exponential(self, scalar_minus_one):
        c = sl.build_contour(scalar_minus_one, 1.0, node_count=32)
        r = sl.semigroup_apply_contour(scalar_minus_one, c, 1.0, np.array([1.0]))
        true_err = abs(r.value[0] - np.exp(-1.0))
        assert true_err <= 1e-8
        # estimate is the coarse-rule error, so it is conservative: it should
        # bound the true error but still be small
        assert true_err <= r.error_estimate < 1e-3

    def test_laplacian_first_eigenvector(self):
        op = sl.laplacian_1d(64)
        w, V = np.linalg.eigh(op.matrix)
        lam1, x1 = w[-1], V[:, -1]
        t = 0.1
        c = sl.build_contour(op, t, node_count=32)
        r = sl.semigroup_apply_contour(op, c, t, x1)
        exact = np.exp(lam1 * t) * x1
        assert op.norm0(r.value - exact) / op.norm0(exact) <= 1e-8

    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
    def test_node_doubling_improves(self, t, rng):
        op = sl.laplacian_1d(64)
        x = random_vector(rng, 64)
        exact = op.semigroup_apply_oracle(t, x)
        errs = {}
        for n in (32, 64):
            c = sl.build_contour(op, t, node_count=n)
            r = sl.semigroup_apply_contour(op, c, t, x)
            errs[n] = op.norm0(r.value - exact) / op.norm0(exact)
        assert errs[32] <= 1e-8
        assert errs[64] <= errs[32] / 10.0

    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("make", [lambda: sl.jordan_block(-2.0, 8),
                                      lambda: nonnormal_dense(128, seed=5)],
                             ids=["jordan8", "nonnormal128"])
    def test_schur_operator(self, make, t, rng):
        # the back substitution over all nodes on a non-normal Schur factor
        op = make()
        assert op.resolvent_backend == "schur"
        x = random_vector(rng, op.dim)
        exact = op.semigroup_apply_oracle(t, x)
        c = sl.build_contour(op, t, node_count=64)
        r = sl.semigroup_apply_contour(op, c, t, x)
        assert op.norm0(r.value - exact) / op.norm0(exact) <= 1e-8

    def test_error_estimate_tracks_error(self, diag_12, rng):
        x = random_vector(rng, 2)
        c = sl.build_contour(diag_12, 1.0, node_count=32)
        r = sl.semigroup_apply_contour(diag_12, c, 1.0, x)
        true_err = diag_12.norm0(r.value - diag_12.semigroup_apply_oracle(1.0, x))
        assert true_err <= max(10.0 * r.error_estimate, 1e-12)

    def test_error_estimate_flags_spectrum_outside_sector(self, rng):
        # the box spectrum of random_normal_operator reaches |Im| = 8 at
        # Re = s(A), outside the sector the contour is designed for: the
        # result misses 1e-8, and the estimate must not claim otherwise
        op = sl.random_normal_operator(64, seed=2)
        x = random_vector(rng, 64)
        c = sl.build_contour(op, 1.0, node_count=64)
        r = sl.semigroup_apply_contour(op, c, 1.0, x)
        true_err = op.norm0(r.value - op.semigroup_apply_oracle(1.0, x))
        assert true_err > 1e-8
        assert r.error_estimate >= true_err


class TestSpectrumGuards:
    def test_eigenvalue_outside_contour(self):
        # a large imaginary eigenvalue pair escapes the parabola's interior
        op = sl.diagonal_operator([-1.0 + 200.0j, -1.0 - 200.0j])
        c = sl.build_contour(op, 1.0, node_count=32)
        with pytest.raises(ContourCrossesSpectrum):
            sl.semigroup_apply_contour(op, c, 1.0, np.ones(2))

    def test_node_touching_an_enclosed_eigenvalue(self):
        # an eigenvalue 0.9 singular_tol up and left of the first node, where
        # the parabola rises steeply: inside the contour by more than the
        # margin, yet within singular_tol of that node
        c = sl.Contour(32, 1.0, 16.0, 0.0)
        mu0 = c.nodes_and_weights()[0][0]
        margin = sl.diagonal_operator([-1.0, mu0]).singular_tol
        lam = mu0 + 0.9 * margin * np.exp(0.75j * np.pi)
        op = sl.diagonal_operator([-1.0, lam])
        assert c.contains_left(lam, op.singular_tol)
        assert abs(lam - mu0) <= op.singular_tol
        with pytest.raises(ContourCrossesSpectrum, match="node touches the eigenvalue"):
            sl.semigroup_apply_contour(op, c, 1.0, np.ones(2))

    def test_mismatched_time_rejected(self, diag_12):
        c = sl.build_contour(diag_12, 1.0)
        with pytest.raises(ConfigError):
            sl.semigroup_apply_contour(diag_12, c, 0.5, np.ones(2))

    def test_unstable_operator_shifted_contour(self, rng):
        # spectral bound > 0: build_contour shifts right and stays accurate
        op = sl.diagonal_operator([2.0, -1.0])
        x = random_vector(rng, 2)
        c = sl.build_contour(op, 1.0, node_count=32)
        r = sl.semigroup_apply_contour(op, c, 1.0, x)
        exact = op.semigroup_apply_oracle(1.0, x)
        assert op.norm0(r.value - exact) / op.norm0(exact) <= 1e-8
