import numpy as np
import pytest

import semilab as sl
from semilab.errors import ConfigError, NotDiagonal
from semilab.theorem import time_weights
from semilab.weighted import theta_sweep

from conftest import random_vector


class TestWeightedNorm:
    def test_sigma_one_is_plain_sup(self, grid, diag_12, rng):
        vals = rng.standard_normal((len(grid.nodes), 2))
        u = sl.GridFunction(grid, vals)
        wn = sl.weighted_norm(diag_12, u, 1.0)
        assert wn == sl.e0_norm_J(diag_12, u)  # bit-for-bit

    def test_weight_cancels_singularity(self, grid, scalar_zero):
        # u(t) = t^{sigma-1}: the weight cancels the singularity, norm 1
        sigma = 0.5
        vals = np.zeros(len(grid.nodes))
        pos = grid.nodes > 0
        vals[pos] = grid.nodes[pos] ** (sigma - 1.0)
        wn = sl.weighted_norm(scalar_zero, sl.GridFunction(grid, vals), sigma)
        assert wn == pytest.approx(1.0, rel=1e-12)

    def test_constant_function(self, grid, scalar_zero):
        # u = c: sup of t^{1-sigma}|c| = T^{1-sigma}|c|
        wn = sl.weighted_norm(scalar_zero,
                              sl.GridFunction(grid, np.full(len(grid.nodes), 2.0)),
                              0.25)
        assert wn == pytest.approx(1.0 ** 0.75 * 2.0, rel=1e-12)


class TestWeightedMaxreg:
    def test_sigma_one_reduces_to_unweighted_bitwise(self, grid, diag_12, rng):
        x = random_vector(rng, 2)
        mu = 1.5 + 0.5j
        M_hat = 2.0
        chk = sl.weighted_maxreg_check(sl.CauchySolver(diag_12, grid), 1.0, mu, x, M_hat)
        lhs, rhs, ok = sl.apriori_inequality_check(diag_12, grid, mu, x, M_hat)
        assert (chk.lhs, chk.rhs, chk.passed) == (lhs, rhs, ok)

    def test_scalar_endpoint_value(self, grid, scalar_zero):
        # A = 0, sigma = 1/2, T = 1, mu = 1: u(1) = 1 - e^{-1}
        chk = sl.weighted_maxreg_check(sl.CauchySolver(scalar_zero, grid), 0.5, 1.0,
                                       np.array([1.0]), M_hat=2.0, c2_hat=2.0)
        assert chk.endpoint_value == pytest.approx(1 - np.exp(-1), rel=1e-10)
        assert chk.endpoint_ok

    def test_lhs_monotone_in_sigma(self, grid, diag_12, rng):
        # on [0,1] the weight t^{1-sigma} is nondecreasing in sigma
        x = random_vector(rng, 2)
        solver = sl.CauchySolver(diag_12, grid)
        prev = None
        for sigma in (0.25, 0.5, 0.75, 1.0):
            chk = sl.weighted_maxreg_check(solver, sigma, 2.0, x, 2.0)
            if prev is not None:
                assert chk.lhs >= prev - 1e-12
            prev = chk.lhs


class TestTraceNorm:
    def test_zero_operator(self, grid, rng):
        op = sl.diagonal_operator([0.0, 0.0])
        x = random_vector(rng, 2)
        # u = x constant, u' = 0, graph norm collapses: value = ||x||_0
        assert sl.trace_norm_upper(sl.CauchySolver(op, grid), x, 1.0) == pytest.approx(
            op.norm0(x), rel=1e-12)

    def test_scalar_decay(self, grid, scalar_minus_one):
        # A = -1, x = 1: sup_t e^{-t}(1 + 2) = 3 at t = 0
        solver = sl.CauchySolver(scalar_minus_one, grid)
        assert sl.trace_norm_upper(solver, np.array([1.0]),
                                   1.0) == pytest.approx(3.0, rel=1e-12)

    def test_homogeneity(self, grid, diag_12, rng):
        x = random_vector(rng, 2)
        solver = sl.CauchySolver(diag_12, grid)
        one = sl.trace_norm_upper(solver, x, 1.0)
        five = sl.trace_norm_upper(solver, 5.0 * x, 1.0)
        assert five == pytest.approx(5.0 * one, rel=1e-12)

    def test_rejects_zero_vector(self, grid, diag_12):
        with pytest.raises(ConfigError):
            sl.trace_norm_upper(sl.CauchySolver(diag_12, grid), np.zeros(2), 1.0)

    ORBIT_OPERATORS = {
        "diag": lambda: sl.diagonal_operator([-1.0, -2.0]),
        "lap16": lambda: sl.laplacian_1d(16),
        "lap64": lambda: sl.laplacian_1d(64),
        "jordan8": lambda: sl.jordan_block(-2.0, 8),
        "normal16": lambda: sl.random_normal_operator(16, seed=7),
    }

    @pytest.mark.parametrize("name", sorted(ORBIT_OPERATORS))
    def test_matches_expm_orbit(self, grid, name, rng):
        # differential test: the solver's orbit against one expm per node
        op = self.ORBIT_OPERATORS[name]()
        x = random_vector(rng, op.dim)
        orbit = [op.semigroup_apply_oracle(t, x) for t in grid.nodes]
        for sigma in (1.0, 0.5):
            ref = 0.0
            for u, wt in zip(orbit, time_weights(grid, sigma)):
                if wt > 0.0:
                    ref = max(ref, wt * (2.0 * op.norm0(op.matrix @ u) + op.norm0(u)))
            got = sl.trace_norm_upper(sl.CauchySolver(op, grid), x, sigma)
            assert abs(got - ref) <= 1e-12 * ref, (name, sigma, got, ref)

    def test_needs_no_expm_oracle(self, grid, rng, monkeypatch):
        def refuse(self, t, x):
            raise AssertionError("semigroup_apply_oracle called")

        monkeypatch.setattr(sl.OperatorPair, "semigroup_apply_oracle", refuse)
        for op in (sl.diagonal_operator([-1.0, -2.0]), sl.laplacian_1d(16),
                   sl.jordan_block(-2.0, 8)):
            solver = sl.CauchySolver(op, grid)
            for sigma in (1.0, 0.5):
                assert sl.trace_norm_upper(solver, random_vector(rng, op.dim), sigma) > 0

    def test_upper_bounds_interp_norm(self, grid):
        # regression-style inequality with a recorded equivalence constant
        op = sl.diagonal_operator([-1.0, -3.0, -10.0])
        rng = np.random.default_rng(0)
        C = 4.0  # recorded on first run; not asserted a priori by theory
        for _ in range(10):
            x = random_vector(rng, 3)
            tr = sl.trace_norm_upper(sl.CauchySolver(op, grid), x, 1.0)
            theta = 1.0 - 1e-12
            itp = np.max((1.0 + np.abs(np.diag(op.matrix))) ** theta * np.abs(x))
            assert tr >= itp / C


class TestInterpScale:
    def test_k_functional_cross_check(self):
        # sup_{t>0} t^{-theta} min(1, t(1+|l|)) = (1+|l|)^theta
        lam, theta = -3.0, 0.4
        # include the exact maximizer t = 1/(1+|lam|) where the kink sits
        ts = np.append(np.logspace(-6, 6, 2001), 1.0 / (1 + abs(lam)))
        vals = ts ** (-theta) * np.minimum(1.0, ts * (1 + abs(lam)))
        assert np.max(vals) == pytest.approx((1 + abs(lam)) ** theta, rel=1e-4)

    def test_not_diagonal(self, grid):
        op = sl.jordan_block(-1.0, 2)
        with pytest.raises(NotDiagonal):
            theta_sweep(sl.CauchySolver(op, grid), [0.5], sl.default_probes(op, seed=0))

    def test_sweep_scales_probes_by_theta_weights(self, grid):
        # M_hat at theta is estimate_M on the probes scaled by (1+|lam_k|)^theta;
        # on this spectrum the largest ratio (a random initial value) moves with theta
        op = sl.diagonal_operator([-1.0, -3.0, -10.0])
        probes = sl.default_probes(op, seed=0)
        theta = 0.5
        w = (1.0 + np.abs(np.diag(op.matrix))) ** theta
        scaled = []
        for f, x in probes:
            if isinstance(f, sl.ExpForcing):
                f = sl.ExpForcing(f.mu, w * f.y)
            elif isinstance(f, sl.PolyForcing):
                f = sl.PolyForcing(f.coeffs, w * f.y)
            scaled.append((f, w * x))
        row, = theta_sweep(sl.CauchySolver(op, grid), [theta], probes)
        assert row.M_hat == sl.estimate_M(sl.CauchySolver(op, grid), scaled).M_hat

    def test_theta_sweep_rows(self, grid):
        op = sl.diagonal_operator([-1.0, -2.0])
        probes = sl.default_probes(op, seed=0)
        rows = theta_sweep(sl.CauchySolver(op, grid), [0.25, 0.75], probes)
        assert len(rows) == 2
        assert all(np.isfinite(r.M_hat) and r.M_hat > 0 for r in rows)
        assert rows[0].N == rows[1].N  # diagonal A commutes with the weights
