import numpy as np
import pytest
import scipy.linalg

import semilab as sl
from semilab import cauchy
from semilab.errors import EmptyProbeSet

from conftest import random_vector
from test_acceptance import MU_GRID_25


class TestSolveIVP:
    def test_homogeneous_matches_oracle(self, grid, corpus, rng):
        for name, op in corpus.items():
            x = random_vector(rng, op.dim)
            u = sl.CauchySolver(op, grid).solve(sl.ZeroForcing(op.dim), x)
            for i in (0, len(u.grid.nodes) // 2, -1):
                t = u.grid.nodes[i]
                exact = op.semigroup_apply_oracle(t, x)
                assert op.norm0(u.values[i] - exact) <= 1e-12 * max(op.norm0(exact), 1.0), name

    def test_scalar_exponential_forcing(self, grid):
        # A = -1, f = e^{-t}, x = 0 (resonant case: u(t) = t e^{-t})
        op = sl.diagonal_operator([-1.0])
        u = sl.CauchySolver(op, grid).solve(sl.ExpForcing(1.0, np.array([1.0])), np.zeros(1))
        exact = u.grid.nodes * np.exp(-u.grid.nodes)
        assert np.allclose(u.values[:, 0], exact, atol=1e-12)

    def test_scalar_nonresonant(self, grid):
        # A = -1, f = e^{-mub t}x, mu = 2: u = (e^{-t} - e^{-2t}) / 1
        op = sl.diagonal_operator([-1.0])
        u = sl.CauchySolver(op, grid).solve(sl.ExpForcing(2.0, np.array([1.0])), np.zeros(1))
        ts = u.grid.nodes
        exact = (np.exp(-ts) - np.exp(-2 * ts)) / 1.0
        assert np.allclose(u.values[:, 0], exact, atol=1e-12)

    def test_pure_integration(self, grid, scalar_zero):
        u = sl.CauchySolver(scalar_zero, grid).solve(sl.PolyForcing([1.0], np.array([1.0])),
                                                      np.zeros(1))
        assert np.allclose(u.values[:, 0], u.grid.nodes, atol=1e-13)

    def test_initial_value_exact(self, grid, corpus, rng):
        op = corpus["jordan8"]
        x = random_vector(rng, 8)
        u = sl.CauchySolver(op, grid).solve(sl.ZeroForcing(8), x)
        assert np.array_equal(u.values[0], x.astype(complex))

    def test_residual_post(self, grid, corpus, rng):
        for op in corpus.values():
            f = sl.ExpForcing(3.0 + 2.0j, random_vector(rng, op.dim))
            x = random_vector(rng, op.dim)
            u = sl.CauchySolver(op, grid).solve(f, x)
            res = op.norm0_rows(u.derivative_values - u.values @ op.matrix.T
                                - f.sample(u.grid.nodes))
            bound = 1e-9 * (1.0 + op.norm0(x) + 1.0)
            assert np.max(res) <= bound

    def test_verified_solve(self, grid, diag_12, rng):
        # a panel-doubled solve moves no shared node value by more than 1e-9
        x = random_vector(rng, 2)
        f = sl.ExpForcing(1.0, x)
        u = sl.CauchySolver(diag_12, grid).solve(f, np.zeros(2))
        fine = sl.CauchySolver(diag_12, grid.refined(2)).solve(f, np.zeros(2))
        step = grid.nodes_per_panel + 1
        drift = np.max(np.abs(fine.values[::2 * step] - u.values[::step]))
        assert u.grid.T == 1.0
        assert drift / (1.0 + np.max(np.abs(u.values))) <= 1e-9

    def test_stiff_fixture(self, grid, rng):
        # boundary layers of the n=256 Laplacian are resolved by the
        # exponential quadrature even on the default grid
        op = sl.laplacian_1d(256)
        x = random_vector(rng, 256)
        u = sl.CauchySolver(op, grid).solve(sl.ZeroForcing(256), x)
        exact = op.semigroup_apply_oracle(1.0, x)
        assert op.norm0(u.values[-1] - exact) <= 1e-10


class SumForcing(sl.Forcing):
    """f + g for two forcings; the rate of the steeper one."""

    rate = 1.5

    def __init__(self, f, g):
        self.f, self.g = f, g

    def sample(self, ts):
        return self.f.sample(ts) + self.g.sample(ts)


class TestKA:
    def test_zero_forcing(self, grid, diag_12):
        u = sl.CauchySolver(diag_12, grid).solve(sl.ZeroForcing(2))
        assert np.all(u.values == 0)

    def test_linearity(self, grid, diag_12, rng):
        y1, y2 = random_vector(rng, 2), random_vector(rng, 2)
        f = sl.ExpForcing(1.5, y1)
        g = sl.ExpForcing(0.5, y2)
        solver = sl.CauchySolver(diag_12, grid)
        uf, ug = solver.solve(f), solver.solve(g)
        both = solver.solve(SumForcing(f, g))
        assert np.allclose(both.values, uf.values + ug.values, atol=1e-10)

    def test_scalar_closed_form(self, grid, scalar_zero):
        # A = 0: K_A(e^{-mub t} x) = (1 - e^{-mub t}) x / mub
        mub = 2.0
        u = sl.CauchySolver(scalar_zero, grid).solve(sl.ExpForcing(mub, np.array([1.0])))
        ts = u.grid.nodes
        assert np.allclose(u.values[:, 0], (1 - np.exp(-mub * ts)) / mub, atol=1e-13)

    def test_continuity_ratio_reported(self, grid, diag_12):
        # estimate_M's c2_hat is ||K_A f||_E1(J) / ||f||_E0(J) for a probe with x = 0
        f = sl.ExpForcing(1.0, np.ones(2))
        solver = sl.CauchySolver(diag_12, grid)
        u = solver.solve(f)
        ratio = sl.e1_norm_J(diag_12, u) / sl.e0_norm_J(
            diag_12, sl.GridFunction(u.grid, f.sample(u.grid.nodes)))
        est = sl.estimate_M(solver, [(f, np.zeros(2))])
        assert ratio > 0
        assert est.c2_hat == ratio

    def test_uniqueness_of_zero_solution(self, grid, corpus):
        # homogeneous problem with x = 0 stays at 0 in the E1(J)-norm
        for op in corpus.values():
            u = sl.CauchySolver(op, grid).solve(sl.ZeroForcing(op.dim), np.zeros(op.dim))
            assert sl.e1_norm_J(op, u) <= 1e-9


class TestEstimateM:
    def test_scalar_hand_value(self, grid, scalar_minus_one):
        # probe (f=0, x=1): u = e^{-t}, sup(|u'| + |u| + |Au|) = 3 at t=0,
        # denominator ||x||_1 = 2, ratio 3/2
        est = sl.estimate_M(sl.CauchySolver(scalar_minus_one, grid),
                            [(sl.ZeroForcing(1), np.array([1.0]))])
        assert est.M_hat == pytest.approx(1.5, rel=1e-12)
        assert est.probe_count == 1

    def test_probe_scale_invariance(self, grid, diag_12, rng):
        y = random_vector(rng, 2)
        x = random_vector(rng, 2)
        solver = sl.CauchySolver(diag_12, grid)
        one = sl.estimate_M(solver, [(sl.ExpForcing(1.0, y), x)])
        two = sl.estimate_M(solver, [(sl.ExpForcing(1.0, 2 * y), 2 * x)])
        assert one.M_hat == pytest.approx(two.M_hat, rel=1e-12)

    def test_monotone_in_probes(self, grid, diag_12):
        probes = sl.default_probes(diag_12, seed=5)
        solver = sl.CauchySolver(diag_12, grid)
        prev = 0.0
        for k in range(1, len(probes) + 1):
            est = sl.estimate_M(solver, probes[:k])
            assert est.M_hat >= prev
            prev = est.M_hat

    def test_empty_probes(self, grid, diag_12):
        with pytest.raises(EmptyProbeSet):
            sl.estimate_M(sl.CauchySolver(diag_12, grid), [])

    def test_refinement_stability(self, diag_12):
        probes = sl.default_probes(diag_12, seed=5)
        coarse = sl.estimate_M(sl.CauchySolver(diag_12, sl.TimeGrid.uniform(1.0, panels=16)),
                               probes)
        fine = sl.estimate_M(sl.CauchySolver(diag_12, sl.TimeGrid.uniform(1.0, panels=32)),
                             probes)
        assert fine.M_hat == pytest.approx(coarse.M_hat, rel=5e-3)


class TestBackendsAgree:
    """The eigen backend against the dense one (phi_matrices, no
    diagonalization) on operators where both apply."""

    @staticmethod
    def _pair(make):
        eig, dense = make(), make()
        dense.__dict__["diagonalization"] = None  # forces the dense backend
        return eig, dense

    MAKERS = {
        "diag": lambda: sl.diagonal_operator([-1.0, -2.0]),
        "lap16": lambda: sl.laplacian_1d(16),
        "normal16": lambda: sl.random_normal_operator(16, seed=7),
    }

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_exp_functionals(self, grid, name):
        eig, dense = self._pair(self.MAKERS[name])
        se, sd = sl.CauchySolver(eig, grid), sl.CauchySolver(dense, grid)
        for mu in (0.5, 2.0 + 4.0j, 32.0 - 16.0j):  # the last one refines the grid
            for a, b in zip(se.exp_functionals(mu), sd.exp_functionals(mu)):
                a, b = np.asarray(a), np.asarray(b)
                assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a), (name, mu)

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_solve(self, grid, name, rng):
        eig, dense = self._pair(self.MAKERS[name])
        f = sl.ExpForcing(3.0 + 2.0j, random_vector(rng, eig.dim))
        x0 = random_vector(rng, eig.dim)
        ue = sl.CauchySolver(eig, grid).solve(f, x0)
        ud = sl.CauchySolver(dense, grid).solve(f, x0)
        for a, b in ((ue.values, ud.values), (ue.derivative_values, ud.derivative_values)):
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a)), name


class TestEdgeFunctionals:
    """exp_functionals propagates panel edges only and, for a normal operator
    in the euclidean norm, reads ||u(T)|| from eigen coordinates; checked
    against all-node tables, against solve and against the SVD / row-sum norm."""

    MAKERS = {
        "diag": lambda e0: sl.diagonal_operator([-1.0, -2.0], e0_norm=e0),
        "lap16": lambda e0: sl.laplacian_1d(16, e0_norm=e0),
        "lap64": lambda e0: sl.laplacian_1d(64, e0_norm=e0),
        "normal16": lambda e0: sl.random_normal_operator(16, seed=7, e0_norm=e0),
        "jordan8": lambda e0: sl.jordan_block(-2.0, 8, e0_norm=e0),
    }
    MUS = (0.5, 2.0 + 4.0j, 32.0 - 16.0j)  # the last one refines the grid

    @classmethod
    def _op(cls, name, backend, e0_norm="euclidean"):
        op = cls.MAKERS[name](e0_norm)
        if backend == "dense":
            op.__dict__["diagonalization"] = None
        return op

    @pytest.mark.parametrize("backend", ["eigen", "dense"])
    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_edges_match_node_path(self, grid, rng, monkeypatch, name, backend):
        op = self._op(name, backend)
        x = random_vector(rng, op.dim)
        edges = [sl.CauchySolver(op, grid).exp_functionals(mu) for mu in self.MUS]
        # the same functionals from tables at every node, keeping the edges
        propagate = cauchy.CauchySolver._propagate

        def node_path(self, shift, F, v0, nodes):
            vals, integral = propagate(self, shift, F, v0, nodes=True)
            return (vals if nodes else vals[::self.grid.nodes_per_panel + 1]), integral

        monkeypatch.setattr(cauchy.CauchySolver, "_propagate", node_path)
        solver = sl.CauchySolver(op, grid)
        for mu, (W, UT, ut_norm) in zip(self.MUS, edges):
            Wn, UTn, ut_norm_n = solver.exp_functionals(mu)
            assert np.array_equal(W, Wn) and np.array_equal(UT, UTn) and ut_norm == ut_norm_n
            # against an independent discretization: the untilted solve on
            # its own grid; both sit within about 2e-12 of the closed form
            ref = solver.solve(sl.ExpForcing(np.conj(mu), x)).values[-1]
            assert np.linalg.norm(UT @ x - ref) <= 1e-11 * np.linalg.norm(ref), mu

    @pytest.mark.parametrize("e0_norm", ["euclidean", "sup"])
    @pytest.mark.parametrize("backend", ["eigen", "dense"])
    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_vnorm_matches_operator_norm(self, grid, name, backend, e0_norm):
        op = self._op(name, backend, e0_norm)
        solver = sl.CauchySolver(op, grid)
        for mu in self.MUS:
            sd = sl.assemble_U_V(solver, mu)
            assert sd.V_norm == pytest.approx(op.operator_norm(sd.V), rel=1e-12, abs=0), mu

    def test_work(self, grid, monkeypatch):
        op = sl.laplacian_1d(64)
        assert op.diagonalization is not None  # the factor is built before counting
        norms, shapes = [], []
        operator_norm = sl.OperatorPair.operator_norm
        monkeypatch.setattr(sl.OperatorPair, "operator_norm",
                            lambda self, B: norms.append(1) or operator_norm(self, B))
        phi_scalar = cauchy.phi_scalar
        monkeypatch.setattr(cauchy, "phi_scalar",
                            lambda kmax, z: shapes.append((kmax, np.shape(z)))
                            or phi_scalar(kmax, z))
        solver = sl.CauchySolver(op, grid)
        for mu in self.MUS:
            sl.assemble_U_V(solver, mu)
        assert norms == []
        # phi_0..phi_{q+1} at r = 1 alone, for each mode: (q+2) x dim values
        q = grid.nodes_per_panel
        assert len(shapes) == len(self.MUS)
        assert set(shapes) == {(q + 1, (1, op.dim))}


class TestOneFactorization:
    """The eigen backend reads the operator's resolvent factor; operators
    whose factor is not normal take the dense backend."""

    def test_normal_solves_reuse_the_schur_factor(self, grid, monkeypatch, rng):
        schurs, others = [], []
        schur = scipy.linalg.schur
        monkeypatch.setattr(scipy.linalg, "schur",
                            lambda *a, **k: schurs.append(1) or schur(*a, **k))
        for name in ("eig", "inv", "cond"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _fn=fn, **k: others.append(1) or _fn(*a, **k))
        op = sl.random_normal_operator(16, seed=7)
        x = random_vector(rng, 16)
        op.resolvent_norm(2.0)
        op.resolvent_solve(2.0, x)
        solver = sl.CauchySolver(op, grid)
        solver.solve(sl.ExpForcing(3.0 + 2.0j, x), x)
        for mu in (0.5, 2.0 + 4.0j, 32.0 - 16.0j):
            solver.exp_functionals(mu)
        sl.default_probes(op)
        assert op.diagonalization is not None
        assert len(schurs) == 1
        assert others == []

    def test_nonnormal_diagonalizable_is_dense(self, grid, rng):
        # Q (D + N) Q*: distinct real eigenvalues, strictly upper triangular N
        g = np.random.default_rng(12)
        d = -(1.0 + 8.0 * g.random(12))
        N = np.triu(g.standard_normal((12, 12)), 1) * (2.0 / np.sqrt(12))
        Q, _ = np.linalg.qr(g.standard_normal((12, 12)) + 1j * g.standard_normal((12, 12)))
        op = sl.OperatorPair(Q @ (np.diag(d) + N) @ Q.conj().T)
        assert np.linalg.cond(np.linalg.eig(op.matrix)[1]) < 1e6  # diagonalizable
        assert op.diagonalization is None
        x = random_vector(rng, 12)
        u = sl.CauchySolver(op, grid).solve(sl.ZeroForcing(12), x)
        for i in (len(u.grid.nodes) // 2, -1):
            exact = op.semigroup_apply_oracle(u.grid.nodes[i], x)
            assert op.norm0(u.values[i] - exact) <= 1e-10 * op.norm0(exact)
        solver = sl.CauchySolver(op, grid)
        for mu in (0.5, 2.0 + 4.0j, 32.0 - 16.0j):
            assert sl.surjectivity_identity_check(op, sl.assemble_U_V(solver, mu), x) <= 1e-8

    def test_dense_backend_needs_no_expm(self, grid, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.expm called")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        op = sl.jordan_block(-2.0, 8)
        assert op.diagonalization is None  # the dense backend
        solver = sl.CauchySolver(op, grid)
        u = solver.solve(sl.ExpForcing(3.0 + 2.0j, random_vector(rng, 8)), random_vector(rng, 8))
        assert np.all(np.isfinite(u.values))
        for mu in (0.5, 2.0 + 4.0j, 32.0 - 16.0j):  # the last one refines the grid
            W, UT, ut_norm = solver.exp_functionals(mu)
            assert np.all(np.isfinite(W)) and np.all(np.isfinite(UT)) and np.isfinite(ut_norm)


class TestPanelTables:
    """The solver keeps the unshifted tables that its solves share and drops
    the shifted ones, which serve one mu each."""

    @pytest.mark.parametrize("name, kernel",
                             [("lap16", "phi_scalar"), ("jordan8", "phi_matrices")])
    def test_two_solves_build_one_table(self, corpus, grid, monkeypatch, rng, name, kernel):
        op = corpus[name]
        calls = []
        fn = getattr(cauchy, kernel)
        monkeypatch.setattr(cauchy, kernel, lambda *a: calls.append(1) or fn(*a))
        solver = sl.CauchySolver(op, grid)
        for _ in range(2):
            solver.solve(sl.ZeroForcing(op.dim), random_vector(rng, op.dim))
        assert len(calls) == 1

    @pytest.mark.parametrize("name, kernel",
                             [("lap64", "phi_scalar"), ("jordan8", "phi_matrices")])
    def test_refined_call_builds_one_table(self, corpus, grid, monkeypatch, name, kernel):
        # 32 - 16j splits each of the 16 panels in 7, and the 112 widths
        # differ in the last bits: one nominal width, so one table
        solver = sl.CauchySolver(corpus[name], grid)
        refined = solver.refined_for(64.0).grid
        assert refined.panels == 7 * grid.panels and len(set(np.diff(refined.edges))) > 1
        calls = []
        fn = getattr(cauchy, kernel)
        monkeypatch.setattr(cauchy, kernel, lambda *a: calls.append(1) or fn(*a))
        solver.exp_functionals(32.0 - 16.0j)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["lap16", "jordan8"])
    def test_no_shifted_table_is_kept(self, corpus, grid, name):
        solver = sl.CauchySolver(corpus[name], grid)
        for mu in MU_GRID_25:
            solver.exp_functionals(mu)
        assert solver._tables == {}
        solver.solve(sl.ZeroForcing(solver.dim))
        assert list(solver._tables) == [(grid.edges[1] - grid.edges[0], True)]


class TestMixedWidths:
    """A non-uniform grid refined by 3: four nominal widths, so four tables,
    each serving a run of three panels whose widths differ in the last bits."""

    GRID = sl.TimeGrid([0.0, 0.1, 0.3, 0.35, 1.0]).refined(3)

    @pytest.mark.parametrize("name", sorted(TestBackendsAgree.MAKERS))
    def test_backends_and_oracle_agree(self, monkeypatch, rng, name):
        eig, dense = TestBackendsAgree._pair(TestBackendsAgree.MAKERS[name])
        se, sd = sl.CauchySolver(eig, self.GRID), sl.CauchySolver(dense, self.GRID)
        f = sl.ExpForcing(3.0 + 2.0j, random_vector(rng, eig.dim))
        x0 = random_vector(rng, eig.dim)
        calls = []
        phi_scalar = cauchy.phi_scalar
        monkeypatch.setattr(cauchy, "phi_scalar", lambda *a: calls.append(1) or phi_scalar(*a))
        ue, ud = se.solve(f, x0), sd.solve(f, x0)
        assert len(calls) == 4
        for a, b in ((ue.values, ud.values), (ue.derivative_values, ud.derivative_values)):
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))
        edges = [k * (self.GRID.nodes_per_panel + 1) for k in range(self.GRID.panels + 1)]
        exact = np.array([eig.semigroup_apply_oracle(t, x0) for t in self.GRID.edges])
        for u in (se.solve(sl.ZeroForcing(eig.dim), x0), sd.solve(sl.ZeroForcing(eig.dim), x0)):
            assert np.max(np.abs(u.values[edges] - exact)) <= 1e-10 * np.max(np.abs(exact))
        for mu in (0.5, 2.0 + 4.0j, 32.0 - 16.0j):  # the last one refines the grid again
            for a, b in zip(se.exp_functionals(mu), sd.exp_functionals(mu)):
                a, b = np.asarray(a), np.asarray(b)
                assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a), mu


class TestEigenMap:
    """A normal operator's W, UT and so U_mu, V_mu stay Z diag(d) Z* maps."""

    def test_identity_check_takes_no_dense_map(self, corpus, grid, monkeypatch, rng):
        def refuse(self, *args, **kwargs):
            raise AssertionError("EigenMap made dense")

        monkeypatch.setattr(cauchy.EigenMap, "__array__", refuse)
        op = corpus["lap256"]
        solver = sl.CauchySolver(op, grid)
        x = random_vector(rng, op.dim)
        for mu in (0.5, 2.0 + 4.0j, 32.0 - 16.0j):
            sd = sl.assemble_U_V(solver, mu)
            assert isinstance(sd.U, cauchy.EigenMap) and isinstance(sd.V, cauchy.EigenMap)
            assert sl.surjectivity_identity_check(op, sd, x) <= 1e-8

    @pytest.mark.parametrize("name", ["diag", "lap64", "normal16"])
    def test_dense_form_is_the_product(self, corpus, grid, rng, name):
        op = corpus[name]
        Z = op.diagonalization[0]
        assert (Z is None) == (name == "diag")
        mu = 2.0 + 4.0j
        solver = sl.CauchySolver(op, grid)
        W, UT, _ = solver.exp_functionals(mu)
        sd = sl.assemble_U_V(solver, mu)
        # the dense products exp_functionals and assemble_U_V used to form
        dense = np.diag if Z is None else (lambda d: (Z * d) @ Z.conj().T)
        W_old, UT_old = dense(W.d), dense(UT.d)
        c = 2.0 * mu.real * np.exp(-mu * grid.T) / (1.0 - np.exp(-2.0 * mu.real * grid.T))
        x = random_vector(rng, op.dim)
        U_old, V_old = 2.0 * mu.real * W_old, c * UT_old
        for M, old in ((W, W_old), (UT, UT_old), (sd.U, U_old), (sd.V, V_old)):
            assert np.linalg.norm(np.asarray(M) - old) <= 1e-13 * np.linalg.norm(old)
            assert np.linalg.norm(M @ x - old @ x) <= 1e-13 * np.linalg.norm(old @ x)
