import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import semilab as sl
from semilab import cauchy, operators
from semilab.errors import ConfigError, EmptyProbeSet
from semilab.operators import _serial_lapack, parse_operator_text
from semilab.timegrid import e0_samples

from conftest import nonnormal_dense, random_vector
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
                                - samples(f, u.grid.nodes))
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


def samples(f, ts):
    """f(t) = profile(t) y at the times ts, as rows."""
    return f.profile(ts)[:, None] * f.y


class CountingForcing(sl.Forcing):
    """A forcing that counts the calls to its profile."""

    def __init__(self, f):
        super().__init__(f.y)
        self.f, self.calls = f, 0
        self.rate = f.rate

    def profile(self, ts):
        self.calls += 1
        return self.f.profile(ts)


class TestForcingSamples:
    @pytest.mark.parametrize("name, make_forcing, split", [
        ("diag", lambda dim, y: sl.ExpForcing(1.0, y), False),
        ("diag", lambda dim, y: sl.ExpForcing(40.0 + 3.0j, y), True),
        ("lap16", lambda dim, y: sl.ZeroForcing(dim), False),
        ("jordan8", lambda dim, y: sl.PolyForcing([1.0, 0.5, 2.0], y), False),
        ("jordan8", lambda dim, y: sl.ExpForcing(25.0, y), True),
    ], ids=["exp", "exp-split", "zero", "poly", "exp-split-dense"])
    def test_one_sample_per_solve(self, grid, corpus, rng, name, make_forcing, split):
        # the profile is evaluated once, at the grid nodes, and those values
        # give both the Gauss-node data and the derivative
        op = corpus[name]
        f = make_forcing(op.dim, random_vector(rng, op.dim))
        counted = CountingForcing(f)
        u = sl.CauchySolver(op, grid).solve(counted, random_vector(rng, op.dim))
        assert counted.calls == 1
        assert (u.grid.panels > grid.panels) == split
        assert np.array_equal(u.derivative_values,
                              op.apply(u.values) + samples(f, u.grid.nodes))

    @pytest.mark.parametrize("name", ["diag", "lap16", "jordan8"])
    def test_one_sample_per_probe_in_estimate_M(self, grid, corpus, name):
        # ||f||_E0(J) is read from the samples solve took, so estimate_M
        # evaluates each probe's profile once and its estimate is unchanged
        op = corpus[name]
        probes = sl.default_probes(op, seed=3)
        counted = [(CountingForcing(f), x) for f, x in probes]
        solver = sl.CauchySolver(op, grid)
        est = sl.estimate_M(solver, counted)
        assert [f.calls for f, _ in counted] == [1] * len(probes)
        ref = sl.estimate_M(solver, probes)
        assert (est.M_hat, est.c2_hat, est.ratios) == (ref.M_hat, ref.c2_hat, ref.ratios)
        for f, x in probes:
            u = solver.solve(f, x)
            assert np.array_equal(u.forcing_values, samples(f, u.grid.nodes))


class TestOperatorValues:
    @pytest.mark.parametrize("text", ["matrix = laplacian1d n=64\n",
                                      "matrix = jordan lambda=-2 size=8\n",
                                      "matrix = random-normal dim=16 seed=3\ne0_norm = sup\n",
                                      "matrix = diag -1+2i,-0.5-3i,-2+0.25i,-0.1+7i\n"])
    def test_e1_norm_reads_the_solve_product(self, grid, text):
        # solve keeps the A u it forms for u'; e1_norm_J reads it for that
        # operator only, and the bits equal a fresh product's. A euclidean
        # normal operator with a basis reads its eigen coordinates instead, to
        # 1e-13; a solve without one reads its own samples, bit for bit.
        # A diagonal A forms lam * u: the product's bits for real lam, its
        # last bits may differ for complex lam
        op = parse_operator_text(text)
        other = sl.diagonal_operator(-1.0 - np.arange(op.dim))
        solver = sl.CauchySolver(op, grid)
        exact = op.structure != "diagonal" or not np.any(np.diag(op.matrix).imag)
        for f, x in sl.default_probes(op, seed=1):
            u = solver.solve(f, x)
            assert u.operator is op
            if exact:
                assert np.array_equal(u.operator_values, op.apply(u.values))
            else:
                assert np.array_equal(u.operator_values, np.diag(op.matrix) * u.values)
                np.testing.assert_allclose(u.operator_values, u.values @ op.matrix.T,
                                           rtol=1e-15, atol=0)
            fresh = sl.GridFunction(u.grid, u.values, u.derivative_values)
            assert fresh.operator_values is None
            if e0_samples(op, u).values is u.values and exact:  # no basis, or a sup norm
                assert sl.e1_norm_J(op, u) == sl.e1_norm_J(op, fresh)
            else:
                assert sl.e1_norm_J(op, u) == pytest.approx(sl.e1_norm_J(op, fresh), rel=1e-13)
            assert sl.e1_norm_J(other, u) == sl.e1_norm_J(other, fresh)


class TestKA:
    def test_zero_forcing(self, grid, diag_12):
        u = sl.CauchySolver(diag_12, grid).solve(sl.ZeroForcing(2))
        assert np.all(u.values == 0)

    def test_linearity(self, grid, corpus, rng):
        # the solution is linear in y under one shared profile, and in x0
        for name in ("diag", "lap16", "jordan8"):
            op = corpus[name]
            y1, y2, x1, x2 = (random_vector(rng, op.dim) for _ in range(4))
            solver = sl.CauchySolver(op, grid)
            uf, ug = solver.solve(sl.ExpForcing(1.5, y1)), solver.solve(sl.ExpForcing(1.5, y2))
            both = solver.solve(sl.ExpForcing(1.5, 2.0 * y1 - 3.0 * y2))
            assert np.allclose(both.values, 2.0 * uf.values - 3.0 * ug.values, atol=1e-10), name
            zero = sl.ZeroForcing(op.dim)
            ux, uy = solver.solve(zero, x1), solver.solve(zero, x2)
            both = solver.solve(zero, 2.0 * x1 - 3.0 * x2)
            assert np.allclose(both.values, 2.0 * ux.values - 3.0 * uy.values, atol=1e-10), name

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
            diag_12, sl.GridFunction(u.grid, samples(f, u.grid.nodes)))
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
    """exp_functionals takes no interior node (on the dense backend it
    propagates panel edges only, checked against all-node tables; the eigen
    backend sums runs without _propagate) and, for a normal operator in the
    euclidean norm, reads ||v(T)|| from eigen coordinates; checked against
    solve and against the SVD / row-sum norm."""

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

        def node_path(self, shift, F, Y, v0, nodes):
            vals, integral = propagate(self, shift, F, Y, v0, nodes=True)
            return (vals if nodes else vals[::self.grid.nodes_per_panel + 1]), integral

        monkeypatch.setattr(cauchy.CauchySolver, "_propagate", node_path)
        solver = sl.CauchySolver(op, grid)
        for mu, (W, VT, vt_norm) in zip(self.MUS, edges):
            Wn, VTn, vt_norm_n = solver.exp_functionals(mu)
            assert np.array_equal(W, Wn) and np.array_equal(VT, VTn) and vt_norm == vt_norm_n
            # against an independent discretization: the untilted solve on
            # its own grid, tilted by e^{-mu T}; both sit within about 2e-12
            # of the closed form
            ref = np.exp(-mu * grid.T) * solver.solve(sl.ExpForcing(np.conj(mu), x)).values[-1]
            assert np.linalg.norm(VT @ x - ref) <= 1e-11 * np.linalg.norm(ref), mu

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


class TestScalarProfile:
    """exp_functionals hands its forcing to the propagator as one scalar
    profile; checked on both backends against the closed form of a diagonal
    A, and for the memory of the dense backend."""

    @pytest.mark.parametrize("backend", ["eigen", "dense"])
    def test_closed_form(self, grid, backend):
        lam = np.array([-1.0, -2.5, -40.0])
        op = sl.diagonal_operator(lam)
        if backend == "dense":
            op.__dict__["diagonalization"] = None
        solver, T = sl.CauchySolver(op, grid), grid.T
        for mu in (0.5, 2.0 + 4.0j, 32.0 - 16.0j):  # the last one refines the grid
            W, VT, _ = solver.exp_functionals(mu)
            # u' = lam u + e^{-conj(mu) t}, u(0) = 0, VT = e^{-mu T} u(T) and
            # W = int_0^T e^{-mu t} u dt
            uT = (np.exp(lam * T) - np.exp(-np.conj(mu) * T)) / (lam + np.conj(mu))
            w = ((np.exp((lam - mu) * T) - 1) / (lam - mu)
                 - (1 - np.exp(-2 * mu.real * T)) / (2 * mu.real)) / (lam + np.conj(mu))
            for got, exact in ((VT, np.exp(-mu * T) * uT), (W, w)):
                got = np.asarray(got)
                assert np.max(np.abs(got - np.diag(exact))) <= 1e-10 * np.max(np.abs(exact)), mu
                assert np.allclose(np.diag(got), exact, rtol=1e-10, atol=0), mu

    def test_dense_memory(self):
        # the forcing of a dense run takes no (panels, q, dim, dim) array: the
        # peak stays within a few (panels + 1, dim, dim) arrays of node values
        op = sl.jordan_block(-2.0, 32)
        op.resolvent_factor  # the factorization is not part of the solve
        grid = sl.TimeGrid.uniform(1.0, panels=512)
        values = 16 * (grid.panels + 1) * op.dim ** 2
        tracemalloc.start()
        try:
            sl.CauchySolver(op, grid).exp_functionals(1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * values


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
            W, VT, vt_norm = solver.exp_functionals(mu)
            assert np.all(np.isfinite(W)) and np.all(np.isfinite(VT)) and np.isfinite(vt_norm)


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


class TestPanelTableProducts:
    """W and G are batched real products of the coefficient matrix, with the
    powers r^(p+1) folded in per output point, and the phi rows; checked
    against the einsum form of the same panel rule on the same phi rows.

    The rule sums q terms whose magnitudes reach 3.5e4 max|W| (coef holds
    entries up to 1.4e7), so any two summation orders differ by up to about
    3e-12 max|W|, and each is as far from a long-double sum. The check is
    the forward error bound of the two sums: entrywise, the difference is at
    most 2 (q + 2) eps times the sum of the terms' magnitudes."""

    MAKERS = {
        "diag": lambda: sl.diagonal_operator([-1.0, -2.0]),
        "lap64": lambda: sl.laplacian_1d(64),
        "jordan8": lambda: sl.jordan_block(-2.0, 8),
        "nonnormal12": lambda: nonnormal_dense(12, seed=5),
    }

    @staticmethod
    def reference(solver, shift, h, nodes):
        """(P, W, H1, G) by einsum, and the magnitude sums of W's and G's terms."""
        q = solver.grid.nodes_per_panel
        rs, coef, rpow = cauchy._panel_weights(q, nodes)
        diag = solver.op.diagonalization
        if diag is not None:
            PHI = cauchy.phi_scalar(q + 1, np.multiply.outer(h * rs, diag.d - shift))[..., None]
        else:
            B = solver.op.matrix - shift * np.eye(solver.dim)
            PHI = cauchy.phi_matrices(np.multiply.outer(h * rs, B), q + 1)
        W = h * np.einsum("mp,pj,pj...->mj...", coef, rpow, PHI[1:q + 1])
        G = (h * h) * np.einsum("mp,p...->m...", coef, PHI[2:, -1])
        W_terms = h * np.einsum("mp,pj,pj...->mj...", np.abs(coef), rpow, np.abs(PHI[1:q + 1]))
        G_terms = (h * h) * np.einsum("mp,p...->m...", np.abs(coef), np.abs(PHI[2:, -1]))
        return (PHI[0], W, h * PHI[1, -1], G), (W_terms, G_terms)

    @pytest.mark.parametrize("refined", [False, True], ids=["base", "refined"])
    @pytest.mark.parametrize("shift", [0.0, 3.0 - 2.0j], ids=["0", "3-2i"])
    @pytest.mark.parametrize("nodes", [True, False])
    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_matches_einsum(self, grid, name, nodes, shift, refined):
        op = self.MAKERS[name]()
        assert (op.diagonalization is None) == (name in ("jordan8", "nonnormal12"))
        solver = sl.CauchySolver(op, grid)
        if refined:
            solver = solver.refined_for(64.0)
        h = solver._runs[0][2]
        assert h == (grid.T / grid.panels / 7 if refined else grid.T / grid.panels)
        P, W, H1, G = solver._panel_tables(shift, h, nodes)
        (P0, W0, H10, G0), (W_terms, G_terms) = self.reference(solver, shift, h, nodes)
        assert np.array_equal(P, P0) and np.array_equal(H1, H10)
        assert W.shape == W0.shape and G.shape == G0.shape
        bound = 2 * (grid.nodes_per_panel + 2) * np.finfo(float).eps
        assert np.all(np.abs(W - W0) <= bound * W_terms)
        assert np.all(np.abs(G - G0) <= bound * G_terms)
        assert np.max(np.abs(W - W0)) <= 1e-11 * np.max(np.abs(W0))


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


class TestEdgeScan:
    """The eigen backend propagates panel edges by a prefix scan over each run
    of equal widths; checked against a panel-by-panel loop written here. Both
    take the solver's tables at nominal widths: a panel shares the table of
    the first width within 1e-12 of its own (on lap256, tables at widths one
    ulp apart move the values by up to 3.5e-13)."""

    GRIDS = {"refined": sl.TimeGrid.uniform(1.0, panels=16).refined(7),
             "mixed": TestMixedWidths.GRID}
    MAKERS = {"lap256": lambda: sl.laplacian_1d(256),  # stiff
              "growing": lambda: sl.diagonal_operator([5.0, -1.0])}

    @staticmethod
    def _sequential(solver, shift, F, Y, v0, nodes):
        """vals and integral of _propagate, one panel at a time."""
        grid = solver.grid
        q = grid.nodes_per_panel
        step = q + 1 if nodes else 1
        if Y is None:  # the identity: one column of ones
            Y = np.ones(v0.shape)
        vals = np.empty((grid.panels * step + 1,) + v0.shape, dtype=complex)
        vals[0], integral = v0, np.zeros(v0.shape, dtype=complex)
        tables = {}  # the tables of each nominal width
        for i, h in enumerate(np.diff(grid.edges)):
            h = next((g for g in tables if abs(h - g) <= 1e-12 * g), h)
            if h not in tables:
                tables[h] = solver._panel_tables(shift, h, nodes)
            P, W, H1, G = tables[h]
            start = vals[i * step]
            for j in range(len(P)):
                vals[i * step + 1 + j] = P[j] * start + sum(W[m, j] * Y * F[i, m]
                                                            for m in range(q))
            integral += H1 * start + sum(G[m] * Y * F[i, m] for m in range(q))
        return vals, integral

    @pytest.mark.parametrize("layout", ["profile", "samples"])
    @pytest.mark.parametrize("nodes", [True, False])
    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_matches_sequential(self, rng, name, grid_name, nodes, layout):
        op, grid = self.MAKERS[name](), self.GRIDS[grid_name]
        q = grid.nodes_per_panel
        for shift in (0.0, 2.0 + 4.0j):
            if layout == "profile":  # exp_functionals' layout: a real profile, Y = I
                F, Y = np.exp(-2.0 * grid.gl_times), None
                v0 = np.zeros((op.dim, 1), dtype=complex)
            else:  # a complex profile times a block Y, with two columns
                F = rng.standard_normal((grid.panels, q)) + 1j * rng.standard_normal((grid.panels, q))
                Y, v0 = (rng.standard_normal((op.dim, 2)) + 1j * rng.standard_normal((op.dim, 2))
                         for _ in range(2))
            vals, integral = sl.CauchySolver(op, grid)._propagate(shift, F, Y, v0, nodes)
            ref_vals, ref_integral = self._sequential(sl.CauchySolver(op, grid), shift, F, Y, v0,
                                                      nodes)
            for got, ref in ((vals, ref_vals), (integral, ref_integral)):
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), shift


class TestRunSums:
    """On a normal operator exp_functionals sums each run of equal panels by
    binary powering (_run_sums); checked against the panel march
    TestEdgeScan._sequential on the solver's refined grid. The grids: one run
    of 16, 5, 7, 100 and 112 panels (the last four reach the combine of a set
    bit), the 112-panel refined(7) grid and the mixed grid of four runs,
    whose runs after the first start from a nonzero edge."""

    MAKERS = {
        "diag": lambda e0: sl.diagonal_operator([-1.0, -2.0], e0_norm=e0),
        "lap16": lambda e0: sl.laplacian_1d(16, e0_norm=e0),
        "lap256": lambda e0: sl.laplacian_1d(256, e0_norm=e0),
        "lap512": lambda e0: sl.laplacian_1d(512, e0_norm=e0),  # a SineMap
        "normal16": lambda e0: sl.random_normal_operator(16, seed=7, e0_norm=e0),
    }
    GRIDS = {"uniform": lambda T: sl.TimeGrid.uniform(T, panels=16),
             "refined": lambda T: sl.TimeGrid.uniform(T, panels=16).refined(7),
             "mixed": lambda T: sl.TimeGrid(T * np.array([0.0, 0.1, 0.3, 0.35, 1.0])).refined(3),
             **{f"run{n}": (lambda T, n=n: sl.TimeGrid.uniform(T, panels=n))
                for n in (5, 7, 100, 112)}}

    @pytest.mark.parametrize("e0_norm", ["euclidean", "sup"])
    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_matches_panel_march(self, name, e0_norm):
        op = self.MAKERS[name](e0_norm)
        assert op.diagonalization is not None
        v0 = np.zeros((op.dim, 1), dtype=complex)
        for grid_name, make in self.GRIDS.items():
            for T in (0.01, 1.0, 23.0):
                solver = sl.CauchySolver(op, make(T))
                for mu in (1e-6, 0.5, 2.0 + 4.0j, 32.0 - 16.0j):
                    case = (grid_name, T, mu)
                    try:
                        refined = solver.refined_for(2.0 * mu.real)
                    except ConfigError:  # 6372 panels, past MAX_PANELS
                        assert case == ("mixed", 23.0, 32.0 - 16.0j)
                        continue
                    W, VT, vt_norm = solver.exp_functionals(mu)
                    F = np.exp(-2.0 * mu.real * refined.grid.gl_times)
                    vals, integral = TestEdgeScan._sequential(refined, complex(mu), F, None, v0,
                                                              nodes=False)
                    for got, ref in ((VT.d, vals[-1, :, 0]), (W.d, integral[:, 0])):
                        scale = np.max(np.abs(ref))
                        if scale < 1e-300:  # v(T) underflows
                            assert np.max(np.abs(got)) < 1e-300, case
                        else:
                            assert np.max(np.abs(got - ref)) <= 1e-11 * scale, case
                    ref = VT.with_values(vals[-1, :, 0])
                    ref_norm = (np.max(np.abs(ref.d)) if e0_norm == "euclidean"
                                else op.operator_norm(ref))
                    assert vt_norm == pytest.approx(ref_norm, rel=1e-11, abs=1e-300), case

    def test_memory_does_not_grow_with_panels(self):
        # the 25 mu of identity-check on lap256: 16 panels (refined to up to
        # 112) and 1024, where an array over the edges would take 6x the peak
        op = sl.laplacian_1d(256)
        op.diagonalization  # the factor is not part of the solve
        peaks = []
        for panels in (16, 1024):
            solver = sl.CauchySolver(op, sl.TimeGrid.uniform(1.0, panels=panels))
            tracemalloc.start()
            try:
                sl.assemble_U_V_batch(solver, MU_GRID_25)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


class TestRefinedSolvers:
    """A solver keeps one refined solver per split count, so their grids and
    unshifted tables are built once."""

    @pytest.mark.parametrize("name", ["lap64", "jordan8"])
    def test_one_refined_solver_per_split(self, corpus, grid, rng, name):
        op = corpus[name]
        solver = sl.CauchySolver(op, grid)
        refined = solver.refined_for(64.0)  # splits each panel in 7
        assert solver.refined_for(60.0) is refined and refined.grid.panels == 7 * grid.panels
        assert solver.refined_for(20.0) is not refined  # splits in 3
        f, x = sl.ExpForcing(60.0, random_vector(rng, op.dim)), random_vector(rng, op.dim)
        assert solver.solve(f, x).grid is refined.grid
        fresh = sl.CauchySolver(op, grid.refined(7))
        fresh.solve(f, x)
        assert refined._tables.keys() == fresh._tables.keys() and len(fresh._tables) == 1
        for key, tables in fresh._tables.items():
            for a, b in zip(refined._tables[key], tables):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("rate", [np.inf, np.nan])
    def test_split_not_finite(self, corpus, grid, rate):
        solver = sl.CauchySolver(corpus["diag"], grid)
        with pytest.raises(ConfigError):
            solver.refined_for(rate)
        assert solver._refined == {}


class TestEigenMap:
    """A normal operator's W, VT and so U_mu, V_mu stay Z diag(d) Z* maps."""

    def test_identity_check_takes_no_dense_map(self, corpus, grid, monkeypatch, rng):
        def refuse(self, *args, **kwargs):
            raise AssertionError("EigenMap made dense")

        monkeypatch.setattr(operators.EigenMap, "__array__", refuse)
        op = corpus["lap256"]
        solver = sl.CauchySolver(op, grid)
        x = random_vector(rng, op.dim)
        for mu in (0.5, 2.0 + 4.0j, 32.0 - 16.0j):
            sd = sl.assemble_U_V(solver, mu)
            assert isinstance(sd.U, operators.EigenMap) and isinstance(sd.V, operators.EigenMap)
            assert sl.surjectivity_identity_check(op, sd, x) <= 1e-8

    @pytest.mark.parametrize("name", ["diag", "lap64", "normal16"])
    def test_dense_form_is_the_product(self, corpus, grid, rng, name):
        op = corpus[name]
        Z = op.diagonalization.Z
        assert (Z is None) == (name == "diag")
        mu = 2.0 + 4.0j
        solver = sl.CauchySolver(op, grid)
        W, VT, _ = solver.exp_functionals(mu)
        sd = sl.assemble_U_V(solver, mu)
        # the dense products of W and VT = e^{-mu T} u(T), and the real
        # multiples of them that U_mu and V_mu are
        dense = np.diag if Z is None else (lambda d: (Z * d) @ Z.conj().T)
        W_old, VT_old = dense(W.d), dense(VT.d)
        c = 2.0 * mu.real / (1.0 - np.exp(-2.0 * mu.real * grid.T))
        x = random_vector(rng, op.dim)
        U_old, V_old = 2.0 * mu.real * W_old, c * VT_old
        for M, old in ((W, W_old), (VT, VT_old), (sd.U, U_old), (sd.V, V_old)):
            assert np.linalg.norm(np.asarray(M) - old) <= 1e-13 * np.linalg.norm(old)
            assert np.linalg.norm(M @ x - old @ x) <= 1e-13 * np.linalg.norm(old @ x)


def estimate_M_loop(solver, probes):
    """(ratios, M_hat, c2_hat) of estimate_M, one solve at a time."""
    op = solver.op
    ratios, c2s = [], []
    for f, x in probes:
        u = solver.solve(f, x)
        nf = sl.e0_norm_J(op, sl.GridFunction(u.grid, e0_samples(op, u).forcing_values))
        nx1 = op.norm1(x)
        e1 = sl.e1_norm_J(op, u)
        ratios.append(e1 / (nf + nx1))
        c2s.append(e1 / nf if (nf > 0 and nx1 == 0) else 0.0)
    return ratios, float(max(ratios)), float(max(c2s))


def counting_propagate(monkeypatch):
    """A list that gains one entry per CauchySolver._propagate call."""
    calls = []
    propagate = cauchy.CauchySolver._propagate
    monkeypatch.setattr(cauchy.CauchySolver, "_propagate",
                        lambda self, *a, **k: calls.append(1) or propagate(self, *a, **k))
    return calls


class TestBatches:
    """The batched entry points hand whole probe and shift sets to the one
    propagator, one propagation per refined solver (and per chunk of the
    byte budget), with the bits of the one-at-a-time calls."""

    MAKERS = {
        "diag4": lambda e0: sl.diagonal_operator([-1.0, -2.5, -4.0, -7.0], e0_norm=e0),
        "lap64": lambda e0: sl.laplacian_1d(64, e0_norm=e0),
        "jordan8": lambda e0: sl.jordan_block(-2.0, 8, e0_norm=e0),
        "normal16": lambda e0: sl.random_normal_operator(16, seed=3, e0_norm=e0),
    }

    @staticmethod
    def probes(dim, seed=5):
        """Two exponential probes on the base grid and two on each of the
        grids split in 2 and in 3, a polynomial probe, and two initial-value
        probes, whose zero forcing has a real profile."""
        rng = np.random.default_rng(seed)
        out = [(sl.ExpForcing(mu, random_vector(rng, dim)),
                random_vector(rng, dim) if k % 2 else np.zeros(dim, complex))
               for k, mu in enumerate((1.0, 3.0 + 2.0j, 10.0, 12.0 - 3.0j, 25.0, 28.0 + 5.0j))]
        out.append((sl.PolyForcing([0.5, 1.0, -2.0], random_vector(rng, dim)),
                    np.zeros(dim, complex)))
        out += [(sl.ZeroForcing(dim), random_vector(rng, dim)) for _ in range(2)]
        return out

    @pytest.mark.parametrize("e0_norm", ["euclidean", "sup"])
    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_estimate_M_matches_loop(self, grid, name, e0_norm):
        op = self.MAKERS[name](e0_norm)
        probes = self.probes(op.dim)
        solver = sl.CauchySolver(op, grid)
        refined = [solver.refined_for(f.rate) if f.rate else solver for f, _ in probes]
        assert len(set(refined)) == 3 and all(refined.count(s) >= 2 for s in refined)
        est = sl.estimate_M(solver, probes)
        ratios, M_hat, c2_hat = estimate_M_loop(sl.CauchySolver(op, grid), probes)
        assert (est.ratios, est.M_hat, est.c2_hat) == (ratios, M_hat, c2_hat)
        assert c2_hat > 0 and est.probe_count == len(probes)

    @pytest.mark.parametrize("e0_norm", ["euclidean", "sup"])
    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_exp_functionals_match_loop(self, grid, name, e0_norm):
        op = self.MAKERS[name](e0_norm)
        batch = sl.CauchySolver(op, grid).exp_functionals_batch(MU_GRID_25)
        solver = sl.CauchySolver(op, grid)
        for mu, (W, VT, vt_norm) in zip(MU_GRID_25, batch):
            W1, VT1, vt_norm1 = solver.exp_functionals(mu)
            assert vt_norm == vt_norm1, mu
            for a, b in ((W, W1), (VT, VT1)):
                assert type(a) is type(b)
                if isinstance(a, operators.EigenMap):
                    assert a.Z is b.Z and np.array_equal(a.d, b.d), mu
                else:
                    assert np.array_equal(a, b), mu
        sds = sl.assemble_U_V_batch(sl.CauchySolver(op, grid), MU_GRID_25)
        for sd in sds:
            one = sl.assemble_U_V(solver, sd.mu)
            assert sd.V_norm == one.V_norm
            assert np.array_equal(np.asarray(sd.U), np.asarray(one.U))
            assert np.array_equal(np.asarray(sd.V), np.asarray(one.V))

    @pytest.mark.parametrize("name", ["diag4", "jordan8", "normal16"])
    def test_small_budget_same_bits(self, grid, monkeypatch, name):
        op = self.MAKERS[name]("euclidean")
        probes = self.probes(op.dim)
        est = sl.estimate_M(sl.CauchySolver(op, grid), probes)
        funcs = sl.CauchySolver(op, grid).exp_functionals_batch(MU_GRID_25)
        monkeypatch.setattr(sl.operators, "BATCH_BYTES", 4096)
        calls = counting_propagate(monkeypatch)
        small = sl.estimate_M(sl.CauchySolver(op, grid), probes)
        assert len(calls) > 3  # the budget cut the three groups into chunks
        assert (small.ratios, small.M_hat, small.c2_hat) == (est.ratios, est.M_hat, est.c2_hat)
        for (W, VT, n), (W1, VT1, n1) in zip(funcs, sl.CauchySolver(op, grid)
                                             .exp_functionals_batch(MU_GRID_25)):
            assert n == n1
            assert np.array_equal(np.asarray(W), np.asarray(W1))
            assert np.array_equal(np.asarray(VT), np.asarray(VT1))

    @pytest.mark.parametrize("name", ["diag", "lap16", "jordan8"])
    def test_one_propagation_per_refined_grid(self, grid, corpus, monkeypatch, name):
        # the default probes put their steepest two exponentials on grids
        # split in 2 and in 4: 3 propagations for 12 probes
        op = corpus[name]
        probes = sl.default_probes(op, seed=3)
        solver = sl.CauchySolver(op, grid)
        groups = {solver.refined_for(f.rate) if f.rate else solver for f, _ in probes}
        calls = counting_propagate(monkeypatch)
        sl.estimate_M(solver, probes)
        assert len(groups) == 3 and len(calls) == 3

    @pytest.mark.parametrize("name", ["diag", "lap16", "jordan3"])
    def test_identity_mus_one_propagation_per_refined_grid(self, grid, corpus, monkeypatch,
                                                           name):
        # the 25 mu of identity-check: real parts 0.5 .. 32 on 3 grids, each one
        # run of equal panels; the eigen backend sums the runs without
        # propagating, from one phi_scalar call per run and grid
        op = corpus[name]
        solver = sl.CauchySolver(op, grid)
        calls, phis = counting_propagate(monkeypatch), []
        phi_scalar = cauchy.phi_scalar
        monkeypatch.setattr(cauchy, "phi_scalar", lambda *a: phis.append(1) or phi_scalar(*a))
        sds = sl.assemble_U_V_batch(solver, MU_GRID_25)
        grids = {solver.refined_for(2 * m.real) for m in MU_GRID_25}
        assert len(sds) == 25 and len(grids) == 3
        if op.diagonalization is None:
            assert len(calls) == 3
        else:
            assert len(calls) == 0 and len(phis) == 3

    def test_dense_memory_of_many_probes(self, grid):
        # 64 probes on a dense n = 64 operator: the stacks of a chunk stay
        # within the byte budget, far below the 64 probes' node arrays
        op = sl.jordan_block(-2.0, 64)
        rng = np.random.default_rng(2)
        probes = [(sl.ExpForcing(1.0 + 0.1 * k, random_vector(rng, 64)), np.zeros(64, complex))
                  for k in range(64)]
        solver = sl.CauchySolver(op, grid)
        solver.solve(*probes[0])  # the kept unshifted table is not part of the batch
        nodes = 16 * len(grid.nodes) * op.dim  # bytes of one probe's node values
        tracemalloc.start()
        try:
            sl.estimate_M(solver, probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sl.operators.BATCH_BYTES + 8 * nodes < 64 * 5 * nodes


def to_eigen(Z, Y):
    """Z* Y for columns Y, as a solve forms it: on the float view of Y when Z is real."""
    if Z.dtype.kind == "c":
        return Z.conj().T @ Y
    return (Z.T @ np.ascontiguousarray(Y).view(float)).view(complex)


def to_standard(Z, v):
    """v Z^T for rows v, as a solve forms it: on the float view of v^T, on one
    BLAS thread, when Z is real."""
    if Z.dtype.kind == "c":
        return v @ Z.T
    vt = np.ascontiguousarray(v.swapaxes(-1, -2))
    with _serial_lapack():
        return (Z @ vt.view(float)).view(complex).swapaxes(-1, -2)


def standard_solve(solver, f, x0):
    """solve's GridFunction by the products of a solve that hands back
    standard-basis samples: without a basis Z the propagated values v
    themselves, with A u = lam u on a diagonal operator and op.apply(u) on
    the dense backend; with one u = v Z^T with u(0) = x0 and A u =
    op.apply(u); then f = p y and u' = A u + f."""
    solver = solver.refined_for(f.rate) if f.rate else solver
    op, grid = solver.op, solver.grid
    p = f.profile(grid.nodes)
    F = p[:-1].reshape(grid.panels, grid.nodes_per_panel + 1)[:, 1:]
    diag = op.diagonalization
    Z = None if diag is None else diag.Z
    if Z is None:
        v, _ = solver._propagate(0.0, F, f.y[:, None], x0[:, None], nodes=True)
        values = v[..., 0]
        Au = op.apply(values) if diag is None else diag.d * values
    else:
        v, _ = solver._propagate(0.0, F, to_eigen(Z, f.y[:, None]), to_eigen(Z, x0[:, None]),
                                 nodes=True)
        values = to_standard(Z, v[..., 0])
        values[0] = x0
        Au = op.apply(values)
    S = p[:, None] * f.y[None, :]
    u = sl.GridFunction(grid, values, Au + S)
    u.forcing_values, u.operator, u.operator_values = S, op, Au
    return u


SAMPLES = ("values", "operator_values", "forcing_values", "derivative_values")


class TestOneForm:
    """Every solve and every stack of solve_batch carries the coordinates it
    was propagated in, on every backend and in both E0 norms, and hands back
    the standard-basis samples of standard_solve, bit for bit."""

    TEXTS = {"diag4": "matrix = diag -1,-2.5,-4,-7\n",
             "cdiag4": "matrix = diag -1+2i,-0.5-3i,-2+0.25i,-0.1+7i\n",
             "lap16": "matrix = laplacian1d n=16\n",
             "normal16": "matrix = random-normal dim=16 seed=3\n",
             "jordan8": "matrix = jordan lambda=-2 size=8\n"}

    @pytest.mark.parametrize("e0_norm", ["euclidean", "sup"])
    @pytest.mark.parametrize("name", sorted(TEXTS))
    def test_solves_keep_their_coordinates(self, grid, name, e0_norm):
        op = parse_operator_text(self.TEXTS[name] + f"e0_norm = {e0_norm}\n")
        solver = sl.CauchySolver(op, grid)
        probes = TestBatches.probes(op.dim)
        refs = [standard_solve(solver, f, np.asarray(x, dtype=complex)) for f, x in probes]
        batches = list(solver.solve_batch(probes))
        assert len(batches) == 3  # the base grid and the grids split in 2 and in 3
        solves = [(solver.solve(f, x), [ref]) for (f, x), ref in zip(probes, refs)]
        solves += [(u, [refs[i] for i in idx]) for idx, u in batches]
        for u, stack in solves:
            assert isinstance(u.coordinates, sl.GridFunction)
            assert (e0_samples(op, u) is u.coordinates) == (e0_norm == "euclidean")
            for attr in SAMPLES:
                got = getattr(u, attr)
                for a, ref in zip(got.reshape((len(stack),) + got.shape[-2:]), stack):
                    assert np.array_equal(a, getattr(ref, attr)), attr


class CountingProducts(np.ndarray):
    """A matrix that counts the products taking it against a stack of node
    samples (more rows than the matrix has, or more columns, as the float view
    of the transposed stack a real basis takes has)."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [a.view(np.ndarray) if isinstance(a, CountingProducts) else a for a in inputs]
        if ufunc is np.matmul and any(np.ndim(a) >= 2 and max(np.shape(a)[-2:]) > self.shape[0]
                                      for a in plain):
            CountingProducts.products += 1
        return getattr(ufunc, method)(*plain, **kwargs)


class TestEigenCoordinates:
    """A solve on a normal operator keeps its samples in eigen coordinates;
    euclidean norms read them, sup norms the standard-basis samples."""

    MAKERS = {"lap16": lambda e0: sl.laplacian_1d(16, e0_norm=e0),
              "lap64": lambda e0: sl.laplacian_1d(64, e0_norm=e0),
              "lap256": lambda e0: sl.laplacian_1d(256, e0_norm=e0),
              "normal16": lambda e0: sl.random_normal_operator(16, seed=7, e0_norm=e0)}

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_materialized_samples(self, grid, name):
        op = self.MAKERS[name]("euclidean")
        Z = op.diagonalization.Z
        solver = sl.CauchySolver(op, grid)
        for f, x in sl.default_probes(op, seed=3):
            u = solver.solve(f, x)
            values = to_standard(Z, u.coordinates.values)
            values[0] = x
            assert np.array_equal(u.values, values) and np.array_equal(u.values[0], x)
            ref = standard_solve(solver, f, np.asarray(x, dtype=complex))
            for attr in SAMPLES:
                assert np.array_equal(getattr(u, attr), getattr(ref, attr)), attr

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_euclidean_norms_match_standard_samples(self, grid, name):
        op = self.MAKERS[name]("euclidean")
        solver = sl.CauchySolver(op, grid)
        probes = sl.default_probes(op, seed=3)
        ratios, c2s = [], []
        for f, x in probes:
            u = solver.solve(f, x)
            assert e0_samples(op, u) is u.coordinates
            values = sl.GridFunction(u.grid, u.values, u.derivative_values)
            forcing = sl.GridFunction(u.grid, u.forcing_values)
            nf = sl.e0_norm_J(op, forcing)
            fv = sl.GridFunction(u.grid, u.coordinates.forcing_values)
            assert sl.e0_norm_J(op, fv) == pytest.approx(nf, rel=1e-13)
            assert sl.e0_norm_J(op, u) == pytest.approx(sl.e0_norm_J(op, values), rel=1e-13)
            e1, nx1 = sl.e1_norm_J(op, values), op.norm1(x)
            assert sl.e1_norm_J(op, u) == pytest.approx(e1, rel=1e-13)
            ratios.append(e1 / (nf + nx1))
            c2s.append(e1 / nf if (nf > 0 and nx1 == 0) else 0.0)
        est = sl.estimate_M(solver, probes)
        assert est.M_hat == pytest.approx(max(ratios), rel=1e-13)
        assert est.c2_hat == pytest.approx(max(c2s), rel=1e-13)
        x = probes[-1][1]
        orbit = solver.solve(sl.ZeroForcing(op.dim), x)
        ref = sl.e1_norm_J(op, sl.GridFunction(orbit.grid, orbit.values, orbit.derivative_values))
        assert sl.trace_norm_upper(solver, x) == pytest.approx(ref, rel=1e-13)
        chk = sl.weighted_maxreg_check(solver, 0.5, 2.0, x, est.M_hat, est.c2_hat)
        assert chk.endpoint_value == pytest.approx(op.norm0(chk.u.values[-1]), rel=1e-13)

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_sup_norms_keep_their_bits(self, grid, name):
        op = self.MAKERS[name]("sup")
        solver = sl.CauchySolver(op, grid)
        probes = sl.default_probes(op, seed=3)
        ratios, c2s = [], []
        for f, x in probes:
            u, ref = solver.solve(f, x), standard_solve(solver, f, np.asarray(x, dtype=complex))
            assert e0_samples(op, u) is u
            nf = sl.e0_norm_J(op, sl.GridFunction(ref.grid, ref.forcing_values))
            e1 = sl.e1_norm_J(op, ref)
            assert sl.e0_norm_J(op, u) == sl.e0_norm_J(op, ref)
            assert sl.e1_norm_J(op, u) == e1
            nx1 = op.norm1(ref.values[0])
            ratios.append(e1 / (nf + nx1))
            c2s.append(e1 / nf if (nf > 0 and nx1 == 0) else 0.0)
        est = sl.estimate_M(solver, probes)
        assert (est.ratios, est.M_hat, est.c2_hat) == (ratios, max(ratios), max(c2s))
        x = np.asarray(probes[-1][1], dtype=complex)
        ref = standard_solve(solver, sl.ZeroForcing(op.dim), x)
        assert sl.trace_norm_upper(solver, x) == sl.e1_norm_J(op, ref)
        chk = sl.weighted_maxreg_check(solver, 1.0, 2.0, x, est.M_hat, est.c2_hat)
        ref = standard_solve(solver, sl.ExpForcing(2.0, x), np.zeros(op.dim, complex))
        assert chk.endpoint_value == op.norm0(ref.values[-1])

    @pytest.mark.parametrize("name", ["lap16", "normal16"])
    def test_no_product_over_the_nodes(self, grid, name):
        # estimate_M, the weighted check and the trace bound take every
        # euclidean norm from the eigen coordinates: no node stack meets Z or A
        op = self.MAKERS[name]("euclidean")
        diag, apply = op.diagonalization, op.apply
        op.__dict__["diagonalization"] = operators.EigenMap(diag.Z.view(CountingProducts), diag.d)

        def counted_apply(X):  # A against a stack of node samples
            CountingProducts.products += int(np.ndim(X) >= 2 and np.shape(X)[-2] > op.dim)
            return apply(X)
        op.apply = counted_apply
        solver = sl.CauchySolver(op, grid)
        x = sl.default_probes(op, seed=3)[-1][1]
        CountingProducts.products = 0
        est = sl.estimate_M(solver, sl.default_probes(op, seed=3))
        chk = sl.weighted_maxreg_check(solver, 0.5, 2.0, x, est.M_hat, est.c2_hat)
        sl.trace_norm_upper(solver, x, 0.5)
        assert CountingProducts.products == 0
        chk.u.values, chk.u.operator_values  # the standard samples, formed on request
        assert CountingProducts.products == 2


class TestRealBasis:
    """A Laplacian's real basis Z gives what the same formulas give on
    Z.astype(complex), to rounding: resolvent sums, EigenMap products and a
    solve's standard-basis samples."""

    @staticmethod
    def complex_twin(op):
        """A fresh copy of op whose cached factor holds its basis as complex."""
        twin = sl.OperatorPair(op.matrix, op.e0_norm)
        factor = op.resolvent_factor
        twin.__dict__["resolvent_factor"] = operators.EigenMap(factor.Z.astype(complex), factor.d)
        return twin

    @staticmethod
    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_real_basis_matches_its_complex_form(self, grid, rng, n):
        op = sl.laplacian_1d(n)
        twin = self.complex_twin(op)
        Z, Zc = op.diagonalization.Z, twin.diagonalization.Z
        assert Z.dtype == np.float64 and Zc.dtype == complex
        x = random_vector(rng, n)
        mus, weights = sl.build_contour(op, 0.1, node_count=32).nodes_and_weights()
        assert self.close(op.resolvent_sum(mus, weights, x), twin.resolvent_sum(mus, weights, x))
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        X = np.stack([x, random_vector(rng, n)], axis=1)
        for arg in (x, X):
            assert self.close(operators.EigenMap(Z, d) @ arg, operators.EigenMap(Zc, d) @ arg)
        assert self.close(np.asarray(operators.EigenMap(Z, d)),
                          np.asarray(operators.EigenMap(Zc, d)))
        f, x0 = sl.ExpForcing(3.0 + 2.0j, x), random_vector(rng, n)
        u, ref = sl.CauchySolver(op, grid).solve(f, x0), sl.CauchySolver(twin, grid).solve(f, x0)
        for attr in SAMPLES:
            assert self.close(getattr(u, attr), getattr(ref, attr)), attr
