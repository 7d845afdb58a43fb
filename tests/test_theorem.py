import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import semilab as sl
from semilab import theorem
from semilab.errors import (
    ConfigError,
    DegenerateReMu,
    NeumannDivergence,
    NonpositiveM,
    SemilabError,
    SlowConvergence,
)
from semilab.operators import parse_operator_text
from semilab.theorem import mu_box

from conftest import random_vector


def scalar_U_exact(mu, T=1.0):
    mu = complex(mu)
    mub = np.conj(mu)
    return 2 * mu.real / mub * ((1 - np.exp(-mu * T)) / mu
                                - (1 - np.exp(-2 * mu.real * T)) / (2 * mu.real))


def scalar_V_exact(mu, T=1.0):
    mu = complex(mu)
    mub = np.conj(mu)
    return (2 * mu.real * np.exp(-mu * T) / (1 - np.exp(-2 * mu.real * T))
            * (1 - np.exp(-mub * T)) / mub)


class TestAssembleUV:
    @pytest.mark.parametrize("mu", [1.0, 2.0, 0.25, 8.0])
    def test_scalar_closed_forms_real_mu(self, grid, scalar_zero, mu):
        # A = 0, T = 1: U = (1-e^{-mu})^2/mu, V = 2e^{-mu}/(1+e^{-mu})
        solver = sl.CauchySolver(scalar_zero, grid)
        sd = sl.assemble_U_V(solver, mu)
        assert abs(np.asarray(sd.U)[0, 0] - (1 - np.exp(-mu)) ** 2 / mu) <= 1e-10
        assert abs(np.asarray(sd.V)[0, 0] - 2 * np.exp(-mu) / (1 + np.exp(-mu))) <= 1e-10

    @pytest.mark.parametrize("mu", [0.7 + 1.3j, 2.0 - 5.0j, 0.5 + 16.0j])
    def test_scalar_closed_forms_complex_mu(self, grid, scalar_zero, mu):
        solver = sl.CauchySolver(scalar_zero, grid)
        sd = sl.assemble_U_V(solver, mu)
        assert abs(np.asarray(sd.U)[0, 0] - scalar_U_exact(mu)) <= 1e-10
        assert abs(np.asarray(sd.V)[0, 0] - scalar_V_exact(mu)) <= 1e-10

    def test_vnorm_half_at_ln3(self, grid, scalar_zero):
        solver = sl.CauchySolver(scalar_zero, grid)
        sd = sl.assemble_U_V(solver, np.log(3.0))
        assert sd.V_norm == pytest.approx(0.5, abs=1e-10)

    def test_vnorm_monotone_in_re_mu(self, grid, scalar_zero):
        solver = sl.CauchySolver(scalar_zero, grid)
        vals = [sl.assemble_U_V(solver, mu).V_norm for mu in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_degenerate_re_mu(self, grid, scalar_zero):
        solver = sl.CauchySolver(scalar_zero, grid)
        with pytest.raises(DegenerateReMu):
            sl.assemble_U_V(solver, -1.0 + 2.0j)

    def test_batch_checks_every_mu_first(self, grid, scalar_zero, monkeypatch):
        # the first bad mu is named, and no solve runs before the check
        solver = sl.CauchySolver(scalar_zero, grid)
        monkeypatch.setattr(sl.CauchySolver, "_propagate", None)
        with pytest.raises(DegenerateReMu, match="Re mu = -1.0"):
            sl.assemble_U_V_batch(solver, [1.0, -1.0 + 2.0j, 1e-300])
        with pytest.raises(DegenerateReMu, match="rounds to 0"):
            sl.assemble_U_V_batch(solver, [1.0, 1e-300, -1.0])
        assert sl.assemble_U_V_batch(solver, []) == []


class TestSurjectivityIdentity:
    def test_scalar_both_sides(self, grid, scalar_zero):
        # mu = 1: both sides equal (1 - e^{-1})^2
        solver = sl.CauchySolver(scalar_zero, grid)
        sd = sl.assemble_U_V(solver, 1.0)
        lhs = 1.0 * np.asarray(sd.U)[0, 0]
        assert abs(lhs - (1 - np.exp(-1)) ** 2) <= 1e-10
        assert sl.surjectivity_identity_check(scalar_zero, sd, np.array([1.0])) <= 1e-10

    def test_zero_vector_convention(self, grid, scalar_zero):
        solver = sl.CauchySolver(scalar_zero, grid)
        sd = sl.assemble_U_V(solver, 1.0)
        assert sl.surjectivity_identity_check(scalar_zero, sd, np.zeros(1)) == 0.0

    def test_diag_complex_mu(self, grid, rng):
        op = sl.diagonal_operator([-1.0, -4.0])
        solver = sl.CauchySolver(op, grid)
        sd = sl.assemble_U_V(solver, 2.0 + 1.0j)
        x = random_vector(rng, 2)
        # oracle: direct evaluation with the matrix resolvent
        rhs = (1 - np.exp(-2 * 2.0)) * (x - sd.V @ x)
        lhs_direct = op.resolvent_solve(2.0 + 1.0j, rhs)
        assert op.norm0(sd.U @ x - lhs_direct) <= 1e-8
        assert sl.surjectivity_identity_check(op, sd, x) <= 1e-8

    def test_quadrature_convergence(self, rng):
        # identity residual drops >= 10x per panel doubling until the floor
        op = sl.laplacian_1d(16)
        x = random_vector(rng, 16)
        mu = 2.0 + 8.0j
        prev = None
        for panels in (8, 16, 32):
            grid = sl.TimeGrid.uniform(1.0, panels=panels, nodes_per_panel=4)
            solver = sl.CauchySolver(op, grid)
            sd = sl.assemble_U_V(solver, mu)
            res = sl.surjectivity_identity_check(op, sd, x)
            if prev is not None:
                # >= 10x per doubling until the roundoff floor
                assert res <= max(prev / 10.0, 5e-12)
            prev = res


class TestResolventFromSolver:
    def test_scalar_half(self, grid, scalar_zero):
        solver = sl.CauchySolver(scalar_zero, grid)
        x = sl.resolvent_from_solver(solver, 2.0, np.array([1.0]))
        assert abs(x[0] - 0.5) <= 1e-7

    def test_diag_closed_form(self, grid, diag_12):
        solver = sl.CauchySolver(diag_12, grid)
        x = sl.resolvent_from_solver(solver, 3.0, np.array([1.0, 1.0]))
        assert np.allclose(x, [0.25, 0.2], atol=1e-7)

    def test_jordan_against_dense_solve(self, grid, rng):
        op = sl.jordan_block(-1.0, 3)
        solver = sl.CauchySolver(op, grid)
        y = random_vector(rng, 3)
        x = sl.resolvent_from_solver(solver, 2.0, y)
        assert op.norm0(x - op.resolvent_solve(2.0, y)) <= 1e-6

    def test_neumann_term_budget(self, grid, diag_12, rng):
        solver = sl.CauchySolver(diag_12, grid)
        mu = 2.0  # Re mu > omega2 for this fixture
        sd = sl.assemble_U_V(solver, mu)
        assert sd.V_norm <= 0.5
        y = random_vector(rng, 2)
        sl.resolvent_from_solver(solver, mu, y, sdata=sd)
        assert sd.neumann_terms <= 60
        assert sd.neumann_terms >= np.ceil(np.log(1e-12) / np.log(sd.V_norm))

    @pytest.mark.parametrize("make_op, backend", [
        (lambda: sl.diagonal_operator([-1.0, -2.0]), "eigen"),
        (lambda: sl.jordan_block(-1.0, 3), "dense"),
    ], ids=["diag_12", "jordan3"])
    def test_neumann_length_is_a_priori(self, grid, rng, make_op, backend):
        # ||V_mu|| alone fixes the length: V_mu is applied neumann_terms - 1
        # times, and no product is taken only to test a term's norm
        class CountingMap:
            def __init__(self, V):
                self.V, self.products = V, 0

            def __matmul__(self, x):
                self.products += 1
                return self.V @ x

        op = make_op()
        assert (op.diagonalization is not None) == (backend == "eigen")
        solver = sl.CauchySolver(op, grid)
        sd = sl.assemble_U_V(solver, 2.0)
        V_norm = sd.V_norm
        sd.V = CountingMap(sd.V)
        sl.resolvent_from_solver(solver, 2.0, random_vector(rng, op.dim), sdata=sd)
        assert sd.neumann_terms == max(1, int(np.ceil(np.log(1e-12) / np.log(V_norm))))
        assert sd.V.products == sd.neumann_terms - 1

    def test_divergence_detected(self):
        # unstable operator at small Re mu: ||V|| >= 1, series must not run
        op = sl.diagonal_operator([1.0])
        grid = sl.TimeGrid.uniform(1.0, panels=16)
        solver = sl.CauchySolver(op, grid)
        sd = sl.assemble_U_V(solver, 0.1)
        assert sd.V_norm >= 1.0
        with pytest.raises(NeumannDivergence):
            sl.resolvent_from_solver(solver, 0.1, np.array([1.0]), sdata=sd)

    def test_black_box_never_touches_matrix(self, grid, diag_12, rng, monkeypatch):
        solver = sl.CauchySolver(diag_12, grid)
        sd = sl.assemble_U_V(solver, 3.0)
        monkeypatch.setattr(diag_12.__class__, "resolvent_solve",
                            lambda *a, **k: pytest.fail("matrix resolvent used"))
        y = random_vector(rng, 2)
        x = sl.resolvent_from_solver(solver, 3.0, y, sdata=sd)
        assert np.all(np.isfinite(x))


class TestOmegas:
    def test_omega1_closed_forms(self):
        assert sl.omega1(0.5, 1.0) == 0.0
        assert sl.omega1(np.e / 2.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_omega1_weighted_reduction(self):
        for M, T in [(1.3, 1.0), (4.0, 2.0), (0.7, 0.5)]:
            assert sl.omega1_weighted(M, T, 1.0) == sl.omega1(M, T)

    def test_nonpositive_M(self):
        with pytest.raises(NonpositiveM):
            sl.omega1(0.0, 1.0)
        with pytest.raises(NonpositiveM):
            sl.omega1_weighted(-1.0, 1.0, 0.5)

    def test_omega2_scalar_threshold(self, grid, scalar_zero):
        # scalar A = 0, T = 1: ||V_mu|| = 1/2 exactly at mu = ln 3
        solver = sl.CauchySolver(scalar_zero, grid)
        w2 = sl.omega2_search(solver)
        assert w2 == pytest.approx(np.log(3.0), abs=2e-6)

    def test_omega2_zero_when_contractive(self, grid):
        op = sl.diagonal_operator([-40.0])
        solver = sl.CauchySolver(op, grid)
        assert sl.omega2_search(solver) == 0.0

    def test_omega2_fails_closed_on_nan_norms(self, grid):
        # e^{1e308 t} overflows: every ||V_mu|| is NaN, which is no bracket
        solver = sl.CauchySolver(sl.diagonal_operator([1e308, -1.0]), grid)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(sl.assemble_U_V(solver, 64.0).V_norm)
            with pytest.raises(SlowConvergence):
                sl.omega2_search(solver)


# the operator files of tools/cli_digests.py, jordan8 at two more eigenvalues, jordan32
OMEGA2_OPERATORS = {
    "diag4": "matrix = diag -1,-2.5,-4,-7\n",
    "lap64": "matrix = laplacian1d n=64\n",
    "jordan8": "matrix = jordan lambda=-2 size=8\n",
    "normal16": "matrix = random-normal dim=16 seed=3\n",
}
OMEGA2_OPERATORS.update({f"{name}-sup": text + "e0_norm = sup\n"
                         for name, text in OMEGA2_OPERATORS.items()})
OMEGA2_OPERATORS.update({
    "jordan8-lambda-1": "matrix = jordan lambda=-1 size=8\n",
    "jordan8-lambda-0.5": "matrix = jordan lambda=-0.5 size=8\n",
    "jordan32": "matrix = jordan lambda=-2 size=32\n",
})


def bisection(v, T, width=1e-6):
    """omega_2 as the plain bisection of [1e-6, 64 / T] down to the given
    width gives it, with v(r) the norm ||V_r||."""
    lo, hi = 1e-6, 64.0 / T
    if v(lo) < 0.5:
        return 0.0
    if not v(hi) < 0.5:
        raise SlowConvergence(f"||V_mu|| < 1/2 fails even at Re mu = {hi}")
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if v(mid) < 0.5:
            hi = mid
        else:
            lo = mid
    return hi


def outcome(search, *args):
    """The value search returns, or the class of the SemilabError it raises."""
    try:
        return search(*args)
    except SemilabError as exc:
        return type(exc)


def counting_assemble(monkeypatch, norm=None):
    """Patch theorem.assemble_U_V to record every real part it is called at;
    with norm given, ||V_r|| = norm(r) replaces the solver."""
    rs, assemble = [], theorem.assemble_U_V

    def counted(solver, mu):
        rs.append(mu.real)
        if norm is None:
            return assemble(solver, mu)
        return SimpleNamespace(V_norm=norm(mu.real))

    monkeypatch.setattr(theorem, "assemble_U_V", counted)
    return rs


def crossing_at_one(r):
    """||V_r|| = e^{1 - r} / 2: log(2 ||V_r||) is linear and crosses 0 at r = 1."""
    return 0.5 * math.exp(1.0 - r)


class TestOmega2Search:
    @pytest.mark.parametrize("T", [1.0, 0.5])
    @pytest.mark.parametrize("name", sorted(OMEGA2_OPERATORS))
    def test_bracket_at_the_crossing(self, monkeypatch, name, T):
        # omega2 is the evaluated end b of a bracket [a, b] of width <= 2.5e-10
        # with ||V_a|| >= 1/2 > ||V_b||, and within 1e-6 of the bisection to
        # width 1e-6
        solver = sl.CauchySolver(parse_operator_text(OMEGA2_OPERATORS[name]),
                                 sl.TimeGrid.uniform(T, 16))

        def v(r):
            return sl.assemble_U_V(solver, complex(r)).V_norm

        rs = counting_assemble(monkeypatch)
        w2 = sl.omega2_search(solver)
        expected = bisection(v, T)
        if expected == 0.0:
            assert w2 == 0.0
            return
        assert w2 in rs and v(w2) < 0.5
        assert any(w2 - 2.5e-10 <= r < w2 and v(r) >= 0.5 for r in rs)
        assert abs(w2 - expected) < 1e-6

    @pytest.mark.parametrize("T", [1.0, 0.5])
    @pytest.mark.parametrize("name", sorted(OMEGA2_OPERATORS))
    def test_solver_calls(self, monkeypatch, name, T):
        # the bisection to width 1e-6 took 28 calls at T = 1 (29 at T = 0.5)
        # where omega2 > 0
        solver = sl.CauchySolver(parse_operator_text(OMEGA2_OPERATORS[name]),
                                 sl.TimeGrid.uniform(T, 16))
        rs = counting_assemble(monkeypatch)
        w2 = sl.omega2_search(solver)
        assert len(rs) == 1 if w2 == 0.0 else len(rs) <= 11
        assert len(set(rs)) == len(rs)

    def test_crossing_at_one(self, monkeypatch):
        # ||V_r|| = e^{1 - r} / 2 crosses 1/2 at r = 1 exactly
        counting_assemble(monkeypatch, crossing_at_one)
        assert 1.0 <= sl.omega2_search(SimpleNamespace(T=1.0)) <= 1.0 + 2.5e-10

    @pytest.mark.parametrize("case", ["secant", "bisection"])
    def test_crossing_where_the_doubles_are_coarser(self, monkeypatch, case):
        # at T = 1e-5 the search runs up to r = 6.4e6; diag 3e6 crosses 1/2 near
        # r = 3.07e6, where adjacent doubles lie 4.7e-10 apart, more than the
        # 2.5e-10 width: the bracket closes at two ulps, by the secant or, on a
        # norm that drops to 0 there, by midpoints
        solver = sl.CauchySolver(sl.diagonal_operator([3e6]), sl.TimeGrid.uniform(1e-5, 16))

        def norm(r):
            if case == "bisection":
                return 0.75 if r < 3e6 else 0.0
            return sl.assemble_U_V(solver, complex(r)).V_norm

        rs = counting_assemble(monkeypatch, norm)
        w2 = sl.omega2_search(solver)
        assert w2 > 2.0 ** 21 and w2 in rs and norm(w2) < 0.5
        assert any(w2 - 2.0 * math.ulp(w2) <= r < w2 and norm(r) >= 0.5 for r in rs)
        assert len(set(rs)) == len(rs)

    def test_norm_back_at_half_past_the_crossing(self, monkeypatch):
        # with ||V|| = 1/2 exactly at the point the search returns for
        # crossing_at_one, that point no longer has ||V|| < 1/2: the search
        # must move on past it and still end on an evaluated bracket
        solver = SimpleNamespace(T=1.0)
        counting_assemble(monkeypatch, crossing_at_one)
        first = sl.omega2_search(solver)

        def norm(r):
            return 0.5 if r == first else crossing_at_one(r)

        rs = counting_assemble(monkeypatch, norm)
        w2 = sl.omega2_search(solver)
        assert w2 != first and w2 in rs and norm(w2) < 0.5
        assert any(w2 - 2.5e-10 <= r < w2 and norm(r) >= 0.5 for r in rs)
        assert len(set(rs)) == len(rs)

    @pytest.mark.parametrize("offset", [-1e-10, -5e-11, 5e-11, 1e-10])
    def test_midpoint_near_the_crossing_is_evaluated(self, monkeypatch, offset):
        # the crossing moved a little off the point m the search returns for
        # crossing_at_one, to either side of it: omega2 is still the evaluated
        # upper end of a bracket of width <= 2.5e-10 about the moved crossing
        solver = SimpleNamespace(T=1.0)
        counting_assemble(monkeypatch, crossing_at_one)
        m = sl.omega2_search(solver)
        crossing = m + offset

        def norm(r):
            return crossing_at_one(r - (crossing - 1.0))

        rs = counting_assemble(monkeypatch, norm)
        w2 = sl.omega2_search(solver)
        assert w2 in rs and norm(w2) < 0.5
        assert any(w2 - 2.5e-10 <= r < w2 and norm(r) >= 0.5 for r in rs)
        assert crossing - 1e-15 <= w2 <= crossing + 2.5e-10 + 1e-15
        assert len(rs) <= 11 and len(set(rs)) == len(rs)

    @pytest.mark.parametrize("case", ["zero past r = 3", "zero past a jump at r = 1",
                                      "nan at the first secant point", "flat, then a cliff",
                                      "nan at the top end"])
    def test_fallback_gives_the_bisection(self, monkeypatch, case):
        # a norm whose log is undefined where the secant meets it (0 or NaN),
        # or one on which the secant stalls (a slope of 1e-8 up to a drop to
        # 1e-300 at r = 1): the loop takes midpoints from the bracket it holds.
        # Where no secant step can run (0 or NaN at the top end), that is the
        # bisection to the secant's width 2.5e-10
        solver = SimpleNamespace(T=1.0)
        if case == "nan at the first secant point":
            rs = counting_assemble(monkeypatch, crossing_at_one)
            sl.omega2_search(solver)
            first = rs[2]  # after the two end checks

            def norm(r):
                return math.nan if r == first else crossing_at_one(r)
        else:
            norm = {
                "zero past r = 3": lambda r: crossing_at_one(r) if r < 3.0 else 0.0,
                "zero past a jump at r = 1": lambda r: 0.75 if r < 1.0 else 0.0,
                "flat, then a cliff": lambda r: (0.5 * math.exp(1e-8 * (1.0 - r)) if r < 1.0
                                                 else 1e-300),
                "nan at the top end": lambda r: crossing_at_one(r) if r < 64.0 else math.nan,
            }[case]
        rs = counting_assemble(monkeypatch, norm)
        if case in ("zero past a jump at r = 1", "nan at the top end"):
            assert outcome(sl.omega2_search, solver) == outcome(bisection, norm, 1.0, 2.5e-10)
            assert len(rs) == 2 if case == "nan at the top end" else len(rs) > 36
            assert len(set(rs)) == len(rs)
        else:
            assert_bracket(sl.omega2_search(solver), rs, norm, 1.0)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(T=st.sampled_from([1.0, 0.25, 1e-5]), where=st.floats(0.0, 1.0),
           slope=st.floats(-3.0, 3.0), zero_from=st.none() | st.floats(0.0, 1.0),
           holes=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.1)), max_size=3),
           shelves=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.3)), max_size=2))
    def test_bracket_contract_property(self, T, where, slope, zero_from, holes, shelves):
        # ||V_r|| = e^{-s (r - r*)} / 2 (infinite where that overflows) with r* in
        # [1e-6, 64 / T] (log-spaced) and s in [1e-3, 1e3], zero from some point
        # on, NaN on some holes and flat on some shelves (positions as fractions
        # of [0, 64 / T]): the search ends on the evaluated bracket (or 0, or
        # SlowConvergence, from the ends alone) within search_calls(T) calls
        lo, hi = 1e-6, 64.0 / T
        crossing, s = lo * (hi / lo) ** where, 10.0 ** slope

        def smooth(r):
            for start, width in shelves:
                if start * hi <= r < (start + width) * hi:
                    r = start * hi
            x = -s * (r - crossing)
            return 0.5 * math.exp(x) if x < 709.0 else math.inf

        def norm(r):
            assert len(rs) <= search_calls(T), "too many solver calls"
            if zero_from is not None and r >= zero_from * hi:
                return 0.0
            if any(start * hi <= r < (start + width) * hi for start, width in holes):
                return math.nan
            return smooth(r)

        with pytest.MonkeyPatch.context() as mp:
            rs = counting_assemble(mp, norm)
            w2 = outcome(sl.omega2_search, SimpleNamespace(T=T))
            if norm(lo) < 0.5:
                assert w2 == 0.0 and rs == [lo]
            elif not norm(hi) < 0.5:
                assert w2 is SlowConvergence and rs == [lo, hi]
            else:
                assert_bracket(w2, rs, norm, T)


def search_calls(T):
    """The most solver calls omega2_search may make at horizon T: the two
    ends, 60 secant steps and the midpoints of a bisection of [1e-6, 64 / T]
    to width 2.5e-10, one more for rounding."""
    return 3 + 60 + math.ceil(math.log2(64.0 / T / 2.5e-10))


def assert_bracket(w2, rs, norm, T):
    """omega2 = w2 is the evaluated upper end b of a bracket [a, b] of width
    <= 2.5e-10 (two ulps of b where that is wider) with ||V_a|| = norm(a) not
    below 1/2 and ||V_b|| < 1/2, among the points rs the search evaluated:
    none of them twice, and no more than search_calls(T)."""
    assert w2 in rs and norm(w2) < 0.5
    width = max(2.5e-10, 2.0 * math.ulp(w2))
    assert any(w2 - width <= r < w2 and not norm(r) < 0.5 for r in rs)
    assert len(set(rs)) == len(rs) <= search_calls(T)


def closed_form_vnorm(lams, r, T):
    """||V_r|| of a normal operator with eigenvalues lams in the euclidean norm:
    |c| max_k |(e^{lam_k T} - e^{-rT}) / (lam_k + r)| with
    c = 2r e^{-rT} / (1 - e^{-2rT}), that is, with z = lam_k + r,
    2r / (1 - e^{-2rT}) max_k |e^{(lam_k - r) T} - e^{-2rT}| / |z|. No e^{rT}
    is formed, so nothing overflows at large rT; where |zT| <= 1 the
    difference is taken as e^{-2rT} expm1(zT), free of cancellation."""
    z = np.asarray(lams, dtype=complex) + r
    tail = math.exp(-2.0 * r * T)
    small = np.abs(z * T) <= 1.0
    zs, zf = np.where(small, z, 1.0), np.where(small, 1.0, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(zs == 0, T, np.expm1(zs * T) / zs)
    gap = np.where(small, tail * phi, (np.exp((z - 2.0 * r) * T) - tail) / zf)
    return 2.0 * r / -math.expm1(-2.0 * r * T) * float(np.max(np.abs(gap)))


class TestOmega2ClosedForm:
    # on normal operators omega2 lies within the secant's 2.5e-10 width above
    # the exact crossing of ||V_r|| = 1/2 (brentq on the closed form); the
    # 1e-12 slack covers the lab's error in ||V_r||
    MAKERS = {
        "diag4": lambda: sl.diagonal_operator([-1.0, -2.5, -4.0, -7.0]),
        "normal16": lambda: sl.random_normal_operator(16, seed=3),
        "normal64": lambda: sl.random_normal_operator(64, seed=1),
    }

    @pytest.mark.parametrize("name, T", [("diag4", 1.0), ("diag4", 0.5), ("normal16", 0.5),
                                         ("normal64", 1.0), ("normal64", 0.5)])
    def test_within_the_bracket_above_the_crossing(self, name, T):
        op = self.MAKERS[name]()
        lams = op.eigenvalues
        w2 = sl.omega2_search(sl.CauchySolver(op, sl.TimeGrid.uniform(T, 16)))
        exact = scipy.optimize.brentq(lambda r: closed_form_vnorm(lams, r, T) - 0.5,
                                      1e-6, 64.0 / T, xtol=1e-15)
        assert -1e-12 <= w2 - exact <= 2.5e-10 + 1e-12

    @pytest.mark.parametrize("T", [1.0, 23.0])
    @pytest.mark.parametrize("name", ["diag4", "normal16"])
    def test_vnorm_past_the_overflow_of_e_mu_T(self, name, T):
        # Re mu T up to 1200, beyond log(max double) ~ 709.8 and below the
        # 4096-panel cap: ||V_r|| agrees with the closed form, or both are tiny
        op = self.MAKERS[name]()
        solver = sl.CauchySolver(op, sl.TimeGrid.uniform(T, 16))
        for rT in (1.0, 700.0, 710.0, 736.0, 1000.0, 1200.0):
            got = sl.assemble_U_V(solver, rT / T).V_norm
            exact = closed_form_vnorm(op.eigenvalues, rT / T, T)
            assert math.isfinite(exact), rT
            assert (got == pytest.approx(exact, rel=1e-10, abs=0)
                    or (got < 1e-300 and exact < 1e-300)), (rT, got, exact)


class TestAprioriInequality:
    def test_scalar_independent_evaluation(self, grid, scalar_minus_one):
        # A = -1, mu = 2, x = 1, M_hat = 1.5: sides recomputed from scratch
        mu, M_hat = 2.0, 1.5
        lhs, rhs, ok = sl.maxreg_inequality_check(scalar_minus_one, grid, mu, np.array([1.0]), M_hat)
        sup = np.max(np.exp(mu * grid.nodes).real)
        n0, n1 = 1.0, 2.0
        assert lhs == pytest.approx(sup * (n1 + mu * n0), rel=1e-10)
        assert rhs == pytest.approx(M_hat * (sup * abs(mu + 1.0) + n1), rel=1e-10)
        assert ok == (lhs <= rhs * (1 + 1e-9))

    def test_nonpositive_re_mu_sup_is_one(self, grid, diag_12, rng):
        x = random_vector(rng, 2)
        mu = -2.0 + 1.0j
        lhs, _, _ = sl.maxreg_inequality_check(diag_12, grid, mu, x, 10.0)
        assert lhs == pytest.approx(diag_12.norm1(x) + abs(mu) * diag_12.norm0(x),
                                    rel=1e-12)

    @pytest.mark.parametrize("mu", [1000.0, 800.0 + 3.0j])
    @pytest.mark.parametrize("sigma", [1.0, 0.5])
    def test_overflow_fails_closed(self, grid, diag_12, rng, mu, sigma):
        # sup_t e^{Re mu t} overflows: both sides are inf, which proves nothing
        with np.errstate(over="ignore", invalid="ignore"):  # as the CLI runs it
            lhs, rhs, ok = sl.maxreg_inequality_check(diag_12, grid, mu, random_vector(rng, 2),
                                                      2.0, sigma)
        assert lhs == rhs == math.inf and not ok

    def test_nonfinite_side_fails(self, grid, diag_12):
        x = np.array([1.0, 0.0])
        assert sl.maxreg_inequality_check(diag_12, grid, 1.0, x, 2.0)[2]
        assert not sl.maxreg_inequality_check(diag_12, grid, 1.0, x, math.inf)[2]  # rhs inf
        assert not sl.maxreg_inequality_check(diag_12, grid, 1.0, x, math.nan)[2]

    def test_eigenvector_exact_distance(self, grid, diag_12):
        x = np.array([1.0, 0.0])  # eigenvector for lambda = -1
        mu = 3.0 + 1.0j
        assert diag_12.norm0(mu * x - diag_12.matrix @ x) == pytest.approx(
            abs(mu + 1.0), rel=1e-14)


class TestScansAndVerdict:
    def test_resolvent_asymptotics(self, corpus):
        # (1+mu) ||(mu-A)^{-1}|| -> 1 as real mu -> infinity
        for op in corpus.values():
            mu = 1e6
            assert (1 + mu) * op.resolvent_norm(mu) == pytest.approx(1.0, rel=1e-4)

    def test_scan_requires_half_plane(self, diag_12):
        # a NaN real part compares false against omega, so it is refused on its own
        for mus in ([0.5 + 1.0j], [2.0, complex(np.nan, 0.0)], [2.0, complex(np.inf, 1.0)]):
            with pytest.raises(ConfigError):
                sl.halfplane_scan(diag_12, 1.0, mus)

    def test_default_grid_clears_omega(self):
        # the 5 x 21 box is kept below omega + 0.5 = 1e3 and moves up from there on
        for omega in (0.0, 3.25, 999.0, 999.5, 2000.0 + 1e-9, 1e6):
            mus = [m for m, _ in sl.halfplane_scan(sl.diagonal_operator([omega, -1.0]), omega).scan]
            assert len(mus) == 105
            assert min(m.real for m in mus) == pytest.approx(omega + 0.5)
            if omega + 0.5 < 1e3:
                assert mus == mu_box(omega + 0.5, 1e3, 5, -1e2, 1e2, 21)
            else:
                assert max(m.real for m in mus) == pytest.approx(10.0 * (omega + 0.5))

    @pytest.mark.parametrize("diag", [[-50.0], [-1000.0, -2000.0]], ids=["diag50", "diag1000"])
    def test_far_left_spectrum_keeps_the_box_constant(self, diag):
        # N = max (1 + |mu|) / dist(mu, spectrum) over the box; it sits on the
        # rows right of Re mu = 0.5, and the first row alone, the line cut at
        # |Im mu| <= 100, reads less (0.902 against 0.954, 0.100 against 0.502)
        op = sl.diagonal_operator(diag)
        box = mu_box(0.5, 1e3, 5, -1e2, 1e2, 21)
        exact = max((1.0 + abs(m)) / min(abs(m - lam) for lam in diag) for m in box)
        rep = sl.halfplane_scan(op, 0.0)
        assert rep.bound_constant == pytest.approx(exact, rel=1e-12)
        assert sl.halfplane_scan(op, 0.0, box[:21]).bound_constant < 0.95 * exact

    # s(A) < 0 on all of them, so omega = 0
    LINE_MAKERS = {
        "diag4": lambda e0: sl.diagonal_operator([-1.0, -2.5, -4.0, -7.0], e0_norm=e0),
        "diag50": lambda e0: sl.diagonal_operator([-50.0], e0_norm=e0),
        "diag1000": lambda e0: sl.diagonal_operator([-1000.0, -2000.0], e0_norm=e0),
        "lap64": lambda e0: sl.laplacian_1d(64, e0_norm=e0),
        "jordan8": lambda e0: sl.jordan_block(-2.0, 8, e0_norm=e0),
        "jordan8-half": lambda e0: sl.jordan_block(-0.5, 8, e0_norm=e0),
        "normal16": lambda e0: sl.random_normal_operator(16, seed=3, e0_norm=e0),
    }

    @pytest.mark.parametrize("e0_norm", ["euclidean", "sup"])
    @pytest.mark.parametrize("name", sorted(LINE_MAKERS))
    def test_halfplane_sup_lies_on_the_line(self, name, e0_norm):
        # Phragmen-Lindelof: (1 + |mu|) ||R(mu)|| on {Re mu >= omega + 0.5} is at
        # most its sup on the whole line. The line runs to |beta| = 1e4: lap64's
        # line maximum sits near beta = 107, and diag50's and diag1000's further
        # out, all outside the box's [-100, 100]
        op = self.LINE_MAKERS[name](e0_norm)
        omega = max(0.0, op.spectral_bound + 1e-9)
        box = sl.halfplane_scan(op, omega, mu_box(omega + 0.5, 1e3, 15, -1e2, 1e2, 201))
        far = np.geomspace(200.0, 1e4, 100)[1:]
        betas = np.concatenate([-far[::-1], np.linspace(-200.0, 200.0, 401), far])
        line = sl.halfplane_scan(op, omega, [complex(omega + 0.5, b) for b in betas])
        assert box.bound_constant <= line.bound_constant

    def test_empty_axis_fails_closed(self, diag_12):
        verdict = sl.rplus_verdict(diag_12, scan_imag_axis=[])
        assert verdict.uniform_bound == np.inf and not verdict.passed

    def test_scan_records_singular_points(self):
        op = sl.diagonal_operator([1.0])  # unstable: eigenvalue at +1
        rep = sl.halfplane_scan(op, 0.0, [1.0 + 0.0j, 2.0 + 0.0j])
        assert np.isinf(rep.bound_constant)
        assert rep.scan == [(1.0 + 0j, np.inf), (2.0 + 0j, 1.0)]

    def test_verdict_examples(self, diag_12):
        good = sl.rplus_verdict(diag_12)
        assert good.s_A == -1.0 and good.passed
        bad = sl.rplus_verdict(sl.diagonal_operator([0.0, -1.0]))
        assert bad.s_A == 0.0 and not bad.passed
        assert bad.singular_betas == [0.0] and bad.uniform_bound == np.inf

    def test_vnorm_decay_to_zero(self, scalar_minus_one):
        Ts = [2.0**k for k in range(6)]
        vals = sl.vnorm_decay(scalar_minus_one, 1.0, Ts)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6
        # closed form for A = -1, mu = 1: V(T) = 2T e^{-2T} / (1 - e^{-2T})
        for T, v in zip(Ts, vals):
            exact = 2 * T * np.exp(-2 * T) / (1 - np.exp(-2 * T))
            assert v == pytest.approx(exact, rel=1e-8, abs=1e-12)
