"""Acceptance suite: one test per criterion, at the stated tolerances."""

import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import semilab as sl
from semilab.cli import main

from conftest import random_vector


@pytest.fixture(scope="module")
def acceptance_grid():
    return sl.TimeGrid.uniform(1.0, panels=16, nodes_per_panel=8)


MU_GRID_25 = [complex(r, i)
              for r in np.logspace(np.log10(0.5), np.log10(32), 5)
              for i in np.linspace(-16, 16, 5)]


def test_criterion_1_surjectivity_identity(corpus, acceptance_grid, rng):
    t0 = time.monotonic()
    worst = 0.0
    for name, op in corpus.items():
        solver = sl.CauchySolver(op, acceptance_grid)
        x = random_vector(rng, op.dim)
        for mu in MU_GRID_25:
            sd = sl.assemble_U_V(solver, mu)
            res = sl.surjectivity_identity_check(op, sd, x)
            assert res <= 1e-8, (name, mu, res)
            worst = max(worst, res)
    assert time.monotonic() - t0 < 60.0
    assert worst <= 1e-8


def test_criterion_2_blackbox_reconstruction(corpus, acceptance_grid, rng):
    for name, op in corpus.items():
        solver = sl.CauchySolver(op, acceptance_grid)
        w2 = sl.omega2_search(solver)
        y = random_vector(rng, op.dim)
        for re in (w2 + 0.5, w2 + 2.0, w2 + 8.0):
            for im in (0.0, 4.0):
                mu = complex(re, im)
                sd = sl.assemble_U_V(solver, mu)
                x = sl.resolvent_from_solver(solver, mu, y, sdata=sd)
                err = op.norm0(x - op.resolvent_solve(mu, y)) / op.norm0(y)
                assert err <= 1e-6, (name, mu, err)
                if sd.V_norm <= 0.5:
                    assert sd.neumann_terms <= 60


def test_criterion_3_scalar_closed_forms(acceptance_grid):
    op = sl.diagonal_operator([0.0])
    solver = sl.CauchySolver(op, acceptance_grid)
    for mu in (0.5, 1.0, np.log(3.0), 4.0):
        sd = sl.assemble_U_V(solver, mu)
        assert abs(np.asarray(sd.U)[0, 0] - (1 - np.exp(-mu)) ** 2 / mu) <= 1e-10
        assert abs(np.asarray(sd.V)[0, 0] - 2 * np.exp(-mu) / (1 + np.exp(-mu))) <= 1e-10
    sd = sl.assemble_U_V(solver, np.log(3.0))
    assert abs(sd.V_norm - 0.5) <= 1e-10


def test_criterion_4_resolvent_bound_scan():
    # oracle first: independent 1-D maximization of (1+b)/sqrt(1+b^2)
    res = minimize_scalar(lambda b: -(1 + b) / np.sqrt(1 + b * b),
                          bounds=(0.0, 10.0), method="bounded",
                          options={"xatol": 1e-12})
    oracle = -res.fun
    assert oracle == pytest.approx(np.sqrt(2.0), abs=1e-9)

    op = sl.diagonal_operator([-1.0])
    eps = 1e-8
    betas = np.concatenate([np.linspace(0.0, 4.0, 401),
                            np.linspace(0.99, 1.01, 2001)])
    mu_grid = [complex(eps, b) for b in betas]
    rep = sl.halfplane_scan(op, 0.0, mu_grid)
    assert rep.bound_constant == pytest.approx(oracle, abs=1e-6)


def test_criterion_5_omega1_formulas():
    for M_hat, T, sigma in [(2.0, 1.0, 1.0), (5.0, 2.0, 1.0),
                            (2.0, 1.0, 0.5), (3.0, 0.5, 0.25)]:
        ts = np.linspace(1e-12, T, 10_000)
        w1 = sl.omega1(M_hat, T)
        sup = np.max(np.exp(w1 * ts))
        assert sup == pytest.approx(max(2 * M_hat, 1.0), rel=1e-6)
        w1w = sl.omega1_weighted(M_hat, T, sigma)
        supw = np.max(ts ** (1 - sigma) * np.exp(w1w * ts))
        assert supw == pytest.approx(max(2 * M_hat, T ** (1 - sigma)), rel=1e-6)


def test_criterion_6_final_verdict(acceptance_grid):
    assert sl.rplus_verdict(sl.diagonal_operator([-1.0, -2.0])).passed
    assert not sl.rplus_verdict(sl.diagonal_operator([0.0, -1.0])).passed
    Ts = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    vals = sl.vnorm_decay(sl.diagonal_operator([-1.0]), 1.0, Ts)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-6


def test_criterion_7_contour_semigroup(rng):
    fixtures = [sl.diagonal_operator([-1.0, -2.0]), sl.laplacian_1d(64),
                sl.laplacian_1d(256)]
    for op in fixtures:
        x = random_vector(rng, op.dim)
        for t in (0.01, 0.1, 1.0):
            exact = op.semigroup_apply_oracle(t, x)
            errs = {}
            for n in (32, 64):
                c = sl.build_contour(op, t, node_count=n)
                r = sl.semigroup_apply_contour(op, c, t, x)
                errs[n] = op.norm0(r.value - exact) / op.norm0(exact)
            assert errs[32] <= 1e-8, (op.dim, t, errs)
            assert errs[64] <= errs[32] / 10.0, (op.dim, t, errs)


def test_criterion_8_sigma_one_bitwise(acceptance_grid, corpus, rng):
    grid = acceptance_grid
    for op in (corpus["diag"], corpus["lap16"]):
        u = sl.CauchySolver(op, grid).solve(
            sl.ExpForcing(1.0, random_vector(rng, op.dim)))
        wn = sl.e0_norm_J(op, u, 1.0)
        assert wn == sl.e0_norm_J(op, u)

        x = random_vector(rng, op.dim)
        mu, M_hat = 1.5 + 0.5j, 2.0
        chk = sl.weighted_maxreg_check(sl.CauchySolver(op, grid), 1.0, mu, x, M_hat)
        assert (chk.lhs, chk.rhs, chk.passed) == sl.maxreg_inequality_check(op, grid, mu, x, M_hat)

    for M_hat, T in [(1.5, 1.0), (4.0, 2.0), (0.4, 0.25)]:
        assert sl.omega1_weighted(M_hat, T, 1.0) == sl.omega1(M_hat, T)


def test_criterion_9_determinism(tmp_path):
    opf = tmp_path / "diag.op"
    opf.write_text("matrix=diag -1,-2\n")
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["identity-check", "--operator", str(opf),
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        blobs.append(((out / "report.json").read_bytes(), (out / "identity.csv").read_bytes()))
    assert blobs[0] == blobs[1]
