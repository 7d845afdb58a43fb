"""From maximal regularity to resolvent bounds, as executable checks.

Stage 1: the a-priori inequality and the shift threshold omega_1.
Stage 2: U_mu / V_mu assembled from a black-box zero-initial-data solver,
the surjectivity identity, and the Neumann-series resolvent reconstruction
with threshold omega_2.
Stage 3: spectral-bound verdict from an imaginary-axis resolvent scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cauchy import CauchySolver
from .errors import (
    ConfigError,
    DegenerateReMu,
    NeumannDivergence,
    NonpositiveM,
    SlowConvergence,
)
from .timegrid import TimeGrid

# resolvent_from_solver sums the n = ceil(log NEUMANN_TOL / log ||V_mu||) Neumann
# terms that bound the remainder by NEUMANN_TOL ||y|| and refuses a series that
# needs more than NEUMANN_MAX_TERMS; omega2_search brackets the crossing of
# ||V_mu|| = 1/2 in [OMEGA2_TOL, 64 / T] to width CROSSING_TOL (or two ulps, _width)
# in one loop: a secant step, at most CROSSING_MAX_STEPS of them, or else the midpoint
_NEUMANN_TOL, _NEUMANN_MAX_TERMS, _OMEGA2_TOL = 1e-12, 200, 1e-6
_CROSSING_TOL, _CROSSING_MAX_STEPS = 2.5e-10, 60


# -- a-priori inequality -------------------------------------------------------------------


def maxreg_inequality_check(op, grid, mu, x, M_hat, sigma=1.0):
    """Both sides of the a-priori inequality (weighted when sigma < 1):

      sup_t t^{1-sigma} e^{Re mu t} (||x||_1 + |mu| ||x||_0)
        <= M (sup_t t^{1-sigma} e^{Re mu t} ||(mu-A)x||_0 + ||x||_1).

    M_hat is a lower estimate of M, so a failure here calls for probe
    enrichment, not a refutation of the theorem. A side that is not finite
    (an overflowed weight e^{Re mu t}) fails the check: inf <= inf proves nothing.
    """
    mu = complex(mu)
    x = op.check_vector(x)
    sup_w = grid.sup(np.exp(mu.real * grid.nodes), sigma)
    n0, n1 = op.norm0(x), op.norm1(x)
    lhs = sup_w * (n1 + abs(mu) * n0)
    rhs = M_hat * (sup_w * op.norm0(mu * x - op.apply(x)) + n1)
    return lhs, rhs, bool(math.isfinite(lhs) and math.isfinite(rhs) and lhs <= rhs * (1 + 1e-9))


def omega1_weighted(M_hat, T, sigma):
    """Smallest omega_1 >= 0 with 2M <= sup_{(0,T]} t^{1-sigma} e^{omega_1 t};
    for omega_1 >= 0 the sup is T^{1-sigma} e^{omega_1 T}."""
    if M_hat <= 0:
        raise NonpositiveM(f"M_hat={M_hat}")
    if not 0.0 < sigma <= 1.0:
        raise ConfigError(f"sigma={sigma} outside (0, 1]")
    return max(0.0, (math.log(2.0 * M_hat) - (1.0 - sigma) * math.log(T)) / T)


def omega1(M_hat, T):
    """Unweighted threshold: 2M <= sup_{[0,T]} e^{omega_1 t}."""
    return omega1_weighted(M_hat, T, 1.0)


# -- surjectivity machinery -------------------------------------------------------------------


@dataclass
class SurjectivityData:
    """U_mu, V_mu (EigenMaps on a normal A) and the surjectivity constants."""

    mu: complex
    T: float
    U: np.ndarray
    V: np.ndarray
    V_norm: float
    damping: float              # 1 - e^{-2 Re mu T}
    neumann_terms: int = 0


def assemble_U_V(solver, mu):
    """Assemble U_mu and V_mu from the black-box solver:

      U_mu x = 2 Re mu * int_0^T e^{-mu t} u(t, x) dt,
      V_mu x = 2 Re mu / (1 - e^{-2 Re mu T}) * e^{-mu T} u(T, x),

    with u(., x) the zero-initial-data solution for f(t) = e^{-conj(mu) t}x.
    Both are real multiples of the solver's tilted functionals (W and
    VT = e^{-mu T} u(T)), so ||V_mu|| is that multiple times VT's E0 norm.
    """
    mu, damping = _damping(complex(mu), solver.T)
    return _surjectivity_data(mu, solver.T, damping, solver.exp_functionals(mu))


def assemble_U_V_batch(solver, mus):
    """[assemble_U_V(solver, mu) for mu in mus] from one
    CauchySolver.exp_functionals_batch call. Every mu is checked before any
    solve; DegenerateReMu names the first bad one."""
    checked = [_damping(complex(mu), solver.T) for mu in mus]
    functionals = solver.exp_functionals_batch([mu for mu, _ in checked])
    return [_surjectivity_data(mu, solver.T, damping, f)
            for (mu, damping), f in zip(checked, functionals)]


def _damping(mu, T):
    """(mu, 1 - e^{-2 Re mu T}); DegenerateReMu unless Re mu > 0 and that is nonzero."""
    if mu.real <= 0:
        raise DegenerateReMu(f"Re mu = {mu.real} must be positive")
    damping = 1.0 - math.exp(-2.0 * mu.real * T)
    if damping == 0:
        raise DegenerateReMu(f"1 - exp(-2 Re mu T) rounds to 0 at Re mu = {mu.real}, T = {T}")
    return mu, damping


def _surjectivity_data(mu, T, damping, functionals):
    W, VT, vt_norm = functionals
    c = 2.0 * mu.real / damping
    return SurjectivityData(mu=mu, T=T, U=2.0 * mu.real * W, V=c * VT,
                            V_norm=float(c * vt_norm), damping=damping)


def surjectivity_identity_check(op, sdata, x):
    """Relative residual of (mu - A) U_mu x = (1 - e^{-2 Re mu T})(I - V_mu) x."""
    x = op.check_vector(x)
    nx = op.norm0(x)
    if nx == 0:
        return 0.0
    Ux = sdata.U @ x
    lhs = sdata.mu * Ux - op.apply(Ux)
    rhs = sdata.damping * (x - sdata.V @ x)
    return float(op.norm0(lhs - rhs) / nx)


def resolvent_from_solver(solver, mu, y, sdata=None):
    """Solve (mu - A)x = y using only the black-box solver: Neumann series
    x = U_mu (1 - e^{-2 Re mu T})^{-1} sum_k V_mu^k y."""
    if sdata is None:
        sdata = assemble_U_V(solver, mu)
    if not sdata.V_norm < 1.0:
        raise NeumannDivergence(
            f"||V_mu|| = {sdata.V_norm:.3f} >= 1; Re mu is below omega_2")
    # ||V^n y|| <= ||V_mu||^n ||y|| <= NEUMANN_TOL ||y|| fixes the length n
    n = 1
    if sdata.V_norm > 0.0:
        n = max(1, math.ceil(math.log(_NEUMANN_TOL) / math.log(sdata.V_norm)))
    if n > _NEUMANN_MAX_TERMS:
        raise SlowConvergence(
            f"||V_mu|| = {sdata.V_norm:.3f} needs > {_NEUMANN_MAX_TERMS} Neumann terms")
    total = term = np.asarray(y, dtype=complex)
    for _ in range(n - 1):
        term = sdata.V @ term
        total = total + term
    sdata.neumann_terms = n
    return sdata.U @ total / sdata.damping


def omega2_search(solver):
    """Sharp numerical threshold omega_2: smallest real part above which
    ||V_mu|| < 1/2, from about 9 solver calls. It is the upper end b of a
    bracket [a, b] in [1e-6, 64 / T] of width at most 2.5e-10 (two ulps of b
    from b = 2^20 on, where the doubles are coarser) with ||V_a|| not below
    1/2 and ||V_b|| < 1/2, both evaluated. One loop closes it (Dekker 1969
    and Brent 1973, ch. 4, for such safeguarded secants): regula falsi on
    log(2 ||V||), with an end kept twice in a row scaled down as Anderson and
    Bjorck do (BIT 12, 1972), while both ends' logs are defined (the norm
    neither 0, infinite nor NaN) and fewer than 60 such steps have run, else
    the midpoint. The new point c replaces b where ||V_c|| < 1/2 and a
    otherwise, a NaN norm included. It is 0 where ||V_mu|| < 1/2 already at
    1e-6, and SlowConvergence is raised where that fails at 64 / T, a NaN
    norm included. No point is evaluated twice."""

    def v(r):
        return assemble_U_V(solver, complex(r)).V_norm

    def g(x):
        return math.log(2.0 * x) if 0.0 < x < math.inf else None

    a, b = _OMEGA2_TOL, 64.0 / solver.T
    va = v(a)
    if va < 0.5:
        return 0.0
    vb = v(b)
    if not vb < 0.5:  # also refuses a NaN norm
        raise SlowConvergence(f"||V_mu|| < 1/2 fails even at Re mu = {b}")
    ga, gb, kept, steps = g(va), g(vb), 0, 0  # kept: the end the last step kept, -1 for a
    while b - a > _width(b):
        secant = ga is not None and gb is not None and steps < _CROSSING_MAX_STEPS
        steps += secant
        # at least half the width inside, so a converged end closes the bracket
        half = 0.5 * _width(b)
        c = min(max(b - gb * (b - a) / (gb - ga), a + half), b - half) if secant else 0.5 * (a + b)
        vc = v(c)
        gc = g(vc)
        scale = secant and gc is not None  # a midpoint or an undefined log scales no end
        if vc < 0.5:
            if scale:
                m = 1.0 - gc / gb
                ga *= (m if m > 0.0 else 0.5) if kept < 0 else 1.0
            b, gb, kept = c, gc, -1
        else:
            if scale:
                m = 1.0 - gc / ga if ga else 0.5
                gb *= (m if m > 0.0 else 0.5) if kept > 0 else 1.0
            a, ga, kept = c, gc, 1
    return b


def _width(b):
    """_CROSSING_TOL, or two ulps of b where that is wider (from b = 2^20 on):
    a bracket wider than this has a double inside, so the loop ends."""
    return max(_CROSSING_TOL, 2.0 * math.ulp(b))


def vnorm_decay(op, mu, T_values, panels=16):
    """||V_mu|| for a sequence of horizons T (should decay to 0)."""
    return [assemble_U_V(CauchySolver(op, TimeGrid.uniform(T, panels)), mu).V_norm
            for T in T_values]


# -- half-plane scan and final verdict -------------------------------------------------


def mu_box(re_lo, re_hi, n_re, im_lo, im_hi, n_im):
    """n_re log-spaced real parts in [re_lo, re_hi] times n_im linear
    imaginary parts in [im_lo, im_hi], real part outermost."""
    return [complex(r, i)
            for r in np.logspace(np.log10(re_lo), np.log10(re_hi), n_re)
            for i in np.linspace(im_lo, im_hi, n_im)]


@dataclass
class HalfPlaneScan:
    scan: list                  # (mu, resolvent_norm) pairs
    bound_constant: float       # N with ||R(mu)|| <= N/(1+|mu|)


def _scan(op, mus):
    """||(mu - A)^{-1}|| at each mu, from one OperatorPair.resolvent_norms call
    (inf where mu - A is singular), and the constant
    N = max (1 + |mu|) ||(mu - A)^{-1}||, inf over no points."""
    scan = [(mu, float(r)) for mu, r in zip(mus, op.resolvent_norms(mus))]
    weighted = [(1.0 + abs(m)) * r for m, r in scan]
    return HalfPlaneScan(scan=scan, bound_constant=float(max(weighted, default=math.inf)))


def halfplane_scan(op, omega, mu_grid=None):
    """Resolvent norms over a grid in {Re mu > omega} and the constant
    N = max (1 + |mu|) ||(mu - A)^{-1}||. Singular grid points are recorded
    with infinite norm and the scan continues. A point whose real part is not
    finite (an overflowed grid, a NaN omega) is refused like one at or left of
    omega.

    The default grid is mu_box from omega + 0.5 to 1e3 (5 points) by -1e2 to
    1e2 (21 points), its real parts reaching 10 (omega + 0.5) from omega + 0.5
    >= 1e3 on. Its first row alone, the line Re mu = omega + 0.5 cut at
    |Im mu| <= 100, reads a smaller N on a spectrum far left (diag -50)."""
    if mu_grid is None:
        re_lo = omega + 0.5
        mu_grid = mu_box(re_lo, 1e3 if re_lo < 1e3 else 10.0 * re_lo, 5, -1e2, 1e2, 21)
    mu_grid = [complex(m) for m in mu_grid]
    if not all(math.isfinite(m.real) and m.real > omega for m in mu_grid):
        raise ConfigError("all scan points must satisfy omega < Re mu < inf")
    return _scan(op, mu_grid)


@dataclass
class RPlusVerdict:
    s_A: float
    uniform_bound: float
    passed: bool
    singular_betas: list = field(default_factory=list)


def rplus_verdict(op, scan_imag_axis=None):
    """Final verdict: s(A) < 0 and a finite uniform bound
    (1 + |beta|) ||(i beta - A)^{-1}|| along the imaginary axis (inf if empty)."""
    if scan_imag_axis is None:
        pos = np.logspace(-2, 3, 41)
        scan_imag_axis = np.concatenate([-pos[::-1], [0.0], pos])
    rep = _scan(op, [1j * beta for beta in scan_imag_axis])
    singular = [float(b) for b, (_, r) in zip(scan_imag_axis, rep.scan) if math.isinf(r)]
    s_A = op.spectral_bound
    return RPlusVerdict(s_A=float(s_A), uniform_bound=rep.bound_constant, singular_betas=singular,
                        passed=bool(s_A < 0 and math.isfinite(rep.bound_constant)))
