"""Weighted-in-time checks, trace-space upper bounds, and the diagonal
interpolation scale.

The weight is t^{1-sigma} with sigma in (0, 1]; every weighted supremum over J
is one ``TimeGrid.sup``, which at sigma = 1 is the unweighted one, bit for bit.
Every helper that solves takes a CauchySolver and reads the operator and grid
from it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .cauchy import estimate_M
from .errors import ConfigError, NotDiagonal
from .forcing import ExpForcing, ZeroForcing
from .theorem import halfplane_scan, maxreg_inequality_check, mu_box, omega1
from .timegrid import GridFunction, e0_samples, e1_norm_J


@dataclass
class WeightedMaxregCheck:
    lhs: float
    rhs: float
    passed: bool
    endpoint_value: float
    endpoint_bound: float | None
    endpoint_ok: bool | None
    u: GridFunction            # u_mu, whose endpoint value is checked


def weighted_maxreg_check(solver, sigma, mu, x, M_hat, c2_hat=None):
    """Weighted a-priori inequality on the solver's grid plus the endpoint
    estimate T^{1-sigma} ||u_mu(T)||_0 <= c2_hat T^{1-sigma} ||x||_0, where
    u_mu solves the zero-initial-data problem with forcing e^{-mu t}x
    (returned with the check)."""
    op, grid = solver.op, solver.grid
    lhs, rhs, passed = maxreg_inequality_check(op, grid, mu, x, M_hat, sigma)
    f = ExpForcing(mu, x)
    u = solver.solve(f)
    T = grid.T
    endpoint_value = float(T ** (1.0 - sigma) * op.norm0(e0_samples(op, u).values[-1]))
    endpoint_bound = None
    endpoint_ok = None
    if c2_hat is not None:
        endpoint_bound = float(c2_hat * T ** (1.0 - sigma) * op.norm0(f.y))
        endpoint_ok = bool(endpoint_value <= endpoint_bound * (1 + 1e-6))
    return WeightedMaxregCheck(lhs=lhs, rhs=rhs, passed=passed,
                               endpoint_value=endpoint_value,
                               endpoint_bound=endpoint_bound,
                               endpoint_ok=endpoint_ok, u=u)


def trace_norm_upper(solver, x, sigma=1.0):
    """Weighted E1(J)-norm of the orbit t -> e^{tA}x: an upper bound for
    the trace norm inf{||u||_{E1(J)} : u(0) = x}, since the orbit is one
    admissible extension (the true infimum is not computed). The orbit comes
    from one zero-forcing solve on the grid, whose u' is Au, so the bound is
    sup_t t^{1-sigma} (2||Au(t)||_0 + ||u(t)||_0) over the nodes."""
    op = solver.op
    x = op.check_vector(x)
    if op.norm0(x) == 0:
        raise ConfigError("trace norm upper bound requires x != 0")
    return e1_norm_J(op, solver.solve(ZeroForcing(op.dim), x), sigma)


def _scale_probe(probe, w):
    """The probe (p(t) y, x) in the weighted coordinates: (p(t) w y, w x)."""
    f, x = probe
    scaled = copy.copy(f)
    scaled.y = w * f.y
    return scaled, w * np.asarray(x, dtype=complex)


@dataclass
class ThetaSweepRow:
    theta: float
    M_hat: float
    omega1: float
    N: float


def theta_sweep(solver, thetas, probes):
    """M_hat along the diagonal interpolation scale.

    The diagonal operator commutes with the coordinate weights, so the sweep
    rescales the probe data (forcings and initial values) and re-estimates M
    in the weighted coordinates, the probes of every theta in one
    estimate_M call; N is theta-independent for the same reason and
    computed once.
    """
    op = solver.op
    if op.structure != "diagonal":
        raise NotDiagonal(f"theta sweep needs a diagonal operator, got structure={op.structure!r}")
    N = halfplane_scan(op, 0.0, mu_box(0.5, 1e2, 3, -4.0, 4.0, 3)).bound_constant
    lam, n = op.bands[1], len(probes)
    weights = [(1.0 + np.abs(lam)) ** theta for theta in thetas]  # coordinates of E_theta
    scaled = [_scale_probe(pr, w) for w in weights for pr in probes]
    ratios = estimate_M(solver, scaled).ratios if thetas else []
    rows = []
    for i, theta in enumerate(thetas):
        M_hat = float(max(ratios[i * n:(i + 1) * n]))  # estimate_M's M_hat on this theta's probes
        rows.append(ThetaSweepRow(theta=float(theta), M_hat=M_hat, omega1=omega1(M_hat, solver.T),
                                  N=float(N)))
    return rows
