"""Weighted-in-time norms, trace-space upper bounds, and the diagonal
interpolation scale.

The weight is t^{1-sigma} with sigma in (0, 1]; sigma = 1 reproduces the
unweighted norms exactly (the weight array is identically 1, so every
reduction is bit-for-bit). Every helper that solves takes a CauchySolver
and reads the operator and grid from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cauchy import estimate_M
from .errors import ConfigError, NotDiagonal
from .forcing import ExpForcing, PolyForcing, ZeroForcing
from .theorem import halfplane_scan, maxreg_inequality_check, mu_box, omega1, time_weights
from .timegrid import GridFunction


def weighted_norm(op, u, sigma):
    """sup over grid nodes t > 0 of t^{1-sigma} ||u(t)||_0; sigma = 1 gives
    the plain sup norm over all nodes (weight 1 everywhere)."""
    return float(np.max(time_weights(u.grid, sigma) * op.norm0_rows(u.values)))


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
    mu = complex(mu)
    x = op.check_vector(x)
    u = solver.solve(ExpForcing(mu, x))
    T = grid.T
    endpoint_value = float(T ** (1.0 - sigma) * op.norm0(u.values[-1]))
    endpoint_bound = None
    endpoint_ok = None
    if c2_hat is not None:
        endpoint_bound = float(c2_hat * T ** (1.0 - sigma) * op.norm0(x))
        endpoint_ok = bool(endpoint_value <= endpoint_bound * (1 + 1e-6))
    return WeightedMaxregCheck(lhs=lhs, rhs=rhs, passed=passed,
                               endpoint_value=endpoint_value,
                               endpoint_bound=endpoint_bound,
                               endpoint_ok=endpoint_ok, u=u)


def trace_norm_upper(solver, x, sigma=1.0):
    """Weighted E1(J)-norm of the orbit t -> e^{tA}x: an upper bound for
    the trace norm inf{||u||_{E1(J)} : u(0) = x}, since the orbit is one
    admissible extension (the true infimum is not computed). The orbit u
    and Au come from one zero-forcing solve on the grid, and the bound is
    sup_t t^{1-sigma} (2||Au(t)||_0 + ||u(t)||_0) over the nodes."""
    op = solver.op
    x = op.check_vector(x)
    if op.norm0(x) == 0:
        raise ConfigError("trace norm upper bound requires x != 0")
    u = solver.solve(ZeroForcing(op.dim), x)
    graph = 2.0 * op.norm0_rows(u.derivative_values) + op.norm0_rows(u.values)
    return float(np.max(time_weights(u.grid, sigma) * graph))


def _scale_probe(probe, w):
    f, x = probe
    xs = w * np.asarray(x, dtype=complex)
    if isinstance(f, ExpForcing):
        return ExpForcing(f.mu, w * f.y), xs
    if isinstance(f, PolyForcing):
        return PolyForcing(f.coeffs, w * f.y), xs
    if isinstance(f, ZeroForcing):
        return f, xs
    raise ConfigError("theta sweep supports separable probes only")


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
    in the weighted coordinates; N is theta-independent for the same reason
    and computed once.
    """
    op = solver.op
    if op.structure != "diagonal":
        raise NotDiagonal(f"theta sweep needs a diagonal operator, got structure={op.structure!r}")
    N = halfplane_scan(op, 0.0, mu_box(0.5, 1e2, 3, -4.0, 4.0, 3)).bound_constant
    lam = np.diag(op.matrix)
    rows = []
    for theta in thetas:
        w = (1.0 + np.abs(lam)) ** theta  # coordinate weights of E_theta
        scaled = [_scale_probe(pr, w) for pr in probes]
        est = estimate_M(solver, scaled)
        rows.append(ThetaSweepRow(theta=float(theta), M_hat=est.M_hat,
                                  omega1=omega1(est.M_hat, solver.T),
                                  N=float(N)))
    return rows
