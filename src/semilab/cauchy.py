"""Variation-of-parameters solver for u' - Au = f, u(0) = x, on a TimeGrid.

Panels carry Gauss-Legendre nodes; on each panel the forcing is replaced by
its polynomial interpolant at those nodes and the convolution with e^{tA}
is integrated exactly through phi functions. For polynomial forcing and
A = 0 this reduces to the classical panel Gauss-Legendre rule; for stiff
spectra it keeps boundary layers accurate, which the surjectivity-identity
checks need.

Every solve runs through one panel propagator. For a shift s it builds, once
per call and per nominal panel width h (widths within 1e-12 relative share
one), the tables of a panel: the propagators e^{h r (A - s)} from the panel
start to each output point r (the q Gauss nodes and the right edge, or the
right edge alone), the weights that map the q forcing samples to each output
point, and the weights of the integral over the panel. The solver keeps the
unshifted (s = 0) tables for all its solves; a shifted table serves one mu
and is dropped with its call. The forcing terms of a run of panels on one
table are one product. When A is normal the tables are (dim, 1) columns in
the unitary eigenbasis Z of the operator's resolvent factor, from scalar phi
functions, applied elementwise, and W and UT stay EigenMaps; for non-normal
A they are dim x dim matrices, all output points at once by batched Taylor
sums and modified squarings, applied by products.

The solver doubles as the black-box K_A interface of the resolvent
reconstruction: it exposes solutions and solution functionals (panel
integrals and u(T) with its E0 norm, from panel edges only) but never
hands out the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyProbeSet
from .phi import phi_matrices, phi_scalar
from .timegrid import GridFunction, e0_norm_J, e1_norm_J, gauss_legendre_01

# panel width * profile rate above which panels are split, keeping the
# polynomial interpolation error of the forcing profile near 1e-11
_RATE_BUDGET = 0.6


@lru_cache(maxsize=16)
def _lagrange_monomial(q):
    """C[m, p]: coefficient of sigma^p in the m-th Lagrange basis polynomial
    on the Gauss-Legendre nodes of [0, 1]."""
    xi = gauss_legendre_01(q)
    C = np.zeros((q, q))
    for m in range(q):
        poly = np.array([1.0])
        denom = 1.0
        for i in range(q):
            if i != m:
                poly = np.polynomial.polynomial.polymul(poly, np.array([-xi[i], 1.0]))
                denom *= xi[m] - xi[i]
        C[m, : len(poly)] = poly / denom
    return C


class EigenMap:
    """The matrix Z diag(d) Z* (diag(d) when Z is None) of a normal operator's
    solution functional, kept in eigen coordinates: @ applies it in O(dim^2)
    per column (Z* x as conj(Z^T conj(x)), which copies no dim x dim array),
    a scalar * scales d, and np.asarray alone makes it dense."""

    __array_ufunc__ = None  # so c * map with a numpy scalar c defers to __rmul__

    def __init__(self, Z, d):
        self.Z, self.d = Z, d

    def __matmul__(self, x):
        d = self.d.reshape(self.d.shape + (1,) * (np.ndim(x) - 1))
        return d * x if self.Z is None else self.Z @ (d * (self.Z.T @ np.conj(x)).conj())

    def __mul__(self, c):
        return EigenMap(self.Z, c * self.d) if np.ndim(c) == 0 else NotImplemented

    __rmul__ = __mul__

    def __array__(self, dtype=None, copy=None):
        Z = self.Z
        return np.asarray(np.diag(self.d) if Z is None else (Z * self.d) @ Z.conj().T, dtype)

    def __getitem__(self, index):
        return np.asarray(self)[index]


class CauchySolver:
    """Exponential-integrator IVP solver bound to one operator and grid."""

    def __init__(self, op, grid):
        self.op = op
        self.grid = grid
        self._tables = {}

    @property
    def dim(self):
        return self.op.dim

    @property
    def T(self):
        return self.grid.T

    def refined_for(self, rate):
        """Solver on a panel-split grid fine enough for a profile with the
        given exponential/oscillation rate."""
        width = float(np.max(np.diff(self.grid.edges)))
        factor = int(np.ceil(rate * width / _RATE_BUDGET))
        if factor <= 1:
            return self
        return CauchySolver(self.op, self.grid.refined(factor))

    def norm0(self, x):
        return self.op.norm0(x)

    # -- the panel propagator ---------------------------------------------------

    def _panel_tables(self, shift, h, nodes):
        """(P, W, H1, G) for v' = Bv + f, B = A - shift, on a panel of width
        h, with r_j the q Gauss nodes of [0, 1] and then 1 if nodes, else 1
        alone: P[j] = e^{h r_j B}, W[j, m] the weight of the m-th forcing sample
        in v(h r_j), H1 = h phi_1(hB) and G[m] the weight of the m-th forcing
        sample in the integral of v over the panel. Eigen backend: (dim, 1)
        columns; dense backend: dim x dim matrices, W and G flattened to
        (len(r) dim, q dim) and (dim, q dim). Unshifted tables are kept."""
        key = (h, nodes)
        if shift == 0 and key in self._tables:
            return self._tables[key]
        q = self.grid.nodes_per_panel
        xi = gauss_legendre_01(q)
        rs = np.append(xi, 1.0) if nodes else np.ones(1)
        diag = self.op.diagonalization
        if diag is not None:
            # PHI[k, j] = phi_k(h r_j B), shape (q+2, len(rs), dim, 1 | dim)
            PHI = phi_scalar(q + 1, np.multiply.outer(h * rs, diag[1] - shift))[..., None]
        else:
            B = self.op.matrix - shift * np.eye(self.dim)
            PHI = phi_matrices(np.multiply.outer(h * rs, B), q + 1)
        # the interpolant of the samples f_m is sum_p c_p sigma^p with
        # c_p = sum_m C[m, p] f_m, and int_0^{hr} e^{(hr-s)B} (s/h)^p ds
        # = h r^{p+1} p! phi_{p+1}(h r B)
        coef = _lagrange_monomial(q) * np.array([math.factorial(p) for p in range(q)])
        rpow = rs[None, :] ** np.arange(1, q + 1)[:, None]          # r_j^{p+1}
        W = h * np.einsum("mp,pj,pj...->jm...", coef, rpow, PHI[1:q + 1])
        G = (h * h) * np.einsum("mp,p...->m...", coef, PHI[2:, -1])
        if diag is None:
            W = W.transpose(0, 2, 1, 3).reshape(len(rs) * self.dim, q * self.dim)
            G = G.transpose(1, 0, 2).reshape(self.dim, q * self.dim)
        tab = (PHI[0], W, h * PHI[1, -1], G)
        if shift == 0:
            self._tables[key] = tab
        return tab

    def _propagate(self, shift, F, v0, nodes):
        """Node values (panel edges only unless nodes) and integral over [0, T]
        of v' = (A - shift) v + f, v(0) = v0, in backend coordinates. F holds
        the forcing samples at the Gauss nodes, shape (panels, q, dim, cols),
        or (panels, q, 1, 1) for all of v0's entries in the eigen backend."""
        grid = self.grid
        step = grid.nodes_per_panel + 1 if nodes else 1
        eigen = self.op.diagonalization is not None
        apply = np.multiply if eigen else np.matmul
        vals = np.empty((grid.panels * step + 1,) + v0.shape, dtype=complex)
        vals[0] = v0
        integral = np.zeros(v0.shape, dtype=complex)
        widths, tables, k = np.diff(grid.edges).tolist(), {}, 0
        while k < grid.panels:
            h = next((g for g in tables if abs(widths[k] - g) <= 1e-12 * g), widths[k])
            stop = next((i for i in range(k + 1, grid.panels)
                         if abs(widths[i] - h) > 1e-12 * h), grid.panels)
            P, W, H1, G = tables[h] = tables.get(h) or self._panel_tables(shift, h, nodes)
            # out and F[k:stop] are views: B_k goes straight into vals, F is not copied
            out = vals[k * step + 1:stop * step + 1].reshape((stop - k, step) + v0.shape)
            if eigen:
                np.einsum("jm...,km...->kj...", W, F[k:stop], out=out)
                integral += np.einsum("m...,km...->...", G, F[k:stop])
            else:
                np.matmul(W, F[k:stop].reshape(stop - k, G.shape[1], -1),
                          out=out.reshape(stop - k, len(W), -1))
                integral += G @ F[k:stop].sum(axis=0).reshape(G.shape[1], -1)
            for i in range(k, stop):
                vals[i * step + 1:(i + 1) * step + 1] += apply(P, vals[i * step])
            integral += apply(H1, vals[k * step:stop * step:step].sum(axis=0))
            k = stop
        return vals, integral

    # -- public solves ----------------------------------------------------------

    def solve(self, forcing, x0=None):
        """GridFunction solution of u' - Au = f, u(0) = x0, with derivative
        samples filled from u' = Au + f. Steep forcing profiles trigger a
        panel split; the returned GridFunction carries the grid in use."""
        solver = self.refined_for(forcing.rate) if forcing.rate else self
        grid = solver.grid
        x0 = np.zeros(self.dim, dtype=complex) if x0 is None else np.asarray(x0, dtype=complex)
        F = forcing.sample(grid.gl_times.ravel()).reshape(grid.panels, -1, self.dim)
        diag = self.op.diagonalization
        Z = None if diag is None else diag[0]
        if Z is None:  # dense backend, or a diagonal A: no change of basis
            v, _ = solver._propagate(0.0, F[..., None], x0[:, None], nodes=True)
            values = v[..., 0]
        else:
            ZH = Z.conj().T
            v, _ = solver._propagate(0.0, (F @ ZH.T)[..., None], (ZH @ x0)[:, None], nodes=True)
            values = v[..., 0] @ Z.T
        values[0] = x0
        derivative = values @ self.op.matrix.T + forcing.sample(grid.nodes)
        return GridFunction(grid, values, derivative)

    def exp_functionals(self, mu):
        """For the forcing f(t) = e^{-conj(mu) t} (columnwise identity),
        return (W, UT, ut_norm) with W = int_0^T e^{-mu t} u(t) dt and
        UT = u(T), both dim x dim (u(., x) depends linearly on x; EigenMaps
        in the eigen backend), and ut_norm the E0 operator norm of UT.

        Internally solves the tilted system v = e^{-mu t} u, whose forcing
        profile e^{-2 Re mu t} is smooth, so oscillation in mu never meets
        the interpolation. Only panel edges are propagated; Z being unitary,
        the eigen backend's euclidean ut_norm is the largest |eigenvalue| of UT."""
        mu = complex(mu)
        solver = self.refined_for(2.0 * mu.real)
        grid = solver.grid
        profile = np.exp(-2.0 * mu.real * grid.gl_times)[..., None, None]
        eT = np.exp(mu * grid.T)
        diag = self.op.diagonalization
        if diag is None:
            I = np.eye(self.dim, dtype=complex)
            v, w = solver._propagate(mu, profile * I, np.zeros_like(I), nodes=False)
            UT = eT * v[-1]
            return w, UT, self.op.operator_norm(UT)
        # the response to profile(t) I is diagonal in eigen coordinates:
        # one column carries all of it
        v, w = solver._propagate(mu, profile, np.zeros((self.dim, 1), dtype=complex), nodes=False)
        W, UT = EigenMap(diag[0], w[:, 0]), EigenMap(diag[0], eT * v[-1, :, 0])
        euclidean = self.op.e0_norm == "euclidean"
        return W, UT, float(np.max(np.abs(UT.d))) if euclidean else self.op.operator_norm(UT)


@dataclass
class MaxRegEstimate:
    """Probe-based lower estimate of the maximal-regularity constant."""

    M_hat: float
    c2_hat: float
    probe_count: int
    ratios: list


def estimate_M(solver, probes):
    """Lower estimate of M: max over probes of
    ||u||_{E1(J)} / (||f||_{E0(J)} + ||x||_1) with u the solver's solution of
    u' - Au = f, u(0) = x.

    Also accumulates c2_hat = max ||K_A f||_{E1(J)} / ||f||_{E0(J)} over the
    zero-initial-value probes (the solver continuity constant).
    """
    if not probes:
        raise EmptyProbeSet("estimate_M needs at least one probe")
    op = solver.op
    ratios, c2s = [], []
    for f, x in probes:
        u = solver.solve(f, x)
        nf = e0_norm_J(op, GridFunction(u.grid, f.sample(u.grid.nodes)))
        nx1 = op.norm1(x)
        denom = nf + nx1
        if denom == 0:
            raise EmptyProbeSet("degenerate probe: ||f||_E0 + ||x||_1 = 0")
        e1 = e1_norm_J(op, u)
        ratios.append(e1 / denom)
        c2s.append(e1 / nf if (nf > 0 and nx1 == 0) else 0.0)
    return MaxRegEstimate(M_hat=float(max(ratios)), c2_hat=float(max(c2s, default=0.0)),
                          probe_count=len(probes), ratios=ratios)

