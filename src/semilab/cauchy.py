"""Variation-of-parameters solver for u' - Au = f, u(0) = x, on a TimeGrid.

Panels carry Gauss-Legendre nodes; on each panel the forcing is replaced by
its polynomial interpolant at those nodes and the convolution with e^{tA}
is integrated exactly through phi functions. For polynomial forcing and
A = 0 this reduces to the classical panel Gauss-Legendre rule; for stiff
spectra it keeps boundary layers accurate, which the surjectivity-identity
checks need.

Every solve runs through one panel propagator, and its tables serve the
solves alone. Per nominal panel width h (widths within 1e-12 relative share
one) the solver builds once, and keeps, the tables of a panel: the
propagators e^{h r A} from the panel start to each output point r (the q
Gauss nodes and the right edge), the weights that map the q forcing samples
to each output point, and the weights of the integral over the panel. The
runs of panels on one nominal width are found once per solver. When A is
normal the tables are (dim, 1) columns in the eigen coordinates of the
operator's resolvent factor, an EigenMap (a stored unitary basis Z, or the
DST-I sine basis of a SineMap, applied by FFT, for a large Laplacian), from
scalar phi functions, applied elementwise; for non-normal A they are
dim x dim matrices, all output points at once by batched Taylor sums and
modified squarings, applied by products. On either backend a table's
weights are BLAS products on the float view of its phi rows: one batched
product with the (q x q) coefficient matrix, its powers of r folded in per
output point, makes W, and one product makes G.

Every solve's forcing is a scalar profile p(t) times a fixed block y, with
y mapped into eigen coordinates once. The panel rule is exact for such a
forcing with polynomial p (Hochbruck & Ostermann, Acta Numer. 19, 2010), so
this one form loses nothing. The propagator multiplies each table's weights
by y once, so on either backend a run's forcing terms are one BLAS product
of the run's (run, q) profile block with the (q, rest) weights, and no
dim x dim forcing sample per node is formed. Every solve comes back in the
coordinates it was propagated in (_Solution): v = Z* u when the normal
factor has a basis Z other than I, u itself otherwise. Z is reached only
through the factor's methods (apply, adjoint, rows, column, with_values).

The panel edges of a run follow e_{i+1} = P e_i + b_i, with P the table's
propagator to the right edge and b_i the forcing term. The eigen backend,
where P acts elementwise, takes them as a log-depth prefix scan (Blelloch,
CMU-CS-90-190): E[s:] += Q E[:-s], then Q = Q^2, for s = 1, 2, 4, ...
The dense backend loops over the panel edges, since a scan would multiply
its dim^3 products by log(panels). On both, the interior nodes then follow
from their panels' starts in one stacked product.

exp_functionals builds no panel table and does not propagate. Its forcing
is p = e^{-2 Re mu t} times the identity and its shift mu, so for each run
width h it takes only phi_0..phi_{q+1} of h(A - mu) at the right edge, and
the first panel's profile samples in coefficient space, c = h f coef: the
panel's forcing terms are beta = sum_p c_p phi_{p+1} for v and
gamma = h sum_p c_p phi_{p+2} for its integral. The profile is exponential,
so in a run of n panels the forcing term of panel i is rho^i beta,
rho = e^{-2 Re mu h}. The eigen backend takes the run's end edge and edge
sum as closed-form sums of powers of P and rho, found by binary powering
over the bits of n (_run_sums): O(log panels) elementwise work per shift
and no array over the panels. The dense backend marches the run's edges,
since powering a non-normal P squares its transient growth. On a
Q(D + N)Q* of dim 64 whose ||e^{tA}|| peaks near 1.4e4, at T = 23 on 16
panels, the worst identity residual over the 25 mu of identity-check,
reached at Re mu <= 2, was 1.7e-11 by the march and 2.2e-7 by powering.

solve_batch runs a batch of probes that share a refined solver through the
propagator on a leading axis, and exp_functionals_batch a batch of shifts
through the right-edge rows, all shifts' rows from one phi_scalar or
phi_matrices call. Each problem's values are one contiguous block, so each
per-problem product is the single problem's BLAS call. A batch whose stacks
would pass operators.BATCH_BYTES is cut into chunks of at least one item.
solve runs the same code on one item without the batch axis, and
exp_functionals on a batch of one, with the same bits.

A steep forcing profile runs on a refined solver, whose grid splits each panel
to keep width * rate under a budget. The solver keeps one refined solver per
split count, so a refined grid and its panel tables are built once. They
live as long as the parent: on the dense backend a table of all nodes holds
(q+1)(q+2) dim^2 complex entries, 94 MB at dim 256 and q = 8.

The solver doubles as the black-box K_A interface of the resolvent
reconstruction: it exposes solutions and solution functionals (panel
integrals and the tilted end value e^{-mu T} u(T) with its E0 norm, from
the right-edge phi rows) but never hands out the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import EmptyProbeSet
from .operators import chunks
from .phi import phi_matrices, phi_scalar
from .timegrid import GridFunction, e0_norm_J, e0_samples, e1_norm_J, gauss_legendre_01

# panel width * profile rate above which panels are split, keeping the
# polynomial interpolation error of the forcing profile near 1e-11
_RATE_BUDGET = 0.6


@lru_cache(maxsize=16)
def _panel_weights(q):
    """(rs, coef, rpow) of a panel table with q Gauss-Legendre nodes xi on
    [0, 1]: the output points rs (xi and then 1), coef[m, p] = p! C[m, p]
    with C[m, p] the coefficient of sigma^p in the m-th Lagrange basis
    polynomial on xi, and rpow[p, j] = rs[j]^{p+1}."""
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
    rs = np.append(xi, 1.0)
    coef = C * np.array([math.factorial(p) for p in range(q)])
    return rs, coef, rs[None, :] ** np.arange(1, q + 1)[:, None]


class CauchySolver:
    """Exponential-integrator IVP solver bound to one operator and grid."""

    def __init__(self, op, grid):
        self.op = op
        self.grid = grid
        self._tables, self._refined = {}, {}
        # runs [start, stop, h] of consecutive panels within 1e-12 of one nominal width h
        widths = np.diff(grid.edges).tolist()
        self._hmax, self._runs = max(widths), []
        for k, w in enumerate(widths):
            if self._runs and abs(w - self._runs[-1][2]) <= 1e-12 * self._runs[-1][2]:
                self._runs[-1][1] = k + 1
            else:
                h = next((g for _, _, g in self._runs if abs(w - g) <= 1e-12 * g), w)
                self._runs.append([k, k + 1, h])

    @property
    def dim(self):
        return self.op.dim

    @property
    def T(self):
        return self.grid.T

    def refined_for(self, rate):
        """Solver on a panel-split grid fine enough for a profile with the
        given exponential/oscillation rate, kept for each split count."""
        factor = rate * self._hmax / _RATE_BUDGET
        if factor <= 1:
            return self
        splits = np.ceil(factor)  # inf and nan stay, for TimeGrid.refined to refuse
        if splits not in self._refined:
            self._refined[splits] = CauchySolver(self.op, self.grid.refined(splits))
        return self._refined[splits]

    def _groups(self, rates):
        """[(solver, indices)]: the indices of the rates grouped by the solver
        refined_for gives each (this one for a zero rate), in first-seen order."""
        groups = {}
        for i, rate in enumerate(rates):
            groups.setdefault(self.refined_for(rate) if rate else self, []).append(i)
        return groups.items()

    # -- the panel propagator of the solves ---------------------------------------

    def _panel_tables(self, h):
        """(P, W, H1, G) for u' = Au + f on a panel of width h, with r_j the q
        Gauss nodes of [0, 1] and then 1: P[j] = e^{h r_j A}, W[m, j] the
        weight of the m-th forcing sample in u(h r_j), H1 = h phi_1(hA) and
        G[m] the weight of the m-th forcing sample in the integral of u over
        the panel. Eigen backend: (dim, 1) columns; dense backend: dim x dim
        matrices, all from one phi_scalar or phi_matrices call. W and G are
        real products of (q x q) coefficients with the float view of the phi
        rows; W is written into place, so no table-sized temporary is made.
        The tables serve the solves and are kept per width."""
        if h in self._tables:
            return self._tables[h]
        q = self.grid.nodes_per_panel
        rs, coef, rpow = _panel_weights(q)
        hrs, diag = (h * rs)[:, None], self.op.diagonalization
        if diag is not None:  # PHI[k, j] = phi_k(h r_j A), shape (q+2, len(rs), dim, 1)
            PHI = phi_scalar(q + 1, hrs * diag.d)[..., None]
        else:
            PHI = phi_matrices(hrs[..., None] * self.op.matrix, q + 1)
        # the interpolant of the samples f_m is sum_p c_p sigma^p with
        # c_p = sum_m C[m, p] f_m, and int_0^{hr} e^{(hr-s)A} (s/h)^p ds
        # = h r^{p+1} p! phi_{p+1}(h r A): per output point j, W[:, j] is the
        # real (q, q) matrix h coef[m, p] rpow[p, j] times the phi rows, all
        # points in one batched product on the float view of R, the phi rows
        # with the orders moved next to the last axis
        R = PHI.view(float).reshape(q + 2, len(rs), -1).swapaxes(0, 1)
        W = np.empty((q,) + PHI.shape[1:], dtype=complex)
        np.matmul(h * coef * rpow.T[:, None, :], R[:, 1:q + 1, :],
                  out=W.view(float).reshape(q, len(rs), -1).swapaxes(0, 1))
        G = ((h * h) * coef @ R[-1, 2:, :]).view(complex)
        self._tables[h] = PHI[0], W, h * PHI[1, -1], G.reshape((q,) + PHI.shape[-2:])
        return self._tables[h]

    def _propagate(self, F, Y, v0):
        """Node values and integral over [0, T] of u' = Au + p(t) Y,
        u(0) = v0, in backend coordinates, for one problem or a batch of them
        on one leading axis. v0 and Y have shape batch + (dim, c) and the node
        values batch + (nodes, dim, c), each problem's a contiguous block. F
        holds the profiles p at the Gauss nodes, batch + (panels, q). Each
        table's W and G are multiplied by Y once and laid out as (q, rest),
        so a run's forcing terms are one (stacked) product with its (run, q)
        profile blocks, its integral one with their column sums. It serves
        the solves; exp_functionals does not propagate."""
        grid = self.grid
        step = grid.nodes_per_panel + 1
        eigen = self.op.diagonalization is not None
        lead, core = v0.shape[:-2], v0.shape[-2:]
        vals = np.empty(lead + (grid.panels * step + 1,) + core, dtype=complex)
        vals[..., 0, :, :] = v0
        integral = np.zeros(v0.shape, dtype=complex)
        tables = {}
        for k, stop, h in self._runs:
            if h not in tables:
                P, W, H1, G = self._panel_tables(h)
                YW, YG = Y[..., None, None, :, :], Y[..., None, :, :]
                W, G = (W * YW, G * YG) if eigen else (W @ YW, G @ YG)
                tables[h] = P, W.reshape(W.shape[:-3] + (-1,)), H1, G.reshape(G.shape[:-2] + (-1,))
            P, W, H1, G = tables[h]
            # out and Fk are views: B_k goes straight into vals, F is not copied
            run, Fk = stop - k, F[..., k:stop, :]
            out = vals[..., k * step + 1:stop * step + 1, :, :].reshape(lead + (run, step) + core)
            if F.dtype.kind == "f":  # a real profile times complex weights, as real products
                np.matmul(Fk, W.view(float), out=out.reshape(lead + (run, -1)).view(float))
            else:
                np.matmul(Fk, W, out=out.reshape(lead + (run, -1)))
            integral += (Fk.sum(axis=-2)[..., None, :] @ G).reshape(v0.shape)
            # ends and first are views with the panels on their first axis
            starts = vals[..., k * step:stop * step:step, :, :]
            ends, first = out[..., -1, :, :].swapaxes(0, -3), starts.swapaxes(0, -3)
            if eigen:
                # e_{i+1} = P e_i + b_i as a prefix scan: after the pass with
                # Q = P^s, ends[i] sums P^(i-j) b_j over the 2s panels j <= i.
                # Q is squared only for a further pass, so it stays below P^run.
                Q, s = P[-1], 1
                ends[:1] += Q * first[:1]
                while s < run:
                    ends[s:] += Q * ends[:-s]
                    s *= 2
                    if s < run:
                        Q = Q * Q
                integral += H1 * first.sum(axis=0)
            else:  # a scan would multiply the d^3 products by log(panels)
                for i in range(run):  # first[i] is ends[i - 1] for i > 0
                    ends[i] += P[-1] @ first[i]
                integral += H1 @ starts.sum(axis=-3)
            # the interior nodes from their panels' starts, in one product
            product = np.multiply if eigen else np.matmul
            out[..., :-1, :, :] += product(P[None, :-1], starts[..., None, :, :])
        return vals, integral

    # -- public solves ----------------------------------------------------------

    def solve(self, forcing, x0=None):
        """GridFunction solution of u' - Au = f, u(0) = x0 (0 if None), with
        derivative samples filled from u' = Au + f: solve_batch for one
        probe, without a batch axis. A steep forcing profile triggers a panel
        split; the returned GridFunction carries the grid in use and, as
        forcing_values and operator_values, the samples of f and of A u at
        its nodes, and all four in the coordinates it was propagated in as
        ``coordinates`` (_Solution)."""
        solver = self.refined_for(forcing.rate) if forcing.rate else self
        x0 = np.zeros(self.dim, dtype=complex) if x0 is None else np.asarray(x0, dtype=complex)
        return solver._solve(forcing.profile(solver.grid.nodes), forcing.y, x0)

    def solve_batch(self, probes):
        """The solves of the probes (f, x), x the initial value, in stacks: yields
        (indices, u) with u a _Solution holding the solutions of the
        probes at those indices on a leading axis, one per chunk of the
        probes that share a refined solver, each from one propagation."""
        for solver, idx in self._groups([f.rate for f, _ in probes]):
            nodes = solver.grid.nodes
            # node values, solution, A u, f and u' of each probe
            for part in chunks(idx, 5 * 16 * len(nodes) * self.dim):
                yield part, solver._solve(np.array([probes[i][0].profile(nodes) for i in part]),
                                          np.array([probes[i][0].y for i in part]),
                                          np.array([probes[i][1] for i in part], dtype=complex))

    def _solve(self, p, y, x0):
        """The _Solution on this solver's grid for the profile p at its nodes,
        the block y and the initial value x0, or for stacks of them on one
        leading axis, in the coordinates it was propagated in: v = Z* u on a
        normal operator with a basis Z, u itself otherwise."""
        grid, op = self.grid, self.op
        # the Gauss-node entries of p follow each panel's left edge
        F = p[..., :-1].reshape(p.shape[:-1] + (grid.panels, grid.nodes_per_panel + 1))[..., 1:]
        Y, v0 = y[..., None], x0[..., None]
        if op.diagonalization is not None:
            Y, v0 = op.diagonalization.adjoint(Y), op.diagonalization.adjoint(v0)
        v, _ = self._propagate(F, Y, v0)
        return _Solution(grid, op, v[..., 0], p[..., None] * Y[..., None, :, 0], p, y, x0)

    def exp_functionals(self, mu):
        """For the forcing f(t) = e^{-conj(mu) t} (columnwise identity),
        return (W, VT, vt_norm) with W = int_0^T v(t) dt and VT = v(T) for
        the tilted v = e^{-mu t} u, both dim x dim (u(., x) depends linearly
        on x; EigenMaps in the eigen backend), and vt_norm the E0 operator
        norm of VT: exp_functionals_batch for one mu, without a batch axis.
        v solves v' = (A - mu) v + e^{-2 Re mu t} x, whose smooth profile keeps
        oscillation in mu from the interpolation; no e^{mu T} is formed.
        Z being unitary, the eigen backend's euclidean vt_norm is the largest
        |eigenvalue| of VT."""
        mu = complex(mu)
        return self.refined_for(2.0 * mu.real)._exp_functionals(np.array([mu]))[0]

    def exp_functionals_batch(self, mus):
        """[(W, VT, vt_norm)] of exp_functionals for each mu, from one
        _exp_functionals call per chunk of the mus that share a refined solver."""
        mus = [complex(mu) for mu in mus]
        eigen = self.op.diagonalization is not None
        out = [None] * len(mus)
        for solver, idx in self._groups([2.0 * mu.real for mu in mus]):
            # the transients of a shift's phi rows: phi_scalar's 35-term power
            # table and its products, or the 25 Taylor powers, then the q + 2
            # rows: about 150 rows, and on the dense backend the edge array
            rows = 150 if eigen else self.dim * (solver.grid.panels + 150)
            for part in chunks(idx, 16 * self.dim * rows):
                for i, res in zip(part, solver._exp_functionals(np.array([mus[i] for i in part]))):
                    out[i] = res
        return out

    def _exp_functionals(self, m):
        """[(W, VT, vt_norm)] on this solver's grid for each shift of the 1-D
        array m, from phi_0..phi_{q+1} of h(A - m) at the right edge of a
        panel of each width h, with no panel table. The profile
        p(t) = e^{-2 Re m t} is exponential, so in a run of width h the
        forcing term of panel i is rho^i times the first panel's, rho = p(h)
        (Hochbruck & Ostermann, Acta Numer. 19, 2010). Those are beta for v
        and gamma for its integral, with c = h f coef the first panel's
        samples f in coefficient space: beta = sum_p c_p phi_{p+1} and
        gamma = h sum_p c_p phi_{p+2}. The eigen backend sums a run in closed
        form (_run_sums), O(log panels) elementwise work and no array over
        the panels. The dense backend marches e_{i+1} = P e_i + rho^i beta
        over an edge array, since powering a non-normal P squares its
        transient growth (see the module docstring)."""
        grid, op, q = self.grid, self.op, self.grid.nodes_per_panel
        diag, coef = op.diagonalization, _panel_weights(q)[1]
        decay = -2.0 * m.real  # the profile's rate
        rows = {}
        VT = w = None  # v at the run's start and its integral up to there; v(0) = 0
        for k, stop, h in self._runs:
            if h not in rows:  # P, h phi_1 and the phi rows with the orders second, per shift
                if diag is not None:
                    PHI = phi_scalar(q + 1, h * (diag.d - m[:, None]))
                else:
                    PHI = phi_matrices(h * (op.matrix - m[:, None, None] * np.eye(self.dim)), q + 1)
                R = PHI.view(float).reshape(q + 2, len(m), -1).swapaxes(0, 1)
                rows[h] = PHI[0], h * PHI[1], R
            P, H1, R = rows[h]
            # per-item products: the bits of a shift do not depend on its batch
            c = h * (np.exp(np.multiply.outer(decay, grid.gl_times[k]))[:, None, :] @ coef)
            beta = (c @ R[:, 1:q + 1]).view(complex).reshape(P.shape)
            gamma = h * (c @ R[:, 2:]).view(complex).reshape(P.shape)
            rho, n = np.exp(decay * h), stop - k
            if diag is not None:
                Pn, _, S, D, Q, Rn = _run_sums(P, rho[:, None], n, VT is not None)
                if VT is None:
                    VT, w = S * beta, H1 * (D * beta) + Rn * gamma
                else:
                    VT, w = Pn * VT + S * beta, w + H1 * (Q * VT + D * beta) + Rn * gamma
            else:
                # the run's edges, the shifts first so that each shift's
                # forcing terms rho^i beta are one contiguous block, written by
                # one real product after e_0, then marched in place
                E = np.empty((len(m), n + 1) + P.shape[1:], dtype=complex)
                E[:, 0] = 0.0 if VT is None else VT
                powers = rho[:, None] ** np.arange(n)
                np.multiply(powers[..., None], beta.reshape(len(m), 1, -1).view(float),
                            out=E[:, 1:].reshape(len(m), n, -1).view(float))
                edges = E.swapaxes(0, 1)  # edges[i] is a cheaper view per step than E[:, i]
                for i in range(n):
                    edges[i + 1] += P @ edges[i]
                integral = H1 @ E[:, :-1].sum(axis=1) + powers.sum(axis=1)[:, None, None] * gamma
                VT, w = E[:, -1].copy(), integral if w is None else w + integral
        if diag is None:
            return list(zip(w, VT, op.operator_norm(VT).tolist()))  # one norm call for the batch
        out = []
        for wj, VTj in zip(w, VT):
            VTj = diag.with_values(VTj)
            norm = float(abs(VTj.d).max()) if op.e0_norm == "euclidean" else op.operator_norm(VTj)
            out.append((diag.with_values(wj), VTj, norm))
        return out


def _join(a, b):
    """The sums (P^n, rho^n, S_n, D_n, Q_n, R_n) of _run_sums for n = a + b
    panels from those of a panels and of b panels."""
    Pa, ra, Sa, Da, Qa, Ra = a
    Pb, rb, Sb, Db, Qb, Rb = b
    return (Pa * Pb, ra * rb, rb * Sa + Pa * Sb, Da + Rb * Sa + Pa * Db,
            None if Qa is None else Qa + Pa * Qb, Ra + ra * Rb)


def _run_sums(P, rho, n, from_edge):
    """(P^n, rho^n, S_n, D_n, Q_n, R_n), elementwise, for a run of n panels
    with edges e_{i+1} = P e_i + rho^i beta: e_n = P^n e_0 + S_n beta and
    sum_{i<n} e_i = Q_n e_0 + D_n beta, with S_n = sum_{i<n} P^(n-1-i) rho^i,
    D_n = sum_{i<n} S_i, Q_n = sum_{i<n} P^i (None unless from_edge, that
    is unless e_0 may be nonzero) and R_n = sum_{i<n} rho^i. Binary powering
    over the bits of n from the top, by _join: one doubling per bit and one
    more panel per set bit, so no power passes P^n."""
    one = (P, rho, 1.0, 0.0, 1.0 if from_edge else None, 1.0)
    sums = one
    for bit in bin(n)[3:]:
        sums = _join(sums, sums)
        if bit == "1":
            sums = _join(sums, one)
    return sums


class _Solution(GridFunction):
    """A solve's GridFunction, kept in the coordinates v it was propagated in:
    v = Z* u on a normal operator A = Z diag(lam) Z* with a basis Z, u itself
    otherwise. ``coordinates`` holds v, A v (lam v on a normal operator,
    OperatorPair.apply on the dense backend), the forcing p y in those
    coordinates and their sum; every euclidean norm reads them as they are
    (e0_samples). With a basis, the four standard-basis samples are formed
    together on first access of one: u = v Z^T with row 0 set to x0 exactly,
    A u from OperatorPair.apply, f = p y and u' = A u + f."""

    def __init__(self, grid, op, v, fv, p, y, x0):
        diag = op.diagonalization
        Av = op.apply(v) if diag is None else diag.d * v
        self.grid, self.operator = grid, op
        self.coordinates = GridFunction(grid, v, Av + fv)
        self.coordinates.operator_values, self.coordinates.forcing_values = Av, fv
        self._p, self._y, self._x0 = p, y, x0

    @cached_property
    def _standard(self):
        diag = self.operator.diagonalization
        if diag is None or diag.identity:
            return self.coordinates
        values = diag.rows(self.coordinates.values)  # u = v Z^T
        values[..., 0, :] = self._x0
        S, Au = self._p[..., None] * self._y[..., None, :], self.operator.apply(values)
        u = GridFunction(self.grid, values, Au + S)
        u.forcing_values, u.operator_values = S, Au
        return u

    values = property(lambda self: self._standard.values)
    derivative_values = property(lambda self: self._standard.derivative_values)
    operator_values = property(lambda self: self._standard.operator_values)
    forcing_values = property(lambda self: self._standard.forcing_values)


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
    zero-initial-value probes (the solver continuity constant). The probes
    are solved in stacks (CauchySolver.solve_batch), each stack's norms as
    one norm0_rows per quantity and one maximum over the nodes.
    """
    if not probes:
        raise EmptyProbeSet("estimate_M needs at least one probe")
    op = solver.op
    x = np.array([x for _, x in probes], dtype=complex)
    nx1 = op.norm1(x)  # the initial values u(0)
    norms = [None] * len(probes)  # (||f||_E0, ||x||_1, ||u||_E1) of each probe
    for idx, u in solver.solve_batch(probes):
        nf = e0_norm_J(op, GridFunction(u.grid, e0_samples(op, u).forcing_values))
        e1 = e1_norm_J(op, u)
        for j, i in enumerate(idx):
            norms[i] = float(nf[j]), float(nx1[i]), float(e1[j])
    ratios, c2s = [], []
    for nf, nx1, e1 in norms:
        denom = nf + nx1
        if denom == 0:
            raise EmptyProbeSet(
                f"degenerate probe: ||f||_E0 + ||x||_1 = 0 on [0, T], T = {solver.T}")
        ratios.append(e1 / denom)
        c2s.append(e1 / nf if (nf > 0 and nx1 == 0) else 0.0)
    return MaxRegEstimate(M_hat=float(max(ratios)), c2_hat=float(max(c2s, default=0.0)),
                          probe_count=len(probes), ratios=ratios)
