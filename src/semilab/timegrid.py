"""Time grids on J = [0,T] with panel-wise Gauss-Legendre nodes, grid functions,
and the E0(J)/E1(J) norms; every supremum over J is one ``TimeGrid.sup``."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError, DimensionMismatch, MissingDerivative

# Most panels per time grid: memory grows with panels * dim (* dim on the dense backend), to
# a 356 MB peak RSS for maxreg-estimate on a dim-64 Laplacian at the cap (2-core x86-64 host,
# 57 MB of it the imports). Default CLI runs reach 224.
MAX_PANELS = 4096


@lru_cache(maxsize=32)
def gauss_legendre_01(q):
    """Gauss-Legendre nodes on [0, 1]."""
    return (np.polynomial.legendre.leggauss(q)[0] + 1.0) / 2.0


class TimeGrid:
    """Partition of [0, T] into panels, each carrying q Gauss-Legendre nodes.

    The node list is the sorted union of the panel edges (including 0 and T)
    and the per-panel quadrature nodes; sup norms over J are realized as the
    max over this node list (``sup``).
    """

    def __init__(self, edges, nodes_per_panel=8):
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or len(edges) < 3:
            raise ValueError("need at least 2 panels")
        if edges[0] != 0.0 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must start at 0 and be strictly increasing")
        if nodes_per_panel < 4:
            raise ValueError("nodes_per_panel must be >= 4")
        self.edges = edges
        self.nodes_per_panel = int(nodes_per_panel)
        xi = gauss_legendre_01(self.nodes_per_panel)
        # gl_times[k, j]: j-th quadrature node of panel k
        self.gl_times = edges[:-1, None] + np.diff(edges)[:, None] * xi[None, :]
        # per panel k the node list holds edge_k at index k*(q+1), then the q
        # quadrature nodes; T closes it
        self.nodes = np.append(np.column_stack([edges[:-1], self.gl_times]).ravel(), edges[-1])

    @classmethod
    def uniform(cls, T, panels=16, nodes_per_panel=8):
        if not 2 <= panels <= MAX_PANELS:
            raise ConfigError(f"a time grid holds from 2 to {MAX_PANELS} panels")
        return cls(np.linspace(0.0, float(T), panels + 1), nodes_per_panel)

    @property
    def panels(self):
        return len(self.edges) - 1

    @property
    def T(self):
        return float(self.edges[-1])

    def __repr__(self):
        return (f"TimeGrid(T={self.T}, panels={self.panels}, "
                f"nodes_per_panel={self.nodes_per_panel})")

    def sup(self, rows, sigma=1.0):
        """max over the nodes t of t^{1-sigma} rows(t), along the last axis: a
        float, or an array for a stack of rows. At sigma = 1 every weight is
        exactly 1.0 (0^0 = 1), so the plain maximum keeps its bits; below 1
        the node t = 0 gets weight 0."""
        top = np.max(self.nodes ** (1.0 - sigma) * rows, axis=-1)
        return float(top) if top.ndim == 0 else top

    def refined(self, factor=2):
        """Same interval and node count per panel, each panel split in
        ceil(factor) equal parts."""
        factor = np.ceil(factor)
        if not self.panels * factor <= MAX_PANELS:  # also refuses a nan or infinite factor
            raise ConfigError(f"a time grid holds from 2 to {MAX_PANELS} panels")
        a, b = self.edges[:-1, None], self.edges[1:, None]
        splits = a + (b - a) * np.arange(1, factor + 1) / factor
        return TimeGrid(np.append(self.edges[0], splits.ravel()), self.nodes_per_panel)


class GridFunction:
    """A vector-valued function sampled on a TimeGrid, values (nodes, dim), or
    a stack of them on leading axes, optionally with derivative samples. A
    solve also hands back the samples of its forcing f and, for the operator
    it ran on, of A u, and keeps all four in the coordinates it propagated
    in as the GridFunction ``coordinates``: v = Z* u on a normal operator
    A = Z diag(lam) Z* with a basis Z, the same samples otherwise (see
    CauchySolver.solve)."""

    forcing_values = operator = operator_values = coordinates = None

    def __init__(self, grid, values, derivative_values=None):
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[-2] != len(grid.nodes):
            raise DimensionMismatch(
                f"{values.shape[-2]} samples for {len(grid.nodes)} grid nodes")
        if derivative_values is not None:
            derivative_values = np.asarray(derivative_values, dtype=complex)
            if derivative_values.ndim == 1:
                derivative_values = derivative_values[:, None]
            if derivative_values.shape != values.shape:
                raise DimensionMismatch("derivative sample shape mismatch")
        self.grid = grid
        self.values = values
        self.derivative_values = derivative_values


def e0_samples(op, f):
    """The coordinates f was propagated in when f is a solve for op and op's
    E0 norm is euclidean, which a unitary Z* keeps (without a basis they are
    f's own samples); f itself otherwise."""
    if f.coordinates is not None and f.operator is op and op.e0_norm == "euclidean":
        return f.coordinates
    return f


def e0_norm_J(op, f, sigma=1.0):
    """sup over grid nodes of t^{1-sigma} ||f(t)||_0."""
    return f.grid.sup(op.norm0_rows(e0_samples(op, f).values), sigma)


def e1_norm_J(op, u, sigma=1.0):
    """sup over grid nodes of t^{1-sigma} (||u'(t)||_0 + ||u(t)||_1) (graph norm)."""
    w = e0_samples(op, u)
    if w.derivative_values is None:
        raise MissingDerivative("e1_norm_J needs derivative samples")
    n_du = op.norm0_rows(w.derivative_values)
    n_u = op.norm0_rows(w.values)
    n_Au = op.norm0_rows(w.operator_values if u.operator is op else op.apply(u.values))
    return u.grid.sup(n_du + n_u + n_Au, sigma)
