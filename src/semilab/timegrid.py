"""Time grids on J = [0,T] with panel-wise Gauss-Legendre nodes, and
vector-valued grid functions with the sup-type E0(J)/E1(J) norms."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BadEndpoint, DimensionMismatch, MissingDerivative


@lru_cache(maxsize=32)
def gauss_legendre_01(q):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(q)
    return (x + 1.0) / 2.0, w / 2.0


class TimeGrid:
    """Partition of [0, T] into panels, each carrying q Gauss-Legendre nodes.

    The node list is the sorted union of the panel edges (including 0 and T)
    and the per-panel quadrature nodes; sup norms over J are realized as the
    max over this node list, integrals as panel-wise Gauss-Legendre sums.
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
        xi, w = gauss_legendre_01(self.nodes_per_panel)
        widths = np.diff(edges)
        # gl_times[k, j]: j-th quadrature node of panel k; gl_weights scaled
        self.gl_times = edges[:-1, None] + widths[:, None] * xi[None, :]
        self.gl_weights = widths[:, None] * w[None, :]
        nodes = [0.0]
        for k in range(self.panels):
            nodes.extend(self.gl_times[k])
            nodes.append(edges[k + 1])
        self.nodes = np.array(nodes)

    @classmethod
    def uniform(cls, T, panels=16, nodes_per_panel=8):
        if T <= 0:
            raise ValueError("T must be positive")
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

    # node bookkeeping: per panel k the node list holds
    #   edge_k at index k*(q+1), then the q quadrature nodes.
    def node_index_of_edge(self, k):
        return k * (self.nodes_per_panel + 1)

    def edge_index(self, t):
        """Index into ``edges`` of the panel edge within 1e-12 (1 + T) of t, or None."""
        hits = np.nonzero(np.abs(self.edges - t) <= 1e-12 * (1.0 + self.T))[0]
        return int(hits[0]) if hits.size else None

    def integrate_samples(self, samples):
        """Integrate over [0, T] a function given by its values at all grid
        nodes (first axis), using the panel Gauss-Legendre rule."""
        samples = np.asarray(samples)
        gl = samples[np.arange(len(self.nodes)) % (self.nodes_per_panel + 1) != 0]  # no edges
        return np.tensordot(self.gl_weights.ravel(), gl, axes=(0, 0))

    def refined(self, factor=2):
        """Same interval and node count per panel, each panel split in two
        (or ``factor``) equal parts."""
        new_edges = [self.edges[0]]
        for a, b in zip(self.edges[:-1], self.edges[1:]):
            new_edges.extend(a + (b - a) * np.arange(1, factor + 1) / factor)
        return TimeGrid(np.array(new_edges), self.nodes_per_panel)


class GridFunction:
    """A vector-valued function sampled on a TimeGrid, optionally with
    derivative samples."""

    def __init__(self, grid, values, derivative_values=None):
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != len(grid.nodes):
            raise DimensionMismatch(
                f"{values.shape[0]} samples for {len(grid.nodes)} grid nodes")
        if derivative_values is not None:
            derivative_values = np.asarray(derivative_values, dtype=complex)
            if derivative_values.ndim == 1:
                derivative_values = derivative_values[:, None]
            if derivative_values.shape != values.shape:
                raise DimensionMismatch("derivative sample shape mismatch")
        self.grid = grid
        self.values = values
        self.derivative_values = derivative_values

    @property
    def dim(self):
        return self.values.shape[1]


def e0_norm_J(op, f):
    """sup over grid nodes of ||f(t)||_0."""
    return float(np.max(op.norm0_rows(f.values)))


def e1_norm_J(op, u):
    """sup over grid nodes of ||u'(t)||_0 + ||u(t)||_1 (graph norm)."""
    if u.derivative_values is None:
        raise MissingDerivative("e1_norm_J needs derivative samples")
    n_du = op.norm0_rows(u.derivative_values)
    n_u = op.norm0_rows(u.values)
    n_Au = op.norm0_rows(u.values @ op.matrix.T)
    return float(np.max(n_du + n_u + n_Au))


def extend_constant(f, T_new):
    """Extend f from [0, T] to [0, T_new] by the constant value f(T)."""
    grid = f.grid
    if T_new <= grid.T:
        raise BadEndpoint(f"T_new={T_new} must exceed T={grid.T}")
    width = float(np.mean(np.diff(grid.edges)))
    extra = max(2, int(np.ceil((T_new - grid.T) / width)))
    new_edges = np.concatenate([grid.edges,
                                grid.T + (T_new - grid.T) * np.arange(1, extra + 1) / extra])
    new_grid = TimeGrid(new_edges, grid.nodes_per_panel)
    n_old = len(grid.nodes)
    tail = len(new_grid.nodes) - n_old
    fT = f.values[-1]
    values = np.concatenate([f.values, np.broadcast_to(fT, (tail,) + fT.shape)])
    dv = None
    if f.derivative_values is not None:
        dv = np.concatenate([f.derivative_values,
                             np.zeros((tail,) + fT.shape, dtype=complex)])
    return GridFunction(new_grid, values, dv)


def restrict(u, T_prime):
    """Restrict u to [0, T'] where T' is a panel edge of the grid."""
    grid = u.grid
    if not 0.0 < T_prime < grid.T:
        raise BadEndpoint(f"T'={T_prime} must lie in (0, T)")
    k = grid.edge_index(T_prime)
    if k is None:
        raise BadEndpoint(f"T'={T_prime} is not a panel edge of the grid")
    new_grid = TimeGrid(grid.edges[:k + 1], grid.nodes_per_panel)
    n = len(new_grid.nodes)
    dv = None if u.derivative_values is None else u.derivative_values[:n]
    return GridFunction(new_grid, u.values[:n], dv)
