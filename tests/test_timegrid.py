import numpy as np
import pytest

import semilab as sl
from semilab.errors import ConfigError, MissingDerivative
from semilab.timegrid import MAX_PANELS, gauss_legendre_01


class TestTimeGrid:
    def test_node_invariants(self):
        g = sl.TimeGrid.uniform(2.0, panels=4, nodes_per_panel=6)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 2.0
        assert np.all(np.diff(g.nodes) > 0)
        assert len(g.nodes) == 4 * 7 + 1

    def test_bad_construction(self):
        with pytest.raises(Exception):
            sl.TimeGrid.uniform(-1.0)

    def test_integrate_polynomial_exactly(self):
        # 8-point Gauss-Legendre panels integrate t^7 exactly
        g = sl.TimeGrid.uniform(1.0, panels=3, nodes_per_panel=8)
        w = np.polynomial.legendre.leggauss(8)[1] / 2.0
        val = np.sum(np.diff(g.edges)[:, None] * w * g.gl_times**7)
        assert val == pytest.approx(1.0 / 8.0, rel=1e-14)

    def test_refined_preserves_interval(self):
        g = sl.TimeGrid.uniform(1.0, panels=4)
        g2 = g.refined(3)
        assert g2.panels == 12
        assert g2.T == g.T
        assert np.array_equal(g.refined(2.5).edges, g2.edges)  # a split of ceil(factor)

    def test_panel_cap(self):
        assert sl.TimeGrid.uniform(1.0, panels=MAX_PANELS).panels == MAX_PANELS
        assert sl.TimeGrid.uniform(1.0, panels=16).refined(MAX_PANELS // 16).panels == MAX_PANELS
        with pytest.raises(ConfigError, match="from 2 to"):
            sl.TimeGrid.uniform(1.0, panels=MAX_PANELS + 1)
        for factor in (10**300, np.inf, np.nan):
            with pytest.raises(ConfigError, match="from 2 to"):
                sl.TimeGrid.uniform(1.0, panels=16).refined(factor)

    @pytest.mark.parametrize("edges", [np.linspace(0.0, 1.0, 17),
                                       [0.0, 0.1, 0.3, 0.35, 1.0],
                                       [0.0, 1e-3, 0.7, 2.5]])
    def test_nodes_and_edges_match_panel_loop(self, edges):
        # the node list and the refined edges, built one panel at a time
        g = sl.TimeGrid(edges, nodes_per_panel=6)
        xi = gauss_legendre_01(6)
        nodes = [0.0]
        for a, b in zip(g.edges[:-1], g.edges[1:]):
            nodes.extend(a + (b - a) * xi)
            nodes.append(b)
        assert np.array_equal(g.nodes, nodes)
        for factor in (2, 3, 7, 39):
            split = [g.edges[0]]
            for a, b in zip(g.edges[:-1], g.edges[1:]):
                split.extend(a + (b - a) * np.arange(1, factor + 1) / factor)
            assert np.array_equal(g.refined(factor).edges, split), factor


class TestFunctionNorms:
    def test_zero_function(self, grid, diag_12):
        f = sl.GridFunction(grid, np.zeros((len(grid.nodes), 2)))
        assert sl.e0_norm_J(diag_12, f) == 0.0

    def test_e1_norm_linear_ramp(self, grid, scalar_zero):
        # u(t) = t with A = 0: sup(|u'| + 2|u|)... graph norm with A = 0
        # collapses to ||u||_0, so e1 = sup(1 + t) = 2 at t = 1
        u = sl.GridFunction(grid, grid.nodes, np.ones_like(grid.nodes))
        assert sl.e1_norm_J(scalar_zero, u) == pytest.approx(2.0, abs=1e-14)

    def test_e0_homogeneity(self, grid, diag_12, rng):
        vals = rng.standard_normal((len(grid.nodes), 2))
        f = sl.GridFunction(grid, vals)
        g = sl.GridFunction(grid, (3 + 4j) * vals)
        assert sl.e0_norm_J(diag_12, g) == pytest.approx(
            5.0 * sl.e0_norm_J(diag_12, f), rel=1e-14)

    @pytest.mark.parametrize("sigma", [1.0, 0.7, 0.5, 1e-3])
    def test_sup_weights_nodes(self, grid, rng, sigma):
        # t^{1-sigma} rows, t = 0 masked to weight 0 below sigma = 1; bit for bit
        rows = rng.random(len(grid.nodes))
        masked = np.ones_like(grid.nodes)
        if sigma < 1.0:
            masked[0] = 0.0
            masked[1:] = grid.nodes[1:] ** (1.0 - sigma)
        assert grid.sup(rows, sigma) == np.max(masked * rows)
        if sigma == 1.0:
            assert grid.sup(rows) == np.max(rows)

    def test_missing_derivative(self, grid, diag_12):
        u = sl.GridFunction(grid, np.ones((len(grid.nodes), 2)))
        with pytest.raises(MissingDerivative):
            sl.e1_norm_J(diag_12, u)
