import numpy as np
import pytest

import semilab as sl


@pytest.fixture(scope="session")
def grid():
    return sl.TimeGrid.uniform(1.0, panels=16, nodes_per_panel=8)


@pytest.fixture(scope="session")
def scalar_zero():
    return sl.diagonal_operator([0.0])


@pytest.fixture(scope="session")
def scalar_minus_one():
    return sl.diagonal_operator([-1.0])


@pytest.fixture(scope="session")
def diag_12():
    return sl.diagonal_operator([-1.0, -2.0])


@pytest.fixture(scope="session")
def corpus():
    """The full fixture corpus of the acceptance suite."""
    return {
        "diag": sl.diagonal_operator([-1.0, -2.0]),
        "lap16": sl.laplacian_1d(16),
        "lap64": sl.laplacian_1d(64),
        "lap256": sl.laplacian_1d(256),
        "jordan3": sl.jordan_block(-1.0, 3),
        "jordan8": sl.jordan_block(-2.0, 8),
        "normal16": sl.random_normal_operator(16, seed=7),
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_vector(rng, dim):
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return x / np.linalg.norm(x)


def nonnormal_dense(n, seed, scale=1.0, real=False):
    """Q (D + N) Q*: real spectrum in [-9, -1], strictly upper triangular N,
    scale times as large as the default; Q unitary, or real orthogonal if real."""
    rng = np.random.default_rng(seed)
    d = -(1.0 + 8.0 * rng.random(n))
    N = np.triu(rng.standard_normal((n, n)), 1) * (2.0 * scale / np.sqrt(n))
    G = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(G if real else G + 1j * rng.standard_normal((n, n)))
    return sl.OperatorPair(Q @ (np.diag(d) + N) @ Q.conj().T)
