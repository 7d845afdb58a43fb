"""Forcing terms f(t) for the inhomogeneous problem, and probe files.

Every forcing is separable, f(t) = p(t) y: a scalar profile p, which
``profile(ts)`` evaluates on a 1-D array of times, times a fixed vector
``y``. The Cauchy solver evaluates the profile once per solve, at all nodes
of its grid, and maps ``y`` into its coordinates once.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .operators import parse_complex, parse_spec

# keys of each probe kind; probes per family in default_probes
_PROBE_KEYS = {"exp": ("mu", "y", "x"), "poly": ("coeffs", "y", "x"), "ic": ("x",)}
_EXP_PROBES, _POLY_PROBES, _IC_PROBES = 6, 2, 4


class Forcing:
    """Base class for f(t) = profile(t) y with y a complex vector. ``rate``
    is a bound on the profile's exponential/oscillation rate, used to pick
    the panel resolution."""

    rate = 0.0

    def __init__(self, y):
        self.y = np.asarray(y, dtype=complex)

    def profile(self, ts):
        """p(t) for a 1-D array of times."""
        raise NotImplementedError


class ZeroForcing(Forcing):
    def __init__(self, dim):
        super().__init__(np.zeros(dim))

    def profile(self, ts):
        return np.zeros(len(ts))


class ExpForcing(Forcing):
    """f(t) = e^{-mu t} y (the proof's probe family f_mu)."""

    def __init__(self, mu, y):
        super().__init__(y)
        self.mu = complex(mu)

    @property
    def rate(self):
        return abs(self.mu)

    def profile(self, ts):
        return np.exp(-self.mu * np.asarray(ts))


class PolyForcing(Forcing):
    """f(t) = (c_0 + c_1 t + ... ) y."""

    def __init__(self, coeffs, y):
        super().__init__(y)
        self.coeffs = np.asarray(coeffs, dtype=complex)

    def profile(self, ts):
        return np.polynomial.polynomial.polyval(np.asarray(ts), self.coeffs)


def _random_unit(rng, dim):
    """A unit vector of C^dim: dim standard normal real parts, then dim
    imaginary parts, drawn from rng and divided by their euclidean norm."""
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return x / np.linalg.norm(x)


# -- probe description files -------------------------------------------------


def parse_probe_line(line, dim):
    """One probe per line: ``exp mu=<complex> [y=<vec>] [x=<vec>]`` | ``poly
    coeffs=<list> [y=<vec>] [x=<vec>]`` | ``ic x=<vec>``. Returns (forcing, x)."""
    kind, args = parse_spec(line, "probe", _PROBE_KEYS)
    y = args.vector("y") if "y" in args else np.ones(dim, dtype=complex)
    x = args.vector("x") if "x" in args or kind == "ic" else np.zeros(dim, complex)
    if kind == "exp":
        f = ExpForcing(parse_complex(args["mu"]), y)
    elif kind == "poly":
        f = PolyForcing(args.vector("coeffs"), y)
    else:
        f = ZeroForcing(dim)
    if f.y.shape[0] != dim:
        raise ConfigError(f"probe vector length {f.y.shape[0]} != dim {dim}")
    if x.shape[0] != dim:
        raise ConfigError(f"initial value length {x.shape[0]} != dim {dim}")
    return f, x


def load_probes(path, dim):
    probes = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                probes.append(parse_probe_line(line, dim))
    if not probes:
        raise ConfigError(f"probe file {path!r} holds no probe")
    return probes


def default_probes(op, seed=0):
    """Probe family for the maximal-regularity estimator: exponential probes
    over a log-spaced rate grid with random directions, low-order polynomial
    probes, and initial values aligned with eigenvectors plus random ones."""
    rng = np.random.default_rng(seed)
    dim = op.dim
    probes = []
    for mu in np.logspace(-1, 1.5, _EXP_PROBES):
        probes.append((ExpForcing(mu, _random_unit(rng, dim)), np.zeros(dim, complex)))
    for k in range(_POLY_PROBES):
        coeffs = np.zeros(k + 2)
        coeffs[-1] = 1.0
        probes.append((PolyForcing(coeffs, _random_unit(rng, dim)), np.zeros(dim, complex)))
    diag = op.diagonalization
    for k in range(_IC_PROBES):
        if diag is not None and k < min(2, dim):
            x = diag.column(k)  # eigenvector k
        else:
            x = _random_unit(rng, dim)
        probes.append((ZeroForcing(dim), x))
    return probes
