"""Semigroup evaluation from resolvent solves alone.

e^{tA}x is recovered as the quadrature of the inverse-Laplace integral
(1/2 pi i) int e^{mu t} (mu - A)^{-1} x dmu over a parabolic contour that
winds around the spectrum (Weideman & Trefethen, Math. Comp. 76, 2007).
This is the numerical counterpart of "a resolvent bound on a half-plane
generates an analytic semigroup": only resolvent solves enter, never the
matrix exponential.  Each quadrature rule is one
``OperatorPair.resolvent_sum`` over all its nodes through the operator's
cached factor, not one ``resolvent_solve`` per node, and that sum's shift
guard refuses a node of either rule within singular_tol of the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContourCrossesSpectrum, SingularResolvent

# Reference parabola mu(theta) = (N/t)(P0 - P2 theta^2 + i P1 theta),
# theta on a midpoint grid in (-pi, pi).  The classical choice of
# (P0, P1, P2) balances truncation against aliasing for spectra hugging the
# negative real axis; SCALE < 1 backs off the asymptotically optimal contour
# so the quadrature error stays well above the roundoff floor and keeps
# shrinking cleanly when the node count doubles.
_P0, _P1, _P2 = 0.1309, 0.25, 0.1194
_PARABOLA_SCALE = 0.5


@dataclass(frozen=True)
class Contour:
    """A parabolic quadrature contour for a fixed evaluation time t.

    node_count: even, >= 8; scale: overall size parameter (units 1/t);
    shift: real offset keeping the contour right of the spectral bound.
    """

    node_count: int
    t: float
    scale: float
    shift: float

    def __post_init__(self):
        if self.node_count < 8 or self.node_count % 2:
            raise ConfigError("node_count must be even and >= 8")
        if self.t <= 0:
            raise ConfigError("contour requires t > 0")

    def nodes_and_weights(self):
        """(mu_k, w_k) with e^{tA}x ~= sum_k w_k (mu_k - A)^{-1} x.

        The weights absorb e^{mu t}, the contour derivative, the step and
        the 1/(2 pi i) prefactor.
        """
        N, a = self.node_count, self.scale
        h = 2.0 * np.pi / N
        theta = (np.arange(N) - 0.5 * (N - 1)) * h
        mu = a * (_P0 - _P2 * theta**2 + 1j * _P1 * theta) + self.shift
        dmu = a * (-2.0 * _P2 * theta + 1j * _P1)
        w = np.exp(mu * self.t) * dmu * (h / (2.0j * np.pi))
        return mu, w

    def contains_left(self, lam, margin=0.0):
        """True where the eigenvalue (or array of eigenvalues) lam lies strictly
        left of the (extended) contour, i.e. inside the region it winds around."""
        lam = np.asarray(lam, dtype=complex) - self.shift
        theta = lam.imag / (_P1 * self.scale)
        return lam.real < self.scale * (_P0 - _P2 * theta**2) - margin


def build_contour(op, t, node_count=32):
    """Auto-scaled contour for e^{tA}: size ~ node_count / t, shifted right
    of the spectral bound when the operator is unstable."""
    if t <= 0:
        raise ConfigError("semigroup time must be positive")
    # anchoring the contour at the spectral bound keeps the quadrature error
    # comparable to the size of e^{tA} itself, so decaying semigroups retain
    # relative accuracy
    return Contour(node_count=int(node_count), t=float(t),
                   scale=_PARABOLA_SCALE * node_count / t, shift=float(op.spectral_bound))


@dataclass
class ContourResult:
    value: np.ndarray
    error_estimate: float


def semigroup_apply_contour(op, contour, t, x):
    """e^{tA}x by contour quadrature of the resolvent.

    Raises ContourCrossesSpectrum if an eigenvalue escapes the region the
    contour encloses or a node of either rule touches the spectrum.
    The error estimate is the difference against the half-node-count rule.
    """
    if abs(t - contour.t) > 1e-12 * (1.0 + contour.t):
        raise ConfigError(f"contour was built for t={contour.t}, got t={t}")
    lam = op.eigenvalues
    outside = ~contour.contains_left(lam, op.singular_tol)
    if outside.any():
        raise ContourCrossesSpectrum(
            f"eigenvalue {lam[np.argmax(outside)]:.6g} is not enclosed by the contour")
    half = Contour(contour.node_count // 2, contour.t, contour.scale * 0.5, contour.shift)
    try:
        value = op.resolvent_sum(*contour.nodes_and_weights(), x)
        coarse = op.resolvent_sum(*half.nodes_and_weights(), x)
    except SingularResolvent as exc:
        raise ContourCrossesSpectrum(f"a contour node touches the eigenvalue: {exc}") from None
    return ContourResult(value, float(op.norm0(value - coarse)))
