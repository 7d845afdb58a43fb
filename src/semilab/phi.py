"""Exponential-integrator phi functions.

phi_0(z) = e^z and phi_{k+1}(z) = (phi_k(z) - 1/k!) / z, equivalently
phi_k(z) = int_0^1 e^{z(1-s)} s^{k-1}/(k-1)! ds. These make quadrature of
int_0^t e^{(t-s)A} p(s) ds exact in A for polynomial p, which is what keeps
stiff spectral components accurate. Scalars sum phi_kmax against one table of
powers of z and recur down to phi_1, or up from e^z where |z| is large.
Matrices, in stacks, take the Taylor and squaring form of Higham, SIAM J.
Matrix Anal. Appl. 26 (2005), with the modified squaring of Skaflestad &
Wright, Appl. Numer. Math. 59 (2009), all on BLAS: the powers by doubling
into one array, and every sum over orders or powers (the Taylor sums, the
squaring's 1/(k-j)! terms) as one real product on a complex stack's float
view.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Smallest radius and term count of the scalar series; see _scalar_series.
_SCALAR_RADIUS, _SCALAR_TERMS = 5.0, 35
# Matrices are scaled to inf-norm <= THETA. Past degree m, the Taylor tail of
# phi_k is below THETA^(m+1) / ((m+1)! k! (1 - THETA/(m+2))) = 2.3e-18 / k! at
# THETA = 2, m = 24: under half an ulp of phi_k, which is 1/k! within e^THETA.
# Doubling THETA saves a squaring (kmax+1 products) for ~5 terms (a product
# each) but grows the round-off of the Taylor sum like e^(2 THETA).
_THETA, _TAYLOR_DEGREE = 2.0, 24


@lru_cache(maxsize=None)
def _scalar_series(kmax):
    """(R, N, inv_fact), built once per kmax: |z| < R sums N terms of phi_kmax
    against one table of the powers z^0..z^(N-1) and recurs down by
    phi_k = z phi_{k+1} + 1/k!, growing its error up to R^(kmax-1)/kmax! times
    in phi_1; else up from e^z, growing it up to kmax!/R^kmax times in phi_kmax.
    Both stay near 1 at R = (kmax!)^(1/(kmax-1)), or 5 if larger. N >= 35 puts
    the tail, below 2 R^N kmax!/(N+kmax)! relative to 1/kmax!, under 2^-53.
    inv_fact[i] = 1/i! for i < kmax + N."""
    lg = math.lgamma(kmax + 1)
    R, N = max(_SCALAR_RADIUS, math.exp(lg / max(kmax - 1, 1))), _SCALAR_TERMS
    while N * math.log(R) + lg - math.lgamma(N + kmax + 1) > -54 * math.log(2):
        N += 1
    return R, N, np.array([1 / math.factorial(i) for i in range(kmax + N)])


def phi_scalar(kmax, z):
    """phi_0..phi_kmax elementwise over the array z, shape (kmax+1,) + z.shape."""
    z = np.asarray(z, dtype=complex)
    out = np.empty((kmax + 1,) + z.shape, dtype=complex)
    flat, z = out.reshape(kmax + 1, -1), z.reshape(-1)
    flat[0] = np.exp(z)
    radius, terms, inv_fact = _scalar_series(kmax)
    small = np.abs(z) < radius
    if kmax and small.any():
        zs = z[small]
        # z^(N-1) down to z^0 by one cumprod up the rows; phi_kmax sums the terms
        # down the columns, smallest first: unlike a BLAS product's, no entry's
        # rounding depends on its neighbours. Then the recurrence down to phi_1.
        powers = np.empty((terms, zs.size), dtype=complex)
        powers[:-1], powers[-1] = zs, 1.0
        np.cumprod(powers[::-1], axis=0, out=powers[::-1])
        rows = [(inv_fact[:kmax - 1:-1, None] * powers.view(float)).sum(axis=0).view(complex)]
        for k in range(kmax - 1, 0, -1):
            rows.append(zs * rows[-1] + inv_fact[k])
        flat[kmax:0:-1, small] = rows
    if kmax and not small.all():
        zb, rows = z[~small], [flat[0, ~small]]
        for k in range(1, kmax + 1):
            rows.append((rows[-1] - inv_fact[k - 1]) / zb)
        flat[1:, ~small] = rows[1:]
    return out


def phi_matrices(B, kmax):
    """phi_0..phi_kmax of a stack B of shape (..., d, d), shape (kmax+1, ..., d, d):
    X = B / 2^s, its powers X^0..X^24 by doubling (X^(n+1..n+m) = X^(1..m) X^n,
    5 stacked products), phi_k(X) = sum_n X^n/(n+k)! as one real product of the
    inverse factorials with those powers, then s modified squarings
    phi_k(2X) = 2^-k [e^X phi_k(X) + sum_{j=1..k} phi_j(X)/(k-j)!]."""
    B = np.asarray(B, dtype=complex)
    X = B.reshape((-1,) + B.shape[-2:])
    s = np.maximum(np.frexp(np.abs(X).sum(axis=-1).max(axis=-1) / _THETA)[1], 0)
    powers = np.empty((_TAYLOR_DEGREE + 1,) + X.shape, dtype=complex)
    powers[0] = np.eye(B.shape[-1])
    np.multiply(X, np.ldexp(1.0, -s)[:, None, None], out=powers[1])
    n = 1
    while n < _TAYLOR_DEGREE:
        m = min(n, _TAYLOR_DEGREE - n)
        np.matmul(powers[1:m + 1], powers[n], out=powers[n + 1:n + m + 1])
        n += m
    taylor, L, halve = _matrix_series(kmax)
    PHI = _real_product(taylor, powers)
    for i in range(s.max(initial=0)):
        Y = np.compress(s > i, PHI, axis=1)  # C-ordered, unlike PHI[:, s > i]
        PHI[:, s > i] = halve * (Y[0] @ Y + _real_product(L, Y))
    return PHI.reshape((kmax + 1,) + B.shape)


@lru_cache(maxsize=None)
def _matrix_series(kmax):
    """(taylor, L, halve) of phi_matrices, built once per kmax:
    taylor[k, n] = 1/(n+k)! for the Taylor sums, L[k, j] = 1/(k-j)! for
    1 <= j <= k (else 0) for the squarings, and halve[k] = 2^-k."""
    k = np.arange(kmax + 1)
    inv_fact = np.array([1 / math.factorial(i) for i in range(kmax + _TAYLOR_DEGREE + 1)])
    tables = (inv_fact[np.add.outer(k, np.arange(_TAYLOR_DEGREE + 1))],
              np.tril(inv_fact[np.abs(np.subtract.outer(k, k))]) * (k > 0),
              np.ldexp(1.0, -k)[:, None, None, None])
    for table in tables:
        table.setflags(write=False)
    return tables


def _real_product(M, Y):
    """sum_n M[k, n] Y[n] for a real matrix M and a complex stack Y, as one
    real BLAS product on Y's float view."""
    return (M @ Y.reshape(len(Y), -1).view(float)).view(complex).reshape((len(M),) + Y.shape[1:])
