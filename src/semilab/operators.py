"""Finite-dimensional operator pairs (E0, E1), resolvents, spectra, semigroups.

The ambient space E0 is C^dim with either the euclidean or the sup norm;
E1 is the same space with the graph norm ||x||_1 = ||x||_0 + ||Ax||_0, so
the embedding constant c1 equals 1 exactly.
"""

from __future__ import annotations

import cmath
import re
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dznrm2, zgemv, ztrsv

from .errors import (
    ConfigError,
    DimensionMismatch,
    EigenFailure,
    SingularResolvent,
)

E0_NORMS = ("euclidean", "sup")
# random_normal_operator's spectrum: Re in (BOUND - SPREAD, BOUND], |Im| < SPREAD
_NORMAL_BOUND, _NORMAL_SPREAD = -0.5, 8.0
# keys of an operator file and of each matrix generator (None: a bare number list)
_OPERATOR_KEYS = ("dim", "e0_norm", "matrix", "row")
_GENERATOR_KEYS = {"laplacian1d": ("n",), "diag": None, "jordan": ("lambda", "size"),
                   "random-normal": ("dim", "seed")}
# from this dimension on, a euclidean resolvent norm of a non-normal operator
# comes from Golub-Kahan-Lanczos on the Schur factor, below it from a dense
# SVD: the measured crossover (README, "Resolvent backend") lies near n = 90
_GKL_MIN_DIM = 92
# the Ritz value is read every _GKL_CHECK steps; it stops once it moves by <= _GKL_RTOL
_GKL_CHECK, _GKL_RTOL = 4, 1e-10


class OperatorPair:
    """A closed operator A on C^dim together with the E0 and graph norms.

    Immutable after construction; all derived data (spectrum, factorizations)
    is cached lazily and never mutated afterwards.
    """

    def __init__(self, matrix, e0_norm="euclidean"):
        matrix = np.array(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
            raise DimensionMismatch(f"matrix must be square and nonempty, got {matrix.shape}")
        if e0_norm not in E0_NORMS:
            raise ConfigError(f"unknown e0_norm {e0_norm!r}")
        matrix.setflags(write=False)
        self.matrix = matrix
        self.e0_norm = e0_norm

    @property
    def dim(self):
        return self.matrix.shape[0]

    @cached_property
    def structure(self):
        """Read from the zeros of the matrix: "diagonal", "tridiagonal" (zero off
        the three central diagonals) or "dense". Picks the spectral and resolvent paths."""
        A = self.matrix
        nonzero = np.count_nonzero(A)
        if nonzero == np.count_nonzero(np.diagonal(A)):
            return "diagonal"
        band = sum(np.count_nonzero(np.diagonal(A, k)) for k in (-1, 0, 1))
        return "tridiagonal" if nonzero == band else "dense"

    def __repr__(self):
        return (f"OperatorPair(dim={self.dim}, structure={self.structure!r}, "
                f"e0_norm={self.e0_norm!r})")

    # -- norms -------------------------------------------------------------

    def norm0_rows(self, X):
        """E0 norm (euclidean or sup) along the last axis of X: one norm per
        row of a (n, dim) array, a 0-d array for a vector. Every E0 norm in
        the laboratory goes through here, so equal vectors get bit-equal
        norms whichever routine asks."""
        X = np.asarray(X)
        if self.e0_norm == "euclidean":
            return np.linalg.norm(X, axis=-1)
        return np.max(np.abs(X), axis=-1, initial=0.0)

    def norm0(self, x):
        """E0 norm of a vector."""
        return float(self.norm0_rows(x))

    def norm1(self, x):
        """Graph norm ||x||_1 = ||x||_0 + ||Ax||_0."""
        return self.norm0(x) + self.norm0(self.matrix @ x)

    def operator_norm(self, B):
        """E0 operator norm of a matrix B acting on E0."""
        B = np.asarray(B)
        if self.e0_norm == "euclidean":
            return float(np.linalg.norm(B, 2))
        return float(np.max(np.sum(np.abs(B), axis=1)))

    @cached_property
    def matrix_norm(self):
        if self.structure == "diagonal":  # both E0 operator norms are max |a_kk|
            return float(np.max(np.abs(np.diag(self.matrix)), initial=0.0))
        return self.operator_norm(self.matrix)

    # -- spectrum ----------------------------------------------------------

    @cached_property
    def is_hermitian(self):
        A = self.matrix
        return bool(np.allclose(A, A.conj().T, rtol=0, atol=1e-14 * (1 + self.matrix_norm)))

    @cached_property
    def eigenvalues(self):
        A = self.matrix
        if self.structure == "diagonal":
            return np.diag(A).copy()
        if self.structure == "tridiagonal" and self.is_hermitian:
            # a diagonal unitary similarity makes the off-diagonal |e|
            d, e = np.real(np.diag(A)), np.abs(np.diag(A, 1))
            return scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True).astype(complex)
        try:
            return np.linalg.eigvals(A)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise EigenFailure(str(exc)) from None

    @property
    def spectral_bound(self):
        return float(np.max(self.eigenvalues.real))

    def spectral_distance(self, mu):
        return float(np.min(np.abs(complex(mu) - self.eigenvalues)))

    @property
    def singular_tol(self):
        # scale-invariant guard against near-singular resolvent solves
        return 1e-12 * (1.0 + self.matrix_norm)

    # -- resolvent ---------------------------------------------------------

    def check_vector(self, y):
        y = np.asarray(y, dtype=complex)
        if y.shape[0] != self.dim:
            raise DimensionMismatch(f"vector of length {y.shape[0]} for dim {self.dim}")
        return y

    @cached_property
    def resolvent_factor(self):
        """(Z, T, normal) with A = Z T Z*, Z unitary: T is the 1-D eigenvalue
        vector if A is normal, else the upper-triangular complex Schur factor.
        Z is None for structure=diagonal, where Z = I is never formed."""
        A = self.matrix
        if self.structure == "diagonal":
            return None, np.diag(A).copy(), True
        try:
            if self.structure == "tridiagonal" and self.is_hermitian:
                e = np.diag(A, 1)
                lam, V = scipy.linalg.eigh_tridiagonal(np.real(np.diag(A)), np.abs(e))
                # A = P V diag(lam) V^T P*, P = diag(p) carrying the phases of e
                p = np.cumprod(np.divide(e.conj(), np.abs(e), out=np.ones_like(e), where=e != 0))
                return np.concatenate([[1.0], p])[:, None] * V, lam.astype(complex), True
            if self.is_hermitian:
                lam, Z = np.linalg.eigh(A)
                return Z, lam.astype(complex), True
            T, Z = scipy.linalg.schur(A, output="complex")
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(str(exc)) from None
        # Weyl: dropping N = triu(T, 1) moves each singular value of mu - T by <= ||N||
        if np.linalg.norm(np.triu(T, 1)) <= self.singular_tol:
            return Z, np.diag(T).copy(), True
        return Z, T, False

    @property
    def resolvent_backend(self):
        return "normal" if self.resolvent_factor[2] else "schur"

    def resolvent_solve(self, mu, y):
        """Solve (mu - A)x = y through the cached factor A = Z T Z*."""
        mu = complex(mu)
        y = self.check_vector(y)
        if self.spectral_distance(mu) <= self.singular_tol:
            raise SingularResolvent(f"mu={mu} within tolerance of the spectrum")
        Z, T, normal = self.resolvent_factor
        if Z is None:
            return (y.T / (mu - T)).T
        w = np.conj(Z.T @ np.conj(y))  # Z* y without a conjugated copy of Z
        if normal:
            return Z @ (w.T / (mu - T)).T
        M = _shifted_schur(mu, T)
        return Z @ np.apply_along_axis(lambda col: ztrsv(M, col), 0, w)

    def resolvent_norm(self, mu):
        """E0 operator norm of (mu - A)^-1 (1/dist(mu, sigma(A)) if normal)."""
        mu = complex(mu)
        if self.spectral_distance(mu) <= self.singular_tol:
            raise SingularResolvent(f"mu={mu} within tolerance of the spectrum")
        if self.e0_norm == "euclidean":
            _, T, normal = self.resolvent_factor
            if normal:
                return 1.0 / self.spectral_distance(mu)
            if self.dim >= _GKL_MIN_DIM:  # ||(mu - A)^-1|| = ||(mu - T)^-1||, Z unitary
                return _inverse_norm(_shifted_schur(mu, T))
        R = mu * np.eye(self.dim) - self.matrix
        if self.e0_norm == "euclidean":
            smin = np.linalg.svd(R, compute_uv=False)[-1]
            return float(1.0 / smin)
        return self.operator_norm(np.linalg.inv(R))

    # -- semigroup oracle ----------------------------------------------------

    def semigroup_apply_oracle(self, t, x):
        """e^{tA}x by scaling-and-squaring (dense) or eigenvalue exponentials
        (diagonal). t = 0 returns x unchanged."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        x = self.check_vector(x)
        if t == 0:
            return x.copy()
        if self.structure == "diagonal":
            return (np.exp(t * np.diag(self.matrix)) * x.T).T
        return scipy.linalg.expm(t * self.matrix) @ x

    # -- evolution backend for the Cauchy solver ------------------------------

    @cached_property
    def diagonalization(self):
        """(Z, lam) with A = Z diag(lam) Z*, read from the resolvent factor of
        a normal A (Z is None for structure=diagonal); None otherwise, which
        sends the Cauchy solver to its dense backend."""
        Z, lam, normal = self.resolvent_factor
        return (Z, lam) if normal else None


# -- triangular kernels on the Schur factor ----------------------------------


def _shifted_schur(mu, T):
    """mu - T in Fortran order, the layout ztrsv reads without a copy."""
    M = np.zeros_like(T, order="F")
    M[np.diag_indices_from(M)] = mu
    M -= T
    return M


def _orthogonalize(w, Q):
    """(w - Q Q* w, its norm) for orthonormal columns Q, projected a second
    time when the first pass removes most of w (twice is enough); a
    non-finite w means (mu - T)^-1 overflows."""
    norm = dznrm2(w)
    if not np.isfinite(norm):
        raise SingularResolvent("resolvent norm overflows")
    for _ in range(2 if Q.shape[1] else 0):  # zgemv takes no empty Q
        w = zgemv(-1.0, Q, zgemv(1.0, Q, w, trans=2), beta=1.0, y=w, overwrite_y=True)
        norm, before = dznrm2(w), norm
        if norm > 0.5 ** 0.5 * before:
            break
    return w, norm


def _top_singular_value(e):
    """Largest singular value of the bidiagonal with entries e = (alpha_1,
    beta_1, alpha_2, ...): the top eigenvalue of the zero-diagonal tridiagonal
    with off-diagonal e, read on e scaled by its largest entry so that no
    square in the eigensolver overflows."""
    s, m = e.max(), len(e)
    top = scipy.linalg.eigvalsh_tridiagonal(np.zeros(m + 1), e / s, select="i",
                                            select_range=(m, m), check_finite=False)
    return float(s * top[0])


def _inverse_norm(M):
    """||M^-1||_2 for an upper-triangular M in Fortran order: Golub-Kahan-
    Lanczos bidiagonalization of M^-1 with full reorthogonalization, two
    O(n^2) triangular solves a step, from a fixed start vector so that equal
    inputs give bit-equal norms. It works on M^-1 itself, not on (M* M)^-1,
    whose norm squares and overflows from 1e154 on. A residual that is zero
    to working precision ends it early: the Ritz value is then exact."""
    n = M.shape[0]
    U = np.empty((n, n), dtype=complex, order="F")
    V = np.empty_like(U)
    e = np.zeros(2 * n)  # alpha_1, beta_1, alpha_2, beta_2, ...
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= dznrm2(v)
    eps, sigma = np.finfo(float).eps, 0.0
    for k in range(n):
        V[:, k] = v
        u = ztrsv(M, v)
        if k:
            u -= e[2 * k - 1] * U[:, k - 1]
        u, e[2 * k] = _orthogonalize(u, U[:, :k])
        if e[2 * k] <= eps * e.max():
            break
        U[:, k] = u / e[2 * k]
        v, e[2 * k + 1] = _orthogonalize(ztrsv(M, U[:, k], trans=2) - e[2 * k] * v,
                                         V[:, :k + 1])
        if e[2 * k + 1] <= eps * e.max():
            break
        v /= e[2 * k + 1]
        if k % _GKL_CHECK == _GKL_CHECK - 1:
            sigma, last = _top_singular_value(e[:2 * k + 2]), sigma
            if sigma - last <= _GKL_RTOL * sigma:
                return sigma
    return _top_singular_value(e[:2 * k + 2])


# -- canned operator constructors ------------------------------------------


def diagonal_operator(entries, e0_norm="euclidean"):
    return OperatorPair(np.diag(np.asarray(entries, dtype=complex)), e0_norm=e0_norm)


def laplacian_1d(n, e0_norm="euclidean"):
    """1D Dirichlet Laplacian on n interior points of (0,1), mesh h = 1/(n+1)."""
    h = 1.0 / (n + 1)
    A = (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
         + np.diag(np.ones(n - 1), -1)) / h**2
    return OperatorPair(A, e0_norm=e0_norm)


def jordan_block(lam, size, e0_norm="euclidean"):
    A = np.diag(np.full(size, complex(lam))) + np.diag(np.ones(size - 1), 1)
    return OperatorPair(A, e0_norm=e0_norm)


def random_normal_operator(dim, seed, e0_norm="euclidean"):
    """Random normal operator with spectrum in {Re <= -0.5}, unitarily mixed."""
    rng = np.random.default_rng(seed)
    lam = ((_NORMAL_BOUND - _NORMAL_SPREAD * rng.random(dim))
           + 1j * _NORMAL_SPREAD * (2 * rng.random(dim) - 1))
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, _ = np.linalg.qr(G)
    return OperatorPair(Q @ np.diag(lam) @ Q.conj().T, e0_norm=e0_norm)


# -- operator description files ---------------------------------------------


def parse_complex(tok):
    """One finite complex token such as ``2.5-1i`` or ``3j``; ConfigError if
    malformed or not finite."""
    try:
        z = complex(tok.replace("i", "j"))
    except ValueError:
        raise ConfigError(f"cannot parse complex number {tok!r}") from None
    if not cmath.isfinite(z):
        raise ConfigError(f"complex number {tok!r} is not finite")
    return z


def parse_vector(text, what):
    """Complex tokens separated by commas, semicolons or whitespace; at least
    one, since no vector of the laboratory is empty, else a ConfigError naming what."""
    toks = [t for t in re.split(r"[,;\s]+", text.strip()) if t]
    if not toks:
        raise ConfigError(f"{what} expects a list of numbers, got {text!r}")
    return np.array([parse_complex(t) for t in toks])


class _SpecArgs(dict):
    """The key=value arguments of one spec line; a missing or repeated key is a ConfigError."""

    def __missing__(self, key):
        raise ConfigError(f"{self.what} needs {key}=<value>")

    def __setitem__(self, key, value):
        if key in self:
            raise ConfigError(f"{self.what}: repeated key {key!r}")
        super().__setitem__(key, value)

    def integer(self, key, low=1):
        """self[key] as an int >= low; otherwise a ConfigError naming the key."""
        raw = self[key].strip()
        if not re.fullmatch(r"[+-]?\d+", raw) or int(raw) < low:
            raise ConfigError(f"{self.what}: {key}={raw!r} is not an integer >= {low}")
        return int(raw)

    def vector(self, key):
        """parse_vector(self[key]), its error naming the key."""
        return parse_vector(self[key], f"{self.what}: {key}=")


def parse_spec(text, what, keys):
    """``name key=value ...`` as (name, args), the shared form of generator
    specs and probe lines; ``keys[name]`` holds the keys a name takes. Bare
    tokens are left to the caller where it is None, else ConfigErrors, as
    are an empty spec, an unknown name, an unknown key and a repeated key."""
    parts = text.split()
    if not parts:
        raise ConfigError(f"empty {what}")
    name = parts[0]
    if name not in keys:
        raise ConfigError(f"unknown {what} {name!r}")
    args = _SpecArgs()
    args.what = f"{what} {name!r}"
    for tok in parts[1:]:
        key, eq, value = tok.partition("=")
        if eq and key in (keys[name] or ()):
            args[key] = value
        elif eq or keys[name] is not None:
            raise ConfigError(f"{args.what}: unknown key {key!r}")
    return name, args


def parse_operator_text(text):
    """Parse an operator description, ``key = value`` lines with the keys
    of _OPERATOR_KEYS (only ``row`` repeatable, ``matrix`` a generator spec with
    the keys of _GENERATOR_KEYS), into an OperatorPair."""
    kv, rows = _SpecArgs(), []
    kv.what = "operator description"
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _OPERATOR_KEYS:
            raise ConfigError(f"{kv.what}: unknown key {key!r}")
        if key == "row":
            rows.append(parse_vector(val, "row"))
        else:
            kv[key] = val

    e0_norm = kv.get("e0_norm", "euclidean")
    gen = kv.get("matrix")
    if gen is not None and rows:
        raise ConfigError("give either 'matrix = <generator>' or 'row =' lines, not both")
    if gen is not None:
        name, args = parse_spec(gen, "matrix generator", _GENERATOR_KEYS)
        if name == "laplacian1d":
            op = laplacian_1d(args.integer("n"), e0_norm=e0_norm)
        elif name == "diag":
            op = diagonal_operator(parse_vector(gen[len("diag"):], args.what), e0_norm=e0_norm)
        elif name == "jordan":
            op = jordan_block(parse_complex(args["lambda"]), args.integer("size"),
                              e0_norm=e0_norm)
        else:
            seed = args.integer("seed", low=0) if "seed" in args else 0
            op = random_normal_operator(args.integer("dim"), seed, e0_norm=e0_norm)
    elif rows:
        try:
            A = np.vstack(rows)
        except ValueError:
            raise ConfigError("inline rows have inconsistent lengths") from None
        op = OperatorPair(A, e0_norm=e0_norm)
    else:
        raise ConfigError("no matrix specified")

    if "dim" in kv and kv.integer("dim") != op.dim:
        raise ConfigError(f"declared dim {kv['dim']} != actual dim {op.dim}")
    return op


def load_operator(path):
    with open(path) as fh:
        return parse_operator_text(fh.read())
