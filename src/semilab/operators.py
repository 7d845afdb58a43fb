"""Finite-dimensional operator pairs (E0, E1), resolvents, spectra, semigroups.

The ambient space E0 is C^dim with either the euclidean or the sup norm;
E1 is the same space with the graph norm ||x||_1 = ||x||_0 + ||Ax||_0, so
the embedding constant c1 equals 1 exactly.
"""

from __future__ import annotations

import cmath
import ctypes
import math
import re
from contextlib import contextmanager, nullcontext
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dznrm2, zaxpy, zdscal, ztrsv
from scipy.linalg.lapack import dstebz

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
# non-normal euclidean norms: GKL on T from this dimension on, a dense SVD below (README)
_GKL_MIN_DIM = 64
# a real symmetric tridiagonal Toeplitz A takes the DST-I sine basis (SineMap) from this
# dimension on, a stored eigh_tridiagonal basis below: the measured crossover (README)
_SINE_MIN_DIM = 512
# the largest dim whose dim x dim matrix a dense consumer may form (README)
_DENSE_MAX_DIM = 4096
# the Ritz value is read every _GKL_CHECK steps; it stops once it moves by <= _GKL_RTOL
_GKL_CHECK, _GKL_RTOL = 4, 1e-10
# bytes the stacked arrays of one batched call (probes, shifts or scan points) may
# take; a larger batch is cut into chunks of at least one item (see chunks)
BATCH_BYTES = 1 << 21


def chunks(items, item_bytes):
    """The list items cut into consecutive pieces of max(1, BATCH_BYTES // item_bytes) items."""
    n = max(1, BATCH_BYTES // item_bytes)
    return [items[i:i + n] for i in range(0, len(items), n)]


@lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) thread-count functions of each OpenBLAS loaded into the process,
    numpy's (64-bit ints) and scipy's, found in /proc/self/maps on first use; an
    empty tuple where there is none or no maps file."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        handles = [ctypes.CDLL(lib) for lib in libs]
    except OSError:
        return ()
    found = []
    for handle in handles:
        for suffix in ("64_", ""):
            get = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                found.append((get, put))
                break
    return tuple(found)


@contextmanager
def _serial_lapack():
    """Run the block with every loaded OpenBLAS on one thread, then restore each
    count, so a factorization's or a product's bits do not depend on the thread count; a
    LinAlgError (scipy's is numpy's class) leaves the block as an EigenFailure."""
    pins = _openblas_threads()
    counts = [get() for get, _ in pins]
    for _, put in pins:
        put(1)
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from None
    finally:
        for (_, put), count in zip(pins, counts):
            put(count)


class OperatorPair:
    """A closed operator A on C^dim together with the E0 and graph norms.

    Storage follows structure: a diagonal or tridiagonal A is held as its
    bands (lower, diag, upper), read-only complex vectors of lengths dim - 1,
    dim and dim - 1, and its dim x dim ``matrix`` is formed only when a dense
    consumer first asks for it, and never past _DENSE_MAX_DIM (a ConfigError);
    a dense A keeps its matrix and has bands None. A real symmetric
    tridiagonal Toeplitz A (every laplacian_1d) from _SINE_MIN_DIM on holds no
    n x n array at all: its resolvent factor is a SineMap, whose basis is
    applied by FFT. Immutable after construction; all derived data (spectrum,
    factorizations) is cached lazily and never mutated afterwards.
    """

    def __init__(self, matrix, e0_norm="euclidean"):
        """A from a dense square array, reduced to its bands where every
        entry off the three central diagonals is zero."""
        matrix = np.array(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
            raise DimensionMismatch(f"matrix must be square and nonempty, got {matrix.shape}")
        bands = [np.diagonal(matrix, k) for k in (-1, 0, 1)]
        banded = np.count_nonzero(matrix) == sum(np.count_nonzero(b) for b in bands)
        self._store(bands if banded else None, e0_norm)
        if not banded:
            matrix.setflags(write=False)
            self.matrix = matrix

    @classmethod
    def from_bands(cls, lower, diag, upper, e0_norm="euclidean"):
        """The A with sub-, main and super-diagonal lower, diag and upper and
        zeros elsewhere, built without a dim x dim array."""
        op = cls.__new__(cls)
        op._store([lower, diag, upper], e0_norm)
        return op

    def _store(self, bands, e0_norm):
        if e0_norm not in E0_NORMS:
            raise ConfigError(f"unknown e0_norm {e0_norm!r}")
        if bands is not None:
            bands = tuple(np.array(b, dtype=complex) for b in bands)
            n = bands[1].size
            if n == 0 or [b.shape for b in bands] != [(n - 1,), (n,), (n - 1,)]:
                raise DimensionMismatch(f"bands of shapes {[b.shape for b in bands]}")
            for b in bands:
                b.setflags(write=False)
        self.bands, self.e0_norm = bands, e0_norm

    @property
    def dim(self):
        return self.matrix.shape[0] if self.bands is None else len(self.bands[1])

    @cached_property
    def matrix(self):
        """A as a read-only dim x dim array, formed from the bands on first
        request. Only the dense consumers ask: the Cauchy solver's dense
        backend, _dense_norms, the eigenvalues and Schur factor of a
        non-Hermitian A, and the expm oracle. Past _DENSE_MAX_DIM it is
        refused with a ConfigError instead of allocated."""
        A = _from_bands(*self.bands)
        A.setflags(write=False)
        return A

    @cached_property
    def structure(self):
        """"diagonal", "tridiagonal" (zero off the three central diagonals) or
        "dense", read from the zeros of A. Picks the spectral and resolvent paths."""
        if self.bands is None:
            return "dense"
        lower, _, upper = self.bands
        return "tridiagonal" if lower.any() or upper.any() else "diagonal"

    def __repr__(self):
        return (f"OperatorPair(dim={self.dim}, structure={self.structure!r}, "
                f"e0_norm={self.e0_norm!r})")

    def apply(self, X):
        """A x along the last axis of X: A x for a vector, x A^T for the rows x
        of a stack. From the bands in O(dim) per row, (d x_i + u x_{i+1}) +
        l x_{i-1}; a dense A takes the one product X A^T, for a vector
        bit-equal to A @ x."""
        X = np.asarray(X)
        if self.bands is None:
            return X @ self.matrix.T
        lower, d, upper = self.bands
        Y = d * X
        if self.structure == "tridiagonal":
            Y[..., :-1] += upper * X[..., 1:]
            Y[..., 1:] += lower * X[..., :-1]
        return Y

    # -- norms -------------------------------------------------------------

    def norm0_rows(self, X):
        """E0 norm (euclidean or sup) along the last axis of X: one norm per
        row of a (n, dim) array, a 0-d array for a vector. Every E0 norm in
        the laboratory goes through here, so equal vectors get bit-equal
        norms whichever routine asks. The euclidean norm is the sqrt of one
        einsum sum of squares over the float view, unscaled: inf where the
        squares overflow and 0 where they all underflow, as numpy's norm."""
        X = np.asarray(X)
        if self.e0_norm == "euclidean":
            X = (np.ascontiguousarray(X, dtype=complex).view(float) if X.dtype.kind == "c"
                 else np.asarray(X, dtype=float))
            return np.sqrt(np.einsum("...i,...i->...", X, X))
        return np.max(np.abs(X), axis=-1, initial=0.0)

    def norm0(self, x):
        """E0 norm of a vector."""
        return float(self.norm0_rows(x))

    def norm1(self, x):
        """Graph norm ||x||_1 = ||x||_0 + ||Ax||_0 of a vector (a float), or of
        each row of a stack of them. A dense A takes the rows one at a time, so
        a row's norm has the bits of the vector's whatever stack it sits in."""
        x = np.asarray(x)
        Ax = (np.array([self.apply(row) for row in x]) if x.ndim > 1 and self.bands is None
              else self.apply(x))
        n = self.norm0_rows(x) + self.norm0_rows(Ax)
        return float(n) if n.ndim == 0 else n

    def operator_norm(self, B, inverse=False):
        """E0 operator norm of a matrix B, or of B^-1 where inverse: a float for one matrix,
        an array for a stack. Euclidean: sigma_max (np.linalg.norm(B, 2)) or 1 / sigma_min of
        one stacked SVD; sup: the largest row sum of |B|, or of |B^-1| from one stacked inverse.
        The one place dense norms fail closed: a non-finite entry or norm reads inf. The
        sup norm of a diagonal EigenMap (Z = I) reads its d, with the same bits."""
        if isinstance(B, EigenMap) and B.identity and self.e0_norm == "sup" and not inverse:
            # the largest row sum of |diag(d)| is max |d|; a non-finite entry reads inf
            return float(np.fmin(np.abs(B.d).max(), math.inf))
        B = np.asarray(B)
        if not np.isfinite(B).all():  # the non-finite matrices read inf and never reach LAPACK
            finite = np.isfinite(B).all(axis=(-2, -1))
            norms = np.full(finite.shape, math.inf)
            if finite.any():
                norms[finite] = self.operator_norm(B[finite], inverse)
            return float(norms) if norms.ndim == 0 else norms
        euclidean = self.e0_norm == "euclidean"
        if euclidean or inverse:
            with _serial_lapack():
                B = np.linalg.svd(B, compute_uv=False) if euclidean else np.linalg.inv(B)
        if euclidean and not inverse:  # never NaN: svd raises where LAPACK fails
            return float(B[0]) if B.ndim == 1 else B[..., 0]
        with np.errstate(divide="ignore", over="ignore"):  # 1 / 0 and overflows give inf
            n = 1.0 / B[..., -1] if euclidean else np.max(np.sum(np.abs(B), axis=-1), axis=-1)
        n = np.fmin(n, math.inf)  # a NaN norm reads inf too
        return float(n) if n.ndim == 0 else n

    @cached_property
    def matrix_norm(self):
        """||A||_F, the scale of every tolerance: it bounds both E0 operator
        norms within a factor sqrt(dim). One overflow-safe BLAS dznrm2, over
        the bands' entries in the row-major order of A: the zeros it skips
        there add nothing, so the norm is the dense matrix's, bit for bit."""
        if self.bands is None:
            return float(dznrm2(self.matrix.ravel()))
        lower, d, upper = self.bands
        entries = np.empty(3 * len(d) - 2, dtype=complex)
        entries[0::3], entries[1::3], entries[2::3] = d, upper, lower
        return float(dznrm2(entries))

    # -- spectrum ----------------------------------------------------------

    @cached_property
    def is_hermitian(self):
        """A = A* entrywise to 1e-14 (1 + ||A||_F), as np.allclose compares them. Only
        asked of structure=tridiagonal, so only the bands are compared: every
        other entry of A and of A* is zero."""
        lo, d, up = self.bands
        tol = 1e-14 * (1 + self.matrix_norm)
        return bool(np.allclose(np.concatenate([d, up, lo]), np.concatenate([d, lo, up]).conj(),
                                rtol=0, atol=tol))

    @cached_property
    def eigenvalues(self):
        if self.structure == "diagonal":
            return self.bands[1].copy()
        with _serial_lapack():
            if self.structure == "tridiagonal" and self.is_hermitian:
                # a diagonal unitary similarity makes the off-diagonal |e|
                _, d, e = self.bands
                return scipy.linalg.eigh_tridiagonal(d.real, np.abs(e),
                                                     eigvals_only=True).astype(complex)
            return np.linalg.eigvals(self.matrix)

    @property
    def spectral_bound(self):
        return float(np.max(self.eigenvalues.real))

    @property
    def singular_tol(self):
        # scale-invariant guard against near-singular resolvent solves
        return 1e-12 * (1.0 + self.matrix_norm)

    # -- resolvent ---------------------------------------------------------

    def check_vector(self, y):
        y = np.asarray(y, dtype=complex)
        if y.shape != (self.dim,):
            raise DimensionMismatch(f"vector of shape {y.shape} for dim {self.dim}")
        return y

    def _shift_distances(self, mus, refuse=True):
        """(dist, near): dist(mu, sigma(A)) for each shift of the 1-D array mus,
        in one pass over the spectrum, and where it is within singular_tol;
        unless refuse is false, SingularResolvent names the first such shift."""
        dist = np.min(np.abs(mus[:, None] - self.eigenvalues), axis=1)
        near = dist <= self.singular_tol
        if refuse and near.any():
            raise SingularResolvent(f"mu={mus[np.argmax(near)]} within tolerance of the spectrum")
        return dist, near

    @cached_property
    def resolvent_factor(self):
        """A = Z T Z*, Z unitary, Z and T read-only: EigenMap(Z, lam) if A is normal
        (lam its eigenvalues), else the pair (Z, T) of its complex Schur form. A
        real symmetric tridiagonal Toeplitz A from _SINE_MIN_DIM on is the
        SineMap of its closed-form spectrum, which stores no basis."""
        if self.structure == "tridiagonal" and self.dim >= _SINE_MIN_DIM:
            lo, d, up = self.bands
            if (not (d.imag.any() or up.imag.any()) and np.array_equal(lo, up)
                    and (d == d[0]).all() and (up == up[0]).all()):
                return SineMap.toeplitz(d[0].real, up[0].real, self.dim)
        Z = None
        with _serial_lapack():
            if self.structure == "diagonal":
                T = self.bands[1].copy()
            elif self.structure == "tridiagonal" and self.is_hermitian:
                _, d, e = self.bands
                lam, V = scipy.linalg.eigh_tridiagonal(d.real, np.abs(e))
                # A = P V diag(lam) V^T P*, P = diag(p) carrying the phases of e:
                # p = +-1 exactly where e is real, so Z = P V stays real there
                p = np.cumprod(np.divide(e.conj(), np.abs(e), out=np.ones_like(e), where=e != 0))
                p = p if e.imag.any() else p.real
                Z, T = np.concatenate([[1.0], p])[:, None] * V, lam.astype(complex)
            else:
                T, Z = scipy.linalg.schur(self.matrix, output="complex")
        # Weyl: dropping N = triu(T, 1) moves each singular value of mu - T by <= ||N||
        if T.ndim == 2 and np.linalg.norm(np.triu(T, 1)) <= self.singular_tol:
            T = np.diag(T).copy()
        for part in (Z, T):
            if part is not None:
                part.setflags(write=False)
        return EigenMap(Z, T) if T.ndim == 1 else (Z, T)

    @property
    def resolvent_backend(self):
        return "normal" if isinstance(self.resolvent_factor, EigenMap) else "schur"

    def resolvent_solve(self, mu, y):
        """Solve (mu - A)x = y for a vector y: the one-shift resolvent_sum."""
        return self.resolvent_sum([mu], [1.0], y)

    def resolvent_sum(self, mus, weights, y):
        """sum_k weights[k] (mus[k] - A)^{-1} y for a vector y through the
        cached factor A = Z T Z*: one Z* y and one product with Z for all
        shifts; a Schur factor takes one copy of mu - T per call, each shift
        writing its diagonal and taking one ztrsv. SingularResolvent names
        the first shift within singular_tol of the spectrum."""
        mus, weights = np.asarray(mus, dtype=complex), np.asarray(weights)
        y = self.check_vector(y)
        self._shift_distances(mus)
        factor = self.resolvent_factor
        if isinstance(factor, EigenMap):
            return factor.apply((factor.adjoint(y)[:, None] / (mus - factor.d[:, None])) @ weights)
        Z, T = factor
        M, t, x = _shifted_schur(0.0, T), np.diag(T), np.zeros(self.dim, dtype=complex)
        diagonal, w = np.einsum("ii->i", M), np.conj(Z.T @ np.conj(y))
        for mu, weight in zip(mus, weights):
            np.subtract(mu, t, out=diagonal)
            x = zaxpy(ztrsv(M, w), x, a=weight)
        return Z @ x

    def resolvent_norms(self, mus):
        """E0 operator norms of (mu - A)^-1 at the points of the sequence mus,
        as an array: inf where mu is within singular_tol of the spectrum or
        the norm overflows. Euclidean norms of a normal A are 1/dist for all
        points in one pass; a non-normal A from _GKL_MIN_DIM on takes
        resolvent_norm's Golub-Kahan-Lanczos on the Schur factor point by
        point; every other norm comes from the dense mu - A, stacked in
        chunks (_dense_norms)."""
        mus = np.asarray(mus, dtype=complex).reshape(-1)
        dist, near = self._shift_distances(mus, refuse=False)
        norms, ok = np.full(len(mus), math.inf), np.flatnonzero(~near)
        euclidean = self.e0_norm == "euclidean"
        if euclidean and isinstance(self.resolvent_factor, EigenMap):
            norms[ok] = 1.0 / dist[ok]
        elif euclidean and self.dim >= _GKL_MIN_DIM:
            for i in ok:
                try:
                    norms[i] = self.resolvent_norm(mus[i])
                except SingularResolvent:
                    pass
        else:
            norms[ok] = self._dense_norms(mus[ok])
        return norms

    def resolvent_norm(self, mu):
        """E0 operator norm of (mu - A)^-1 at one point: SingularResolvent where
        resolvent_norms reads inf. A non-normal A from _GKL_MIN_DIM on takes
        Golub-Kahan-Lanczos on mu - T (||(mu - A)^-1|| = ||(mu - T)^-1||, Z
        unitary), or one dense SVD if its Ritz value has not settled in n
        steps; any other point is the one-point resolvent_norms."""
        mu = complex(mu)
        self._shift_distances(np.array([mu]))
        factor = self.resolvent_factor if self.e0_norm == "euclidean" else None
        if factor is None or isinstance(factor, EigenMap) or self.dim < _GKL_MIN_DIM:
            norm = self.resolvent_norms([mu])[0]
        else:
            norm = _inverse_norm(_shifted_schur(mu, factor[1]))
            if norm is None:
                norm = self._dense_norms(np.array([mu]))[0]
        if norm == math.inf:
            raise SingularResolvent("resolvent norm overflows")
        return float(norm)

    def _dense_norms(self, mus):
        """The inverse operator_norm of mu - A at each shift of mus, stacked in chunks."""
        A, norms = self.matrix, np.empty(len(mus))  # refused past _DENSE_MAX_DIM before any eye
        for part in chunks(np.arange(len(mus)), 64 * self.dim ** 2):
            R = mus[part, None, None] * np.eye(self.dim) - A
            norms[part] = self.operator_norm(R, inverse=True)
        return norms

    # -- semigroup oracle ----------------------------------------------------

    def semigroup_apply_oracle(self, t, x):
        """e^{tA}x independent of the resolvent factor: eigenvalue exponentials
        (diagonal), V e^{t Lambda} V* x from scipy's eigh (a tridiagonal A equal
        to its conjugate transpose exactly, with no tolerance: Householder and
        MRRR, where the factor runs divide and conquer on (d, |e|)), or scaling
        and squaring (any other A). t = 0 returns x unchanged. A matrix with no
        imaginary part is decomposed or exponentiated in real arithmetic. The
        tridiagonal branch forms its own transient matrix from the bands and
        leaves ``matrix`` unformed."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        x = self.check_vector(x)
        if t == 0:
            return x.copy()
        if self.structure == "diagonal":
            return np.exp(t * self.bands[1]) * x
        if self.structure == "tridiagonal":
            lo, d, up = self.bands
            if not d.imag.any() and np.array_equal(lo, up.conj()):
                B = _from_bands(*(b if up.imag.any() else b.real for b in self.bands))
                with _serial_lapack():
                    lam, V = scipy.linalg.eigh(B)
                return EigenMap(V, np.exp(t * lam)) @ x
        A = self.matrix
        return _times(scipy.linalg.expm(t * (A if A.imag.any() else A.real)), x)

    # -- evolution backend for the Cauchy solver ------------------------------

    @cached_property
    def diagonalization(self):
        """The resolvent factor EigenMap(Z, lam), A = Z diag(lam) Z*, of a normal
        A; None otherwise, which sends the Cauchy solver to its dense backend."""
        return self.resolvent_factor if isinstance(self.resolvent_factor, EigenMap) else None


class EigenMap:
    """Z diag(d) Z*, Z unitary: a normal operator's resolvent factor (d its
    eigenvalues) or a Cauchy solution functional in its eigen coordinates. Z is
    None for I (structure=diagonal, never formed), float64 for a Hermitian
    tridiagonal with a real off-diagonal, complex otherwise. Every consumer
    reaches Z through apply, adjoint, rows and column, O(dim^2) per column
    with a stored Z, and never reads Z itself; with_values and a scalar *
    keep the basis and change d; only np.asarray makes it dense. SineMap is
    the kind whose basis is not stored."""

    __array_ufunc__ = None  # so c * map with a numpy scalar c defers to __rmul__

    def __init__(self, Z, d):
        self.Z, self.d = Z, d

    @property
    def identity(self):
        """The basis is I: apply and adjoint return their argument."""
        return self.Z is None

    def with_values(self, d):
        """The map on this basis with eigenvalues d."""
        return EigenMap(self.Z, d)

    def apply(self, x):
        """Z x for a vector x or a stack of columns x (..., n, k), as _times."""
        return x if self.Z is None else _times(self.Z, x)

    def adjoint(self, y):
        """Z* y as apply takes x, written conj(Z^T conj(y)), so no conjugated
        copy of Z is made; a real Z is Z^T on the float view of y."""
        Z = self.Z
        if Z is not None and Z.dtype.kind == "c":
            return np.conj(Z.T @ np.conj(y))
        return y if Z is None else _times(Z.T, y)

    def rows(self, v):
        """v Z^T, Z applied along the last axis of a stack of rows v, as a new
        array (not asked of I): a complex Z as the one product v @ Z^T, which
        (Z v^T)^T would not match bit for bit, a real one as apply."""
        Z = self.Z
        return v @ Z.T if Z.dtype.kind == "c" else self.apply(v.swapaxes(-1, -2)).swapaxes(-1, -2)

    def column(self, k):
        """Column k of Z as a new complex vector (e_k for I)."""
        Z, n = self.Z, len(self.d)
        return np.eye(1, n, k, dtype=complex)[0] if Z is None else Z[:, k].astype(complex)

    def __matmul__(self, x):
        d = self.d.reshape(self.d.shape + (1,) * (np.ndim(x) - 1))
        return self.apply(d * self.adjoint(x))

    def __mul__(self, c):
        return self.with_values(c * self.d) if np.ndim(c) == 0 else NotImplemented

    __rmul__ = __mul__

    def __array__(self, dtype=None, copy=None):
        Z, d = self.Z, self.d
        if Z is None:
            dense = np.diag(d)
        elif Z.dtype.kind == "c":
            dense = (Z * d) @ Z.conj().T
        else:  # Z (diag(d) Z^T), with Z on the float view
            dense = _times(Z, np.multiply(d[:, None], Z.T, order="C"))
        return np.asarray(dense, dtype)


class SineMap(EigenMap):
    """The EigenMap of a real symmetric tridiagonal Toeplitz matrix, a on the
    diagonal and b != 0 beside it, with no stored basis: its eigenvectors are
    the columns of the orthonormal DST-I matrix S, S_jk = sqrt(2/(n+1))
    sin(jk pi/(n+1)), symmetric with S = S^-1 (Strang, SIAM Rev. 41, 1999).
    The columns are ordered as the eigenvalues ascend: the basis is Z = S R
    for b > 0, R the reversal, and Z = S for b < 0. S x is the entries 1..n of
    the FFT of length 2(n+1) of the odd extension (0, x, 0, -reversed x),
    times i / sqrt(2(n+1)) (Van Loan, Computational Frameworks for the FFT,
    1992, section 4.4): one FFT per column, and no n x n array."""

    identity = False

    def __init__(self, d, order):
        self.d, self._order = d, order

    @classmethod
    def toeplitz(cls, a, b, n):
        """The factor of the n x n matrix: the closed-form eigenvalues (a + 2b)
        - 4b sin^2(k pi / (2(n+1))) of the modes k = 1..n, read-only and
        ascending as eigh_tridiagonal returns them."""
        order = slice(None, None, -1 if b > 0 else 1)
        k = np.arange(1, n + 1)[order]
        lam = ((a + 2 * b) - 4 * b * np.sin(k * np.pi / (2 * (n + 1))) ** 2).astype(complex)
        lam.setflags(write=False)
        return cls(lam, order)

    def with_values(self, d):
        return SineMap(d, self._order)

    def _along(self, x, axis, adjoint=False):
        """Z x = S (R x), or Z^T x = R (S x) where adjoint (Z is real), along
        the given axis of x; R is the identity for b < 0."""
        x = np.moveaxis(x, axis, -1)
        n, order = x.shape[-1], self._order
        y = x if adjoint else x[..., order]
        z = np.zeros(x.shape[:-1] + (2 * n + 2,), dtype=complex)
        z[..., 1:n + 1], z[..., :n + 1:-1] = y, -y
        Sx = np.fft.fft(z, norm="ortho")[..., 1:n + 1]
        return np.moveaxis(1j * (Sx[..., order] if adjoint else Sx), -1, axis)

    def apply(self, x):
        return self._along(x, 0 if np.ndim(x) == 1 else -2)

    def adjoint(self, y):
        return self._along(y, 0 if np.ndim(y) == 1 else -2, adjoint=True)

    def rows(self, v):
        return self._along(v, -1)

    def column(self, k):
        return self.apply(np.eye(1, len(self.d), k, dtype=complex)[0])

    def __array__(self, dtype=None, copy=None):
        n = len(self.d)
        _dense_cap(n)
        dense = self.apply(self.d[:, None] * self.adjoint(np.eye(n, dtype=complex)))
        return np.asarray(dense, dtype)


def _dense_cap(n):
    """ConfigError where an n x n array would pass _DENSE_MAX_DIM."""
    if n > _DENSE_MAX_DIM:
        raise ConfigError(f"dim {n} is past {_DENSE_MAX_DIM}, the largest for which "
                          f"a dense {n} x {n} matrix is formed")


def _from_bands(lower, diag, upper):
    """The dim x dim array of diag's dtype with sub-, main and super-diagonal
    lower, diag and upper and zeros elsewhere; refused past _DENSE_MAX_DIM."""
    n = len(diag)
    _dense_cap(n)
    A = np.zeros((n, n), dtype=diag.dtype)
    A.flat[::n + 1], A.flat[1::n + 1], A.flat[n::n + 1] = diag, upper, lower
    return A


def _times(E, x):
    """E @ x for a complex vector x or a stack of columns x (..., n, k); a
    real E acts on the float view of x, since E @ x would copy E to complex.
    A real product of more than one column runs on one BLAS thread: OpenBLAS
    splits such a dgemm between threads in ways that move its bits."""
    if E.dtype.kind == "c":
        return E @ x
    x = np.ascontiguousarray(x, dtype=complex)
    X = (x[:, None] if x.ndim == 1 else x).view(float)
    with _serial_lapack() if X.shape[-1] > 2 else nullcontext():
        out = (E @ X).view(complex)
    return out[:, 0] if x.ndim == 1 else out


# -- triangular kernels on the Schur factor ----------------------------------


def _shifted_schur(mu, T):
    """mu - T as a new Fortran-order array on a 64-byte cache line, the layout
    ztrsv reads fastest: one pass over T, (0 - t) + mu rounding as mu - t."""
    buf = np.empty(T.size + 4, dtype=complex)
    k = (-buf.ctypes.data % 64) // 16
    M = np.subtract(0.0, T, out=buf[k:k + T.size].reshape(T.shape, order="F"))
    np.einsum("ii->i", M)[:] += mu
    return M


@lru_cache
def _start_vector(n):
    """_inverse_norm's fixed-seed unit start vector, drawn once per dimension, read-only."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= dznrm2(v)
    v.setflags(write=False)
    return v


def _top_singular_value(e, s):
    """Largest singular value of the m x (m + 1) bidiagonal C of e = (alpha_1,
    beta_1, ..., alpha_m, beta_m): s times the square root of the top
    eigenvalue of the m x m tridiagonal C C^T of e / s (diagonal alpha_i^2 +
    beta_i^2, off-diagonal alpha_{i+1} beta_i), s = max(e), so no square
    overflows; from LAPACK dstebz with the arguments eigvalsh_tridiagonal(select="i")
    passes, or read directly at m = 1, where dstebz refuses an empty off-diagonal."""
    alpha, beta = e[0::2] / s, e[1::2] / s
    d, m = alpha * alpha + beta * beta, len(alpha)
    if m == 1:
        return float(s * math.sqrt(d[0]))
    _, top, _, _, info = dstebz(d, alpha[1:] * beta[:-1], 2, 0.0, 1.0, m, m, 0.0, "E")
    if info:
        raise EigenFailure(f"dstebz failed with info={info}")
    return float(s * math.sqrt(top[0]))


def _inverse_norm(M):
    """||M^-1||_2 for an upper-triangular M in Fortran order, or None if the
    Ritz value has not settled within n steps: Golub-Kahan-Lanczos on M^-1
    without reorthogonalization, a step two ztrsv and O(n) BLAS updates, only
    the current u and v kept (lost orthogonality only adds copies of converged
    Ritz values: Paige, Linear Algebra Appl. 34, 1980). A fixed start vector
    gives bit-equal norms; M^-1, not (M* M)^-1, keeps norms past 1e154 finite.
    A residual zero against the largest entry top ends it: the value is exact."""
    n = M.shape[0]
    e = np.zeros(2 * n)  # alpha_1, beta_1, alpha_2, ...
    v, u = _start_vector(n), np.zeros(n, dtype=complex)
    eps, top, sigma, beta = np.finfo(float).eps, 0.0, 0.0, 0.0
    for k in range(n):
        u = zaxpy(u, ztrsv(M, v), n, -beta)  # M^-1 v - beta u; f2py parses positions fastest
        e[2 * k] = alpha = dznrm2(u)
        if not alpha < math.inf:  # inf or NaN: (mu - T)^-1 overflows
            raise SingularResolvent("resolvent norm overflows")
        top = max(top, alpha)
        if alpha <= eps * top:
            break
        u = zdscal(1.0 / alpha, u, n, 0, 1, 1)  # in place: n, offx, incx, overwrite_x
        v = zaxpy(v, ztrsv(M, u, trans=2), n, -alpha)  # M^-* u - alpha v
        e[2 * k + 1] = beta = dznrm2(v)
        if not beta < math.inf:
            raise SingularResolvent("resolvent norm overflows")
        top = max(top, beta)
        if beta <= eps * top:
            break
        v = zdscal(1.0 / beta, v, n, 0, 1, 1)
        if k % _GKL_CHECK == _GKL_CHECK - 1:
            sigma, last = _top_singular_value(e[:2 * k + 2], top), sigma
            if sigma - last <= _GKL_RTOL * sigma:
                return sigma
    else:
        return None
    return _top_singular_value(e[:2 * k + 2], top)


# -- canned operator constructors ------------------------------------------


def diagonal_operator(entries, e0_norm="euclidean"):
    d = np.asarray(entries, dtype=complex)
    zeros = np.zeros(max(d.size - 1, 0))
    return OperatorPair.from_bands(zeros, d, zeros, e0_norm=e0_norm)


def laplacian_1d(n, e0_norm="euclidean"):
    """1D Dirichlet Laplacian on n interior points of (0,1), mesh h = 1/(n+1):
    -2/h^2 on the diagonal and 1/h^2 beside it."""
    h = 1.0 / (n + 1)
    off = np.ones(n - 1) / h**2
    return OperatorPair.from_bands(off, -2.0 * np.ones(n) / h**2, off, e0_norm=e0_norm)


def jordan_block(lam, size, e0_norm="euclidean"):
    return OperatorPair.from_bands(np.zeros(size - 1), np.full(size, complex(lam)),
                                   np.ones(size - 1), e0_norm=e0_norm)


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
