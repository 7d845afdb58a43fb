"""The three benchmark workloads.

A workload's constructor is its set-up: it builds or writes the operators
from the seed and computes the lazy spectral data its batch uses. ``units``
returns one batch: a fixed list of units, the same on every commit, built
afresh for every repeat (new solvers, so no solver cache carries over).
``repeats`` is how many times a run executes the batch at least. A unit is
timed around ``run`` only; ``check`` runs afterwards, outside the timed
window, and compares the result with an independent reference at the
acceptance tolerances.

Why these three:

- identity: the criterion-1 batch (7-operator corpus x 25 mu). Almost all
  of its time is ``cauchy.exp_functionals`` and ``phi``; it makes no
  resolvent call.
- spectral: resolvent norms and solves on large operators, normal and
  non-normal, and no Cauchy solve, so no ``phi``.
- pipeline: every CLI experiment end to end on small operator files. It
  reaches ``cauchy.solve`` with per-node forcing evaluations,
  ``estimate_M``, ``omega2_search``, Neumann series and the expm oracle,
  which the other two do not.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

IDENTITY_TOL = 1e-8        # criterion 1 / identity-check
RECONSTRUCT_TOL = 1e-6     # criterion 2 / reconstruct
CONTOUR_TOL = 1e-8         # criterion 7
NORM_TOL = 1e-8            # resolvent norm of a normal operator vs 1/dist

# frozen copies of the library's default grids, so the batch stays fixed
# even if those defaults change
MU_GRID_25 = [complex(r, i)
              for r in np.logspace(np.log10(0.5), np.log10(32), 5)
              for i in np.linspace(-16, 16, 5)]
HALFPLANE_GRID = [complex(r, i)
                  for r in np.logspace(np.log10(0.5), 3, 5)
                  for i in np.linspace(-100, 100, 21)]
_POS = np.logspace(-2, 3, 41)
IMAG_AXIS = [float(b) for b in np.concatenate([-_POS[::-1], [0.0], _POS])]
CONTOUR_TIMES = (0.01, 0.1, 1.0)
CONTOUR_NODES = 64

EXPERIMENTS = ("spectrum", "resolvent-scan", "maxreg-estimate", "identity-check",
               "reconstruct", "weighted", "theta-sweep", "verdict")


class Miss(Exception):
    """The unit's output misses its acceptance tolerance."""


class BadExit(Exception):
    """The CLI returned an exit code the unit does not allow."""


@dataclass
class Unit:
    label: str
    run: Callable[[], object]
    # check(result) -> (key outputs, fingerprint or None); raises Miss or BadExit
    check: Callable[[object], tuple]


def _unit_vector(rng, dim):
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return x / np.linalg.norm(x)


def _warm(op, diagonalization):
    op.eigenvalues
    op.matrix_norm
    if diagonalization:
        op.diagonalization


def _laplacian_eigenvalues(n):
    h = 1.0 / (n + 1)
    k = np.arange(1, n + 1)
    return -(4.0 / h**2) * np.sin(k * np.pi * h / 2.0) ** 2 + 0j


def _near(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref)


class Identity:
    """Criterion 1: assemble U_mu, V_mu and check the surjectivity identity."""

    repeats = 1

    def __init__(self, seed, workdir, sl):
        self.sl = sl
        rng = np.random.default_rng([seed, 0])
        self.ops = {
            "diag": sl.diagonal_operator([-1.0, -2.0]),
            "lap16": sl.laplacian_1d(16),
            "lap64": sl.laplacian_1d(64),
            "lap256": sl.laplacian_1d(256),
            "jordan3": sl.jordan_block(-1.0, 3),
            "jordan8": sl.jordan_block(-2.0, 8),
            "normal16": sl.random_normal_operator(16, seed=seed),
        }
        for op in self.ops.values():
            _warm(op, diagonalization=True)
        self.xs = {name: _unit_vector(rng, op.dim) for name, op in self.ops.items()}
        self.grid = sl.TimeGrid.uniform(1.0, panels=16, nodes_per_panel=8)

    def units(self):
        sl = self.sl
        out = []
        for name, op in self.ops.items():
            solver = sl.CauchySolver(op, self.grid)
            x = self.xs[name]
            for mu in MU_GRID_25:
                def run(op=op, solver=solver, x=x, mu=mu):
                    return sl.surjectivity_identity_check(op, sl.assemble_U_V(solver, mu), x)

                def check(res, name=name, mu=mu):
                    if not res <= IDENTITY_TOL:
                        raise Miss(f"identity residual {res:.3e} at {name} mu={mu}")
                    return {"identity.max_residual": res}, None
                out.append(Unit(f"{name}@{mu}", run, check))
        return out


def _nonnormal_operator(sl, n, seed):
    """Dense non-normal operator Q (D + N) Q^*: real spectrum D in [-9, -1]
    (inside the contour's design region), strictly upper triangular N."""
    rng = np.random.default_rng([seed, 1])
    d = -(1.0 + 8.0 * rng.random(n))
    N = np.triu(rng.standard_normal((n, n)), 1) * (2.0 / np.sqrt(n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return sl.OperatorPair(Q @ (np.diag(d) + N) @ Q.conj().T)


class Spectral:
    """Half-plane scan, imaginary-axis verdict scan and contour semigroup on
    large operators: one unit per scan point or contour evaluation."""

    repeats = 1

    def __init__(self, seed, workdir, sl):
        self.sl = sl
        rng = np.random.default_rng([seed, 2])
        self.ops = {
            "lap512": sl.laplacian_1d(512),
            "normal256": sl.random_normal_operator(256, seed=seed),
            "nonnormal256": _nonnormal_operator(sl, 256, seed),
        }
        for op in self.ops.values():
            _warm(op, diagonalization=False)
        # random_normal_operator's box spectrum reaches Im = +-8 at Re = s(A),
        # outside the sector the contour is built for: its 64-node result at
        # t = 1 is off by ~1e-3 and its own error estimate says so. The
        # contour runs on the two operators with real spectrum.
        self.contour_ops = ("lap512", "nonnormal256")
        self.xs = {name: _unit_vector(rng, op.dim) for name, op in self.ops.items()}
        # references for the checks, computed once and never timed
        self._normal_eigs = {"lap512": _laplacian_eigenvalues(512)}
        self._oracle = {}

    def _eigs(self, name):
        # spectrum of a normal operator: closed form for the Laplacian,
        # LAPACK's eigenvalues of the matrix for the random one
        if name not in self._normal_eigs:
            self._normal_eigs[name] = np.linalg.eigvals(self.ops[name].matrix)
        return self._normal_eigs[name]

    def _check_norm(self, name, mu, norm, index):
        """Normal operators: ||(mu - A)^-1|| = 1/dist(mu, spectrum). The
        non-normal one: every fourth point against scipy's own LAPACK SVD."""
        if not (math.isfinite(norm) and norm > 0):
            raise Miss(f"resolvent norm {norm} at {name} mu={mu}")
        if name == "nonnormal256":
            if index % 4 == 0:
                R = mu * np.eye(self.ops[name].dim) - self.ops[name].matrix
                ref = 1.0 / scipy.linalg.svdvals(R)[-1]
                if not _near(norm, ref, NORM_TOL):
                    raise Miss(f"resolvent norm {norm} vs {ref} at {name} mu={mu}")
            return
        ref = 1.0 / np.min(np.abs(mu - self._eigs(name)))
        if not _near(norm, ref, NORM_TOL):
            raise Miss(f"resolvent norm {norm} vs 1/dist {ref} at {name} mu={mu}")

    def units(self):
        sl = self.sl
        out = []
        for name, op in self.ops.items():
            omega = max(0.0, op.spectral_bound + 1e-9)
            for i, mu in enumerate(HALFPLANE_GRID):
                def run(op=op, omega=omega, mu=mu):
                    return sl.halfplane_scan(op, omega, [mu]).scan[0][1]

                def check(norm, name=name, mu=mu, i=i):
                    self._check_norm(name, mu, norm, i)
                    return {f"N.{name}": (1.0 + abs(mu)) * norm}, None
                out.append(Unit(f"scan:{name}@{mu}", run, check))
            for i, beta in enumerate(IMAG_AXIS):
                def run(op=op, beta=beta):
                    return sl.rplus_verdict(op, scan_imag_axis=[beta])

                def check(v, name=name, beta=beta, i=i):
                    if not v.passed:
                        raise Miss(f"rplus verdict failed at {name} beta={beta}")
                    self._check_norm(name, complex(0.0, beta),
                                     v.uniform_bound / (1.0 + abs(beta)), i)
                    return {f"rplus_bound.{name}": v.uniform_bound}, None
                out.append(Unit(f"rplus:{name}@{beta}", run, check))
        for name in self.contour_ops:
            op = self.ops[name]
            x = self.xs[name]
            for t in CONTOUR_TIMES:
                def run(op=op, t=t, x=x):
                    c = sl.build_contour(op, t, node_count=CONTOUR_NODES)
                    return sl.semigroup_apply_contour(op, c, t, x)

                def check(res, name=name, op=op, t=t, x=x):
                    key = (name, t)
                    if key not in self._oracle:
                        self._oracle[key] = op.semigroup_apply_oracle(t, x)
                    exact = self._oracle[key]
                    scale = op.norm0(exact)
                    err = op.norm0(res.value - exact) / scale
                    if not err <= CONTOUR_TOL:
                        raise Miss(f"contour error {err:.3e} at {name} t={t}")
                    return {"contour.max_error": err,
                            "contour.max_estimate": res.error_estimate / scale}, None
                out.append(Unit(f"contour:{name}@{t}", run, check))
        return out


# -- pipeline ------------------------------------------------------------------

_OPERATOR_FILES = {
    "diag4": "matrix = diag -1,-2.5,-4,-7\n",
    "lap64": "matrix = laplacian1d n=64\n",
    "jordan8": "matrix = jordan lambda=-2 size=8\n",
}
_EIGENVALUES = {
    "diag4": np.array([-1.0, -2.5, -4.0, -7.0], dtype=complex),
    "lap64": _laplacian_eigenvalues(64),
    "jordan8": np.full(8, -2.0, dtype=complex),
}
_NORMAL = {"diag4": True, "lap64": True, "jordan8": False}
_DIAGONAL = {"diag4": True, "lap64": False, "jordan8": False}


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _check_report(exp, name, rep, out):
    """Acceptance tolerances on one report.json; returns key outputs."""
    eigs = _EIGENVALUES[name]
    if exp == "spectrum":
        s_ref = float(np.max(eigs.real))
        if rep["dim"] != len(eigs) or not abs(rep["s_A"] - s_ref) <= 1e-8 * (1 + abs(s_ref)):
            raise Miss(f"s_A {rep['s_A']} vs {s_ref}")
        return {}
    if exp == "resolvent-scan":
        for re_mu, im_mu, norm, _ in _read_csv(os.path.join(out, "resolvent_scan.csv")):
            inv_dist = 1.0 / np.min(np.abs(complex(re_mu, im_mu) - eigs))
            if _NORMAL[name]:
                ok = _near(norm, inv_dist, NORM_TOL)
            else:  # ||(mu - A)^-1|| >= 1/dist(mu, spectrum) for every operator
                ok = norm >= inv_dist * (1 - 1e-12)
            if not ok:
                raise Miss(f"resolvent norm {norm} vs 1/dist {inv_dist} at {re_mu}+{im_mu}j")
        if not _finite(rep["N"]):
            raise Miss(f"N = {rep['N']}")
        return {f"N.{name}": rep["N"]}
    if exp == "maxreg-estimate":
        # omega1 = max(0, log(2 M_hat) / T) with T = 1
        ok = _finite(rep["M_hat"], rep["c2_hat"]) and rep["M_hat"] > 0 and rep["probe_count"] == 12
        if ok:
            w1 = max(0.0, math.log(2.0 * rep["M_hat"]))
            ok = _near(rep["omega1"], w1, 1e-12) if w1 else rep["omega1"] == 0.0
        if not ok:
            raise Miss(f"maxreg report {rep}")
        return {f"M_hat.{name}": rep["M_hat"]}
    if exp == "identity-check":
        if not rep["max_identity_residual"] <= IDENTITY_TOL:
            raise Miss(f"identity residual {rep['max_identity_residual']}")
        return {"identity.max_residual": rep["max_identity_residual"]}
    if exp == "reconstruct":
        if not (rep["max_reconstruction_error"] <= RECONSTRUCT_TOL and _finite(rep["omega2"])
                and rep["omega2"] >= 0):
            raise Miss(f"reconstruct report {rep}")
        return {"reconstruct.max_error": rep["max_reconstruction_error"],
                f"omega2.{name}": rep["omega2"]}
    if exp == "weighted":
        if not _finite(rep["lhs"], rep["rhs"], rep["weighted_norm_u"], rep["trace_norm_upper"]):
            raise Miss(f"weighted report {rep}")
        return {}
    if exp == "theta-sweep":
        if len(rep["M_hat"]) != 9 or not all(_finite(m) and m > 0 for m in rep["M_hat"]):
            raise Miss(f"theta-sweep report {rep}")
        return {}
    if exp == "verdict":
        if not (rep["rplus_pass"] and _finite(rep["M_hat"], rep["omega2"], rep["uniform_bound"])
                and rep["omega"] == max(rep["omega1"], rep["omega2"])):
            raise Miss(f"verdict report {rep}")
        return {f"omega2.{name}": rep["omega2"]}
    raise ValueError(exp)


class Pipeline:
    """Every CLI experiment on every operator file, through semilab.cli.main.
    Each unit's report.json is fingerprinted, so that repeats of the batch
    in one run can be compared byte for byte."""

    # Two repeats: the report.json bytes are compared across them, and with
    # only 24 units of very different cost the median unit is one or two
    # sub-second timings, which need their faster repeat to be steady.
    repeats = 2

    def __init__(self, seed, workdir, sl):
        self.cli = importlib.import_module("semilab.cli")
        self.seed = seed
        self.workdir = workdir
        self.paths = {}
        for name, text in _OPERATOR_FILES.items():
            path = os.path.join(workdir, f"{name}.op")
            with open(path, "w") as fh:
                fh.write(text)
            sl.load_operator(path).eigenvalues
            self.paths[name] = path

    def units(self):
        out = []
        for exp in EXPERIMENTS:
            for name, path in self.paths.items():
                outdir = os.path.join(self.workdir, f"{exp}-{name}")
                argv = [exp, "--operator", path, "--seed", str(self.seed), "--out", outdir]

                def run(argv=argv, outdir=outdir):
                    report = os.path.join(outdir, "report.json")
                    if os.path.exists(report):
                        os.remove(report)
                    return self.cli.main(argv)

                def check(code, exp=exp, name=name, outdir=outdir):
                    # theta-sweep is defined for diagonal operators only; on the
                    # others the documented outcome is an input error, exit 1
                    if exp == "theta-sweep" and not _DIAGONAL[name]:
                        if code != 1:
                            raise BadExit(f"exit {code}, expected 1")
                        return {}, None
                    if code not in (0, 2):
                        raise BadExit(f"exit {code}")
                    with open(os.path.join(outdir, "report.json"), "rb") as fh:
                        blob = fh.read()
                    rep = json.loads(blob)
                    if code != (0 if rep["pass"] else 2):
                        raise BadExit(f"exit {code} with pass={rep['pass']}")
                    return _check_report(exp, name, rep, outdir), hashlib.sha256(blob).hexdigest()
                out.append(Unit(f"{exp}:{name}", run, check))
        return out


WORKLOADS = {"identity": Identity, "spectral": Spectral, "pipeline": Pipeline}
