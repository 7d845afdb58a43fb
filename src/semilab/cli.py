"""Command-line experiment runner.

Every experiment reads an operator description file, runs one named
experiment, and writes ``report.json`` plus experiment-specific CSVs into
the output directory.  Exit codes: 0 = all pass flags true, 2 = a
scientific check failed (still a valid result), 1 = usage or parse error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys

import numpy as np

from .cauchy import CauchySolver, estimate_M
from .errors import ConfigError, SemilabError
from .forcing import _random_unit, default_probes, load_probes
from .operators import load_operator, parse_vector
from .theorem import (  # assemble_U_V unused here: the benchmark's tracer test reads it
    assemble_U_V,
    assemble_U_V_batch,
    halfplane_scan,
    mu_box,
    omega1,
    omega2_search,
    resolvent_from_solver,
    rplus_verdict,
    surjectivity_identity_check,
    vnorm_decay,
)
from .timegrid import TimeGrid, e0_norm_J
from .weighted import theta_sweep, trace_norm_upper, weighted_maxreg_check

# glibc malloc keeps freed blocks below _MMAP_THRESHOLD on its heap and trims the
# heap only past _TRIM_THRESHOLD (mallopt(3)), so freed probe and shift stacks stay
# mapped and the next chunk or run reuses their pages instead of faulting them in
_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD = -3, -1  # mallopt's parameter numbers
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 16 << 20, 32 << 20


def _keep_freed_memory():
    """Set the policy above, or nothing where the C library has no mallopt
    (macOS, Windows). Only main calls it: importing semilab does not."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_mu_grid(spec):
    """Either a comma-separated list of complex numbers or
    ``grid:RE_LO:RE_HI:NRE:IM_LO:IM_HI:NIM`` (log-spaced real parts,
    linear imaginary parts)."""
    if spec.startswith("grid:"):
        try:
            re_lo, re_hi, n_re, im_lo, im_hi, n_im = (float(p) for p in spec.split(":")[1:])
        except ValueError:
            raise ConfigError(f"bad mu-grid spec {spec!r}") from None
        if not all(map(math.isfinite, (re_lo, re_hi, im_lo, im_hi))):
            raise ConfigError(f"mu-grid {spec!r} has a bound that is not finite")
        if not (n_re.is_integer() and n_im.is_integer() and min(n_re, n_im) >= 1):
            raise ConfigError(f"mu-grid {spec!r}: point counts must be integers >= 1")
        if min(re_lo, re_hi) <= 0:
            raise ConfigError("mu-grid real parts must be positive (log spacing)")
        return mu_box(re_lo, re_hi, int(n_re), im_lo, im_hi, int(n_im))
    return [complex(m) for m in parse_vector(spec, "--mu-grid")]


def _csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_report(out, report):
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


# -- experiments -----------------------------------------------------------


def run_spectrum(solver, args, out):
    op = solver.op
    ev = op.eigenvalues
    _csv(os.path.join(out, "spectrum.csv"), "re_lambda,im_lambda",
         [(float(l.real), float(l.imag)) for l in ev])
    return {"s_A": float(op.spectral_bound), "dim": op.dim}, True


def run_resolvent_scan(solver, args, out):
    op = solver.op
    omega = max(0.0, float(op.spectral_bound) + 1e-9)
    rep = halfplane_scan(op, omega, args.mus)
    rows = [(m.real, m.imag, r, (1.0 + abs(m)) * r) for m, r in rep.scan]
    _csv(os.path.join(out, "resolvent_scan.csv"),
         "re_mu,im_mu,resolvent_norm,weighted_norm", rows)
    ok = bool(np.isfinite(rep.bound_constant))
    return {"N": rep.bound_constant, "omega": omega,
            "s_A": float(op.spectral_bound),
            "resolvent_backend": op.resolvent_backend}, ok


def run_maxreg_estimate(solver, args, out):
    est = estimate_M(solver, args.probe_set or default_probes(solver.op, seed=args.seed))
    rows, running = [], 0.0
    for i, r in enumerate(est.ratios):
        running = max(running, r)
        rows.append((i, float(r), float(running)))
    _csv(os.path.join(out, "maxreg.csv"), "probe_id,ratio,M_hat_running", rows)
    w1 = omega1(est.M_hat, args.T)
    return {"M_hat": est.M_hat, "c2_hat": est.c2_hat, "omega1": w1,
            "probe_count": est.probe_count}, bool(np.isfinite(est.M_hat))


def run_identity_check(solver, args, out):
    op = solver.op
    x = _random_unit(np.random.default_rng(args.seed), op.dim)
    rows = []
    for sd in assemble_U_V_batch(solver, args.mus or mu_box(0.5, 32, 5, -16, 16, 5)):
        res = surjectivity_identity_check(op, sd, x)
        rows.append((sd.mu.real, sd.mu.imag, sd.V_norm, float(res)))
    _csv(os.path.join(out, "identity.csv"),
         "re_mu,im_mu,V_norm,identity_residual", rows)
    worst = float(np.max([0.0] + [row[3] for row in rows]))  # NaN if a row is NaN
    return {"max_identity_residual": worst, "T": args.T}, worst <= 1e-8


def run_reconstruct(solver, args, out):
    op = solver.op
    w2 = omega2_search(solver)
    mus = args.mus or mu_box(w2 + 0.5, w2 + 16, 3, -4.0, 4.0, 3)
    bad = next((mu for mu in mus if mu.real <= w2), None)
    if bad is not None:
        raise _UsageError(f"mu={bad} has Re mu <= omega2={w2:.6g}")
    y = _random_unit(np.random.default_rng(args.seed), op.dim)
    rows = []
    for sd in assemble_U_V_batch(solver, mus):
        mu = sd.mu
        x = resolvent_from_solver(solver, mu, y, sdata=sd)
        err = float(op.norm0(x - op.resolvent_solve(mu, y)) / op.norm0(y))
        rows.append((mu.real, mu.imag, sd.V_norm, err, sd.neumann_terms))
    _csv(os.path.join(out, "reconstruct.csv"),
         "re_mu,im_mu,V_norm,reconstruction_error,neumann_terms", rows)
    worst = float(np.max([0.0] + [row[3] for row in rows]))  # NaN if a row is NaN
    return {"omega2": float(w2), "max_reconstruction_error": worst}, worst <= 1e-6


def run_weighted(solver, args, out):
    op = solver.op
    est = estimate_M(solver, args.probe_set or default_probes(op, seed=args.seed))
    mu = args.mus[0] if args.mus else complex(1.0)
    x = _random_unit(np.random.default_rng(args.seed), op.dim)
    chk = weighted_maxreg_check(solver, args.sigma, mu, x, est.M_hat,
                                c2_hat=est.c2_hat)
    wn = e0_norm_J(op, chk.u, args.sigma)
    tr = trace_norm_upper(solver, x, args.sigma)
    report = {"sigma": args.sigma, "lhs": chk.lhs, "rhs": chk.rhs,
              "inequality_pass": chk.passed,
              "endpoint_value": chk.endpoint_value,
              "endpoint_bound": chk.endpoint_bound,
              "endpoint_pass": chk.endpoint_ok,
              "weighted_norm_u": wn,
              "trace_norm_upper": tr}
    ok = bool(chk.passed and (chk.endpoint_ok is not False))
    _csv(os.path.join(out, "weighted.csv"),
         "sigma,lhs,rhs,endpoint_value,weighted_norm",
         [(args.sigma, chk.lhs, chk.rhs, chk.endpoint_value, wn)])
    return report, ok


def run_theta_sweep(solver, args, out):
    thetas = [args.theta] if args.theta is not None else list(np.linspace(0.1, 0.9, 9))
    rows = theta_sweep(solver, thetas,
                       args.probe_set or default_probes(solver.op, seed=args.seed))
    _csv(os.path.join(out, "theta_sweep.csv"), "theta,M_hat,omega1,N",
         [(r.theta, r.M_hat, r.omega1, r.N) for r in rows])
    ok = all(np.isfinite(r.M_hat) for r in rows)
    return {"thetas": [r.theta for r in rows],
            "M_hat": [r.M_hat for r in rows]}, bool(ok)


def run_verdict(solver, args, out):
    op = solver.op
    verdict = rplus_verdict(op)
    est = estimate_M(solver, args.probe_set or default_probes(op, seed=args.seed))
    w1 = omega1(est.M_hat, args.T)
    try:
        w2 = omega2_search(solver)
    except SemilabError:
        w2 = float("inf")
    Ts = [args.T * 2**k for k in range(6)]
    # with no omega2 there is no mu to sample the decay at
    decay = (vnorm_decay(op, complex(max(1.0, w2 + 0.5)), Ts, panels=args.panels)
             if math.isfinite(w2) else [])
    _csv(os.path.join(out, "vnorm_decay.csv"), "T,V_norm",
         list(zip(Ts, decay)))
    report = {"s_A": verdict.s_A, "uniform_bound": verdict.uniform_bound,
              "singular_betas": verdict.singular_betas,
              "M_hat": est.M_hat, "omega1": w1, "omega2": w2,
              "omega": max(w1, w2), "rplus_pass": verdict.passed,
              "resolvent_backend": op.resolvent_backend}
    return report, bool(verdict.passed)


_RUNNERS = {
    "spectrum": run_spectrum,
    "resolvent-scan": run_resolvent_scan,
    "maxreg-estimate": run_maxreg_estimate,
    "identity-check": run_identity_check,
    "reconstruct": run_reconstruct,
    "weighted": run_weighted,
    "theta-sweep": run_theta_sweep,
    "verdict": run_verdict,
}
EXPERIMENTS = tuple(_RUNNERS)


@functools.cache
def build_parser():
    """The argument parser, built once per process: its error() raises, so a
    run leaves no state in it."""
    p = _Parser(prog="semilab",
                description="experiment runner for the semigroup laboratory")
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--operator", required=True, help="operator description file")
    p.add_argument("--probes", default=None, help="probe description file")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--mu-grid", default=None)
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--panels", type=int, default=16)
    return p


def main(argv=None):
    """Run one experiment (argv as sys.argv[1:]) and return its exit code. Each
    call keeps freed memory mapped for the rest of the process
    (_keep_freed_memory), which changes no byte a run writes."""
    _keep_freed_memory()
    try:
        args = build_parser().parse_args(argv)
        if not 0 < args.T < math.inf:
            raise _UsageError("--T must be positive and finite")
        if args.theta is not None and not 0.0 < args.theta < 1.0:
            raise _UsageError("--theta must lie in (0, 1)")
        if not 0.0 < args.sigma <= 1.0:
            raise _UsageError("--sigma must lie in (0, 1]")
        if args.seed < 0:
            raise _UsageError("--seed must be nonnegative")
        op = load_operator(args.operator)
        # parsed here, so that a bad grid or probe file leaves no --out directory
        args.mus = parse_mu_grid(args.mu_grid) if args.mu_grid else None
        args.probe_set = load_probes(args.probes, op.dim) if args.probes else None
        solver = CauchySolver(op, TimeGrid.uniform(args.T, panels=args.panels))
        os.makedirs(args.out, exist_ok=True)
    except (_UsageError, OSError, SemilabError, ValueError, MemoryError) as exc:
        print(f"semilab: error: {exc}", file=sys.stderr)
        return 1

    try:  # every non-finite value ends fail-closed, so numpy's warnings add nothing
        with np.errstate(all="ignore"):
            report, ok = _RUNNERS[args.experiment](solver, args, args.out)
    except (_UsageError, SemilabError, MemoryError) as exc:
        print(f"semilab: error: {exc}", file=sys.stderr)
        return 1
    report["config"] = {
        "experiment": args.experiment, "operator": os.path.basename(args.operator),
        "probes": os.path.basename(args.probes) if args.probes else None,
        "T": args.T, "sigma": args.sigma, "theta": args.theta,
        "mu_grid": args.mu_grid, "seed": args.seed, "panels": args.panels,
    }
    report["pass"] = bool(ok)
    _write_report(args.out, report)
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
