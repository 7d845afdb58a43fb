"""Digest the output of every CLI experiment on a fixed operator corpus.

Runs the 8 experiments of ``semilab.cli``, and ``weighted --sigma 0.5``,
``reconstruct --T 0.5``, ``resolvent-scan`` on a 5 x 21 ``grid:`` box,
``maxreg-estimate`` and ``verdict`` with a probe file, ``identity-check`` on a
comma list of three shifts, ``maxreg-estimate --T 16`` (whose h = 1 phi
tables square), and ``identity-check --T 23`` and ``reconstruct --mu-grid
1000``, whose Re mu T passes log(max double) ~ 709.8, and ``identity-check
--panels 100``, whose runs of 100 and 200 panels have odd bits, besides, with
``--seed 61`` on eight operator files (a diagonal n=4, lap64, jordan8 and a
random normal operator of dim 16, each with the euclidean and with the sup E0
norm): 144 runs, then ``maxreg-estimate`` and
``weighted`` on lap256, ``identity-check``, ``reconstruct`` and ``verdict``
on the dense 2 x 2 rows ``800 1`` / ``0 -1``, whose u(T) overflows, and
``maxreg-estimate`` and ``weighted`` on the complex diagonal
``-1+2i,-0.5-3i,-2+0.25i,-0.1+7i`` with each E0 norm, and ``maxreg-estimate``,
``identity-check``, ``reconstruct`` and ``weighted`` on two 3 x 3 Hermitian
tridiagonals, rows ``-2 1j 0`` / ``-1j -2 1j`` / ``0 -1j -2``, whose complex
eigenbasis carries the phases of its off-diagonal, and rows ``-2 -1 0`` /
``-1 -2 -1`` / ``0 -1 -2``, whose real eigenbasis flips signs, and
``resolvent-scan``, ``reconstruct`` and ``verdict`` on jordan64, whose
euclidean resolvent norms take Golub-Kahan-Lanczos on its Schur factor, and
``spectrum``, ``maxreg-estimate``, ``identity-check`` and ``verdict`` on
lap1023, which run from its bands and the DST-I sine basis,
``maxreg-estimate`` on lap4095, where n + 1 = 2^12 and a stored basis would
take 134 MB, ``maxreg-estimate`` and ``identity-check`` on lap512 with the
sup norm, which map the sine basis' solves to the standard basis and form
V_mu densely, and ``resolvent-scan`` on lap4097 with the sup norm, which
exits 1 where its dense matrix would pass the size cap: 172 runs.
The probe file puts two steep exponential probes on each grid the 16-panel
solves refine to (panels split in 2, 3 and 4), so the batched solves there
stack more than one probe, next to two base-grid exponentials, a polynomial
and an initial-value probe. It prints one line
per (run, operator) pair: the exit code and the sha256 of every file the run
wrote. Two runs, or runs on two commits, agree byte for byte exactly when
their outputs diff empty:

    python tools/cli_digests.py > a.txt
    python tools/cli_digests.py > b.txt
    diff a.txt b.txt

semilab is imported from ``src/`` of the checkout this file sits in.
"""

import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from semilab.cli import EXPERIMENTS, main  # noqa: E402
from semilab.operators import load_operator  # noqa: E402

EUCLIDEAN = {
    "diag4": "matrix = diag -1,-2.5,-4,-7\n",
    "lap64": "matrix = laplacian1d n=64\n",
    "jordan8": "matrix = jordan lambda=-2 size=8\n",
    "normal16": "matrix = random-normal dim=16 seed=3\n",
}
OPERATORS = {**EUCLIDEAN,
             **{f"{name}-sup": text + "e0_norm = sup\n" for name, text in EUCLIDEAN.items()}}
PROBES = "probes.txt"  # written under the run's root for each operator
# every experiment with its defaults, then the weighted path below sigma = 1,
# the omega2 search on a second bracket, [1e-6, 128], a scan of a grid: box, the
# probe file, a comma-list --mu-grid, T = 16, where unshifted panels reach h = 1,
# two runs past Re mu T ~ 709.8, where e^{mu T} would overflow, and runs of 100
# panels (200 once refined), whose closed-form run sums combine odd bits
RUNS = [[experiment] for experiment in EXPERIMENTS] + [
    ["weighted", "--sigma", "0.5"],
    ["reconstruct", "--T", "0.5"],
    ["resolvent-scan", "--mu-grid", "grid:0.5:1000:5:-100:100:21"],
    ["maxreg-estimate", "--probes", PROBES],
    ["verdict", "--probes", PROBES],
    ["identity-check", "--mu-grid", "0.5,1+2i,4-3i"],
    ["maxreg-estimate", "--T", "16"],
    ["identity-check", "--T", "23"],
    ["reconstruct", "--mu-grid", "1000"],
    ["identity-check", "--panels", "100"]]
# the eigen-coordinate solves at a size where mapping every node back to the
# standard basis would dominate them, a dense operator whose u(T) has
# non-finite entries, which the dense E0 norms read as inf, and a complex
# diagonal, whose solves form A u as lam u, not as the product u A^T; then a
# Hermitian tridiagonal with a complex and one with a real eigenbasis, and a
# non-normal operator at _GKL_MIN_DIM, whose scans and resolvent solves run on
# its Schur factor, and Laplacians stored by their bands, whose factor is the
# DST-I sine basis and whose dense matrix no run forms: a sup-norm scan past
# the dense cap refuses it
CDIAG = "matrix = diag -1+2i,-0.5-3i,-2+0.25i,-0.1+7i\n"
TRIDIAGONAL_RUNS = [["maxreg-estimate"], ["identity-check"], ["reconstruct"], ["weighted"]]
LARGE = {"lap256": ("matrix = laplacian1d n=256\n", [["maxreg-estimate"], ["weighted"]]),
         "rows800": ("row = 800 1\nrow = 0 -1\n",
                     [["identity-check"], ["reconstruct"], ["verdict"]]),
         "cdiag4": (CDIAG, [["maxreg-estimate"], ["weighted"]]),
         "cdiag4-sup": (CDIAG + "e0_norm = sup\n", [["maxreg-estimate"], ["weighted"]]),
         "phase3": ("row = -2 1j 0\nrow = -1j -2 1j\nrow = 0 -1j -2\n", TRIDIAGONAL_RUNS),
         "signs3": ("row = -2 -1 0\nrow = -1 -2 -1\nrow = 0 -1 -2\n", TRIDIAGONAL_RUNS),
         "jordan64": ("matrix = jordan lambda=-2 size=64\n",
                      [["resolvent-scan"], ["reconstruct"], ["verdict"]]),
         "lap1023": ("matrix = laplacian1d n=1023\n",
                     [["spectrum"], ["maxreg-estimate"], ["identity-check"], ["verdict"]]),
         "lap4095": ("matrix = laplacian1d n=4095\n", [["maxreg-estimate"]]),
         "lap512-sup": ("matrix = laplacian1d n=512\ne0_norm = sup\n",
                        [["maxreg-estimate"], ["identity-check"]]),
         "lap4097-sup": ("matrix = laplacian1d n=4097\ne0_norm = sup\n", [["resolvent-scan"]])}


def probe_text(dim):
    """Probes on the base grid (|mu| <= 9.6) and on the grids split in 2, 3
    and 4 (|mu| up to 19.2, 28.8 and 38.4), then a polynomial and an
    initial-value probe, whose zero forcing has a real profile."""
    x = ",".join(["1"] + ["0"] * (dim - 1))
    return ("exp mu=1\nexp mu=3+2i\nexp mu=10\nexp mu=12-3i\nexp mu=25\nexp mu=28+5i\n"
            f"exp mu=31\nexp mu=36-4i\npoly coeffs=0,1,1\nic x={x}\n")


def digests(root):
    """One line per (run, operator) pair, run under the directory root."""
    lines = []
    cases = [(name, text, RUNS) for name, text in OPERATORS.items()] + [
        (name, text, runs) for name, (text, runs) in LARGE.items()]
    for name, text, runs in cases:
        path = os.path.join(root, f"{name}.op")
        with open(path, "w") as fh:
            fh.write(text)
        with open(os.path.join(root, PROBES), "w") as fh:
            fh.write(probe_text(load_operator(path).dim))
        for run in runs:
            out = os.path.join(root, f"{''.join(run)}-{name}")
            argv = [os.path.join(root, arg) if arg == PROBES else arg for arg in run]
            code = main([*argv, "--operator", path, "--seed", "61", "--out", out])
            files = []
            for fname in sorted(os.listdir(out)) if os.path.isdir(out) else []:
                with open(os.path.join(out, fname), "rb") as fh:
                    files.append(f"{fname}={hashlib.sha256(fh.read()).hexdigest()}")
            lines.append(" ".join([*run, name, f"exit={code}", *files]))
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        print("\n".join(digests(root)))
