"""Digest the output of every CLI experiment on a fixed operator corpus.

Runs the 8 experiments of ``semilab.cli``, and ``weighted --sigma 0.5`` and
``reconstruct --T 0.5`` besides, with ``--seed 61`` on eight operator files
(a diagonal n=4, lap64, jordan8 and a random normal operator of dim 16, each
with the euclidean and with the sup E0 norm): 80 runs. It prints one line per (run, operator)
pair: the exit code and the sha256 of every file the run wrote. Two runs,
or runs on two commits, agree byte for byte exactly when their outputs
diff empty:

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

EUCLIDEAN = {
    "diag4": "matrix = diag -1,-2.5,-4,-7\n",
    "lap64": "matrix = laplacian1d n=64\n",
    "jordan8": "matrix = jordan lambda=-2 size=8\n",
    "normal16": "matrix = random-normal dim=16 seed=3\n",
}
OPERATORS = {**EUCLIDEAN,
             **{f"{name}-sup": text + "e0_norm = sup\n" for name, text in EUCLIDEAN.items()}}
# every experiment with its defaults, then the weighted path below sigma = 1 and
# the omega2 search on a second bracket, [1e-6, 128]
RUNS = [[experiment] for experiment in EXPERIMENTS] + [["weighted", "--sigma", "0.5"],
                                                       ["reconstruct", "--T", "0.5"]]


def digests(root):
    """One line per (run, operator) pair, run under the directory root."""
    lines = []
    for name, text in OPERATORS.items():
        path = os.path.join(root, f"{name}.op")
        with open(path, "w") as fh:
            fh.write(text)
        for run in RUNS:
            out = os.path.join(root, f"{''.join(run)}-{name}")
            code = main([*run, "--operator", path, "--seed", "61", "--out", out])
            files = []
            for fname in sorted(os.listdir(out)) if os.path.isdir(out) else []:
                with open(os.path.join(out, fname), "rb") as fh:
                    files.append(f"{fname}={hashlib.sha256(fh.read()).hexdigest()}")
            lines.append(" ".join([*run, name, f"exit={code}", *files]))
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        print("\n".join(digests(root)))
