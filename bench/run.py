"""semilab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload identity|spectral|pipeline \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload runs in its own process
(worker.py) with SEMILAB_THREADS=1 and BLAS threads capped at the number of
usable cores. With ``--trace 0`` the workload is also set up in four extra
processes, so ``setup_s`` is the median of five set-ups.

Standard output: one line with the full result (environment, key outputs,
failures, every metric), then, as the last line, the summary
``{"correct", "attempted", "failed", "metrics"}``. The full result is also
written to bench/out/. Exits 2 without a result if the checkout has no
semilab sources, and 1 if a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("identity", "spectral", "pipeline")
SETUP_REPEATS = 5
DEADLINE_S = 170.0
# a tail percentile needs at least ten samples beyond it
P90_MIN_UNITS = 100


def _child(args, env, deadline, setup_only):
    result = OUT / f"child-{os.getpid()}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before starting a workload process")
    cmd += ["--spawned-at", repr(time.monotonic())]
    # the worker's stdout goes to our stderr: our stdout carries the result
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=remaining)
    try:
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited with {proc.returncode}")
        with open(result) as fh:
            return json.load(fh)
    finally:
        if result.exists():
            result.unlink()


def _metrics(res, setups, trace):
    """(end-to-end or per-layer metrics, detail) of one run.

    A unit's latency is its fastest repeat; wall_s is the sum of those over
    the batch. In the percentiles a failed unit counts as infinitely slow.
    """
    units = res["unit_ms"]
    ranked = [math.inf if failed else ms for ms, failed in zip(units, res["unit_failed"])]
    detail = {
        "repeats": len(res["walls"]),
        "repeat_wall_s": res["walls"],
        "units": len(units),
        "fail_frac": {"value": len(res["failures"]) / res["attempted"],
                      "failed": len(res["failures"]), "attempted": res["attempted"]},
    }
    if trace:
        detail["computed"] = res["computed"]
        return {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}, detail
    detail["setup_samples_s"] = setups
    # unit percentiles vary too much from run to run on shared cores to be
    # gated (see README.md); they are reported, not listed in BENCHMARK.json
    detail["unit_p50_ms"] = statistics.median(ranked)
    if len(units) >= P90_MIN_UNITS:
        detail["unit_p90_ms"] = statistics.quantiles(ranked, n=10, method="inclusive")[-1]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": sum(units) / 1e3, "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    return metrics, detail


def main(argv=None):
    p = argparse.ArgumentParser(description="semilab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "semilab" / "__init__.py").is_file():
        print(f"bench: no semilab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, SEMILAB_THREADS="1", OPENBLAS_NUM_THREADS=nproc,
               OMP_NUM_THREADS=nproc, MKL_NUM_THREADS=nproc)
    OUT.mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_child(args, env, deadline, True)["setup_s"])
        res = _child(args, env, deadline, False)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    metrics, detail = _metrics(res, setups, args.trace)
    incorrect = [f for f in res["failures"] if f[1] in ("tolerance", "fingerprint")]
    summary = {"correct": not incorrect, "attempted": res["attempted"],
               "failed": len(res["failures"]), "metrics": metrics}
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": res["env"], "key_outputs": res["outputs"], **detail,
            "failures": res["failures"], **summary}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(full, fh, indent=1)
    print(json.dumps(full))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
