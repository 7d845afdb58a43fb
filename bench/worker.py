"""One workload in one process: set up, run timed batches, check outputs.

Started by run.py with SEMILAB_THREADS=1 and the BLAS thread count capped
at the number of usable cores. It imports semilab from ``src/`` of the
checkout it sits in, never from an installed copy, and writes its result
as JSON to the path given by ``--result``.

Without ``--trace`` it repeats the workload's batch at least
``repeats`` times and then until ``--seconds`` have passed; each unit's
latency is its fastest repeat. With ``--trace`` it runs the batch once
untraced, then installs the tracer, sets the workload up again under it
and runs the batch once traced; the difference of the two batch times is
the tracing overhead. A unit's fingerprint (the bytes of a pipeline
report.json) must be the same in every repeat.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# no repeat beyond the minimum is started unless it is expected to end
# this long after spawn at the latest
_LAST_BATCH_END_S = 140.0


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(lib)] = fn()
                break
    return found


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "SEMILAB_THREADS": os.environ.get("SEMILAB_THREADS"),
        "seed": seed,
    }


class Batches:
    """Runs repeats of one workload's batch and keeps what the result needs."""

    def __init__(self):
        self.walls = []          # per repeat: sum of its unit times
        self.unit_s = {}         # unit label -> fastest time over the repeats
        self.failed_units = set()
        self.attempted = 0
        self.failures = []       # (label, kind, reason)
        self.outputs = {}        # key output -> worst value over all units
        self.fingerprints = {}   # unit label -> fingerprint of its first repeat

    def run(self, workload, tracer=None):
        from workloads import BadExit, Miss

        wall = 0.0
        for unit in workload.units():
            self.attempted += 1
            failure = None
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = unit.run()
            except Exception as exc:  # the unit failed; the batch goes on
                failure = ("exception", f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            wall += dt
            self.unit_s[unit.label] = min(dt, self.unit_s.get(unit.label, dt))
            if failure is None:
                try:
                    outputs, fingerprint = unit.check(result)
                except BadExit as exc:
                    failure = ("exit", str(exc))
                except Miss as exc:
                    failure = ("tolerance", str(exc))
                except Exception as exc:  # malformed output counts as a miss
                    failure = ("tolerance", f"{type(exc).__name__}: {exc}")
                else:
                    for key, value in outputs.items():
                        self.outputs[key] = max(value, self.outputs.get(key, value))
                    if fingerprint is not None:
                        first = self.fingerprints.setdefault(unit.label, fingerprint)
                        if first != fingerprint:
                            failure = ("fingerprint", "report.json differs between repeats")
            if failure is not None:
                self.failures.append((unit.label,) + failure)
                self.failed_units.add(unit.label)
        self.walls.append(wall)
        return wall


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before spawning this process")
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import semilab

    if Path(semilab.__file__).resolve().parent != SRC / "semilab":
        print(f"worker: imported semilab from {semilab.__file__}, not {SRC}", file=sys.stderr)
        return 3
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(args.seed, str(workdir), semilab)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(_measure(cls, workload, args, str(workdir), semilab))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _measure(cls, workload, args, workdir, semilab):
    batches = Batches()
    layers = computed = None
    if not args.trace:
        start = time.monotonic()
        while True:
            batches.run(workload)
            if len(batches.walls) < cls.repeats:
                continue
            now = time.monotonic()
            if (now - start >= args.seconds
                    or now - args.spawned_at + max(batches.walls) > _LAST_BATCH_END_S):
                break
    else:
        import tracing

        untraced = batches.run(workload)
        run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
        try:
            tracer.enabled = True
            traced_workload = cls(args.seed, workdir, semilab)
            tracer.enabled = False
            n_setup = len(tracer.spans)
            traced = batches.run(traced_workload, tracer)
        finally:
            tracer.enabled = False
            tracer.uninstall()
        from workloads import EXPERIMENTS

        layers = tracing.layer_metrics(tracer.spans[:n_setup], tracer.spans[n_setup:],
                                       traced, untraced, EXPERIMENTS)
        computed = tracing.COMPUTED
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "setup_spans": n_setup})
    return {
        "walls": batches.walls,
        "unit_ms": [t * 1e3 for t in batches.unit_s.values()],
        "unit_failed": [label in batches.failed_units for label in batches.unit_s],
        "attempted": batches.attempted,
        "failures": batches.failures,
        "outputs": batches.outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args.seed),
        "layers": layers,
        "computed": computed,
    }


if __name__ == "__main__":
    sys.exit(main())
