"""Tests of the benchmark itself.

    python3 -m pytest bench/tests

The in-process tests run a few units of each workload through the same
batch runner, tracer and reduction the benchmark uses; the subprocess tests
run bench/run.py itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import semilab  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import EXPERIMENTS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Sample:
    """Every n-th unit of a workload's batch, so a smoke run stays short."""

    def __init__(self, workload, every):
        self.workload = workload
        self.every = every

    def units(self):
        return self.workload.units()[::self.every]


def _traced_run(name, seed, every, workdir):
    cls = WORKLOADS[name]
    batches = worker.Batches()
    untraced = batches.run(Sample(cls(seed, str(workdir), semilab), every))
    tracer = tracing.Tracer(f"test-{name}")
    tracing.install(tracer)
    try:
        tracer.enabled = True
        workload = cls(seed, str(workdir), semilab)
        tracer.enabled = False
        n_setup = len(tracer.spans)
        traced = batches.run(Sample(workload, every), tracer)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans[:n_setup], tracer.spans[n_setup:],
                                   traced, untraced, EXPERIMENTS)
    return batches, layers


# every workload reaches its own layers with this sampling, including the
# contour units at the end of the spectral batch and theta-sweep on pipeline
SAMPLING = {"identity": 12, "spectral": 47, "pipeline": 1}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_metrics_units_and_self_time(name, tmp_path):
    batches, layers = _traced_run(name, 3, SAMPLING[name], tmp_path)
    assert set(layers) == set(LAYERS)
    for metric, (value, unit) in layers.items():
        assert unit == LAYERS[metric], metric
        assert isinstance(value, (int, float)) and np.isfinite(value), metric
    wall = layers["trace.wall_s"][0]
    assert layers["trace.self_s_total"][0] <= wall * (1 + 1e-9)
    assert layers["trace.span_coverage"][0] >= 0.9
    # the only units allowed to fail: theta-sweep on a non-diagonal operator,
    # which raises NotDiagonal instead of exiting 1
    assert {f[0] for f in batches.failures} <= {"theta-sweep:lap64", "theta-sweep:jordan8"}
    assert all(f[1] == "exception" for f in batches.failures)


def test_layers_reach_where_they_should(tmp_path):
    _, identity = _traced_run("identity", 3, 12, tmp_path)
    _, spectral = _traced_run("spectral", 3, 47, tmp_path)
    assert identity["phi.phi_scalar.calls"][0] > 0
    assert identity["operators.resolvent_norm.calls"][0] == 0
    assert spectral["operators.resolvent_norm.calls"][0] > 0
    assert spectral["phi.phi_scalar.calls"][0] == 0
    assert spectral["phi.phi_matrices.calls"][0] == 0
    assert spectral["contour.nodes"][0] == 96 * spectral["contour.apply.calls"][0]


def test_seed_changes_inputs_not_metric_names(tmp_path):
    a = WORKLOADS["spectral"](1, str(tmp_path), semilab)
    b = WORKLOADS["spectral"](2, str(tmp_path), semilab)
    assert not np.array_equal(a.ops["normal256"].matrix, b.ops["normal256"].matrix)
    assert not np.array_equal(a.xs["lap512"], b.xs["lap512"])
    c = WORKLOADS["identity"](1, str(tmp_path), semilab)
    d = WORKLOADS["identity"](2, str(tmp_path), semilab)
    assert not np.array_equal(c.xs["lap64"], d.xs["lap64"])
    names = [set(_traced_run("identity", seed, 25, tmp_path)[1]) for seed in (1, 2)]
    assert names[0] == names[1] == set(LAYERS)


def test_end_to_end_metrics():
    res = {"unit_ms": [1.0] * 60 + [2.0] * 60, "unit_failed": [False] * 120,
           "walls": [0.2, 0.19], "failures": [], "attempted": 240, "peak_rss_mb": 90.0}
    metrics, detail = run._metrics(res, [0.5, 0.4, 0.6], trace=0)
    assert {k: v["unit"] for k, v in metrics.items()} == E2E
    assert metrics["wall_s"]["value"] == pytest.approx(0.18)
    assert metrics["setup_s"]["value"] == 0.5
    assert detail["unit_p50_ms"] == 1.5
    assert "unit_p90_ms" in detail
    # a failed unit ranks as infinitely slow
    failed = dict(res, unit_failed=[True] * 2 + [False] * 118,
                  failures=[("a", "exception", ""), ("b", "exception", "")])
    metrics, detail = run._metrics(failed, [0.5], trace=0)
    assert detail["unit_p50_ms"] == 2.0
    assert detail["fail_frac"] == {"value": 2 / 240, "failed": 2, "attempted": 240}
    few = dict(res, unit_ms=[1.0] * 24, unit_failed=[False] * 24)
    assert "unit_p90_ms" not in run._metrics(few, [0.5], trace=0)[1]


def test_self_times_subtract_children():
    spans = [  # id, name, start, end, parent, error, extra
        [0, "a", 0.0, 10.0, -1, None, None],
        [1, "b", 1.0, 4.0, 0, None, None],
        [2, "b", 2.0, 3.0, 1, None, None],
        [3, "c", 5.0, 6.0, 0, None, None],
    ]
    st = tracing.self_times(spans)
    assert st == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_tracer_rebinds_where_names_are_looked_up_and_restores():
    import semilab.cauchy
    import semilab.cli
    import semilab.phi

    original = semilab.phi.phi_scalar
    tracer = tracing.Tracer("test")
    tracing.install(tracer)
    try:
        assert semilab.cauchy.phi_scalar is semilab.phi.phi_scalar is not original
        assert semilab.cli.assemble_U_V is semilab.theorem.assemble_U_V
        tracer.enabled = True
        semilab.cauchy.phi_scalar(2, np.array([0.5]))
        tracer.enabled = False
        assert [s[1] for s in tracer.spans] == ["phi.phi_scalar"]
        assert tracer.spans[0][6] == 3
    finally:
        tracer.uninstall()
    assert semilab.cauchy.phi_scalar is semilab.phi.phi_scalar is original


def test_benchmark_json_lists_every_metric_once():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert {f"cli.{e}.wall_s" for e in EXPERIMENTS} <= set(LAYERS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "identity",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_prints_summary_last(tmp_path):
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "identity",
                           "--seed", "5", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == E2E
    full = json.loads(proc.stdout.splitlines()[-2])
    assert {"python", "numpy", "scipy", "blas", "blas_threads", "nproc",
            "SEMILAB_THREADS", "seed"} <= set(full["env"])
    assert full["env"]["SEMILAB_THREADS"] == "1"
    assert full["key_outputs"]["identity.max_residual"] <= 1e-8
