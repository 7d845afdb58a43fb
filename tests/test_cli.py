import ctypes
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from semilab import cli, operators
from semilab.cauchy import CauchySolver
from semilab.cli import EXPERIMENTS, main, parse_mu_grid
from semilab.errors import ConfigError
from semilab.forcing import parse_probe_line
from semilab.operators import _serial_lapack, parse_operator_text

from conftest import nonnormal_dense


@pytest.fixture()
def diag_file(tmp_path):
    f = tmp_path / "diag.op"
    f.write_text("matrix=diag -1,-2\n")
    return str(f)


@pytest.fixture()
def scalar_file(tmp_path):
    f = tmp_path / "scalar.op"
    f.write_text("matrix=diag 0\n")
    return str(f)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    report = None
    rp = out / "report.json"
    if rp.exists():
        report = json.loads(rp.read_text())
    return code, report, out


class TestMuGridSpec:
    def test_list(self):
        assert parse_mu_grid("1,2+1j,3i") == [1 + 0j, 2 + 1j, 3j]

    def test_grid(self):
        g = parse_mu_grid("grid:1:100:3:-2:2:5")
        assert len(g) == 15
        assert g[0] == 1 - 2j

    def test_bad_spec(self, tmp_path, diag_file):
        code = main(["identity-check", "--operator", diag_file,
                     "--mu-grid", "grid:1:100", "--out", str(tmp_path / "o")])
        assert code == 1


PARSERS = {
    "operator-row": lambda text: parse_operator_text(f"row = {text}\nrow = 0,1\n").matrix[0],
    "probe-y": lambda text: parse_probe_line(f"exp mu=1 y={text}", 2)[0].y,
    "mu-grid": parse_mu_grid,
}


# id suffix: (text, the token its error names)
BAD_TOKENS = {"": ("1,2.5-1q", "2.5-1q"), "-nan": ("1,nan", "nan"),
              "-overflow": ("-1e999,1", "-1e999"), "-nan-imag": ("1+nanj,2", "1+nanj")}


@pytest.mark.parametrize("parser, bad", [(p, b) for p in sorted(PARSERS) for b in BAD_TOKENS],
                         ids=[p + b for p in sorted(PARSERS) for b in BAD_TOKENS])
def test_one_token_parser(parser, bad):
    assert list(PARSERS[parser]("1,2.5-1i")) == [1 + 0j, 2.5 - 1j]
    text, token = BAD_TOKENS[bad]
    with pytest.raises(ConfigError, match=re.escape(repr(token))):
        PARSERS[parser](text)


class TestExperiments:
    def test_spectrum(self, tmp_path, diag_file):
        code, report, out = run(tmp_path, "spectrum", "--operator", diag_file)
        assert code == 0
        assert report["s_A"] == -1.0
        header = (out / "spectrum.csv").read_text().splitlines()[0]
        assert header == "re_lambda,im_lambda"

    def test_resolvent_scan(self, tmp_path, diag_file):
        code, report, out = run(tmp_path, "resolvent-scan", "--operator", diag_file)
        assert code == 0
        assert np.isfinite(report["N"])
        header = (out / "resolvent_scan.csv").read_text().splitlines()[0]
        assert header == "re_mu,im_mu,resolvent_norm,weighted_norm"

    def test_maxreg_estimate(self, tmp_path, diag_file):
        code, report, out = run(tmp_path, "maxreg-estimate", "--operator", diag_file)
        assert code == 0
        assert report["M_hat"] >= 1.0
        lines = (out / "maxreg.csv").read_text().splitlines()
        assert lines[0] == "probe_id,ratio,M_hat_running"
        running = [float(l.split(",")[2]) for l in lines[1:]]
        assert running == sorted(running)

    def test_identity_check_scalar_closed_form(self, tmp_path, scalar_file):
        code, report, _ = run(tmp_path, "identity-check", "--operator", scalar_file,
                              "--mu-grid", "1")
        assert code == 0
        assert report["max_identity_residual"] <= 1e-8

    def test_reconstruct(self, tmp_path, diag_file):
        code, report, _ = run(tmp_path, "reconstruct", "--operator", diag_file)
        assert code == 0
        assert report["max_reconstruction_error"] <= 1e-6

    def test_weighted(self, tmp_path, diag_file):
        code, report, _ = run(tmp_path, "weighted", "--operator", diag_file,
                              "--sigma", "0.5")
        assert code == 0
        assert report["inequality_pass"]

    @pytest.mark.parametrize("extra", [("--mu-grid", "1000"),
                                       ("--sigma", "0.5", "--mu-grid", "800")],
                             ids=["sigma1", "sigma0.5"])
    def test_weighted_overflow_fails_closed(self, tmp_path, diag_file, extra):
        # e^{Re mu t} overflows both sides to inf: inf <= inf is no pass
        code, report, _ = run(tmp_path, "weighted", "--operator", diag_file, *extra)
        assert code == 2
        assert report["lhs"] == report["rhs"] == math.inf
        assert not report["inequality_pass"] and not report["pass"]

    def test_theta_sweep(self, tmp_path, diag_file):
        code, report, out = run(tmp_path, "theta-sweep", "--operator", diag_file)
        assert code == 0
        lines = (out / "theta_sweep.csv").read_text().splitlines()
        assert lines[0] == "theta,M_hat,omega1,N"
        assert len(lines) == 10

    def test_verdict_pass_and_fail(self, tmp_path, diag_file):
        code, report, _ = run(tmp_path, "verdict", "--operator", diag_file)
        assert code == 0
        assert report["s_A"] == -1.0 and report["rplus_pass"]

        deg = tmp_path / "deg.op"
        deg.write_text("matrix=diag 0,-1\n")
        code2, report2, _ = run(tmp_path, "verdict", "--operator", str(deg))
        assert code2 == 2
        assert report2["s_A"] == 0.0 and not report2["rplus_pass"]

    @pytest.mark.filterwarnings("error")
    def test_verdict_without_omega2(self, tmp_path):
        # s(A) = 100: the search finds no omega2, so no decay is sampled
        f = tmp_path / "unstable.op"
        f.write_text("matrix = diag 100,-1\n")
        code, report, out = run(tmp_path, "verdict", "--operator", str(f))
        assert code == 2
        assert report["omega2"] == report["omega"] == float("inf")
        assert (out / "vnorm_decay.csv").read_text() == "T,V_norm\n"

    def test_verdict_with_nan_vnorms(self, tmp_path):
        # s(A) = 1e308: every ||V_mu|| is NaN, so there is no omega2 either
        f = tmp_path / "overflow.op"
        f.write_text("matrix = diag 1e308,-1\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code, report, out = run(tmp_path, "verdict", "--operator", str(f))
        assert code == 2
        assert report["omega2"] == report["omega"] == float("inf")
        assert (out / "vnorm_decay.csv").read_text() == "T,V_norm\n"

    def test_overflow_prints_no_numpy_warnings(self, tmp_path, capsys):
        # every non-finite value of these runs ends fail-closed (omega2 = inf,
        # pass false, the scan guard), so numpy's RuntimeWarnings stay silent
        runs = [("verdict", "diag 1e308,-1", 2), ("verdict", "diag 800,-1", 2),
                ("resolvent-scan", "diag 1e308,-1", 1)]
        for i, (experiment, matrix, expected) in enumerate(runs):
            f = tmp_path / f"op{i}.op"
            f.write_text(f"matrix = {matrix}\n")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([experiment, "--operator", str(f), "--out", str(tmp_path / f"o{i}")])
            err = capsys.readouterr().err
            assert code == expected
            assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
            assert "RuntimeWarning" not in err
        assert len(err.splitlines()) == 1  # resolvent-scan's one error line

    @pytest.mark.parametrize("text", ["matrix = diag -1,-2\n", "matrix = jordan lambda=-1 size=3\n",
                                      "matrix = diag -1,-2\ne0_norm = sup\n"],
                             ids=["diag", "jordan", "diag-sup"])
    def test_past_the_overflow_of_e_mu_T(self, tmp_path, text):
        # Re mu T beyond log(max double) ~ 709.8, below the panel cap: V_mu is
        # a real multiple of the tilted v(T), so its norm reads the tiny truth
        f = tmp_path / "op.op"
        f.write_text(text)
        code, _, out = run(tmp_path / "ic", "identity-check", "--operator", str(f), "--T", "23")
        rows = (out / "identity.csv").read_text().splitlines()[1:]
        assert code == 0 and len(rows) == 25
        assert all(float(row.split(",")[3]) <= 1e-8 for row in rows)
        code, report, _ = run(tmp_path / "rc", "reconstruct", "--operator", str(f),
                              "--mu-grid", "1000")
        assert code == 0 and report["omega2"] < 1000
        assert report["max_reconstruction_error"] <= 1e-6
        code, _, out = run(tmp_path / "v", "verdict", "--operator", str(f), "--T", "23")
        last = (out / "vnorm_decay.csv").read_text().splitlines()[-1]
        assert code == 0 and last.startswith("736,") and math.isfinite(float(last.split(",")[1]))

    def test_resolvent_scan_above_1e3(self, tmp_path):
        # s(A) = 2000: the default grid starts above omega and still spans 5 x 21 points
        f = tmp_path / "far.op"
        f.write_text("matrix = diag 2000,-1\n")
        code, report, out = run(tmp_path, "resolvent-scan", "--operator", str(f))
        assert code == 0 and np.isfinite(report["N"])
        assert len((out / "resolvent_scan.csv").read_text().splitlines()) == 1 + 105

    def test_resolvent_scan_overflowed_grid(self, tmp_path, capsys):
        # s(A) = 1e308: 10 (omega + 0.5) overflows, and the NaN real parts of
        # the default grid are refused rather than scanned into N = NaN
        f = tmp_path / "overflow.op"
        f.write_text("matrix = diag 1e308,-1\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code, report, out = run(tmp_path, "resolvent-scan", "--operator", str(f))
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("semilab: error:")]
        assert code == 1 and report is None and len(errors) == 1
        assert not (out / "resolvent_scan.csv").exists()

    @pytest.mark.parametrize("experiment, matrix, builds",
                             [("weighted", "jordan lambda=-2 size=8", 3),
                              ("theta-sweep", "diag -1,-2.5,-4,-7", 3)])
    def test_one_solver_per_run(self, tmp_path, monkeypatch, experiment, matrix, builds):
        # every helper of a run solves through the run's one CauchySolver, and
        # that keeps one refined solver per split count: a panel table is
        # built once per width (h, h/2, h/4), not per helper or probe
        built = []
        tables = CauchySolver._panel_tables

        def counting(self, h):
            if h not in self._tables:
                built.append(h)
            return tables(self, h)

        monkeypatch.setattr(CauchySolver, "_panel_tables", counting)
        f = tmp_path / "op.op"
        f.write_text(f"matrix = {matrix}\n")
        code, _, _ = run(tmp_path, experiment, "--operator", str(f), "--seed", "61")
        assert code == 0
        assert len(built) == builds

    def test_probe_file(self, tmp_path, diag_file):
        pf = tmp_path / "probes.txt"
        pf.write_text("exp mu=1 y=1,1\npoly coeffs=0,1\nic x=1,0\n")
        code, report, _ = run(tmp_path, "maxreg-estimate", "--operator", diag_file,
                              "--probes", str(pf))
        assert code == 0
        assert report["probe_count"] == 3


class TestExitCodes:
    def test_missing_operator_file(self, tmp_path):
        assert main(["spectrum", "--operator", str(tmp_path / "nope.op")]) == 1

    def test_malformed_operator(self, tmp_path):
        f = tmp_path / "bad.op"
        f.write_text("what even is this\n")
        assert main(["spectrum", "--operator", str(f),
                     "--out", str(tmp_path / "o")]) == 1

    def test_bad_flag_values(self, tmp_path, diag_file):
        assert main(["spectrum", "--operator", diag_file, "--T", "-1"]) == 1
        assert main(["spectrum", "--operator", diag_file, "--sigma", "2"]) == 1

    def test_unknown_experiment(self, diag_file):
        assert main(["frobnicate", "--operator", diag_file]) == 1

    def test_bad_mu_token(self, tmp_path, diag_file):
        assert main(["identity-check", "--operator", diag_file, "--mu-grid", "1,2.5-1q",
                     "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("matrix", ["laplacian1d n=8", "jordan lambda=-1 size=3"])
    def test_theta_sweep_needs_diagonal(self, tmp_path, capsys, matrix):
        f = tmp_path / "op.op"
        f.write_text(f"matrix = {matrix}\n")
        code, report, _ = run(tmp_path, "theta-sweep", "--operator", str(f))
        assert code == 1
        assert report is None
        err = capsys.readouterr().err
        assert err.startswith("semilab: error: ") and err.count("\n") == 1

    @staticmethod
    def _one_line_error(tmp_path, capsys, *argv):
        code, report, _ = run(tmp_path, *argv)
        assert code == 1
        assert report is None
        err = capsys.readouterr().err
        assert err.startswith("semilab: error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("experiment, text", [
        ("resolvent-scan", "matrix = laplacian1d n=4097\ne0_norm = sup\n"),
        ("spectrum", "matrix = jordan lambda=-1 size=4097\n")],
        ids=["laplacian-sup-scan", "jordan-spectrum"])
    def test_dense_matrix_past_the_cap(self, tmp_path, capsys, experiment, text):
        # one stderr line and exit 1 instead of a 268 MB complex matrix; the scan
        # takes its (points, n) distances to the spectrum first, about 10 MB
        assert operators._DENSE_MAX_DIM == 4096
        f = tmp_path / "large.op"
        f.write_text(text)
        tracemalloc.start()
        try:
            err = self._one_line_error(tmp_path, capsys, experiment, "--operator", str(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "dense 4097 x 4097 matrix" in err and peak < 32 << 20  # points x n distances

    @pytest.mark.parametrize(
        "matrix, key",
        [("laplacian1d", "n="), ("jordan lambda=-1", "size="), ("", "matrix"), ("diag", "'diag'"),
         ("random-normal dim=0", "dim="), ("laplacian1d n=0", "n="),
         ("jordan lambda=-1 size=0", "size="), ("random-normal dim=-3", "dim="),
         ("laplacian1d n=abc", "n="), ("laplacian1d n=2.5", "n="),
         ("random-normal dim=2 seed=x", "seed="), ("random-normal dim=2 seed=-1", "seed="),
         ("laplacian1d n=3 n=5", "'n'"), ("jordan lambda=-1 size=3 lambda=-2", "'lambda'"),
         ("laplacian1d n=8 m=3", "'m'"), ("laplacian1d n=8 m3", "'m3'"),
         ("jordan lambda=-1 size=3 n=2", "'n'"), ("random-normal dim=2 sead=1", "'sead'"),
         ("diag -1,-2 n=3", "'n'"), ("diag -1,nan", "'nan'"),
         ("jordan lambda=1e999 size=3", "'1e999'")],
        ids=["laplacian-no-n", "jordan-no-size", "empty", "diag-no-entries", "dim-zero",
             "n-zero", "size-zero", "dim-negative", "n-not-int", "n-fraction", "seed-not-int",
             "seed-negative", "repeated-n", "repeated-lambda", "unknown-key", "bare-token",
             "jordan-unknown-key",
             "random-normal-unknown-key", "diag-key", "diag-nan", "jordan-overflow-lambda"])
    def test_malformed_generator(self, tmp_path, capsys, matrix, key):
        f = tmp_path / "op.op"
        f.write_text(f"matrix = {matrix}\n")
        assert key in self._one_line_error(tmp_path, capsys, "spectrum", "--operator", str(f))

    @pytest.mark.parametrize("dim", ["x", "2.5", "0"])
    def test_malformed_declared_dim(self, tmp_path, capsys, dim):
        f = tmp_path / "op.op"
        f.write_text(f"dim = {dim}\nmatrix = laplacian1d n=3\n")
        assert "dim=" in self._one_line_error(tmp_path, capsys, "spectrum", "--operator", str(f))

    @pytest.mark.parametrize(
        "line, key",
        [("exp y=1,1", "mu="), ("poly coeffs=", "coeffs="), ("exp mu=1 y=", "y="),
         ("exp mu=1 yy=1,0", "'yy'"), ("poly coeffs=1 mu=2", "'mu'"), ("ic x=1,0 y=1,0", "'y'"),
         ("exp mu=1 1,0", "'1,0'"), ("exp mu=1 mu=2", "'mu'"), ("ic x=1,0 x=0,1", "'x'")],
        ids=["exp-no-mu", "poly-no-coeffs", "exp-empty-y", "exp-unknown-key", "poly-unknown-key",
             "ic-unknown-key", "bare-token", "repeated-mu", "repeated-x"])
    def test_malformed_probe(self, tmp_path, capsys, diag_file, line, key):
        pf = tmp_path / "probes.txt"
        pf.write_text(line + "\n")
        assert key in self._one_line_error(tmp_path, capsys, "maxreg-estimate", "--operator",
                                           diag_file, "--probes", str(pf))

    @pytest.mark.parametrize("line", ["e0norm = sup", "structure = diagonal"],
                             ids=["e0norm", "structure"])
    def test_unknown_operator_key(self, tmp_path, capsys, line):
        f = tmp_path / "op.op"
        f.write_text(f"matrix = diag -1,-2\n{line}\n")
        key = line.split()[0]
        assert f"'{key}'" in self._one_line_error(tmp_path, capsys, "spectrum",
                                                  "--operator", str(f))

    @pytest.mark.parametrize(
        "text, key",
        [("matrix = laplacian1d n=3\nmatrix = laplacian1d n=5\n", "'matrix'"),
         ("e0_norm = sup\nmatrix = diag -1,-2\ne0_norm = euclidean\n", "'e0_norm'"),
         ("dim = 2\ndim = 2\nmatrix = diag -1,-2\n", "'dim'"),
         ("row = -1 0\nrow =\n", "row")],
        ids=["matrix", "e0_norm", "dim", "empty-row"])
    def test_repeated_or_empty_operator_line(self, tmp_path, capsys, text, key):
        # only row may repeat; an empty list names the key it came from
        f = tmp_path / "op.op"
        f.write_text(text)
        assert key in self._one_line_error(tmp_path, capsys, "spectrum", "--operator", str(f))

    @pytest.mark.parametrize(
        "flag",
        [["--panels", "1"], ["--seed", "-1"], ["--mu-grid", "grid:1:2:0:0:1:1"],
         ["--T", "nan"], ["--T", "inf"], ["--theta", "nan"], ["--theta", "inf"],
         ["--theta", "5"], ["--theta", "-3"], ["--theta", "0"],
         ["--mu-grid", "1+2j,nan"], ["--mu-grid", "nan,1+2j"],
         ["--mu-grid", "grid:1:2:nan:-1:1:3"], ["--mu-grid", "grid:1:2:2.7:-1:1:3"],
         ["--mu-grid", "grid:1:inf:2:-1:1:3"], ["--mu-grid", "grid:1:2:2:nan:1:3"],
         ["--mu-grid", "grid:1:-2:2:-1:1:3"]],
        ids=["panels", "seed", "empty-mu-grid", "T-nan", "T-inf", "theta-nan", "theta-inf",
             "theta-5", "theta-neg3", "theta-0",
             "mu-nan-last", "mu-nan-first", "grid-nan-count", "grid-fractional-count",
             "grid-inf-bound", "grid-nan-bound", "grid-negative-re-hi"])
    def test_bad_run_setting(self, tmp_path, capsys, diag_file, flag):
        self._one_line_error(tmp_path, capsys, "identity-check", "--operator", diag_file,
                             *flag)

    @pytest.mark.parametrize(
        "experiment, flag, value",
        [("identity-check", "--mu-grid", "1e300"), ("identity-check", "--mu-grid", "1e9"),
         ("reconstruct", "--mu-grid", "1e308"), ("maxreg-estimate", "--T", "1e300"),
         ("identity-check", "--panels", "100000000000"), ("spectrum", "--panels", "4097")],
        ids=["split-above-cap", "split-beyond-memory", "split-not-finite", "T-split-above-cap",
             "panels-beyond-memory", "panels-above-cap"])
    def test_grid_above_the_panel_cap(self, tmp_path, capsys, diag_file, experiment, flag,
                                      value):
        # refused with one line before any grid array is allocated
        err = self._one_line_error(tmp_path, capsys, experiment, "--operator", diag_file,
                                   flag, value)
        assert "panel" in err

    def test_out_is_an_existing_file(self, tmp_path, capsys, diag_file):
        (tmp_path / "out").write_text("")
        self._one_line_error(tmp_path, capsys, "spectrum", "--operator", diag_file)

    @pytest.mark.parametrize(
        "experiment, flag, value",
        [("maxreg-estimate", "--probes", "missing.txt"), ("weighted", "--probes", "empty.txt"),
         ("identity-check", "--mu-grid", "1,zz")],
        ids=["missing-probe-file", "empty-probe-file", "bad-mu-token"])
    def test_bad_input_leaves_no_out_directory(self, tmp_path, capsys, diag_file,
                                               experiment, flag, value):
        # probe files and mu grids are read before --out is made
        (tmp_path / "empty.txt").write_text("# no probe\n")
        if flag == "--probes":
            value = str(tmp_path / value)
        self._one_line_error(tmp_path, capsys, experiment, "--operator", diag_file, flag, value)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["spectrum", "verdict"])
    @pytest.mark.parametrize("matrix", ["laplacian1d n=", "jordan lambda=-1 size=",
                                        "random-normal dim="])
    def test_allocation_failure(self, tmp_path, capsys, matrix, experiment):
        # 10**15 entries of 8 or 16 bytes lie past the 128 TiB user address
        # space, so the operator's first array fails to allocate under any
        # overcommit setting: a MemoryError, reported like a SemilabError
        f = tmp_path / "huge.op"
        f.write_text(f"matrix = {matrix}{10**15}\n")
        self._one_line_error(tmp_path, capsys, experiment, "--operator", str(f))
        assert not (tmp_path / "out").exists()

    def test_factorization_failure(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("schur form not found")
        monkeypatch.setattr(scipy.linalg, "schur", fail)
        f = tmp_path / "op.op"
        f.write_text("matrix = jordan lambda=-1 size=3\n")
        self._one_line_error(tmp_path, capsys, "identity-check", "--operator", str(f))

    @pytest.mark.parametrize("experiment", ["identity-check", "reconstruct"])
    def test_degenerate_horizon(self, tmp_path, capsys, diag_file, experiment):
        # 1 - exp(-2 Re mu T) rounds to 0: V_mu is not defined, and reconstruct's
        # omega2 search must stop at its first point instead of running on NaN
        start = time.monotonic()
        err = self._one_line_error(tmp_path, capsys, experiment, "--operator", diag_file,
                                   "--T", "1e-300")
        assert "rounds to 0" in err
        assert time.monotonic() - start < 10.0

    def test_reconstruct_refuses_the_grid_first(self, tmp_path, capsys, monkeypatch):
        # a mu at or left of omega2 is refused before any mu is assembled or
        # reconstructed, and no reconstruct.csv is written
        calls = []
        for name in ("assemble_U_V_batch", "resolvent_from_solver"):
            def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        f = tmp_path / "diag4.op"
        f.write_text("matrix = diag -1,-2.5,-4,-7\n")
        err = self._one_line_error(tmp_path, capsys, "reconstruct", "--operator", str(f),
                                   "--mu-grid", "1,0.1")
        assert err == "semilab: error: mu=(0.1+0j) has Re mu <= omega2=0.372841\n"
        assert not (tmp_path / "out" / "reconstruct.csv").exists()
        assert calls == []

    @pytest.mark.parametrize("experiment", ["maxreg-estimate", "verdict"])
    def test_degenerate_horizon_names_T(self, tmp_path, capsys, diag_file, experiment):
        # the default probes underflow to 0 on [0, 1e-300]: the error blames the
        # horizon, not a probe the user never wrote
        err = self._one_line_error(tmp_path, capsys, experiment, "--operator", diag_file,
                                   "--T", "1e-300")
        assert "T = 1e-300" in err

    @pytest.mark.parametrize("experiment, target", [
        ("identity-check", "surjectivity_identity_check"),
        ("reconstruct", "resolvent_from_solver")])
    def test_nan_residual_fails(self, tmp_path, monkeypatch, diag_file, experiment, target):
        # one NaN row makes the maximum NaN and the run a failed check, not a pass
        nan = {"surjectivity_identity_check": lambda *a: float("nan"),
               "resolvent_from_solver": lambda solver, mu, y, sdata: np.full(y.shape, np.nan)}
        monkeypatch.setattr(cli, target, nan[target])
        code, report, _ = run(tmp_path, experiment, "--operator", diag_file, "--mu-grid", "1,2")
        assert code == 2
        assert report["pass"] is False
        key = {"identity-check": "max_identity_residual",
               "reconstruct": "max_reconstruction_error"}[experiment]
        assert math.isnan(report[key])


SAME_MATRIX = {
    "diag": ("matrix = diag -1,-2.5,-4\n", "row = -1 0 0\nrow = 0 -2.5 0\nrow = 0 0 -4\n"),
    "laplacian": ("matrix = laplacian1d n=3\n",
                  "row = -32 16 0\nrow = 16 -32 16\nrow = 0 16 -32\n"),
}


@pytest.mark.parametrize("matrix", sorted(SAME_MATRIX))
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_same_matrix_same_report(tmp_path, experiment, matrix):
    # a generator and the same matrix written as rows: the report depends
    # only on the matrix
    results = []
    for name, text in zip(("generator", "rows"), SAME_MATRIX[matrix]):
        f = tmp_path / f"{name}.op"
        f.write_text(text)
        out = tmp_path / name
        code = main([experiment, "--operator", str(f), "--seed", "61", "--out", str(out)])
        rp = out / "report.json"
        report = json.loads(rp.read_text()) if rp.exists() else None
        if report is not None:
            report["config"].pop("operator")
        results.append((code, report))
    assert results[0] == results[1]


def test_one_parser_serves_every_run(tmp_path, diag_file):
    # a run, a usage error part-way through other flags, the first run again
    assert cli.build_parser() is cli.build_parser()
    codes = [main(["maxreg-estimate", "--operator", diag_file, "--out", str(tmp_path / "a")]),
             main(["maxreg-estimate", "--operator", diag_file, "--seed", "5", "--panels", "8",
                   "--T", "nope", "--out", str(tmp_path / "bad")]),
             main(["maxreg-estimate", "--operator", diag_file, "--out", str(tmp_path / "b")])]
    assert codes == [0, 1, 0]
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()


# u(T) overflows on each: the diagonal operator takes the eigen backend, the
# two dense ones the dense backend, whose u(T) has non-finite entries
OVERFLOWING = {"diag": "matrix = diag 800,-1\n", "rows": "row = 800 1\nrow = 0 -1\n",
               "jordan": "matrix = jordan lambda=800 size=2\n"}
OVERFLOW_EXITS = {"spectrum": 0, "resolvent-scan": 0, "maxreg-estimate": 2, "identity-check": 2,
                  "reconstruct": 1, "weighted": 2, "verdict": 2}


@pytest.mark.parametrize("dense", ["rows", "jordan"])
@pytest.mark.parametrize("experiment", sorted(OVERFLOW_EXITS))
def test_overflowing_dense_operator_exits_as_its_diagonal_twin(tmp_path, capsys, experiment,
                                                               dense):
    # the same exit code and stderr as diag 800,-1: a non-finite u(T) reads
    # ||u(T)|| = inf on both backends and never reaches an SVD
    results = []
    for name in ("diag", dense):
        f = tmp_path / f"{name}.op"
        f.write_text(OVERFLOWING[name])
        code = main([experiment, "--operator", str(f), "--out", str(tmp_path / name)])
        results.append((code, capsys.readouterr().err))
    assert results[0] == results[1]
    assert results[0][0] == OVERFLOW_EXITS[experiment]
    if experiment == "reconstruct":
        assert results[0][1] == "semilab: error: ||V_mu|| < 1/2 fails even at Re mu = 64.0\n"
    else:
        assert results[0][1] == ""


class TestDeterminism:
    @pytest.mark.parametrize("threads", [1, 4])
    def test_byte_identical_reports(self, tmp_path, diag_file, threads):
        # both runs with every loaded OpenBLAS set to the given thread count
        pins = operators._openblas_threads()
        counts = [get() for get, _ in pins]
        for _, put in pins:
            put(threads)
        outs = []
        try:
            for name in ("a", "b"):
                out = tmp_path / name
                code = main(["identity-check", "--operator", diag_file,
                             "--seed", "3", "--out", str(out)])
                assert code == 0
                outs.append(out)
        finally:
            for (_, put), count in zip(pins, counts):
                put(count)
        a, b = outs
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "identity.csv").read_bytes() == (b / "identity.csv").read_bytes()

    def test_threaded_equals_serial(self, tmp_path, diag_file):
        # OpenBLAS on its default thread count, then pinned to one thread in process
        out1 = tmp_path / "threads"
        main(["maxreg-estimate", "--operator", diag_file, "--out", str(out1)])
        out2 = tmp_path / "serial"
        with _serial_lapack():
            main(["maxreg-estimate", "--operator", diag_file, "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "maxreg.csv").read_bytes() == (out2 / "maxreg.csv").read_bytes()

    @pytest.mark.parametrize("experiment, e0_norm", [("resolvent-scan", "euclidean"),
                                                     ("resolvent-scan", "sup"),
                                                     ("verdict", "euclidean")])
    def test_blas_thread_count_changes_no_byte(self, tmp_path, experiment, e0_norm):
        # from n = 128 on, LAPACK's Schur factor and eigenvalues, the stacked
        # SVDs and inverses of the dense norms and the SVD of operator_norm
        # take different bits on 1 and 2 OpenBLAS threads unless they run on one
        A = nonnormal_dense(128, seed=4).matrix
        opf = tmp_path / "nonnormal128.op"
        opf.write_text(f"e0_norm = {e0_norm}\n"
                       + "".join("row = " + " ".join(f"{z.real}{z.imag:+}j" for z in row) + "\n"
                                 for row in A))
        assert np.array_equal(parse_operator_text(opf.read_text()).matrix, A)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "semilab.cli", experiment,
                            "--operator", str(opf), "--out", str(out)], env=env, check=True)
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1])) and "report.json" in names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_real_basis_products_change_no_byte(self, tmp_path):
        # a Laplacian's sup-norm solves map every node back through its real
        # basis, a dgemm whose bits OpenBLAS moves with the thread count
        opf = tmp_path / "lap64.op"
        opf.write_text("matrix = laplacian1d n=64\ne0_norm = sup\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"threads{threads}")
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "semilab.cli", "maxreg-estimate",
                            "--operator", str(opf), "--out", str(outs[-1])], env=env, check=True)
        for name in ("maxreg.csv", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# runs maxreg-estimate on lap64 twice in one interpreter and prints the minor
# page faults of the second run
_TWO_RUNS = """
import resource, sys
from semilab.cli import main
op, out = sys.argv[1:]
argv = ["maxreg-estimate", "--operator", op, "--out", out]
assert main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestAllocatorPolicy:
    """main keeps freed memory mapped, so a second run in one process faults
    no pages in, and a C library without mallopt changes no byte."""

    @pytest.fixture()
    def lap64_file(self, tmp_path):
        f = tmp_path / "lap64.op"
        f.write_text("matrix = laplacian1d n=64\n")
        return str(f)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the thresholds main sets are glibc malloc's")
    def test_second_run_faults_no_pages_in(self, tmp_path, lap64_file):
        # a fresh interpreter: this one's heap already holds the earlier tests' blocks
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", _TWO_RUNS, lap64_file, str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, check=True)
        assert int(done.stdout) < 100  # about 1,600 with freed memory handed back

    def test_no_mallopt_changes_no_byte(self, tmp_path, lap64_file, monkeypatch):
        argv = ["maxreg-estimate", "--operator", lap64_file, "--out"]
        assert main(argv + [str(tmp_path / "a")]) == 0
        lookups = []

        def no_libc(name):
            lookups.append(name)
            raise OSError("no C library")
        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert main(argv + [str(tmp_path / "b")]) == 0
        assert lookups == [None]
        for name in ("report.json", "maxreg.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
