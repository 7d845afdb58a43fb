import json
import re

import numpy as np
import pytest
import scipy.linalg

from semilab.cauchy import CauchySolver
from semilab.cli import EXPERIMENTS, main, parse_mu_grid
from semilab.errors import ConfigError
from semilab.forcing import parse_probe_line
from semilab.operators import parse_operator_text


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
        # s(A) = 100: the bisection finds no omega2, so no decay is sampled
        f = tmp_path / "unstable.op"
        f.write_text("matrix = diag 100,-1\n")
        code, report, out = run(tmp_path, "verdict", "--operator", str(f))
        assert code == 2
        assert report["omega2"] == report["omega"] == float("inf")
        assert (out / "vnorm_decay.csv").read_text() == "T,V_norm\n"

    @pytest.mark.parametrize("experiment, matrix, builds",
                             [("weighted", "jordan lambda=-2 size=8", 3),
                              ("theta-sweep", "diag -1,-2.5,-4,-7", 19)])
    def test_one_solver_per_run(self, tmp_path, monkeypatch, experiment, matrix, builds):
        # every helper of a run solves through the run's one CauchySolver,
        # so an unshifted panel table is built once per solver, not per helper
        built = []
        tables = CauchySolver._panel_tables

        def counting(self, shift, h, nodes):
            if shift == 0 and (h, nodes) not in self._tables:
                built.append(h)
            return tables(self, shift, h, nodes)

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

    def test_out_is_an_existing_file(self, tmp_path, capsys, diag_file):
        (tmp_path / "out").write_text("")
        self._one_line_error(tmp_path, capsys, "spectrum", "--operator", diag_file)

    def test_factorization_failure(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("schur form not found")
        monkeypatch.setattr(scipy.linalg, "schur", fail)
        f = tmp_path / "op.op"
        f.write_text("matrix = jordan lambda=-1 size=3\n")
        self._one_line_error(tmp_path, capsys, "identity-check", "--operator", str(f))


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


class TestDeterminism:
    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_byte_identical_reports(self, tmp_path, diag_file, monkeypatch, threads):
        monkeypatch.setenv("SEMILAB_THREADS", threads)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["identity-check", "--operator", diag_file,
                         "--seed", "3", "--out", str(out)])
            assert code == 0
            outs.append(out)
        a, b = outs
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "identity.csv").read_bytes() == (b / "identity.csv").read_bytes()

    def test_threaded_equals_serial(self, tmp_path, diag_file, monkeypatch):
        monkeypatch.setenv("SEMILAB_THREADS", "1")
        out1 = tmp_path / "serial"
        main(["maxreg-estimate", "--operator", diag_file, "--out", str(out1)])
        monkeypatch.setenv("SEMILAB_THREADS", "8")
        out2 = tmp_path / "threads"
        main(["maxreg-estimate", "--operator", diag_file, "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "maxreg.csv").read_bytes() == (out2 / "maxreg.csv").read_bytes()
