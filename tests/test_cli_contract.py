"""The CLI's fail-closed contract on generated operator files and flags: every
run returns 0, 1 or 2 and no exception escapes; exit 1 prints one line
"semilab: error: ..."; exit 0 writes a passing report with no NaN in it, exit
2 a failing one; and numpy raises no RuntimeWarning on the way."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from semilab.cli import EXPERIMENTS, main

# magnitudes from 1e-300 to 1e300 of either sign, half of them near 1, and 0
nonzero = st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
                    st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, 2.5, 7.0]),
                    st.integers(-2, 2) | st.integers(-300, 300))
reals = st.just(0.0) | nonzero
# complex tokens as Python writes them, "(1e-300-2.5j)", which the parsers read
entries = reals | st.builds(complex, reals, reals)


@st.composite
def operator_files(draw):
    """An operator file of dimension <= 5: inline rows or a generator, with
    either E0 norm."""
    kind = draw(st.sampled_from(["rows", "diag", "jordan", "laplacian1d", "random-normal"]))
    dim = draw(st.integers(1, 5))
    if kind == "rows":
        lines = ["row = " + " ".join(repr(draw(entries)) for _ in range(dim))
                 for _ in range(dim)]
    elif kind == "diag":
        lines = ["matrix = diag " + ",".join(repr(draw(entries)) for _ in range(dim))]
    elif kind == "jordan":
        lines = [f"matrix = jordan lambda={repr(draw(entries))} size={dim}"]
    elif kind == "laplacian1d":
        lines = [f"matrix = laplacian1d n={dim}"]
    else:
        lines = [f"matrix = random-normal dim={dim} seed={draw(st.integers(0, 9))}"]
    lines.append(f"e0_norm = {draw(st.sampled_from(['euclidean', 'sup']))}")
    return "".join(line + "\n" for line in lines)


# shifts near the spectra of moderate operators, or anywhere entries reach;
# a grid: box of log-spaced real parts, positive as the CLI asks
shifts = st.builds(complex, st.floats(-50, 50), st.floats(-50, 50)) | entries
mu_grids = st.one_of(
    st.lists(shifts, min_size=1, max_size=3).map(lambda mus: ",".join(map(repr, mus))),
    st.builds(lambda lo, hi, nre, ilo, ihi, nim: f"grid:{lo!r}:{hi!r}:{nre}:{ilo!r}:{ihi!r}:{nim}",
              nonzero.map(abs), nonzero.map(abs), st.integers(1, 3), reals, reals,
              st.integers(1, 3)))
# mostly values the CLI accepts; it refuses T = 0 and T = 1e-300
flags = st.fixed_dictionaries({}, optional={
    "--T": st.sampled_from(["0.01", "0.5", "1", "2", "16", "1e300", "1e-300", "0"]),
    "--panels": st.integers(2, 40).map(str),
    "--sigma": st.sampled_from(["0.25", "0.5", "0.75", "1"]),
    "--seed": st.integers(0, 1000).map(str),
    "--mu-grid": mu_grids,
})


def _floats(value):
    """Every float in a parsed report.json."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from _floats(item)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(text=operator_files(), experiment=st.sampled_from(EXPERIMENTS), options=flags)
def test_cli_fails_closed(text, experiment, options):
    with tempfile.TemporaryDirectory() as root:
        path, out = os.path.join(root, "op.op"), os.path.join(root, "out")
        with open(path, "w") as fh:
            fh.write(text)
        # --flag=value: argparse would take a value such as -2.5e+300 for a flag
        argv = [experiment, "--operator", path, "--out", out]
        argv += [f"{flag}={value}" for flag, value in options.items()]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith("semilab: error: ")
            assert err.getvalue().count("\n") == 1
            return
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        assert report["pass"] is (code == 0)
        if code == 0:
            assert not any(math.isnan(x) for x in _floats(report))
