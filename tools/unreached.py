"""List the statements of ``src/semilab`` that no CLI experiment or bench unit runs.

Traces, with ``sys.settrace``, the 172 runs of ``tools/cli_digests.py``
(8 experiments, ``weighted --sigma 0.5``, ``reconstruct --T 0.5``,
``resolvent-scan`` on a ``grid:`` box, ``maxreg-estimate`` and ``verdict``
with a probe file, ``identity-check`` on a comma-list ``--mu-grid``,
``maxreg-estimate --T 16``, ``identity-check --T 23``, ``reconstruct
--mu-grid 1000`` and ``identity-check --panels 100``, each on 8 operator
files, then
``maxreg-estimate`` and ``weighted`` on lap256, ``identity-check``,
``reconstruct`` and ``verdict`` on a dense 2 x 2 whose u(T) overflows, and
``maxreg-estimate`` and ``weighted`` on a complex diagonal with each E0
norm, then ``maxreg-estimate``, ``identity-check``, ``reconstruct`` and
``weighted`` on a 3 x 3 Hermitian tridiagonal with a complex and one with a
real eigenbasis, and ``resolvent-scan``, ``reconstruct`` and ``verdict`` on
jordan64, whose euclidean norms take Golub-Kahan-Lanczos, and ``spectrum``,
``maxreg-estimate``, ``identity-check`` and ``verdict`` on lap1023, and
``maxreg-estimate`` on lap4095, ``maxreg-estimate`` and ``identity-check`` on
lap512 with the sup norm and ``resolvent-scan`` on lap4097 with the sup norm)
and one batch of each workload of ``bench/workloads.py`` (seed 1, every unit's
``run`` and ``check``), then prints ``path:line: source`` for every statement of
``src/semilab`` that never ran, in file order. The import of
semilab itself is traced, so module-level statements count as run.
``bench/`` is only imported, with bytecode writing off, so the run leaves
nothing behind there:

    python tools/unreached.py

semilab is imported from ``src/`` of the checkout this file sits in.
"""

import ast
import os
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
PACKAGE = os.path.join(ROOT, "src", "semilab")


def statement_lines(path):
    """{first line: lines any of which running counts as the statement running}
    for every statement of the file: a simple statement's own lines, a
    compound statement's header (decorators included, at least its own first
    line), and for ``try``, which compiles to no code of its own, its first
    body statement. Docstrings, which compile to no code either, are left out."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        body = getattr(node, "body", None)
        if isinstance(node, ast.Try):
            first = node.body[0]
            spans[node.lineno] = range(first.lineno, first.end_lineno + 1)
        elif body:
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            spans[node.lineno] = range(start, max(body[0].lineno, node.lineno + 1))
        else:
            spans[node.lineno] = range(node.lineno, node.end_lineno + 1)
    return spans


def trace_runs():
    """The (file, line) pairs of src/semilab that run in the traced workloads."""
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools"),
                    os.path.join(ROOT, "bench")]
    sys.settrace(global_)
    try:
        import semilab
        from cli_digests import digests
        from workloads import WORKLOADS

        with tempfile.TemporaryDirectory() as root:
            digests(root)
            for name, cls in WORKLOADS.items():
                workdir = os.path.join(root, f"bench-{name}")
                os.makedirs(workdir)
                for unit in cls(1, workdir, semilab).units():
                    unit.check(unit.run())
    finally:
        sys.settrace(None)
    return ran


def main():
    ran = trace_runs()
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, fname)
        with open(path) as fh:
            source = fh.read().splitlines()
        for first, lines in sorted(statement_lines(path).items()):
            if not any((path, line) in ran for line in lines):
                print(f"{os.path.relpath(path, ROOT)}:{first}: {source[first - 1].strip()}")


if __name__ == "__main__":
    main()
