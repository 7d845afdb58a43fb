"""Every public function or class has a caller outside the tests.

A name exported from ``semilab`` must be loaded, as a bare name or as an
attribute, by code in the library (``src/semilab``) or in the benchmark
harness (``bench``), the package ``__init__`` aside. Its own ``def`` or
``class``, imports, docstrings and comments do not count.
"""

import ast
import inspect
import pathlib

import pytest

import semilab as sl

ROOT = pathlib.Path(__file__).resolve().parents[1]

SOURCES = [p for d in (ROOT / "src" / "semilab", ROOT / "bench") for p in sorted(d.glob("*.py"))
           if p.name != "__init__.py"]

PUBLIC = sorted(name for name in sl.__all__
                if inspect.isfunction(getattr(sl, name)) or inspect.isclass(getattr(sl, name)))

LOADED = {node.id if isinstance(node, ast.Name) else node.attr
          for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
          if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_has_a_caller(name):
    assert name in LOADED, f"semilab.{name} is called only from tests"
