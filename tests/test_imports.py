"""No module of the package imports a name it never uses or keeps
per-thread state, and holes draws its rows in one place.

The toolchain has no linter, so this reads each module's syntax tree: a
name an import binds must be read somewhere in the module or listed in its
__all__.  `from __future__ import annotations` binds no name.  No module
may bind threading.local: every array is allocated where it is filled, and
a per-thread cache must come back with a measurement that it pays.  In
holes, rng.gaussian_rows occurs only in the runner _screened_counts and
sample_coeff_batch only in the direct estimator's quadratic step.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gafholes"

# imported but never read: bench/tracing.py wraps each of them under the
# name it replaces in that module
KEPT_FOR_THE_TRACER = {
    ("holes.py", "derivative_sup_bound_rows"),
    ("gaf.py", "log_sq_at"),
    ("gaf.py", "log_sq_block"),
}


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(bound - read - exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    unused = [name for name in _unused_imports(path.read_text())
              if (path.name, name) not in KEPT_FOR_THE_TRACER]
    assert unused == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom .gaf import sample, evaluate as ev\n"
              "__all__ = ['sample']\n")
    assert _unused_imports(source) == ["ev", "os"]
    assert _unused_imports(source + "x = os.sep + ev\n") == []


def _thread_locals(source: str) -> list:
    """Lines that bind threading.local, under any name of the module."""
    tree = ast.parse(source)
    names = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             for a in node.names if a.name == "threading"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "threading":
            lines += [node.lineno for a in node.names if a.name == "local"]
        elif isinstance(node, ast.Attribute) and node.attr == "local" \
                and isinstance(node.value, ast.Name) and node.value.id in names:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_keeps_per_thread_state(path):
    assert _thread_locals(path.read_text()) == []


def test_the_check_sees_a_thread_local():
    assert _thread_locals("import threading\nx = threading.local()\n") == [2]
    assert _thread_locals("import threading as t\n\nx = t.local\n") == [3]
    assert _thread_locals("from threading import local as L\n") == [1]
    assert _thread_locals("import threading\nx = threading.Lock()\n"
                          "local = 1\ny = x.local\n") == []


def _users(source: str, name: str) -> list:
    """The top-level definitions of a module in which name occurs as a name
    or an attribute, "<module>" for its other statements; imports do not
    count."""
    found = set()
    for top in ast.parse(source).body:
        where = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
            else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == name or \
                    isinstance(node, ast.Attribute) and node.attr == name:
                found.add(where)
    return sorted(found)


@pytest.mark.parametrize("name, users", [
    ("gaussian_rows", ["_screened_counts"]),
    # the quadratic step's c_0..c_2
    ("sample_coeff_batch", ["estimate_hole_direct"]),
])
def test_one_runner_draws_the_rows_of_every_estimator(name, users):
    # the runner lays out and draws every stream's rows from its (seed,
    # purpose, z, first, w); a second drawer in holes must change this test
    assert _users((SRC / "holes.py").read_text(), name) == users


def test_the_check_sees_every_user_of_a_name():
    source = ("from . import rng\nfrom .gaf import draw\n"
              "def f():\n    return rng.draw(1)\n"
              "class C:\n    def g(self):\n        return draw\n"
              "x = draw\ndef h():\n    return 'draw'\n")
    assert _users(source, "draw") == ["<module>", "C", "f"]
    assert _users(source, "rng") == ["f"]
