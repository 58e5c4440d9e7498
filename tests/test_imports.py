"""No module of the package imports a name it never uses or keeps
per-thread state, holes draws its rows in one place, and every test patch
reaches the code that reads the name.

The toolchain has no linter, so this reads each module's syntax tree: a
name an import binds must be read somewhere in the module or listed in its
__all__.  `from __future__ import annotations` binds no name.  No module
may bind threading.local: every array is allocated where it is filled, and
a per-thread cache must come back with a measurement that it pays.  In
holes, rng.gaussian_rows occurs only in the runner _screened_counts and
sample_coeff_batch only in the direct estimator's quadratic step; the
kernel (ladder) draws no row and the interval layer imports nothing from
the package.  A monkeypatch.setattr(module, "name", ...) replaces one
binding: a module that imported the name holds its own, which the patch
does not reach, so each patch must meet a reader.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gafholes"
TESTS = Path(__file__).resolve().parent

# imported but never read: bench/tracing.py wraps each of them under the
# name it replaces in that module
KEPT_FOR_THE_TRACER = {
    ("holes.py", "derivative_sup_bound_rows"),
    ("holes.py", "evaluate_on_grid"),
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


def _package_imports(source: str) -> list:
    """Lines that import from the package: relative or gafholes imports."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and (
                      node.level or node.module.split(".")[0] == "gafholes")
                  or isinstance(node, ast.Import) and any(
                      a.name.split(".")[0] == "gafholes" for a in node.names))


@pytest.mark.parametrize("name, users", [
    ("gaussian_rows", ["_screened_counts"]),
    # the quadratic step's c_0..c_2
    ("sample_coeff_batch", ["estimate_hole_direct"]),
])
def test_one_runner_draws_the_rows_of_every_estimator(name, users):
    # the runner lays out and draws every stream's rows from its (seed,
    # purpose, z, first, w); a second drawer in holes must change this test
    assert _users((SRC / "holes.py").read_text(), name) == users
    # the kernel decides the rows it is given and bounds no rate; the
    # interval layer stands alone
    kernel = (SRC / "ladder.py").read_text()
    assert _users(kernel, name) == _users(kernel, "wilson_interval") == []
    assert _package_imports((SRC / "intervals.py").read_text()) == []


def test_the_check_sees_every_user_of_a_name():
    source = ("from . import rng\nfrom .gaf import draw\n"
              "def f():\n    return rng.draw(1)\n"
              "class C:\n    def g(self):\n        return draw\n"
              "x = draw\ndef h():\n    return 'draw'\n")
    assert _users(source, "draw") == ["<module>", "C", "f"]
    assert _users(source, "rng") == ["f"]
    assert _package_imports(source) == [1, 2]
    assert _package_imports("import math\nimport gafholes.rng as r\n"
                            "from numpy import pi\nfrom gafholes import gaf\n") == [2, 4]


def _patch_misses(test_source: str, sources: dict) -> list:
    """(test function, "module.name", why) of each monkeypatch.setattr(
    module, "name", ...) in test_source, module a key of sources (the
    package's modules, by the names the tests import them under), that
    nothing reads, as module.name anywhere or as a bare name inside module,
    or that leaves another module reading the name bare unpatched in the
    same function."""
    bare, dotted = {}, set()
    for mod, source in sources.items():
        bare[mod] = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare[mod].add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                dotted.add((node.value.id, node.attr))
    misses = []
    for top in ast.parse(test_source).body:
        if not isinstance(top, ast.FunctionDef):
            continue
        patched = sorted({
            (node.args[0].id, node.args[1].value) for node in ast.walk(top)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setattr" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "monkeypatch" and len(node.args) > 2
            and isinstance(node.args[0], ast.Name) and node.args[0].id in sources
            and isinstance(node.args[1], ast.Constant)})
        for mod, name in patched:
            if name not in bare[mod] and (mod, name) not in dotted:
                misses.append((top.name, f"{mod}.{name}", "nothing reads it"))
            misses += [(top.name, f"{mod}.{name}", f"{other} reads it unpatched")
                       for other in sorted(sources) if other != mod
                       and name in bare[other] and (other, name) not in patched]
    return misses


@pytest.mark.parametrize("path", sorted(TESTS.glob("test_*.py")), ids=lambda p: p.name)
def test_every_patch_reaches_the_code_that_reads_the_name(path):
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert _patch_misses(path.read_text(), sources) == []


def test_the_check_sees_a_patch_that_misses_its_reader():
    sources = {
        "gaf": "def horner(x):\n    return x\n",
        "kernel": "from .gaf import horner\nSTEP = 2\n"
                  "def climb():\n    return horner(STEP)\n",
        "runner": "from . import kernel\nfrom .kernel import climb\n"
                  "def run():\n    return climb() + kernel.STEP\n",
    }
    test = ("import os\nfrom gafholes import kernel, runner\n"
            "def test_a(monkeypatch):\n"
            "    monkeypatch.setattr(runner, 'horner', None)\n"
            "    monkeypatch.setattr(kernel, 'climb', None)\n"
            "def test_b(monkeypatch):\n"
            "    def patch():\n"
            "        monkeypatch.setattr(kernel, 'horner', None)\n"
            "    monkeypatch.setattr(runner, 'climb', None)\n"
            "    monkeypatch.setattr(kernel, 'STEP', 3)\n"
            "    monkeypatch.setattr(os, 'sep', '/')\n")
    assert _patch_misses(test, sources) == [
        ("test_a", "kernel.climb", "nothing reads it"),
        ("test_a", "kernel.climb", "runner reads it unpatched"),
        ("test_a", "runner.horner", "nothing reads it"),
        ("test_a", "runner.horner", "kernel reads it unpatched")]
    # patched where they are read, both reach their readers
    assert _patch_misses(test.replace("(kernel, 'climb'", "(runner, 'climb'")
                         .replace("(runner, 'horner'", "(kernel, 'horner'"),
                         sources) == []
