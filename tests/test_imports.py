"""The runtime is numpy-only: the package imports nothing else from outside
the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ddqcl"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ddqcl"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_sources_found():
    assert {p.name for p in SRC.glob("*.py")} >= {"__init__.py", "sim.py", "harness.py"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_itself(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert set(_imported_roots(tree)) <= ALLOWED


def _unused_imports(tree):
    """Names a module imports and never reads, with the line that imports them."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    # an import that nothing reads, kept only so that a benchmark's tracer
    # finds the name in the module, would hide a helper that nothing calls
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_check_finds_one():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .sim import sample, probabilities\n"
        "x = np.zeros(probabilities(1))\n"
    )
    assert _unused_imports(tree) == [(2, "os"), (3, "sample")]


def _unread_private_names(trees):
    """(module, line, name) for each module-level name with one leading
    underscore, defined by a def, class or assignment, that no module of
    `trees` reads: as a name, as an attribute, or by importing it."""
    defined, read = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            private = [n for n in names if n.startswith("_") and not n.startswith("__")]
            defined += [(module, node.lineno, name) for name in private]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in read)


def test_package_reads_every_private_name_it_defines():
    # a private helper, constant or class that nothing reads is dead code
    trees = {
        p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SRC.glob("*.py")
    }
    assert _unread_private_names(trees) == []


def test_unread_private_name_check_finds_one():
    trees = {
        "a.py": ast.parse(
            "__all__ = ['f']\n"
            "_LIMIT, _SPARE = 3, 4\n"
            "def _used(): return _LIMIT\n"
            "def _unused(): pass\n"
            "class _Kept: pass\n"
            "def _by_attribute(): pass\n"
        ),
        "b.py": ast.parse(
            "from . import a\n"
            "from .a import _used, _Kept\n"
            "_used(), a._by_attribute()\n"
            "_dead: int = 1\n"
        ),
    }
    assert _unread_private_names(trees) == [
        ("a.py", 2, "_SPARE"), ("a.py", 4, "_unused"), ("b.py", 4, "_dead")
    ]


# The three input rules live in `sim`: `check_integer`, which reads a count
# through `operator.index`, `check_real`, which knows a number by
# `numbers.Real`, and `check_probabilities`, which sums a vector to 1 within
# `_DIST_TOL`.  A module that reaches for these parts again, or for the
# float64 bounds in `sys.float_info`, writes a copy of a rule, and copies
# drift: one took True for 1, another 0.5 for 0, and a third checked numbers
# read from JSON but not numbers built in code.
_RULE_PARTS = {"operator.index", "numbers.Integral", "numbers.Real", "sys.float_info", "_DIST_TOL"}


def _rule_parts(tree):
    """The parts of `_RULE_PARTS` a module imports, calls or reads."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named.update(f"{node.module}.{alias.name}" for alias in node.names)
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
            if isinstance(node.value, ast.Name):
                named.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name):
            named.add(node.id)
    return sorted(named & _RULE_PARTS)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "sim.py"), ids=lambda p: p.name
)
def test_only_sim_writes_the_input_rules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _rule_parts(tree) == []


def test_sim_holds_the_input_rules():
    tree = ast.parse((SRC / "sim.py").read_text(encoding="utf-8"))
    assert _rule_parts(tree) == ["_DIST_TOL", "numbers.Real", "operator.index"]


def test_rule_part_check_finds_each():
    found = [
        _rule_parts(ast.parse(source))
        for source in (
            "import operator\nn = operator.index(x)\n",
            "from operator import index as to_int\n",
            "from numbers import Integral\n",
            "import numbers\nok = isinstance(x, numbers.Integral)\n",
            "from .sim import _DIST_TOL\n",
            "from ddqcl import sim\ntol = sim._DIST_TOL\n",
            "import operator\nkey = operator.itemgetter(0)\n",
            "import sys, numbers\nok = isinstance(x, numbers.Real) and x <= sys.float_info.max\n",
        )
    ]
    assert found == [
        ["operator.index"], ["operator.index"], ["numbers.Integral"], ["numbers.Integral"],
        ["_DIST_TOL"], ["_DIST_TOL"], [], ["numbers.Real", "sys.float_info"],
    ]


# `sim._run_ranges` is the one place the package starts threads: it runs
# calibration's experiments and the lanes' rows as contiguous ranges.  A module
# that imports a thread or process pool of its own writes a second splitter.
_THREAD_MODULES = {"concurrent", "multiprocessing", "queue", "threading"}


def _thread_imports(tree):
    """The roots of `_THREAD_MODULES` a module imports, at any depth."""
    return sorted(set(_imported_roots(tree)) & _THREAD_MODULES)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "sim.py"), ids=lambda p: p.name
)
def test_only_sim_imports_a_thread_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _thread_imports(tree) == []


def test_sim_holds_the_thread_pool():
    tree = ast.parse((SRC / "sim.py").read_text(encoding="utf-8"))
    assert _thread_imports(tree) == ["concurrent"]


def test_thread_import_check_finds_each():
    found = [
        _thread_imports(ast.parse(source))
        for source in (
            "import threading\n",
            "from concurrent.futures import ThreadPoolExecutor\n",
            "import os, concurrent.futures as cf\n",
            "def f():\n    from queue import SimpleQueue\n",
            "class C:\n    def run(self):\n        import multiprocessing.pool\n",
            "from .sim import _run_ranges\n",
            "import operator, numpy as np\n",
        )
    ]
    assert found == [
        ["threading"], ["concurrent"], ["concurrent"], ["queue"], ["multiprocessing"], [], [],
    ]


def test_cli_imports_no_thread_pool():
    # `sim._run_ranges` imports `concurrent.futures`, which imports `queue`,
    # where it starts threads, so that `ddqcl validate` does not pay 5-8 ms
    # for them
    code = (
        "import sys, ddqcl.cli; "
        "print(sorted({'concurrent.futures', 'queue'} & set(sys.modules)))"
    )
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
