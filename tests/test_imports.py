"""The runtime is numpy-only: the package imports nothing else from outside
the standard library."""

import ast
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
