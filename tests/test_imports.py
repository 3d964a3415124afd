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
