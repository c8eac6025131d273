"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import kakimizu


def test_no_assert_statements():
    # ``python -O`` strips asserts, so library invariants must raise instead
    offenders = []
    for path in sorted(Path(kakimizu.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert offenders == []


def test_imports_are_stdlib_or_relative():
    # the runtime needs nothing beyond the standard library
    offenders = []
    for path in sorted(Path(kakimizu.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.partition(".")[0] not in sys.stdlib_module_names]
    assert offenders == []
