"""Checks on the package source itself."""

import ast
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
