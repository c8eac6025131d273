"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import kakimizu


def test_no_assert_statements():
    # ``python -O`` strips asserts and sets __debug__ to False; the package
    # holds neither, so its checks run the same either way
    offenders = []
    for path in sorted(Path(kakimizu.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)
                      or isinstance(node, ast.Name) and node.id == "__debug__"]
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


def test_no_module_reads_another_modules_private_names():
    # a name with a leading underscore belongs to its module: no other
    # module of the package imports it or reads it as an attribute
    package = Path(kakimizu.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    aliases.add(alias.asname or alias.name)
                elif _private(alias.name):
                    offenders.append(f"{path.name}:{node.lineno} {alias.name}")
        offenders += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and _private(node.attr)
                      and isinstance(node.value, ast.Name) and node.value.id in aliases]
    assert offenders == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")
