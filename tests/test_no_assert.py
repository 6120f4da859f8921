"""No library check may rest on `assert`, which `python -O` removes, nor
raise a bare AssertionError, which is no HamisoError and escapes the CLI."""

import ast
import pathlib

import hamiso

SOURCES = sorted(pathlib.Path(hamiso.__file__).parent.glob("*.py"))


def nodes():
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}" for path, node in nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_library_raises_no_assertion_error():
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in nodes()
        if isinstance(node, ast.Raise) and raised_name(node) == "AssertionError"
    ]
    assert found == []
