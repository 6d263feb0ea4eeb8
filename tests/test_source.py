"""The library's bounds and identities raise errors of their own: none is a
bare `assert`, which `python -O` strips.  Running the tests under -O shows
only that they pass without asserts, not that the library has none."""
import ast
from pathlib import Path

import qgl


def test_library_has_no_assert_statements():
    modules = sorted(Path(qgl.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
