"""Properties of the library's source text."""

import ast
from pathlib import Path

import ordroots


def test_no_assert_statements():
    # python -O strips assert statements, so every invariant check in the
    # library is an explicit raise; the test files' own asserts would be
    # stripped too, which is why this is a walk of the syntax tree and not
    # a test run under -O
    root = Path(ordroots.__file__).parent
    files = sorted(root.rglob("*.py"))
    assert root / "ordercore.py" in files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(root)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_imports_at_module_top():
    # every import of the library runs when its module is loaded, never
    # inside a function, a class or a conditional
    root = Path(ordroots.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(root)}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]
    assert found == []
