"""The frozen references live in reference.py, and each names the commit it freezes."""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _is_local_reference(node):
    if isinstance(node, ast.ClassDef):
        return node.name == "_Columns"
    return isinstance(node, ast.FunctionDef) and node.name.startswith(("_parent_", "_columns_"))


def test_no_other_test_file_defines_a_reference():
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path in sorted(TESTS.glob("*.py")) if path.name != "reference.py"
             for node in ast.walk(ast.parse(path.read_text())) if _is_local_reference(node)]
    assert found == []


def test_each_reference_names_the_commit_it_freezes():
    tree = ast.parse((TESTS / "reference.py").read_text())
    public = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert public
    for node in public:
        assert re.search(r"\b[0-9a-f]{7,40}\b", ast.get_docstring(node) or ""), node.name
