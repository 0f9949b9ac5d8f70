"""Each private helper stays behind the module that defines it."""

import ast
from pathlib import Path

import divgraph

SOURCES = sorted(Path(divgraph.__file__).parent.glob("*.py"))


def test_no_module_imports_a_private_name_from_another():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''}"
                          f" import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert len(SOURCES) > 1
    assert found == []
