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


def test_every_top_level_definition_is_named_elsewhere():
    """A top-level def or class that no other statement of the package names
    (an export from ``__init__`` names it) is code nothing reaches."""
    statements = [(path, node) for path in SOURCES
                  for node in ast.parse(path.read_text(), filename=str(path)).body]
    named = [{getattr(n, "id", None) or getattr(n, "attr", None) or n.name
              for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
             for _, node in statements]
    unreached = [f"{path.name}: {node.name}" for i, (path, node) in enumerate(statements)
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not any(node.name in names for j, names in enumerate(named) if j != i)]
    assert unreached == []
