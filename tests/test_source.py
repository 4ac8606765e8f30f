"""Checks on the package source itself."""

import ast
from pathlib import Path

import greenmorse as gm

PACKAGE_DIR = Path(gm.__file__).parent


def _unread_imports(tree) -> list:
    """Names that the module's import statements bind and no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_modules_read_every_name_they_import():
    # no linter runs on the package; __init__.py imports to re-export
    unread = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name != "__init__.py":
            names = _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
            if names:
                unread[path.name] = names
    assert unread == {}
