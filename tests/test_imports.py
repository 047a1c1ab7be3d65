"""No linter is assumed: a module's imports are checked with `ast` here."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
MODULES = sorted([*(TESTS.parent / "src" / "occens").glob("*.py"),
                  *TESTS.glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names a module imports (bar `from __future__`) and never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path, sys\n"
              "from math import exp as e, log\nprint(sys, log)\n")
    assert unused_imports(source) == ["os", "e"]


def test_every_import_is_read():
    assert len(MODULES) > 15
    unused = {str(path.relative_to(TESTS.parent)): names for path in MODULES
              if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert not unused
