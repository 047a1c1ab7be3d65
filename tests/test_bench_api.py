"""Every name the benchmark scripts import from occens must exist.

bench/trace_layers.py imports its names inside the functions that time
them, so a renamed or deleted public name would only show when the layer
trace runs.  This reads the imports from the source instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_imports():
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "occens"):
                found.update((path.name, node.module, alias.name)
                             for alias in node.names)
    return sorted(found)


IMPORTS = _bench_imports()


def test_bench_imports_found():
    assert len(IMPORTS) >= 18


@pytest.mark.parametrize("script, module, name", IMPORTS,
                         ids=[f"{s}:{m}.{n}" for s, m, n in IMPORTS])
def test_bench_import_resolves(script, module, name):
    parent = importlib.import_module(module)
    if not hasattr(parent, name):
        # `from occens import cli` names a submodule
        importlib.import_module(f"{module}.{name}")
