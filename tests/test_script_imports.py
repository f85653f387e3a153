"""Every ``repro`` import in the examples, benchmarks and perfbench resolves.

None of ``examples/``, ``benchmarks/`` or ``perfbench/`` is collected by
this suite, so deleting or renaming a library name could break them
silently.  Each
script is parsed with :mod:`ast` (nothing in it runs); every
``import repro.…`` must name an importable module, and every
``from repro.… import name`` must name an attribute or submodule of an
importable module.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(
    path
    for directory in ("examples", "benchmarks", "perfbench")
    for path in (ROOT / directory).glob("*.py")
)


def _repro_imports(path):
    """``(module, name or None, line)`` per ``repro`` import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name, node.lineno


def _unresolved(module_name, name):
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        return f"module {module_name} does not import ({error})"
    if name is None or name == "*" or hasattr(module, name):
        return None
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return f"{module_name} has no name {name}"
    return None


def test_scripts_found():
    assert any(path.parent.name == "examples" for path in SCRIPTS)
    assert any(path.parent.name == "benchmarks" for path in SCRIPTS)
    assert any(path.parent.name == "perfbench" for path in SCRIPTS)


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[str(p.relative_to(ROOT)) for p in SCRIPTS]
)
def test_repro_imports_resolve(path):
    broken = [
        f"{path.relative_to(ROOT)}:{line} {problem}"
        for module_name, name, line in _repro_imports(path)
        for problem in [_unresolved(module_name, name)]
        if problem is not None
    ]
    assert not broken, "unresolved imports:\n" + "\n".join(broken)
