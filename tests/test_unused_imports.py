"""Every name a library module imports is used somewhere in that module.

A stand-in for a linter's unused-import check: each non-``__init__``
module under ``src/`` is parsed with :mod:`ast`, and an imported name
fails when it occurs nowhere in the module's source text outside its
own import statement.  ``__init__`` modules are skipped because their
imports are re-exports.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _bound_names(node):
    """Names an ``import`` / ``from ... import`` statement binds."""
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname is not None:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def _unused_imports(path):
    source = path.read_text()
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = ast.get_source_segment(source, node)
        for name in _bound_names(node):
            word = re.compile(rf"\b{re.escape(name)}\b")
            elsewhere = len(word.findall(source)) - len(
                word.findall(statement)
            )
            if elsewhere == 0:
                unused.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    return unused


def test_no_unused_imports_under_src():
    modules = sorted(
        path for path in SRC.rglob("*.py") if path.name != "__init__.py"
    )
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
