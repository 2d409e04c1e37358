"""Every module-level import in the package is used, or says why not.

No linter runs on this repository, so nothing else enforces the
``# noqa: F401`` markers.  A name that a module imports and never reads
fails here, unless its line carries ``# noqa: F401`` followed by a reason
(``-- bench/spans.py patches it here``).  ``__init__.py`` re-exports, so
it is exempt; so are ``from __future__`` imports.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "meantype"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: ``# noqa: F401`` with some text after it: the reason.
MARKER = re.compile(r"#\s*noqa:\s*F401\b\W*\w")


def _imports(tree: ast.Module):
    """``(bound name, line)`` for each module-level import of ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).partition(".")[0], alias.lineno


def unused_imports(source: str) -> list[str]:
    """The module-level imports of ``source`` that no code reads and no
    ``# noqa: F401`` marker with a reason excuses, as ``line: name``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in _imports(tree)
            if name not in used and not MARKER.search(lines[line - 1])]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["1: os"]),
    ("import os.path\nos.sep\n", []),
    ("from math import inf as INF, nan\nx = INF\n", ["1: nan"]),
    ("from a import (\n    b,\n    c,\n)\nc()\n", ["2: b"]),
    ("from a import b  # noqa: F401\n", ["1: b"]),  # a marker needs a reason
    ("from a import b  # noqa: F401 -- patched here\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import os\n", []),  # only module-level imports count
    ("import typing\nx: 'int' = 1\ndef f(y: typing.Any): pass\n", []),
])
def test_finds_unused_imports(source, unused):
    assert unused_imports(source) == unused
