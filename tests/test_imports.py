"""Every name a module of ``src/lpmech`` imports is used there.

The check reads each module's syntax tree with the standard ``ast`` module:
every name bound by an ``import`` or ``from ... import``, at the top level
or inside a function, must be read somewhere in that module, or be listed
in its ``__all__``.  ``from __future__`` imports bind no name and are
skipped.
"""

import ast
import pathlib

import pytest

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lpmech"


def unused_imports(source):
    """(line, name) of each imported name that ``source`` never reads."""
    tree = ast.parse(source)
    imported, read, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in node.value.elts}
    return [(line, name) for line, name in imported if name not in read | exported]


def test_the_check_sees_local_imports_and_all():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .x import a, b\n"
        "__all__ = ['b']\n"
        "def f():\n"
        "    from .y import c\n"
        "    import json\n"
        "    return np.zeros(1), json\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "a"), (6, "c")]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
