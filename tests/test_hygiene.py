"""Source hygiene checks that need no linter.

Every name a module imports must be used: it has to appear somewhere in
the module outside its import statement (a doctest counts as a use).
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schubsmooth"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that occur nowhere else."""
    lines = source.splitlines()
    imports = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
    ]
    rest = list(lines)
    for node in imports:
        for t in range(node.lineno - 1, node.end_lineno):
            rest[t] = ""
    text = "\n".join(rest)
    unused = []
    for node in imports:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if not re.search(rf"\b{re.escape(name)}\b", text):
                unused.append(name)
    return unused


def test_unused_imports_are_detected():
    source = "import os\nfrom typing import (\n    Any,\n    List,\n)\nx: List[int] = []\n"
    assert unused_imports(source) == ["os", "Any"]
    assert unused_imports('"""\n>>> os.sep\n"""\nimport os\n') == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
