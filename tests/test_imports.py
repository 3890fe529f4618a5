"""Every module under ``src/spdcl`` uses each name it imports.

No linter runs on this code, and a deletion can leave an import behind:
each module is parsed with ``ast`` and every name an import binds must
appear in the module as a name (annotations included) or in its
``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spdcl"


def unused_imports(source: str) -> list[str]:
    """The names ``source``'s imports bind and nothing in it reads, with their lines."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ are exported, so used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, os.path as osp\nfrom typing import Any, NamedTuple\nx: Any = os\n"
    assert unused_imports(source) == ["line 2: osp", "line 3: NamedTuple"]


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_a_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
