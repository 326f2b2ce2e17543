"""No module under ``src/repro`` imports a name it never uses.

The repository runs no linter, so this guard walks each module's AST:
every name an ``import`` or ``from ... import`` binds must be read
somewhere in the module as an ``ast.Name`` (an attribute chain counts
through its root), or be listed in the module's ``__all__``.  A
deliberate re-export that neither reads marks its line with
``# noqa: F401`` (``repro.serving.cache`` keeps ``video_content_hash``
importable that way).  ``from __future__`` imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                bound += [(node.lineno, alias.asname or alias.name)
                          for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name)
                      and target.id == "__all__"
                      for target in node.targets)):
            used.update(element.value for element in node.value.elts)
    return [(line, name) for line, name in bound
            if name not in used and "noqa: F401" not in lines[line - 1]]


def test_no_unused_imports_in_src():
    found = [f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n  " + "\n  ".join(found)


def test_guard_sees_each_form():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "from re import compile  # noqa: F401\n"
        "__all__ = ['loads']\n"
        "x: osp.PathLike = None\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "dumps")]
