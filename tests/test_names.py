"""Every public name a library module defines is read outside the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the package __init__ only re-exports, so its imports are not reads
LIBRARY = sorted(p for p in (ROOT / "src" / "geneo").glob("*.py")
                 if p.name != "__init__.py")
TEXTS = sorted([*(ROOT / "perfbench").glob("*.py"), ROOT / "README.md"])


def _public_definitions(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, ast.Assign):
        names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = {stmt.target.id}
    else:
        names = set()
    return {n for n in names if not n.startswith("_")}


def unread_names(modules: dict[str, str], texts: list[str]) -> list[str]:
    """``module.name`` for every public top-level function, class or constant
    of ``modules`` (module name -> source) that no other top-level statement
    of those modules loads, as a name or an attribute, and that no word of
    ``texts`` spells."""
    defined, read = [], set()
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            own = _public_definitions(stmt)
            defined += [(module, name) for name in own]
            read |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))
                     and isinstance(node.ctx, ast.Load)} - own
    read |= {word for text in texts for word in re.findall(r"\w+", text)}
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read)


def test_no_unread_public_names():
    assert unread_names({p.stem: p.read_text() for p in LIBRARY},
                        [p.read_text() for p in TEXTS]) == []


def test_detects_an_unread_name():
    modules = {"a": ("def used():\n    pass\n\n"
                     "def dead(k):\n    return dead(k - 1)\n\n"
                     "def _private():\n    pass\n\n"
                     "LIMIT = 3\nTOLERANCE: float = 1e-8\n"),
               "b": "from .a import used\n\nused()\n"}
    assert unread_names(modules, ["see `LIMIT`"]) \
        == ["a.TOLERANCE", "a.dead"]
