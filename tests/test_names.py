"""Every public name a library module defines is read outside the tests:
its top-level functions, classes and constants, and its classes' methods
and properties."""

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


def _loads(node, own=()) -> set[str]:
    """Names and attributes that ``node`` loads, less ``own``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)} - set(own)


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
            read |= _loads(stmt, own)
    read |= {word for text in texts for word in re.findall(r"\w+", text)}
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read)


def unread_methods(modules: dict[str, str], texts: list[str]) -> list[str]:
    """``module.Class.name`` for every public method or property of a
    top-level class of ``modules`` whose name no ``x.name`` outside its own
    body loads and that no ``Class.name`` of ``texts`` spells."""
    methods, read = [], set()
    for module, source in modules.items():
        tree = ast.parse(source)
        bodies = set()
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for f in cls.body:
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                        methods.append((module, cls.name, f.name))
                        bodies |= {id(n) for n in ast.walk(f)}
                        read |= {n.attr for n in ast.walk(f)
                                 if isinstance(n, ast.Attribute)
                                 and isinstance(n.ctx, ast.Load)
                                 and n.attr != f.name}
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                 and id(n) not in bodies}
    spelled = {m for text in texts for m in re.findall(r"(\w+\.\w+)", text)}
    return sorted(f"{module}.{cls}.{name}" for module, cls, name in methods
                  if name not in read and f"{cls}.{name}" not in spelled)


def _library():
    return {p.stem: p.read_text() for p in LIBRARY}


def test_no_unread_public_names():
    assert unread_names(_library(), [p.read_text() for p in TEXTS]) == []


def test_no_unread_public_methods():
    assert unread_methods(_library(), [p.read_text() for p in TEXTS]) == []


def test_detects_an_unread_name():
    modules = {"a": ("def used():\n    pass\n\n"
                     "def dead(k):\n    return dead(k - 1)\n\n"
                     "def _private():\n    pass\n\n"
                     "LIMIT = 3\nTOLERANCE: float = 1e-8\n"),
               "b": "from .a import used\n\nused()\n"}
    assert unread_names(modules, ["see `LIMIT`"]) \
        == ["a.TOLERANCE", "a.dead"]


def test_detects_an_unread_method():
    modules = {"a": ("class C:\n"
                     "    def used(self):\n        return self.helper()\n\n"
                     "    def helper(self):\n        pass\n\n"
                     "    def dead(self, k):\n        return self.dead(k - 1)\n\n"
                     "    @property\n    def size(self):\n        return 0\n\n"
                     "    @property\n    def H(self):\n        return 0\n\n"
                     "    def _private(self):\n        pass\n"),
               "b": "def f(c):\n    return c.used()\n"}
    # a bare word does not read a method, its qualified spelling does
    assert unread_methods(modules, ["H and size", "see `C.size`"]) \
        == ["a.C.H", "a.C.dead"]
