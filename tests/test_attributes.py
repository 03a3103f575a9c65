"""Every attribute a library class assigns on ``self`` is read by the library
or the benchmark, not only by tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLASS_MODULES = sorted((ROOT / "src" / "geneo").glob("*.py"))
READERS = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")])


def dead_attributes(class_sources, reader_sources) -> list[str]:
    """``Class.name`` for every ``self.name = ...`` inside a class of
    ``class_sources`` whose ``name`` no ``x.name`` read in
    ``reader_sources`` loads."""
    assigned = set()
    for source in class_sources:
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            assigned |= {(cls.name, node.attr) for node in ast.walk(cls)
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, ast.Store)
                         and isinstance(node.value, ast.Name)
                         and node.value.id == "self"}
    read = {node.attr for source in reader_sources
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{cls}.{name}" for cls, name in assigned if name not in read)


def test_no_dead_attributes():
    assert dead_attributes([p.read_text() for p in CLASS_MODULES],
                           [p.read_text() for p in READERS]) == []


def test_detects_a_dead_attribute():
    cls = ("class C:\n"
           "    def __init__(self):\n"
           "        self.used = 1\n"
           "        self.dead = 2\n")
    assert dead_attributes([cls], [cls, "def f(c):\n    return c.used\n"]) \
        == ["C.dead"]
