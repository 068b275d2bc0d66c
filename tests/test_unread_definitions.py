"""Every top-level function and class of the package, and every dataclass
field, method and property of its classes, is read by the package or by the
pipeline benchmark (``perfbench/``): no library code exists for the tests
alone, not even a test oracle (those live in ``tests/oracles.py``)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "maars").glob("*.py"))
READERS = [*PACKAGE, *sorted((ROOT / "perfbench").glob("*.py"))]


def definitions(source: str) -> list[str]:
    """Names of a module's top-level functions and classes."""
    return [
        node.name for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def reads(source: str) -> set[str]:
    """Every name a module reads: loaded names, attributes, imported names,
    and the parts of a string that is a dotted name (the benchmark resolves
    the functions it traces from such strings)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def unread(package: list[str], readers: list[str]) -> list[str]:
    """Top-level definitions of the ``package`` sources that no reader reads."""
    read = set().union(*(reads(source) for source in readers))
    return sorted(
        name for source in package for name in definitions(source) if name not in read
    )


def members(source: str) -> list[str]:
    """``Class.name`` of each dataclass field, method and property of a
    module's top-level classes; a dunder method is Python's to call."""
    found = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        dataclass = any(
            isinstance(f, ast.Name) and f.id == "dataclass"
            for f in (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
        )
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
            elif dataclass and isinstance(node, ast.AnnAssign):
                name = node.target.id
            else:
                continue
            found.append(f"{cls.name}.{name}")
    return found


def attribute_reads(source: str) -> set[str]:
    """Every name a module reads as an attribute (``x.name`` loaded, not
    assigned), and the parts of a string that is a dotted name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def unread_members(package: list[str], readers: list[str]) -> list[str]:
    """Class members of the ``package`` sources that no reader reads."""
    read = set().union(*(attribute_reads(source) for source in readers))
    return sorted(
        member for source in package for member in members(source)
        if member.split(".")[1] not in read
    )


def test_every_definition_is_read_by_the_package_or_the_benchmark():
    assert PACKAGE
    assert unread([p.read_text() for p in PACKAGE], [p.read_text() for p in READERS]) == []


def test_checker_sees_a_definition_only_tests_read():
    library = (
        "def job_hit(): pass\n"
        "def attack_count(): return window_hit()\n"
        "def window_hit(): pass\n"
        "class Store: pass\n"
    )
    benchmark = "TARGETS = [('maars.x', 'Store.load', 'x.load')]\nattack_count()\n"
    test = "from maars.x import job_hit\njob_hit()\n"
    assert unread([library], [library, benchmark]) == ["job_hit"]
    assert unread([library], [library, benchmark, test]) == []


def test_every_member_is_read_by_the_package_or_the_benchmark():
    sources = [p.read_text() for p in PACKAGE]
    assert any(members(source) for source in sources)
    assert unread_members(sources, [p.read_text() for p in READERS]) == []


def test_checker_sees_a_member_only_tests_read():
    library = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class View:\n"
        "    aai: int\n"
        "    conclusive: bool\n"
        "    def size(self): return self.aai\n"
        "    @property\n"
        "    def ratio(self): pass\n"
        "    def __len__(self): return 0\n"
        "class Plain:\n"
        "    depth: int = 1\n"
        "def mark(view): view.conclusive = True\n"
    )
    benchmark = "TARGETS = [('maars.x', 'View.ratio', 'x.ratio')]\n"
    test = "view.conclusive, view.size()\n"
    assert unread_members([library], [library, benchmark]) == ["View.conclusive", "View.size"]
    assert unread_members([library], [library, benchmark, test]) == []
