"""Every top-level function and class of the package is read by the package
or by the pipeline benchmark (``perfbench/``): no library code exists for the
tests alone, apart from the test oracles named here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "maars").glob("*.py"))
READERS = [*PACKAGE, *sorted((ROOT / "perfbench").glob("*.py"))]

# independent re-computations that only the tests call, to check the library
ORACLES = {"dare_residual", "measure_far"}


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


def test_every_definition_is_read_by_the_package_or_the_benchmark():
    assert PACKAGE
    found = unread([p.read_text() for p in PACKAGE], [p.read_text() for p in READERS])
    assert found == sorted(ORACLES)


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
