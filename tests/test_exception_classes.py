"""One exception class per failing exit code: the package defines
``ConfigError`` (exit 2) and ``Infeasible`` (exit 3), both in
``maars.taskmodel``, and ``cli.main`` catches them and ``OSError`` (exit 2)
and nothing else."""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "maars").glob("*.py"))


def base_name(node: ast.expr) -> str:
    """``Error`` for a base written ``Error`` or ``module.Error``."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def exception_classes(modules: dict[str, str]) -> list[str]:
    """``module.Class`` of each top-level class of the ``modules`` sources
    that derives from an exception: a built-in one, one named ``...Error``,
    ``...Exception`` or ``...Warning`` elsewhere, or one of these classes."""
    bases = {
        (module, node.name): [base_name(b) for b in node.bases]
        for module, source in modules.items()
        for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
    }
    defined = {name for _, name in bases}
    known = {name for name in dir(builtins)
             if isinstance(getattr(builtins, name), type)
             and issubclass(getattr(builtins, name), BaseException)}
    known |= {b for parents in bases.values() for b in parents
              if b not in defined and b.endswith(("Error", "Exception", "Warning"))}
    found: set = set()
    while True:  # a class is an exception once one of its bases is
        new = {key for key, parents in bases.items()
               if key not in found and known.intersection(parents)}
        if not new:
            return sorted(f"{module}.{name}" for module, name in found)
        found |= new
        known |= {name for _, name in new}


def handled(source: str, function: str) -> list[list[str]]:
    """The exception names of each ``except`` clause of ``function``."""
    tree = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return [
        [base_name(t) for t in (h.type.elts if isinstance(h.type, ast.Tuple) else [h.type])]
        for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler)
    ]


def test_package_defines_one_exception_per_exit_code():
    modules = {path.stem: path.read_text() for path in PACKAGE}
    assert exception_classes(modules) == ["taskmodel.ConfigError", "taskmodel.Infeasible"]


def test_main_maps_exactly_the_two_classes_and_os_errors():
    source = (ROOT / "src" / "maars" / "cli.py").read_text()
    assert handled(source, "main") == [["ConfigError", "OSError"], ["Infeasible"]]


def test_checker_sees_exceptions_through_package_and_foreign_bases():
    modules = {
        "a": "class Numerics(RuntimeError): pass\nclass Rejected(Numerics): pass\n"
             "class Plain: pass\n",
        "b": "import numpy as np\nfrom a import Rejected\n"
             "class Singular(np.linalg.LinAlgError): pass\nclass Later(Rejected): pass\n"
             "class Record(Plain): pass\n",
    }
    assert exception_classes(modules) == ["a.Numerics", "a.Rejected", "b.Later", "b.Singular"]
    source = "def main():\n    try: pass\n    except (A, b.C): pass\n    except D: pass\n"
    assert handled(source, "main") == [["A", "C"], ["D"]]
