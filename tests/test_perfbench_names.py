"""The names the pipeline benchmark (``perfbench/``) resolves in ``maars``
exist: the functions its tracer wraps, and the names its scripts import."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_layertrace():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layertrace", PERFBENCH / "layertrace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owner_and_leaf(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def test_tracer_wraps_and_restores_every_target():
    layertrace = load_layertrace()
    targets = [owner_and_leaf(module, attr) for module, attr, _ in layertrace.TARGETS]
    originals = [owner.__dict__[leaf] for owner, leaf in targets]
    tracer = layertrace.Tracer("t")
    try:
        tracer.install(sys.modules)
        installed = [owner.__dict__[leaf] for owner, leaf in targets]
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(installed, originals))
    assert all(owner.__dict__[leaf] is o for (owner, leaf), o in zip(targets, originals))


def maars_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of every ``from maars... import name`` in ``source``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[0] == "maars"
        for alias in node.names
    ]


def test_every_maars_import_of_the_benchmark_resolves():
    imports = [
        (path.name, module, name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for module, name in maars_imports(path.read_text())
    ]
    assert imports
    missing = [
        f"{path}: from {module} import {name}"
        for path, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_import_scan_sees_a_missing_name():
    source = "def f():\n    from maars.cli import main, no_such_name\n    import os\n"
    assert maars_imports(source) == [("maars.cli", "main"), ("maars.cli", "no_such_name")]
    assert not hasattr(importlib.import_module("maars.cli"), "no_such_name")
