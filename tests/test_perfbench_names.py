"""The names the pipeline benchmark (``perfbench/``) resolves in ``maars``
exist: the functions its tracer wraps, and the names its scripts import; and
the functions whose calls it reads still take the arguments it reads by
position."""

import ast
import importlib
import importlib.util
import inspect
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


def indexed_arguments(source: str, observed: set[str]) -> list[tuple[str, int]]:
    """(span, index) of every pair in ``source`` that names an observed span
    and the position of the argument the benchmark reads from its calls."""
    return [
        (node.elts[0].value, node.elts[1].value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Tuple) and len(node.elts) == 2
        and all(isinstance(e, ast.Constant) for e in node.elts)
        and node.elts[0].value in observed and type(node.elts[1].value) is int
    ]


def positional_at(fn, index: int) -> bool:
    """Whether ``fn`` takes a positional parameter at ``index``."""
    params = list(inspect.signature(fn).parameters.values())
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return index < len(params) and params[index].kind in kinds


def test_observed_functions_keep_the_arguments_the_benchmark_reads():
    worker = (PERFBENCH / "worker.py").read_text()
    observed = set(ast.literal_eval(next(
        node.value for node in ast.parse(worker).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["OBSERVED"]
    )))
    targets = {name: owner_and_leaf(module, attr)
               for module, attr, name in load_layertrace().TARGETS}
    assert observed <= set(targets)
    indexed = indexed_arguments(worker, observed)
    assert sorted(indexed) == [("cosim.save_trace_csv", 1), ("schedgen.save_pool", 2),
                               ("vulnerability.save_store", 1)]
    broken = [f"{name} argument {index}" for name, index in indexed
              if not positional_at(getattr(*targets[name]), index)]
    assert broken == []


def test_argument_check_sees_a_moved_parameter():
    def save(store, *, path): ...
    assert positional_at(save, 0) and not positional_at(save, 1)
    source = 'for name, arg in (("a.save", 2), ("b.load", 1), ("c", "x")): pass\n'
    assert indexed_arguments(source, {"a.save", "c"}) == [("a.save", 2)]
