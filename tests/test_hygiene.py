"""Checks on the package source and on what the benchmark relies on (no linter is a dependency)."""

import ast
import importlib
import importlib.util
import inspect
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import perivar
from perivar import GridDomain, hyperplane_measure, ic, oracle

SRC = Path(__file__).resolve().parent.parent / "src" / "perivar"


def _unused_imports(tree):
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # string annotations such as "ICVariant" name their types in the text
    annotations = [
        ann
        for node in ast.walk(tree)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if ann is not None
    ]
    for const in (c for ann in annotations for c in ast.walk(ann)):
        if isinstance(const, ast.Constant) and isinstance(const.value, str):
            inner = ast.parse(const.value, mode="eval")
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_module_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {name}" for line, name in _unused_imports(tree)]
    assert not found, "imported but never used: " + ", ".join(found)


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", SRC.parent.parent / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_bindings_resolve():
    # the benchmark's tracer rebinds these by name and reads scan_excess's
    # second argument as the admissible pool
    tracer = _load_tracer()
    missing = [
        f"{module}.{func}"
        for module, func in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"perivar.{module}"), func, None))
    ]
    assert not missing, "traced functions missing: " + ", ".join(missing)
    params = list(inspect.signature(oracle.scan_excess).parameters)
    assert params[1] == "admissible"


def test_benchmark_forced_probe_count():
    # the benchmark's pinned counter: on a 10x10 weight-2 line the sweep
    # takes its first flow through max_flow, then makes one augment call
    # per admissible cell, each seen by the tracer as a forced probe
    tracer = _load_tracer().Tracer()
    mu = hyperplane_measure(GridDomain((10, 10)), 1, 5, 2)
    tracer.install()
    try:
        # looked up in the package, where install rebinds it
        value = perivar.strong_excess(mu, 1, exhaustive_cap=22).value
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert value == -2
    assert metrics["ic.forced_probes"][0] == 100
    assert metrics["maxflow.augment.calls"][0] == 101
    assert metrics["maxflow.max_flow.calls"][0] == 1


def test_divergence_certificate_builds_few_fractions(monkeypatch):
    # the certificate is checked in integers; a Fraction is built per
    # distinct value, not per face or per cell
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    mu = hyperplane_measure(GridDomain((20, 20)), 1, 10, 2)
    monkeypatch.setattr(ic, "Fraction", counting)
    cert = perivar.divergence_certificate(mu, 1)
    assert cert.max_abs_sigma() == 1
    assert len(made) <= 16, len(made)


def test_every_definition_is_referenced():
    # a function, method or class whose name appears nowhere but in its own
    # definition is dead code; dunder names are called by the language
    root = SRC.parent.parent
    words = Counter(
        word
        for folder in ("src", "tests", "perfbench", "scripts")
        for path in sorted((root / folder).rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text())
    )
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
    unused = [
        f"{site}: {name}"
        for name, sites in sorted(defined.items())
        if not (name.startswith("__") and name.endswith("__"))
        and words[name] <= len(sites)
        for site in sites
    ]
    assert not unused, "defined but never referenced: " + ", ".join(unused)


def _self_calls(tree, prefix):
    """Qualified names of the functions under ``tree`` that call their own name."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            if not isinstance(node, ast.ClassDef) and any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == node.name
                for call in ast.walk(node)
            ):
                found.append(name)
            found += _self_calls(node, name)
    return found


def test_solver_modules_do_not_recurse():
    # a deep instance must not hit the interpreter's recursion limit: the
    # solver layers keep their pending work on explicit stacks and queues
    found = []
    for module in ("grid", "energy", "maxflow", "frontier", "oracle", "ic", "solve"):
        path = SRC / f"{module}.py"
        found += _self_calls(ast.parse(path.read_text(), filename=str(path)), module)
    assert not found, "recursive functions: " + ", ".join(found)


def test_oracle_imports_no_solver():
    # the oracle is the enumeration side of the dual-route checks: it may
    # share the compiled energy, but none of the solvers it checks
    solvers = {"maxflow", "frontier", "ic", "solve"}
    tree = ast.parse((SRC / "oracle.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "perivar":
                parts = parts[1:]
            if parts and parts[0] in solvers:
                found.append(f"line {node.lineno}: {name}")
    assert not found, "oracle imports a solver: " + ", ".join(found)
