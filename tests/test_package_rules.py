"""Rules about the package's shape that no single behaviour test would catch."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from virasoro_irregular import frames
from virasoro_irregular.ring import LaurentPoly

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "virasoro_irregular"


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("span", sorted(TRACER.SPANS))
def test_traced_functions_exist(span):
    # tracer.install() looks every name up with getattr, so a deleted or
    # renamed function would crash each traced benchmark run
    module, functions = TRACER.SPANS[span]
    home = importlib.import_module(f"virasoro_irregular.{module}")
    for name in functions:
        assert callable(getattr(home, name, None)), f"{module}.{name}"


@pytest.mark.parametrize("kind, r, traced", [
    (frames.INTEGER, 2, "dual_operator"), (frames.INTEGER, 3, "dual_operator"),
    (frames.HALF, 2, "odd_dual_operator"), (frames.HALF, 3, "odd_dual_operator"),
])
def test_family_dual_operator_goes_through_the_traced_function(kind, r, traced,
                                                               monkeypatch):
    # the tracer replaces these module functions by name, so the dual operator
    # of either family must reach its own traced function exactly once, or the
    # traced dual-operator time silently reads zero
    calls = {name: 0 for name in ("dual_operator", "odd_dual_operator")}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(frames, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(frames, name, counting)
    family = frames.Family(kind, r)
    op = family.dual_operator(family.frame_table())
    assert calls == {name: int(name == traced) for name in calls}
    assert op.var == family.var and len(op.row) == r


def test_traced_ring_methods_exist():
    for methods in TRACER.RING.values():
        for name in methods:
            assert callable(getattr(LaurentPoly, name, None)), name


def test_no_private_imports_across_modules():
    offending = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("virasoro_irregular")):
                offending += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                              f"import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert not offending, offending


def _defined_names(tree: ast.Module) -> set[str]:
    """Names a module defines itself: functions and classes, attribute
    stores and ``__slots__`` strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            names.update(c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return names


def test_no_private_attribute_reads_across_modules():
    # a module reads ``x._name`` only where it defines ``_name`` itself, so
    # another module's private state is reached through a public method
    offending = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = _defined_names(tree)
        offending += [f"{path.name}:{node.lineno}: .{node.attr}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                      and node.attr.startswith("_") and not node.attr.endswith("__")
                      and node.attr not in own]
    assert not offending, offending
