"""The benchmark's tracer wraps nkshoot functions by name and its workloads
call them: every span it installs must still resolve and every call must
still bind, so a rename or a narrowed signature fails here and not only in
the benchmark's own suite."""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from nkshoot import cli, shoot

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _layer_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYER_SPANS


@pytest.mark.parametrize("span", _layer_spans(), ids=lambda s: s[0])
def test_layer_span_resolves(span):
    _, module, attr, _ = span
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        # the tracer patches the class's own attribute, not an inherited one
        assert attr in vars(owner)
    assert callable(getattr(owner, attr))


def test_solve_family_keeps_family_parameter():
    # the tracer counts objective evaluations by the bound 'family' argument
    assert "family" in inspect.signature(shoot.solve_family).parameters


def test_workload_calls_bind():
    # every name the workloads import from nkshoot resolves, and every call
    # of one, or of a function of an imported nkshoot module, binds to the
    # current signature with the call's positional count and keyword names
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and node.module.startswith("nkshoot")):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    assert {"shoot", "cli", "emit"} <= set(names)
    calls = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            fn = names[func.id]
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name)
              and inspect.ismodule(names.get(func.value.id))):
            fn = getattr(names[func.value.id], func.attr)
        else:
            continue
        if not callable(fn) or inspect.isclass(fn):
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args)
        assert all(kw.arg is not None for kw in node.keywords)
        inspect.signature(fn).bind(*node.args,
                                   **{kw.arg: None for kw in node.keywords})
        calls += 1
    assert calls >= 6


def test_volume_read_calls_the_traced_quadrature(monkeypatch):
    # the volume is computed on first read of FamilySolve.vol_integral; it
    # must call the module global that the shoot.volume_quad span wraps, so
    # that the span keeps counting every quadrature
    _, module, attr, _ = next(span for span in _layer_spans()
                              if span[0] == "shoot.volume_quad")
    owner, calls = importlib.import_module(module), []
    original = getattr(owner, attr)

    def wrapped(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, attr, wrapped)
    fs = shoot.solve_family("beta", 0.6)
    assert calls == []
    assert fs.vol_integral > 0.0
    assert len(calls) == 1 and calls[0][0] is fs.traj
    assert calls[0][1:] == ()


def test_table2_workload_lists_the_cli_targets():
    # seed 0 of the table2 workload solves exactly the CLI's table: the same
    # targets in the same order, with the same labels, kinds and brackets
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.TABLE2_TARGETS == tuple(
        (target, *row) for target, row in cli._TARGETS.items())
