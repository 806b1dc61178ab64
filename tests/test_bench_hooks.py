"""The benchmark's tracer wraps nkshoot functions by name: every span it
installs must still resolve, so a rename fails here and not only in the
benchmark's own suite."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from nkshoot import shoot

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
