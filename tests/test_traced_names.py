"""The benchmark's per-layer run (``perfbench/run.py --trace 1``) wraps
qvstrain functions and methods by name, listed in ``perfbench/spans.py``.
A renamed or deleted name would break that run, which this suite does not
execute, so the names are checked here.  ``spans`` is loaded from its file
and nothing in it is run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import qvstrain.cli  # noqa: F401  (the tracer expects every module imported)

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module,name", spans.FUNCTIONS,
                         ids=[f"{m}.{n}" for m, n in spans.FUNCTIONS])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"qvstrain.{module}"), name, None))


@pytest.mark.parametrize("module,cls,attr,span", spans.METHODS,
                         ids=[span for *_, span in spans.METHODS])
def test_traced_method_exists(module, cls, attr, span):
    owner = getattr(importlib.import_module(f"qvstrain.{module}"), cls)
    assert attr in vars(owner), f"{span}: {cls}.{attr} is not defined on the class"


def test_tracer_reads_l_bits():
    assert callable(importlib.import_module("qvstrain.counting").l_bits)
