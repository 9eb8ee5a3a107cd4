"""The benchmark's per-layer run (``perfbench/spans.py``) derives its search
counts from the calls it wraps, such as ``SimAndSearchOracle.plane_marginal``;
a search that went round a wrapped method would read 0 there without failing
anything else.  So one traced op of each searching subcommand is run here
and its counts are checked."""

import importlib.util
import io
from pathlib import Path

import pytest

import qvstrain.cli as cli

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_metrics(*argv) -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(list(argv), io.StringIO()) == 0
    finally:
        tracer.enable(False)
    return {name: value for name, (value, _unit) in tracer.metrics().items()}


@pytest.mark.parametrize("argv", [
    ("train", "--n", "16", "--m", "2", "--gamma", "0.2", "--trials", "2", "--seed", "3"),
    ("sweep", "--n-grid", "8,16", "--k-grid", "8", "--trials", "3", "--seed", "3"),
], ids=["train", "sweep"])
def test_traced_op_counts_the_search(argv):
    metrics = traced_metrics(*argv)
    assert metrics["search.plane_marginal.calls"] == metrics["search.rounds"] > 0
    assert metrics["search.sim_and_executed"] > 0
    assert metrics["search.sim_and_charged"] >= metrics["search.sim_and_executed"]
    assert metrics["counting.amp_updates_computed"] > 0
