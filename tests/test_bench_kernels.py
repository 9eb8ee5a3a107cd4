"""``scripts/bench_kernels.py`` times the package's layers and records them
in ``BENCH_*.json``; nothing else runs it, so a change to what the timed
functions accept or return would break it unseen.  The script is loaded from
its file and three of its layers run at their smallest sizes."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_kernels.py"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its src
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_table_rows_time_from_perceptron(bench, monkeypatch):
    monkeypatch.setattr(bench, "TABLE_SIZES", ((64, 47),))
    (row,) = bench.table_rows()
    assert (row["N"], row["K"]) == (64, 47)
    assert row["median_ms"] > 0


def test_instance_timer_runs_every_call(bench, monkeypatch):
    monkeypatch.setattr(bench, "INSTANCE_REPEATS", 1)
    rows = bench.instance_rows(None)
    assert [row["call"] for row in rows] == list(bench.INSTANCE_CALLS)
    assert all(row["change_ms"] > 0 for row in rows)


def test_verify_rows_time_identity_and_readout(bench, monkeypatch):
    monkeypatch.setattr(bench, "INSTANCE_REPEATS", 1)
    rows = bench.verify_rows(None)
    assert [row["call"] for row in rows] == list(bench.VERIFY_CALLS)
    assert all(row["change_ms"] > 0 for row in rows)
