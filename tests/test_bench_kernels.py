"""``scripts/bench_kernels.py`` times the package's layers and records them
in ``BENCH_*.json``; nothing else runs it, so a change to what the timed
functions accept or return would break it unseen.  The script is loaded from
its file, three of its layers run at their smallest sizes, and its pinned-run
recorder runs one small argv per subcommand.  Loading it sets the BLAS thread
variables to 1, which the fixture restores afterwards."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

SCRIPT_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_kernels.py"


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its src
    for var in THREAD_VARS:  # the script sets them; restored after the test
        monkeypatch.setenv(var, "4")
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
    monkeypatch.setattr(bench, "CHILD_REPEATS", 1)
    monkeypatch.setattr(bench, "CHILD_ROUNDS", 1)
    rows = bench.instance_rows(None)
    assert [row["call"] for row in rows] == list(bench.INSTANCE_CALLS)
    assert all(row["change_ms"] > 0 for row in rows)


def test_verify_rows_time_identity_and_readout(bench, monkeypatch):
    monkeypatch.setattr(bench, "CHILD_REPEATS", 1)
    monkeypatch.setattr(bench, "CHILD_ROUNDS", 1)
    rows = bench.verify_rows(None)
    assert [row["call"] for row in rows] == list(bench.VERIFY_CALLS)
    assert all(row["change_ms"] > 0 for row in rows)


def test_pinned_rows_run_every_subcommand(bench, monkeypatch):
    subcommands = {"train", "verify", "sweep", "andor", "gen-dataset"}
    assert {argv[0] for argv in bench.PINNED_RUNS} == subcommands
    argvs = (
        ("train", "--n", "8", "--m", "2", "--gamma", "0.2", "--seed", "1"),
        ("verify", "--tables", "2", "--n-max", "2", "--gap-n-max", "2", "--identity-tables", "1"),
        ("verify", "--seed", "1", "--tables", "2", "--n-max", "4", "--inject-precision-fault"),
        ("sweep", "--n-grid", "8", "--k-grid", "4,8", "--trials", "1", "--seed", "1"),
        ("andor", "--random", "4,4,1", "--seed", "1"),
        ("gen-dataset", "--n", "4", "--gamma", "0.2", "--seed", "1", "--out-file", os.devnull),
    )
    monkeypatch.setattr(bench, "PINNED_RUNS", argvs)
    rows = bench.pinned_rows(bench.ROOT)
    assert list(rows) == [" ".join(argv) for argv in argvs]
    assert [row["exit"] for row in rows.values()] == [0, 0, 1, 0, 0, 0]
    assert all(row["stdout"] for row in rows.values())


def test_search_rows_time_oracle_build(bench, monkeypatch):
    monkeypatch.setattr(bench, "SEARCH_GRID", ((3, 2), (0, 1)))
    monkeypatch.setattr(bench, "REPEATS", 1)
    monkeypatch.setattr(bench, "CHILD_REPEATS", 1)
    monkeypatch.setattr(bench, "CHILD_ROUNDS", 2)
    rows = bench.search_rows(bench.ROOT)  # this checkout as its own parent
    assert [(row["n"], row["k"]) for row in rows] == [(3, 2), (0, 1)]
    for row in rows:
        assert all(row[f"{side}_{part}"] > 0 for side in ("change", "parent")
                   for part in ("build_ms", "iteration_ms"))
        assert row["speedup"] == row["ladder_ms"] / row["change_iteration_ms"]


def test_search_rows_skip_the_ladder_above_its_size(bench, monkeypatch):
    monkeypatch.setattr(bench, "SEARCH_GRID", ((3, 2), (0, 1)))
    monkeypatch.setattr(bench, "LADDER_AMPS", 1 << (bench.l_bits(0) + 1))  # (0, 1)'s dense state
    monkeypatch.setattr(bench, "REPEATS", 1)
    monkeypatch.setattr(bench, "CHILD_REPEATS", 1)
    monkeypatch.setattr(bench, "CHILD_ROUNDS", 1)
    big, small = bench.search_rows(None)
    assert "ladder_ms" not in big and "speedup" not in big and big["change_iteration_ms"] > 0
    assert small["speedup"] == small["ladder_ms"] / small["change_iteration_ms"]


def test_sweep_rows_time_every_cell(bench, monkeypatch):
    monkeypatch.setattr(bench, "SWEEP_CALLS", ("sweep(8, 4, 1, seed)", "sweep(8, 4, 2, seed)"))
    monkeypatch.setattr(bench, "CHILD_REPEATS", 1)
    monkeypatch.setattr(bench, "CHILD_ROUNDS", 1)
    rows = bench.sweep_rows(None)
    assert [row["call"] for row in rows] == list(bench.SWEEP_CALLS)
    assert all(row["change_ms"] > 0 for row in rows)


def test_cli_rows_time_every_workload(bench, monkeypatch):
    monkeypatch.setattr(bench, "CHILD_REPEATS", 1)
    monkeypatch.setattr(bench, "CHILD_ROUNDS", 1)
    assert [call.split("'")[1] for call in bench.CLI_CALLS] == ["train", "sweep", "verify"]
    assert all("str(seed)" in call for call in bench.CLI_CALLS)
    rows = bench.cli_rows(None)
    assert [row["call"] for row in rows] == list(bench.CLI_CALLS)
    assert all(row["change_ms"] > 0 for row in rows)


def test_stack_rows_time_a_cell_both_ways(bench, monkeypatch):
    monkeypatch.setattr(bench, "STACK_CELLS", ((3, 3, 2), (1, 0, 0)))
    monkeypatch.setattr(bench, "REPEATS", 1)
    rows = bench.stack_rows()
    assert [(row["tables"], row["n"], row["k"]) for row in rows] == [(3, 3, 2), (1, 0, 0)]
    for row in rows:
        assert row["r"] == bench.STACK_ADVANCE
        assert row["stacked_ms"] > 0 and row["one_at_a_time_ms"] > 0
        assert row["stacked_over_one_at_a_time"] == row["stacked_ms"] / row["one_at_a_time_ms"]


def test_ledger_counts_sum_queries_per_run(bench):
    rows = {"andor": {"stdout": ['{"queries": {"bit_oracle": 4, "classical_f": 0}}',
                                 '{"queries": {"bit_oracle": 6, "classical_f": 1}}',
                                 '{"summary": true}']},
            "sweep": {"stdout": ["kind,N", "cell,8"]}}
    assert bench.ledger_counts(rows) == {"andor": {"bit_oracle": 10, "classical_f": 1}}


def test_every_layer_runs_with_one_blas_thread(bench):
    assert all(os.environ[var] == "1" for var in THREAD_VARS)
    env = bench.child_env(bench.ROOT)
    assert all(env[var] == "1" for var in THREAD_VARS)
    assert env["PYTHONPATH"] == str(bench.ROOT / "src")


def test_out_is_required(bench, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["bench_kernels.py"])
    with pytest.raises(SystemExit) as exc:
        bench.main()
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
