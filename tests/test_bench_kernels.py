"""``scripts/bench_kernels.py`` times the package's layers and records them
in ``BENCH_*.json``; nothing else runs it, so a change to what the timed
functions accept or return would break it unseen.  The script is loaded from
its file, every call of its layers runs once, and its pinned-run recorder
runs one small argv per subcommand.  Loading it sets the BLAS thread
variables to 1, which the fixture restores afterwards."""

import importlib.util
import os
import statistics
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


def test_every_call_of_every_layer_runs(bench, monkeypatch):
    monkeypatch.setattr(bench, "CHILD_REPEATS", 1)
    monkeypatch.setattr(bench, "CHILD_ROUNDS", 1)
    rows = bench.layer_rows(None)
    assert list(rows) == list(bench.LAYERS)
    for name, (_, calls) in bench.LAYERS.items():
        assert [row["call"] for row in rows[name]] == calls
        assert all(row["change_ms"] > 0 and len(row["change_runs"]) == 1 for row in rows[name])
    mains = [call for call in bench.LAYERS["cli"][1] if call.startswith("main(")]
    assert [call.split("'")[1] for call in mains] == ["train", "sweep", "verify"]
    assert all("str(seed)" in call for call in mains)


def test_rows_keep_each_sides_runs(bench, monkeypatch):
    layer = ("data = generate_planted_dataset(8, 2, 0.2, rng_seed=0)[0]",
             ["from_perceptron(data, sample_hyperplanes(4, 2, seed))"])
    monkeypatch.setattr(bench, "LAYERS", {"instances": layer})
    monkeypatch.setattr(bench, "CHILD_REPEATS", 1)
    monkeypatch.setattr(bench, "CHILD_ROUNDS", 2)
    (row,) = bench.layer_rows(bench.ROOT)["instances"]  # this checkout as its own parent
    assert row["call"] == layer[1][0]
    for side in ("change", "parent"):
        assert len(row[f"{side}_runs"]) == 2 and all(ms > 0 for ms in row[f"{side}_runs"])
        assert row[f"{side}_ms"] == statistics.median(row[f"{side}_runs"])


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
