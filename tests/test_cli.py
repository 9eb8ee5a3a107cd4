import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qvstrain

from qvstrain.andor import load_instance, save_instance
from qvstrain.baselines import brute_force_g, classical_version_space_search
from qvstrain import cli, experiments, search
from qvstrain.cli import (
    VERIFY_BYTES_PER_ENTRY,
    _phase_gap_sweep,
    _sign_fidelity_sweep,
    _verify_table_bytes,
    main,
)
from qvstrain.counting import g_tilde_readout, l_bits
from qvstrain.experiments import single_solution_instance
from qvstrain.oracles import (
    OracleHandle,
    TruthTable,
    from_perceptron,
    load_truth_table,
    save_truth_table,
)
from qvstrain.perceptron import (
    Dataset,
    generate_planted_dataset,
    load_dataset,
    required_sample_count,
    sample_hyperplanes,
    save_dataset,
)
from qvstrain.search import search_state_bytes

from .conftest import FIXTURE_BITS


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    rc = main(list(argv), out=buf)
    return rc, buf.getvalue()


class TestTrain:
    def test_deterministic_output(self):
        args = ("train", "--n", "10", "--m", "2", "--gamma", "0.3",
                "--trials", "5", "--seed", "21")
        rc1, out1 = run_cli(*args)
        rc2, out2 = run_cli(*args)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_rows_carry_ledger_and_flags(self):
        rc, out = run_cli("train", "--n", "8", "--m", "2", "--gamma", "0.3",
                          "--trials", "3", "--seed", "5")
        assert rc == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[-1]["summary"] is True
        for row in rows[:-1]:
            assert set(row["queries"]) == {
                "bit_oracle", "phase_oracle", "controlled_phase_oracle", "classical_f"
            }
            assert row["in_version_space"] in (True, False, None)

    def test_success_fraction_reasonable(self):
        rc, out = run_cli("train", "--n", "12", "--m", "2", "--gamma", "0.195",
                          "--epsilon", "0.1", "--trials", "20", "--seed", "7")
        assert rc == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["success_fraction"] >= 0.55

    def test_dataset_file_path(self, tmp_path):
        rc, out = run_cli("gen-dataset", "--n", "10", "--m", "2", "--gamma", "0.25",
                          "--seed", "3", "--out-file", str(tmp_path / "d.txt"))
        assert rc == 0
        rc, out = run_cli("train", "--dataset", str(tmp_path / "d.txt"),
                          "--trials", "2", "--seed", "9")
        assert rc == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[0]["n"] == 10

    def test_dataset_file_is_parsed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "d.txt"
        save_dataset(generate_planted_dataset(10, 2, 0.25, rng_seed=3)[0], path)
        calls = []

        def counted(p):
            calls.append(p)
            return load_dataset(p)

        monkeypatch.setattr(cli, "load_dataset", counted)
        rc, out = run_cli("train", "--dataset", str(path), "--trials", "3", "--seed", "9")
        assert rc == 0 and len(out.splitlines()) == 4
        assert calls == [str(path)]

    def test_invalid_gamma_exits_2(self):
        rc, _ = run_cli("train", "--n", "8", "--m", "2", "--gamma", "0.0",
                        "--trials", "1", "--seed", "1")
        assert rc == 2

    def test_missing_seed_exits_2(self):
        rc, _ = run_cli("train", "--n", "8", "--m", "2", "--gamma", "0.2")
        assert rc == 2

    def test_workers_match_serial(self):
        args = ("train", "--n", "8", "--m", "2", "--gamma", "0.3",
                "--trials", "4", "--seed", "13")
        _, serial = run_cli(*args)
        _, parallel = run_cli(*args, "--workers", "2")
        assert serial == parallel


class TestVerify:
    def test_default_suites_pass(self):
        rc, out = run_cli("verify", "--tables", "10", "--n-max", "4",
                          "--identity-tables", "5", "--gap-n-max", "9")
        assert rc == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[-1] == {"ok": True, "summary": True}
        suites = {r["suite"] for r in rows if "suite" in r}
        assert suites == {"sign_and_fidelity", "phase_gap_bound",
                          "controlled_oracle_identity"}

    def test_precision_fault_reports_violation(self):
        rc, out = run_cli("verify", "--tables", "8", "--n-max", "4",
                          "--inject-precision-fault")
        assert rc == 1
        rows = [json.loads(line) for line in out.strip().splitlines()]
        head = rows[0]
        assert head["forced_low_precision"] is True
        assert head["violations"] > 0
        detail = [r for r in rows if "violation" in r]
        assert detail and all("j" in r and "n" in r for r in detail)


    def test_zero_overlap_violation_reads_sign_zero(self):
        rc, out = run_cli("verify", "--inject-precision-fault")
        assert rc == 1
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[0]["violations"] == 114
        (row,) = [r for r in rows if r.get("table") == 2 and r.get("j") == 0]
        assert (row["l"], row["sign"]) == (1, 0)
        assert row["fidelity"] < 1e-24


class TestSweep:
    def test_degenerate_grid_single_row_no_fit(self):
        rc, out = run_cli("sweep", "--n-grid", "8", "--k-grid", "8",
                          "--trials", "3", "--seed", "2")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        kinds = [r[0] for r in rows[1:]]
        assert kinds == ["cell"]

    def test_classical_column_matches_exact_counts(self):
        seed, trials = 17, 3
        rc, out = run_cli("sweep", "--n-grid", "8", "--k-grid", "4",
                          "--trials", str(trials), "--seed", str(seed),
                          "--gamma", "0.2")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        cell = [r for r in rows if r[0] == "cell"][0]
        reported_median = float(cell[6])
        counts = []
        for t in range(trials):
            handle = OracleHandle(single_solution_instance(8, 4, 0.2, seed + t))
            counts.append(classical_version_space_search(handle).queries["classical_f"])
        assert reported_median == float(np.median(counts))

    def test_deterministic_and_worker_invariant(self):
        args = ("sweep", "--n-grid", "8,16", "--k-grid", "4",
                "--trials", "4", "--seed", "31")
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first == second
        _, parallel = run_cli(*args, "--workers", "2")
        assert parallel == first

    def test_stacked_and_lone_tables_worker_invariant(self):
        # the N = 8 cell's three trials fit one stack; a 1024 x 8 table is
        # over STACK_BYTES, so that cell's trials are searched one at a time
        # and two workers split them
        assert experiments._stack_size(8, 8, 3) == 3 and experiments._stack_size(1024, 8, 3) == 1
        args = ("sweep", "--n-grid", "8,1024", "--k-grid", "8", "--trials", "3", "--seed", "5")
        rc, serial = run_cli(*args)
        assert rc == 0
        assert run_cli(*args, "--workers", "2") == (0, serial)

    def test_workers_each_get_a_group(self, monkeypatch):
        # the nine trials of an 8 x 8 cell fit one stack; with two workers
        # they are split into two groups, one per worker, and so with 64
        # workers on two CPUs, which run as two
        sizes = []
        run_payloads = experiments.run_payloads

        def spy(fn, payloads, workers, need):
            sizes.append([len(payload[3]) for payload in payloads])
            return run_payloads(fn, payloads, workers, need)

        monkeypatch.setattr(experiments, "run_payloads", spy)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        args = ("sweep", "--n-grid", "8", "--k-grid", "8", "--trials", "9", "--seed", "3")
        rc, serial = run_cli(*args)
        assert rc == 0
        assert run_cli(*args, "--workers", "2") == (0, serial)
        assert run_cli(*args, "--workers", "64") == (0, serial)
        assert sizes == [[9], [5, 4], [5, 4]]

    def test_stacking_leaves_the_rows_unchanged(self, monkeypatch):
        args = ("sweep", "--n-grid", "8,16,64", "--k-grid", "4,8", "--trials", "5",
                "--seed", "9")
        rc, stacked = run_cli(*args)
        assert rc == 0 and experiments._stack_size(64, 8, 5) == 5
        monkeypatch.setattr(experiments, "STACK_BYTES", 0)  # every table alone
        assert experiments._stack_size(8, 4, 5) == 1
        assert run_cli(*args) == (0, stacked)

    def test_seeds_distinct_past_ten_thousand_trials(self, monkeypatch):
        # at a cell stride of 10 000, trial 10 000 of the N = 8 cell would
        # replay the first trial of the N = 16 cell
        seeds = []

        def spy(fn, payloads, workers, need):
            groups = [payload[3] for payload in payloads]
            seeds.extend(seed for group in groups for seed in group)
            return [[(1, 1, True, True)] * len(group) for group in groups]

        monkeypatch.setattr(experiments, "run_payloads", spy)
        experiments.sweep_cells([(8, 8), (16, 8)], 0.2, 10_001, 1, 1)
        assert len(seeds) == len(set(seeds)) == 20_002

    def test_failed_run_writes_no_rows(self, monkeypatch):
        # the header waits for the cells, so a run that fails leaves stdout empty
        def exhausted(*_args):
            raise MemoryError("Unable to allocate 16.0 MiB for an array")

        monkeypatch.setattr(cli, "sweep_cells", exhausted)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = run_cli("sweep", "--n-grid", "8", "--k-grid", "4", "--seed", "1")
        assert rc == 2 and out == ""
        assert err.getvalue() == "sweep: Unable to allocate 16.0 MiB for an array\n"

    def test_duplicate_grid_value_exits_2(self):
        rc, out = run_cli("sweep", "--n-grid", "8,8", "--k-grid", "4",
                          "--trials", "1", "--seed", "1")
        assert rc == 2 and out == ""

    def test_fit_rows_present_for_multi_cell_axis(self):
        rc, out = run_cli("sweep", "--n-grid", "8,16", "--k-grid", "8",
                          "--trials", "3", "--seed", "4")
        rows = list(csv.reader(io.StringIO(out)))
        fits = [r for r in rows if r[0] == "fit"]
        assert len(fits) == 1 and fits[0][-2] == "N"


class TestRunPayloads:
    """A forking pool starts every process at its first submit, so --workers
    starts at most one process per payload, per CPU and per search that
    physical memory holds, and none when that is one.  The pool is a fake
    that records its size and maps in process."""

    @pytest.fixture
    def pools(self, monkeypatch):
        import concurrent.futures
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        return sizes

    @pytest.mark.parametrize("payloads,workers,cpus,sizes", [
        (1, 4, 8, []), (3, 1000, 8, [3]), (20, 1000, 8, [8]), (5, 2, 8, [2]),
        (5, 4, None, []), (5, 1, 8, [])])
    def test_pool_size(self, monkeypatch, pools, payloads, workers, cpus, sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert experiments.run_payloads(abs, list(range(-payloads, 0)), workers, 1) == \
            list(range(payloads, 0, -1))
        assert pools == sizes

    def test_one_trial_starts_no_pool(self, monkeypatch, pools):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        args = ("train", "--n", "8", "--m", "2", "--gamma", "0.3", "--trials", "1", "--seed", "13")
        assert run_cli(*args, "--workers", "4") == run_cli(*args)
        assert pools == []

    @pytest.mark.parametrize("argv", [
        ("sweep", "--n-grid", "8,16", "--k-grid", "8", "--trials", "3", "--seed", "31"),
        ("train", "--n", "8", "--m", "2", "--gamma", "0.3", "--trials", "2", "--seed", "13"),
    ], ids=["sweep", "train"])
    def test_searches_at_once_fit_physical_memory(self, monkeypatch, pools, argv):
        # the sweep's largest group is its 16 x 8 cell's three trials in one
        # stack; a train trial is one search over its K planes
        if argv[0] == "sweep":
            assert experiments._stack_size(16, 8, 3) == 3
            need = search_state_bytes(16, 8, 3)
        else:
            need = search_state_bytes(8, required_sample_count(0.3, 0.1))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = run_cli(*argv)
        assert serial[0] == 0
        monkeypatch.setattr(experiments, "physical_memory", lambda: 3 * need // 2)
        assert run_cli(*argv, "--workers", "2") == serial
        assert pools == []  # room for one search at a time: no pool
        monkeypatch.setattr(experiments, "physical_memory", lambda: 2 * need)
        assert run_cli(*argv, "--workers", "2") == serial
        assert pools == [2]

    def test_one_worker_reads_no_machine_figure(self, monkeypatch, pools):
        def unread():
            raise AssertionError("read with one worker")

        monkeypatch.setattr(os, "cpu_count", unread)
        monkeypatch.setattr(experiments, "physical_memory", unread)
        assert run_cli("sweep", "--n-grid", "8", "--k-grid", "4", "--trials", "2",
                       "--seed", "1")[0] == 0
        assert run_cli("train", "--n", "8", "--m", "2", "--gamma", "0.3", "--trials", "2",
                       "--seed", "1")[0] == 0
        assert pools == []


def reference_single_solution_instance(n_points, n_planes, gamma, seed):
    """The sweep's instance assembled the way the table is specified: the
    batches' non-member columns stacked in draw order, cut to K - 1, and the
    all-ones column inserted at the seeded position."""
    rng = np.random.default_rng(seed)
    data, _ = generate_planted_dataset(n_points, 2, gamma, rng_seed=int(rng.integers(2**63)))
    position = int(rng.integers(0, n_planes))
    columns = np.empty((n_points, 0), dtype=np.uint8)
    while columns.shape[1] < n_planes - 1:
        bits = from_perceptron(data, sample_hyperplanes(n_planes, 2, int(rng.integers(2**63)))).bits
        columns = np.hstack([columns, bits[:, ~bits.all(axis=0)]])
    return np.insert(columns[:, : n_planes - 1], position, 1, axis=1)


class TestSingleSolutionInstance:
    @pytest.mark.parametrize("n_points,n_planes,seeds", [
        (8, 8, 300), (16, 8, 300), (32, 8, 300), (64, 8, 300),
        (16, 1, 50), (16, 2, 50), (1, 8, 50), (16, 512, 20),
    ])
    def test_equals_stacked_assembly(self, n_points, n_planes, seeds):
        for seed in range(seeds):
            bits = single_solution_instance(n_points, n_planes, 0.2, seed).bits
            expected = reference_single_solution_instance(n_points, n_planes, 0.2, seed)
            assert bits.dtype == expected.dtype and bits.shape == (n_points, n_planes)
            assert np.array_equal(bits, expected), seed


class TestAndor:
    def test_file_mode_fixture(self, tmp_path):
        path = tmp_path / "inst.txt"
        save_instance(TruthTable(FIXTURE_BITS), path)
        rc, out = run_cli("andor", "--file", str(path), "--seed", "5")
        assert rc == 0
        row = json.loads(out.strip().splitlines()[0])
        assert row["direct"] == 1 and row["via_search"] == 1 and row["agree"]

    def test_random_batch(self):
        rc, out = run_cli("andor", "--random", "4,4,6", "--seed", "8")
        assert rc == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["agreement_fraction"] >= 2 / 3

    def test_table_mode_runs_oracle_only_experiment(self, tmp_path):
        path = tmp_path / "table.txt"
        save_truth_table(TruthTable(FIXTURE_BITS), path)
        rc, out = run_cli("andor", "--table", str(path), "--seed", "6")
        assert rc == 0
        row = json.loads(out.strip().splitlines()[0])
        assert row["N"] == 4 and row["K"] == 3
        assert row["direct"] == 1 and row["via_search"] == 1
        assert row["index"] == 2
        assert row["queries"]["bit_oracle"] > 0

    def test_requires_exactly_one_source(self):
        rc, _ = run_cli("andor", "--seed", "1")
        assert rc == 2
        rc, _ = run_cli("andor", "--file", "x", "--random", "2,2,2", "--seed", "1")
        assert rc == 2
        rc, _ = run_cli("andor", "--file", "x", "--table", "y", "--seed", "1")
        assert rc == 2

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a header\n")
        rc, _ = run_cli("andor", "--file", str(bad), "--seed", "1")
        assert rc == 2


class TestGenDataset:
    def test_writes_loadable_file_with_margin(self, tmp_path):
        path = tmp_path / "planted.txt"
        rc, out = run_cli("gen-dataset", "--n", "12", "--m", "2",
                          "--gamma", "0.195", "--seed", "7",
                          "--out-file", str(path))
        assert rc == 0
        info = json.loads(out.strip().splitlines()[0])
        assert info["planted_margin"] >= 0.195
        data = load_dataset(path)
        assert data.n_points == 12 and data.claimed_margin == 0.195

    def test_rejects_bad_gamma(self, tmp_path):
        rc, _ = run_cli("gen-dataset", "--n", "5", "--m", "2", "--gamma", "1.5",
                        "--seed", "1", "--out-file", str(tmp_path / "x.txt"))
        assert rc == 2


def cli_process_env() -> dict[str, str]:
    src = os.path.dirname(os.path.dirname(qvstrain.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    # one BLAS thread: OpenBLAS reserves a buffer per thread at import, which
    # on a many-core host would not fit under TestStateSizeLimit's cap
    env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    return env


def run_cli_process(*argv, preexec_fn=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "qvstrain.cli", *argv],
                          capture_output=True, text=True, env=cli_process_env(), timeout=120,
                          preexec_fn=preexec_fn)


class TestClosedOutput:
    def test_reader_closing_the_pipe_is_not_a_usage_error(self):
        # about 170 KB of rows, more than the pipe and the reader's buffer
        # hold, so the CLI is still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "qvstrain.cli", "andor", "--random", "4,4,1000", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_process_env())
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.stderr.close()
        assert json.loads(first)["instance"] == 0
        assert proc.returncode == 141
        assert stderr == ""


class TestStrictLoaders:
    # loader -> (argv before the file path, a valid file)
    CASES = {
        "table": (("andor", "--seed", "1", "--table"), "2 2\n1 1\n1 1\n"),
        "instance": (("andor", "--seed", "1", "--file"), "2 2\n1111\n"),
        "dataset": (("train", "--seed", "1", "--dataset"), "2 1 0.5\n1.0 1\n-1.0 -1\n"),
    }

    @pytest.mark.parametrize("loader", list(CASES))
    def test_defects_exit_2_naming_the_line(self, loader, tmp_path):
        argv, good = self.CASES[loader]
        lines = good.splitlines()
        last = len(lines)
        defects = {
            "missing row": (lines[:-1], last),
            "wrong field count": (lines[:-1] + [lines[-1] + " 1"], last),
            "trailing content": (lines + ["0 0", "garbage"], last + 1),
        }
        path = tmp_path / "input.txt"
        path.write_text(good)
        assert run_cli(*argv, str(path))[0] == 0
        for defect, (body, line) in defects.items():
            path.write_text("\n".join(body) + "\n")
            proc = run_cli_process(*argv, str(path))
            assert proc.returncode == 2, defect
            assert "Traceback" not in proc.stderr, defect
            assert proc.stderr.startswith(f"{argv[0]}: line {line}: "), (defect, proc.stderr)

    @pytest.mark.parametrize("loader,body,message", [
        ("dataset", "2 1 0.5\n1.0 1\n-1.0 0\n", "line 3: label must be +1 or -1, got 0"),
        ("dataset", "2 1 0.5\n1.0 1\nnan -1\n", "line 3: x must be finite"),
        ("dataset", "2 1 0.5\n1.0 1\n-1.0 1.5\n",
         "line 3: invalid literal for int() with base 10: '1.5'"),
        ("instance", "-2 -2\n1111\n", "line 1: N and K must be positive"),
        ("instance", "2 2\n1112\n", "line 2: truth table entries must be 0 or 1"),
    ], ids=["label-0", "nan-coordinate", "label-1.5", "negative-fan-ins", "bad-bit"])
    def test_value_defects_name_their_line(self, loader, body, message, tmp_path, capsys):
        argv, _ = self.CASES[loader]
        path = tmp_path / "input.txt"
        path.write_text(body)
        assert run_cli(*argv, str(path)) == (2, "")
        assert capsys.readouterr().err == f"{argv[0]}: {message}\n"

    @given(seed=st.integers(0, 2**31))
    def test_save_load_round_trip_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = (int(v) for v in rng.integers(1, 9, size=2))
        table = TruthTable((rng.random((rows, cols)) < 0.5).astype(np.uint8))
        data = Dataset(rng.standard_normal((rows, cols)), rng.choice([-1, 1], size=rows),
                       claimed_margin=float(rng.uniform(1e-3, 1.0)))
        formats = ((save_truth_table, load_truth_table, table),
                   (save_instance, load_instance, table),
                   (save_dataset, load_dataset, data))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "first.txt"), os.path.join(tmp, "second.txt")
            for save, load, obj in formats:
                save(obj, first)
                save(load(first), second)
                with open(first) as a, open(second) as b:
                    assert a.read() == b.read()


class TestCountsBelowOne:
    @pytest.mark.parametrize("argv", [
        ("train", "--n", "8", "--m", "2", "--gamma", "0.3", "--trials", "0", "--seed", "1"),
        ("sweep", "--n-grid", "8", "--k-grid", "4", "--trials", "0", "--seed", "1"),
        ("andor", "--random", "4,4,0", "--seed", "1"),
        ("verify", "--identity-tables", "-3", "--tables", "-2", "--gap-n-max", "-1"),
        ("train", "--n", "8", "--m", "2", "--gamma", "0.3", "--workers", "0", "--seed", "1"),
        ("sweep", "--n-grid", "8", "--k-grid", "4", "--trials", "1", "--workers", "-1",
         "--seed", "1"),
    ], ids=["train-trials", "sweep-trials", "andor-random-count", "verify-negative-counts",
            "train-workers", "sweep-workers"])
    def test_exit_2_without_traceback(self, argv):
        proc = run_cli_process(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"{argv[0]}: ")

    @pytest.mark.parametrize("flag", ["--tables", "--n-max", "--k-max", "--gap-n-max",
                                      "--identity-tables"])
    def test_verify_names_the_flag(self, flag):
        proc = run_cli_process("verify", flag, "0")
        assert proc.returncode == 2
        assert proc.stderr == f"verify: {flag} must be >= 1, got 0\n"

    @pytest.mark.parametrize("argv,line", [
        (("sweep", "--k-grid", "0"), "sweep: --k-grid must be >= 1, got 0"),
        (("sweep", "--k-grid=-3"), "sweep: --k-grid must be >= 1, got -3"),
        (("sweep", "--n-grid=-8,16"), "sweep: --n-grid must be >= 1, got -8"),
        (("andor", "--random=-3,2,1"), "andor: --random N must be >= 1, got -3"),
        (("andor", "--random", "0,3,1"), "andor: --random N must be >= 1, got 0"),
        (("andor", "--random", "3,0,1"), "andor: --random K must be >= 1, got 0"),
        (("train", "--n", "0", "--m", "2", "--gamma", "0.2"), "train: --n must be >= 1, got 0"),
        (("train", "--n", "8", "--m", "0", "--gamma", "0.2"), "train: --m must be >= 1, got 0"),
        (("gen-dataset", "--n", "0", "--gamma", "0.2", "--out-file", os.devnull),
         "gen-dataset: --n must be >= 1, got 0"),
        (("gen-dataset", "--n", "4", "--m", "0", "--gamma", "0.2", "--out-file", os.devnull),
         "gen-dataset: --m must be >= 1, got 0"),
        (("train", "--n", "8"), "train: provide --dataset or all of --n/--m/--gamma"),
        (("train", "--n", "8", "--m", "2", "--gamma", "1.5"),
         "train: gamma must be in (0, 1), got 1.5"),
        (("train", "--n", "8", "--m", "2", "--gamma", "0.2", "--epsilon", "1"),
         "train: epsilon must be in (0, 1), got 1.0"),
        (("sweep", "--n-grid", "8,8"), "sweep: grid values must be distinct"),
        (("sweep", "--gamma", "0"), "sweep: gamma must be in (0, 1), got 0.0"),
        (("gen-dataset", "--n", "4", "--gamma", "-0.5", "--out-file", os.devnull),
         "gen-dataset: gamma must be in (0, 1), got -0.5"),
        (("andor",), "andor: provide exactly one of --file / --table / --random"),
        (("andor", "--random", "4,4"), "andor: --random must be N,K,COUNT, got '4,4'"),
        (("sweep", "--n-grid", "8,,16"),
         "sweep: --n-grid must be comma-separated integers, got '8,,16'"),
    ], ids=["k-grid-0", "k-grid-negative", "n-grid-negative", "random-n-negative",
            "random-n-0", "random-k-0", "train-n-0", "train-m-0", "gen-dataset-n-0",
            "gen-dataset-m-0", "train-no-source", "train-gamma", "train-epsilon",
            "sweep-distinct", "sweep-gamma", "gen-dataset-gamma", "andor-no-source",
            "random-two-fields", "n-grid-empty-field"])
    def test_sizes_name_the_flag(self, argv, line):
        proc = run_cli_process(*argv, "--seed", "1")
        assert proc.returncode == 2
        assert proc.stderr == line + "\n"


BELOW_ONE = st.integers(-1000, 0).map(str)
NEGATIVE = st.integers(-1000, -1).map(str)
OUTSIDE_UNIT = st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0),
                         st.just(float("nan"))).map(repr)
BAD_GRID = st.one_of(
    st.tuples(st.integers(1, 64).map(str), BELOW_ONE).map(",".join),
    st.integers(1, 64).map(lambda v: f"{v},{v}"),
)


@st.composite
def bad_random(draw):
    fields = [str(draw(st.integers(1, 4))) for _ in range(3)]
    if draw(st.booleans()):
        fields[draw(st.integers(0, 2))] = draw(BELOW_ONE)
        return ",".join(fields)
    return draw(st.sampled_from([",".join(fields[:2]), ",".join(fields + ["1"]),
                                 "a,2,1", "", "2;2;1", "2.5,2,1"]))


# command -> (a small valid argv, invalid values per field)
ARGV_FIELDS = {
    "train": (("--n", "8", "--m", "2", "--gamma", "0.3", "--seed", "1"),
              {"--n": BELOW_ONE, "--m": BELOW_ONE, "--trials": BELOW_ONE,
               "--workers": BELOW_ONE, "--gamma": OUTSIDE_UNIT,
               "--epsilon": OUTSIDE_UNIT, "--seed": NEGATIVE}),
    "sweep": (("--n-grid", "8", "--k-grid", "4", "--trials", "1", "--seed", "1"),
              {"--n-grid": BAD_GRID, "--k-grid": BAD_GRID, "--trials": BELOW_ONE,
               "--workers": BELOW_ONE, "--gamma": OUTSIDE_UNIT, "--seed": NEGATIVE}),
    "andor": (("--random", "4,4,1", "--seed", "1"),
              {"--random": bad_random(), "--seed": NEGATIVE}),
    "verify": (("--tables", "1", "--n-max", "2", "--k-max", "1", "--gap-n-max", "2",
                "--identity-tables", "1"),
               {**dict.fromkeys(("--tables", "--n-max", "--k-max", "--gap-n-max",
                                 "--identity-tables"), BELOW_ONE), "--seed": NEGATIVE}),
    "gen-dataset": (("--n", "4", "--gamma", "0.3", "--seed", "1", "--out-file", os.devnull),
                    {"--n": BELOW_ONE, "--m": BELOW_ONE, "--gamma": OUTSIDE_UNIT,
                     "--seed": NEGATIVE}),
}


@st.composite
def invalid_argv(draw):
    command = draw(st.sampled_from(sorted(ARGV_FIELDS)))
    valid, fields = ARGV_FIELDS[command]
    flag = draw(st.sampled_from(sorted(fields)))
    # the last occurrence of a flag wins, so this replaces the valid value
    return [command, *valid, f"{flag}={draw(fields[flag])}"]


class TestInvalidArgv:
    def test_valid_argv_exit_0(self):
        for command, (valid, _) in ARGV_FIELDS.items():
            with contextlib.redirect_stderr(io.StringIO()):
                assert run_cli(command, *valid)[0] == 0, command

    @settings(max_examples=200)
    @given(argv=invalid_argv())
    def test_one_invalid_field_exits_2(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = run_cli(*argv)
        assert rc == 2, argv
        assert out == "", argv
        assert err.getvalue().startswith((f"{argv[0]}: ", "usage: ")), (argv, err.getvalue())

    @pytest.mark.parametrize("command", sorted(ARGV_FIELDS))
    def test_negative_seed_names_the_flag(self, command):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = run_cli(command, *ARGV_FIELDS[command][0], "--seed", "-1")
        assert (rc, out) == (2, "")
        assert err.getvalue() == f"{command}: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["train", "sweep", "andor"])
    @pytest.mark.parametrize("flag", [("--verify-repeats", "15"), ("--max-rounds", "3")],
                             ids=["verify-repeats", "max-rounds"])
    def test_search_flags_are_unrecognized(self, command, flag):
        # the search's vote width and schedule passes are fixed constants
        err, stdout = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
            rc, out = run_cli(command, *ARGV_FIELDS[command][0], *flag)
        assert rc == 2
        assert out == stdout.getvalue() == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in err.getvalue()
        assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command,reads", [("train", False), ("sweep", False),
                                           ("andor", False), ("verify", True)])
def test_only_verify_reads_a_handles_f(monkeypatch, command, reads):
    # the search builds its own tables; a handle's f is for the gate engine,
    # which only verify's identity suite runs
    read = []
    f = OracleHandle.f
    monkeypatch.setattr(OracleHandle, "f", property(lambda h: read.append(h) or f.func(h)))
    assert run_cli(command, *ARGV_FIELDS[command][0])[0] == 0
    assert bool(read) == reads


class TestNonFiniteCConstant:
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_exit_2_without_traceback(self, value):
        proc = run_cli_process("train", "--n", "8", "--m", "2", "--gamma", "0.2",
                               "--seed", "1", "--c-constant", value)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"train: c must be finite and positive, got {value}")

    def test_overflowing_bound_exits_2_without_traceback(self):
        proc = run_cli_process("train", "--n", "8", "--m", "2", "--gamma", "0.2",
                               "--seed", "1", "--c-constant", "1e308")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("train: c ln(1/eps) / gamma overflows at c = 1e+308")


def cap_address_space(limit=1 << 30):
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


# Run as ``python -c`` with N and K: a seeded N x K table's search, built
# and advanced under an address-space cap of what the process maps after the
# guard's own probe, plus search_state_bytes(N, K) and 1 MiB.
MAPPED_CHILD = """
import os, resource, sys
import numpy as np
from qvstrain import search
from qvstrain.oracles import OracleHandle, TruthTable
rows, cols = int(sys.argv[1]), int(sys.argv[2])
bits = (np.random.default_rng(0).random((rows, cols)) < 0.9).astype(np.uint8)
handle = OracleHandle(TruthTable(bits))
resource.setrlimit(resource.RLIMIT_AS, (1 << 40, 1 << 40))
search.state_byte_limit()
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
cap = mapped + search.search_state_bytes(rows, cols) + (1 << 20)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
search.SimAndSearchOracle(handle).plane_marginal(3)
"""


class TestStateSizeLimit:
    # The child may map at most 1 GiB, which bounds the search state on any
    # host, so each state below is refused; allocating it, or the planes,
    # dataset or random bits it is built from, would end in a MemoryError
    # traceback instead of the usage error.
    def test_oversized_search_exits_2_before_allocating(self):
        # n = 14, k = 13, l = 10: the search's f alone is 8 * 2**27
        # bytes, 1 GiB, and the whole state about 2.0 GiB
        proc = run_cli_process("andor", "--random", "16384,8192,1", "--seed", "0",
                               preexec_fn=cap_address_space)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("andor: ")
        assert str(search_state_bytes(16384, 8192)) in proc.stderr

    def test_dense_sized_search_runs_under_the_cap(self):
        # n = 10, k = 9, l = 8: 2**27 amplitudes (2 GiB) held dense; the
        # factored search needs about 24 MB (search_state_bytes)
        proc = run_cli_process("andor", "--random", "1024,512,1", "--seed", "0",
                               preexec_fn=cap_address_space)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[0])["agree"]

    @pytest.mark.parametrize("table", ["4096,2048,1", "4096,1024,1", "2048,2048,1"])
    def test_guard_counts_what_the_process_maps(self, table):
        # 130 to 211 MiB of search state under a 256 MiB cap, where the
        # interpreter with numpy and the BLAS work buffer already take a
        # large share: the guard must refuse what cannot fit, not let numpy
        # or the BLAS library fail to allocate it
        proc = run_cli_process("andor", "--random", table, "--seed", "0",
                               preexec_fn=lambda: cap_address_space(256 << 20))
        assert proc.returncode in (0, 2), proc.stderr
        assert "Traceback" not in proc.stderr
        assert "OpenBLAS error" not in proc.stderr

    @pytest.mark.parametrize("table", [(1024, 1024), (4096, 1024)], ids=["1024x1024", "4096x1024"])
    def test_search_state_bytes_covers_what_the_search_maps(self, table):
        # capped at what the process maps once the guard has probed, plus
        # the search's bound and 1 MiB, a search is built and iterated
        proc = subprocess.run([sys.executable, "-c", MAPPED_CHILD, *map(str, table)],
                              capture_output=True, text=True, env=cli_process_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("flags,largest", [
        # (n_max, k_max) with the other at its default (5 and 3)
        (("--k-max", "40", "--tables", "1"), (5, 40)),
        (("--n-max", "40"), (40, 3)),
    ], ids=["k-max", "n-max"])
    def test_oversized_verify_tables_exit_2_before_drawing(self, flags, largest):
        proc = run_cli_process("verify", *flags, preexec_fn=cap_address_space)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        need = _verify_table_bytes(*largest)
        assert proc.stderr.startswith(f"verify: the tables need {need} bytes, over the limit of ")

    @pytest.mark.parametrize("argv,table", [
        # K = 2,302,586 planes: n = 6, k = 22, l = 6
        (("train", "--n", "64", "--m", "2", "--gamma", "0.1", "--c-constant", "100000",
          "--seed", "1"), (64, 2302586)),
        # N = 3,000,000 points, K = 47: n = 22, k = 6, l = 14
        (("train", "--n", "3000000", "--m", "2", "--gamma", "0.1", "--seed", "1"), (3000000, 47)),
        (("sweep", "--n-grid", "64", "--k-grid", "4194304", "--trials", "1", "--seed", "1"),
         (64, 4194304)),
        (("andor", "--random", "64,4194304,1", "--seed", "1"), (64, 4194304)),
    ], ids=["train-many-planes", "train-many-points", "sweep-cell", "andor-random-bits"])
    def test_refused_before_its_inputs_are_built(self, argv, table):
        proc = run_cli_process(*argv, preexec_fn=cap_address_space)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        need = search_state_bytes(*table)
        assert proc.stderr.startswith(f"{argv[0]}: the search state needs {need} bytes")


    @pytest.mark.parametrize("mode,save", [("--file", save_instance),
                                           ("--table", save_truth_table)],
                             ids=["file", "table"])
    def test_file_instance_refused_before_its_handle_is_built(
        self, tmp_path, monkeypatch, mode, save
    ):
        path = tmp_path / "instance.txt"
        save(TruthTable(FIXTURE_BITS), path)
        need = search_state_bytes(4, 3)
        monkeypatch.setattr(search, "state_byte_limit", lambda: need - 1)
        built = []
        monkeypatch.setattr(OracleHandle, "__init__", lambda self, table: built.append(table))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = run_cli("andor", mode, str(path), "--seed", "1")
        assert rc == 2 and out == "" and built == []
        assert err.getvalue().startswith(f"andor: the search state needs {need} bytes")

    def test_late_memory_error_exits_2(self, monkeypatch):
        # past the checks, building an instance can still exhaust an
        # address-space cap; that ends in a usage error, not a traceback
        def exhausted(*_args, **_kwargs):
            raise MemoryError("Unable to allocate 16.0 MiB for an array")

        monkeypatch.setattr(cli, "evaluate_via_search", exhausted)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = run_cli("andor", "--random", "4,4,1", "--seed", "1")
        assert rc == 2 and out == ""
        assert err.getvalue() == "andor: Unable to allocate 16.0 MiB for an array\n"

    def test_memory_error_without_text_names_its_type(self, monkeypatch):
        # a MemoryError raised by a Python-level allocation carries no text
        def exhausted(*_args):
            raise MemoryError()

        monkeypatch.setattr(cli, "run_payloads", exhausted)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = run_cli("train", "--n", "4", "--m", "2", "--gamma", "0.3", "--seed", "1")
        assert rc == 2 and out == ""
        assert err.getvalue() == "train: MemoryError\n"


def per_column_sweep(rng, tables, n_max, k_max, fault_l):
    """The reference sign-and-fidelity suite: each table's readouts taken
    one column at a time and checked one by one."""
    checked, violations = 0, []
    for t in range(tables):
        handle = OracleHandle(cli._random_table(rng, n_max, k_max, force_close_column=fault_l))
        l = max(1, (handle.n + 1) // 2 if fault_l else l_bits(handle.n))
        g = np.zeros(1 << handle.k, dtype=np.uint8)
        g[: handle.n_cols] = brute_force_g(handle)
        for j in range(1 << handle.k):
            readout = g_tilde_readout(j, handle, l)
            checked += 1
            if (readout.sign != (-1 if g[j] else 1) or readout.fidelity < 2.0 / 3.0
                    or (g[j] == 1 and abs(readout.fidelity - 1.0) > 1e-9)):
                violations.append({"table": t, "n": handle.n, "k": handle.k, "j": j, "l": l,
                                   "g": int(g[j]), "sign": readout.sign,
                                   "fidelity": readout.fidelity})
    return checked, violations


class TestVerifyTables:
    @pytest.mark.parametrize("fault", [False, True], ids=["default-l", "low-precision"])
    @pytest.mark.parametrize("check_columns", [None, 8], ids=["default", "8-columns"])
    def test_sweep_equals_per_column_readouts(self, monkeypatch, fault, check_columns):
        # 8 columns at once splits tables of up to 32 columns over checks
        if check_columns is not None:
            monkeypatch.setattr(cli, "VERIFY_CHECK_COLUMNS", check_columns)
        for seed in range(3):
            rows = _sign_fidelity_sweep(np.random.default_rng(seed), 40, 7, 5, fault)
            assert rows == per_column_sweep(np.random.default_rng(seed), 40, 7, 5, fault)
            assert bool(rows[1]) == fault

    def test_peak_allocation_pins_the_per_entry_constant(self):
        import tracemalloc
        # seed 66 draws (n, k) = (10, 10), the largest these flags allow: the
        # column count and the lower bound below both fail on a smaller draw
        _sign_fidelity_sweep(np.random.default_rng(0), 2, 4, 4, False)  # numpy's one-off set-up
        tracemalloc.start()
        try:
            checked, violations = _sign_fidelity_sweep(np.random.default_rng(66), 1, 10, 10, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert checked == 1 << 10 and violations == []
        assert VERIFY_BYTES_PER_ENTRY << 20 < peak <= _verify_table_bytes(10, 10)

    @pytest.mark.parametrize("seed", range(3))
    def test_few_row_tables_fit_their_budget(self, seed):
        import tracemalloc
        # 2-row tables of up to 2**14 columns: the column counts must not
        # hold a temporary per column beside them
        _sign_fidelity_sweep(np.random.default_rng(0), 2, 1, 3, False)  # numpy's one-off set-up
        tracemalloc.start()
        try:
            _, violations = _sign_fidelity_sweep(np.random.default_rng(seed), 20, 1, 14, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert violations == []
        assert peak <= _verify_table_bytes(1, 14), f"peak {peak} B"

    def test_tables_at_the_limit_are_drawn(self, monkeypatch):
        monkeypatch.setattr(search, "state_byte_limit", lambda: _verify_table_bytes(3, 2))
        assert run_cli("verify", "--n-max", "3", "--k-max", "2", "--tables", "3")[0] == 0
        monkeypatch.setattr(search, "state_byte_limit", lambda: _verify_table_bytes(3, 2) - 1)
        assert run_cli("verify", "--n-max", "3", "--k-max", "2", "--tables", "3")[0] == 2

    def test_phase_gap_blocks_split_without_changing_the_count(self, monkeypatch):
        whole = _phase_gap_sweep(7)
        monkeypatch.setattr(cli, "GAP_BLOCK", 5)
        assert _phase_gap_sweep(7) == whole == ((1 << 8) - 2, [])
