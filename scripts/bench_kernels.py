#!/usr/bin/env python
"""Time the counting kernels layer by layer and write a BENCH_*.json record.

Layers timed in this process, each a median over REPEATS calls:

* one iteration of the search's reference, the dense state run through the
  literal circuit ``counting.sim_and`` (``phase_estimate`` -> flip of the
  10..0 readout -> ``phase_estimate_inverse``) and the diffusion, for the
  tables of SEARCH_GRID whose dense state has at most LADDER_AMPS
  amplitudes;
* a sweep cell's tables (64 x 8, of 3 and of 200 tables) built into
  oracles and advanced to r = 3, as one stack
  (``SimAndSearchOracle.stack``) and one table at a time, alternating.
  Every table asks for the same r here, the best case for a stack, which
  a real search, whose tables ask for different r, does not get;
* the closed-form phase readout ``phase_register_distribution``;
* building the truth table (``oracles.from_perceptron`` on the (K, 3) array
  of sampled planes).

Layers timed in child processes on each checkout's own package, so with
``--parent`` both sides are recorded, the sides alternating over
CHILD_ROUNDS runs of CHILD_REPEATS calls each (on a shared 2-vCPU host one
run's median can sit 20% off, so a cell is the median over the runs):

* building the search oracle (``search.SimAndSearchOracle(handle)``: the
  padded table f, which the search builds itself, the rotation spectrum,
  the kick vector, the factors and the first marginal), as ``build_ms``,
  and one search iteration (AND-simulation, diffusion over the hyperplane
  register, hyperplane marginal) of the factored state, as successive
  ``plane_marginal(r)`` calls, beside the in-process reference above; the
  grid includes 4096 x 8, where an iteration allocated 16 MiB of
  temporaries before every array of the search was allocated at its build;
* one-cell ``sweep`` runs of the default 9 trials on each side of
  ``cli.STACK_BYTES``: cells whose trials are searched in stacks and cells
  whose tables are searched alone, and a stacked cell over two workers;
* building instances (``perceptron.generate_planted_dataset`` and the sweep's
  table, ``cli._single_solution_instance``), and ``verify``'s two gate-level
  and readout layers: the controlled-oracle identity check
  (``oracles.controlled_phase_oracle_identity_gap``) on 16 x 16 and 8 x 16
  tables and as ``verify``'s whole identity suite at its defaults
  (``cli._oracle_identity_sweep``), and the sign-and-fidelity suite at
  ``verify``'s defaults (``cli._sign_fidelity_sweep``, which reads each
  table's AND-simulation overlaps);
* one whole CLI call (``cli.main``, parser included) on the argv of each
  ``perfbench`` workload, seeded with the timer's seed.

Every layer runs with one BLAS thread, the setting of ``perfbench``: the
thread variables are set before numpy is imported, and the child processes
inherit them.

With ``--parent DIR`` (a checkout of the commit to compare against) it also
records the exit code and stdout of the pinned seeded CLI runs, at least one
per subcommand, in both checkouts, with the ledger counts their JSON lines
report, and, with ``--pairs P``, runs ``perfbench/run.py`` on every
workload in P alternating parent/change pairs of SECONDS each, at seeds
FIRST_SEED, FIRST_SEED + 1, ..., and keeps each pair's end-to-end metrics.
Run from anywhere:

    python scripts/bench_kernels.py --out bench.json
    python scripts/bench_kernels.py --parent ../parent --pairs 10 --out BENCH_17.json

``--out`` has no default, so a run cannot overwrite a committed record
unasked.

The record holds nproc, the numpy version and the git sha of this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# before numpy is imported: OpenBLAS reads these once, when it loads
os.environ.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS")})

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qvstrain.counting import l_bits, phase_register_distribution, sim_and  # noqa: E402
from qvstrain.oracles import OracleHandle, TruthTable, from_perceptron  # noqa: E402
from qvstrain.perceptron import generate_planted_dataset, sample_hyperplanes  # noqa: E402
from qvstrain.search import SimAndSearchOracle, search_state_bytes  # noqa: E402
from qvstrain.statevec import new_uniform  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as perfbench_workloads  # noqa: E402

REPEATS = 7
CHILD_REPEATS = 21  # seeds 0..20, one call each, in each child run
CHILD_ROUNDS = 5  # child runs per checkout, alternating
FIRST_SEED = 20001  # perfbench seed of the first pair; not used while building
SECONDS = 40.0  # perfbench run length

# (n, k): train-n64's table, sweep-n's largest cell (N = 64, K = 8), one of
# 2**(7+7+8) amplitudes held dense, and 4096 x 8 (2**(9+3+12) amplitudes)
SEARCH_GRID = ((6, 6), (6, 3), (8, 7), (12, 3))
LADDER_AMPS = 1 << 22  # the largest dense state the reference iterates
# (tables, n, k): sweep-n's largest cell with its 3 trials, and with 200
STACK_CELLS = ((3, 6, 3), (200, 6, 3))
STACK_ADVANCE = 3  # the iterations every table of a cell is advanced by
READOUT_WIDTHS = (4, 6, 7, 9)
TABLE_SIZES = ((64, 47), (512, 64), (2048, 512))
INSTANCE_CALLS = (
    "generate_planted_dataset(64, 2, 0.1, rng_seed=seed)",
    "generate_planted_dataset(4096, 2, 0.1, rng_seed=seed)",
    "generate_planted_dataset(65536, 2, 0.1, rng_seed=seed)",
    "_single_solution_instance(64, 8, 0.2, seed)",
    "_single_solution_instance(16, 512, 0.2, seed)",
)
# one-cell sweeps (N, K, workers) of 9 trials: sweep-n's largest cell,
# searched in one stack; two cells just under STACK_BYTES, in stacks of
# two; two just over it, each table alone; sweep-n's cell over two workers
SWEEP_CALLS = (
    "sweep(64, 8, 1, seed)",
    "sweep(128, 8, 1, seed)",
    "sweep(64, 64, 1, seed)",
    "sweep(128, 16, 1, seed)",
    "sweep(256, 8, 1, seed)",
    "sweep(64, 8, 2, seed)",
)
# seeded (n, k) = (4, 4) and (3, 4) tables of density 1/2, verify's
# default controlled-oracle identity suite (20 tables, n <= 4, n + k <= 8)
# and its default sign-and-fidelity suite (50 tables, n <= 5, k <= 3)
VERIFY_CALLS = (
    "controlled_phase_oracle_identity_gap(half_table(seed, 16, 16))",
    "controlled_phase_oracle_identity_gap(half_table(seed, 8, 16))",
    "_oracle_identity_sweep(np.random.default_rng(seed), 20)",
    "_sign_fidelity_sweep(np.random.default_rng(seed), 50, 5, 3, False)",
)
WORKLOADS = ("train-n64", "sweep-n", "verify")


def cli_call(workload: str) -> str:
    """A CHILD_TIMER call of ``main`` on a perfbench workload's argv, with
    the timer's ``seed`` as its seed."""
    argv = perfbench_workloads.WORKLOADS[workload][0]("SEED")
    args = ", ".join("str(seed)" if arg == "SEED" else repr(arg) for arg in argv)
    return f"main([{args}], io.StringIO())"


# one whole `qvstrain` call per perfbench workload
CLI_CALLS = tuple(cli_call(workload) for workload in WORKLOADS)
# Run as ``python -c`` with a checkout's src on PYTHONPATH: the median
# milliseconds of each call over the seeds, as one JSON object.
CHILD_TIMER = """
import io, json, statistics, sys, time
import numpy as np
from qvstrain.cli import (_oracle_identity_sweep, _sign_fidelity_sweep,
                          _single_solution_instance, main)
from qvstrain.oracles import TruthTable, controlled_phase_oracle_identity_gap
from qvstrain.perceptron import generate_planted_dataset
def half_table(seed, rows, cols):
    return TruthTable(np.random.default_rng(seed).random((rows, cols)) < 0.5)
def sweep(n, k, workers, seed):
    main(["sweep", "--n-grid", str(n), "--k-grid", str(k), "--seed", str(seed),
          "--workers", str(workers)], io.StringIO())
medians = {}
for call in sys.argv[2:]:
    times = []
    for seed in range(int(sys.argv[1])):
        start = time.perf_counter()
        eval(call)
        times.append(time.perf_counter() - start)
    medians[call] = 1e3 * statistics.median(times)
print(json.dumps(medians))
"""
# Run as ``python -c`` with a checkout's src on PYTHONPATH: for each (n, k)
# of the grid, the median milliseconds of each further iteration of a
# seeded table's search oracle (plane_marginal(r), r = 1, 2, ...) and of
# building the oracle, over the given number of calls each, as one JSON
# object.
SEARCH_TIMER = """
import json, statistics, sys, time
import numpy as np
from qvstrain.oracles import OracleHandle, TruthTable
from qvstrain.search import SimAndSearchOracle
repeats, grid = int(sys.argv[1]), json.loads(sys.argv[2])
rng = np.random.default_rng(0)
medians = {}
for n, k in grid:
    handle = OracleHandle(TruthTable((rng.random((1 << n, 1 << k)) < 0.9).astype(np.uint8)))
    oracle = SimAndSearchOracle(handle)
    build, iteration = [], []
    for r in range(1, repeats + 1):
        start = time.perf_counter()
        oracle.plane_marginal(r)
        iteration.append(time.perf_counter() - start)
    for _ in range(repeats):
        start = time.perf_counter()
        SimAndSearchOracle(handle)
        build.append(time.perf_counter() - start)
    medians[f"{n},{k}"] = {"build_ms": 1e3 * statistics.median(build),
                           "iteration_ms": 1e3 * statistics.median(iteration)}
print(json.dumps(medians))
"""
PINNED_RUNS = (
    ("train", "--n", "12", "--m", "2", "--gamma", "0.2", "--trials", "3", "--seed", "1"),
    ("train", "--n", "24", "--m", "2", "--gamma", "0.15", "--trials", "2", "--seed", "101"),
    ("train", "--n", "64", "--m", "2", "--gamma", "0.1", "--trials", "3", "--seed", "0"),
    ("andor", "--random", "4,4,5", "--seed", "4"),
    ("andor", "--random", "64,64,3", "--seed", "4"),
    ("sweep", "--n-grid", "8,16", "--k-grid", "4", "--trials", "3", "--seed", "1"),
    ("sweep", "--n-grid", "16", "--k-grid", "8,64,512", "--trials", "2", "--seed", "4"),
    ("verify",),
    ("verify", "--inject-precision-fault"),  # exits 1: its violations are the point
    ("gen-dataset", "--n", "12", "--m", "2", "--gamma", "0.195", "--seed", "7",
     "--out-file", os.devnull),
)


def median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def random_handle(rng, n: int, k: int) -> OracleHandle:
    return OracleHandle(TruthTable((rng.random((1 << n, 1 << k)) < 0.9).astype(np.uint8)))


def iteration_ms(fn, start: int = 1) -> float:
    """Median over REPEATS of fn(r), r = start, start + 1, ...: each call
    runs one more iteration of a search state."""
    r = iter(range(start, start + REPEATS))
    return median_ms(lambda: fn(next(r)))


def ladder_ms(handle: OracleHandle) -> float:
    """Median ms of one iteration of the dense reference on ``handle``."""
    layout = handle.layout(l=l_bits(handle.n))
    state = new_uniform(layout)
    psi = state.amps.reshape(1 << layout.l, 1 << handle.k, 1 << handle.n)

    def reference(_r):
        sim_and(state, layout, handle)
        psi[...] = 2.0 * psi.mean(axis=1, keepdims=True) - psi
        (np.abs(psi) ** 2).sum(axis=(0, 2))

    return iteration_ms(reference)


def search_rows(parent: Path | None) -> list[dict]:
    """Per (n, k) of SEARCH_GRID: the oracle build and iteration medians of
    SEARCH_TIMER on each side, and, up to LADDER_AMPS amplitudes, the
    reference iteration in process."""
    runs = child_runs(SEARCH_TIMER, [str(CHILD_REPEATS), json.dumps(SEARCH_GRID)], parent)
    rng = np.random.default_rng(0)
    rows = []
    for n, k in SEARCH_GRID:
        handle = random_handle(rng, n, k)
        l = l_bits(n)
        row = {"n": n, "k": k, "l": l, "amplitudes": 1 << (l + k + n),
               "dense_bytes": 16 << (l + k + n),
               "search_state_bytes": search_state_bytes(1 << n, 1 << k)}
        for side, medians in runs.items():
            for part in ("build_ms", "iteration_ms"):
                row[f"{side}_{part}"] = statistics.median(m[f"{n},{k}"][part] for m in medians)
        if row["amplitudes"] <= LADDER_AMPS:
            row["ladder_ms"] = ladder_ms(handle)
            row["speedup"] = row["ladder_ms"] / row["change_iteration_ms"]
        rows.append(row)
    return rows


def stack_rows() -> list[dict]:
    """Each cell of STACK_CELLS built into search oracles and advanced by
    STACK_ADVANCE iterations, as one stack and one table at a time: the
    median over REPEATS of each, the two run alternately."""
    rng = np.random.default_rng(2)
    rows = []
    for count, n, k in STACK_CELLS:
        handles = [random_handle(rng, n, k) for _ in range(count)]

        def stacked():
            SimAndSearchOracle.stack(handles)[0].plane_marginal(STACK_ADVANCE)

        def one_at_a_time():
            for handle in handles:
                SimAndSearchOracle(handle).plane_marginal(STACK_ADVANCE)

        times = {stacked: [], one_at_a_time: []}
        for _ in range(REPEATS):
            for fn, spent in times.items():
                start = time.perf_counter()
                fn()
                spent.append(time.perf_counter() - start)
        stack_ms, alone_ms = (1e3 * statistics.median(spent) for spent in times.values())
        rows.append({"tables": count, "n": n, "k": k, "r": STACK_ADVANCE,
                     "stacked_ms": stack_ms, "one_at_a_time_ms": alone_ms,
                     "stacked_over_one_at_a_time": stack_ms / alone_ms})
    return rows


def readout_rows() -> list[dict]:
    handle = random_handle(np.random.default_rng(1), 6, 2)
    return [{"l": l, "median_ms": median_ms(lambda: phase_register_distribution(0, handle, l))}
            for l in READOUT_WIDTHS]


def table_rows() -> list[dict]:
    rows = []
    for points, planes in TABLE_SIZES:
        data, _ = generate_planted_dataset(points, 2, 0.1, rng_seed=0)
        sampled = sample_hyperplanes(planes, 2, 0)
        rows.append({"N": points, "K": planes,
                     "median_ms": median_ms(lambda: from_perceptron(data, sampled))})
    return rows


def child_runs(script: str, argv: list[str], parent: Path | None) -> dict[str, list]:
    """The JSON object ``script`` prints, run as ``python -c`` with ``argv``
    CHILD_ROUNDS times on this checkout and, when given, on ``parent``,
    alternating which side runs first: {side: [object per run]}."""
    sides = [("change", ROOT)] + ([("parent", parent)] if parent is not None else [])
    runs = {side: [] for side, _ in sides}
    for i in range(CHILD_ROUNDS):
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                                  text=True, env=child_env(checkout), check=True)
            runs[side].append(json.loads(proc.stdout))
    return runs


def child_rows(calls, parent: Path | None) -> list[dict]:
    """The median milliseconds of each call, timed by CHILD_TIMER on this
    checkout and, when given, on ``parent``: the median over the runs."""
    runs = child_runs(CHILD_TIMER, [str(CHILD_REPEATS), *calls], parent)
    return [{"call": call, **{f"{side}_ms": statistics.median(m[call] for m in medians)
                              for side, medians in runs.items()}}
            for call in calls]


def instance_rows(parent: Path | None) -> list[dict]:
    return child_rows(INSTANCE_CALLS, parent)


def verify_rows(parent: Path | None) -> list[dict]:
    return child_rows(VERIFY_CALLS, parent)


def sweep_rows(parent: Path | None) -> list[dict]:
    return child_rows(SWEEP_CALLS, parent)


def cli_rows(parent: Path | None) -> list[dict]:
    return child_rows(CLI_CALLS, parent)


def child_env(checkout: Path) -> dict[str, str]:
    """This process's environment, one BLAS thread included, with
    ``checkout``'s package on the path."""
    return {**os.environ, "PYTHONPATH": str(checkout / "src")}


def pinned_rows(checkout: Path) -> dict[str, dict]:
    """Exit code and stdout lines (JSON, or CSV for sweep) of each pinned run;
    a run that ends in a usage error or a crash (exit 2 or more) raises."""
    out = {}
    for argv in PINNED_RUNS:
        proc = subprocess.run([sys.executable, "-m", "qvstrain.cli", *argv], capture_output=True,
                              text=True, env=child_env(checkout))
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {proc.returncode}: "
                               f"{proc.stderr}")
        out[" ".join(argv)] = {"exit": proc.returncode, "stdout": proc.stdout.splitlines()}
    return out


def ledger_counts(rows: dict[str, dict]) -> dict[str, dict[str, int]]:
    """Per pinned run, the ledger counts its JSON output lines report under
    ``queries``, summed over the lines (sweep's CSV lines report medians and
    are left to the stdout comparison)."""
    counts = {}
    for argv, row in rows.items():
        total = {}
        for line in row["stdout"]:
            try:
                queries = json.loads(line).get("queries", {})
            except (json.JSONDecodeError, AttributeError):
                continue
            for tag, value in queries.items():
                total[tag] = total.get(tag, 0) + value
        if total:
            counts[argv] = total
    return counts


def perfbench_metrics(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed its reference check")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def end_to_end(parent: Path, pairs: int) -> dict:
    record = {}
    for workload in WORKLOADS:
        runs = []
        for i in range(pairs):
            sides = [("parent", parent), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            pair = {"seed": FIRST_SEED + i}
            for side, checkout in sides:
                pair[side] = perfbench_metrics(checkout, workload, FIRST_SEED + i)
            runs.append(pair)
            print(f"{workload} pair {i}: ops_per_s {pair['parent']['ops_per_s']:.3f} -> "
                  f"{pair['change']['ops_per_s']:.3f}", file=sys.stderr)
        summary = {}
        for metric in runs[0]["parent"]:
            summary[metric] = {}
            for side in ("parent", "change"):
                values = [r[side][metric] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4) if pairs > 1 else values * 3
                summary[metric][side] = {"q1": q1, "median": q2, "q3": q3}
        wins = sum(r["change"]["ops_per_s"] > r["parent"]["ops_per_s"] for r in runs)
        record[workload] = {"pairs": runs, "medians": summary, "ops_per_s_wins": wins}
    return record


def git_sha() -> str:
    """HEAD of this checkout, suffixed -dirty when the tree has changes."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="the JSON record to write")
    parser.add_argument("--parent", type=Path, help="checkout of the commit to compare against")
    parser.add_argument("--pairs", type=int, default=0, help="perfbench pairs per workload")
    args = parser.parse_args()
    if args.pairs < 0 or (args.pairs and args.parent is None):
        parser.error("need --pairs >= 0, and --parent with --pairs")
    parent = args.parent and args.parent.resolve()
    record = {
        "manifest": {"git_sha": git_sha(), "nproc": os.cpu_count(), "numpy": np.__version__,
                     "python": sys.version.split()[0],
                     "settings": {"repeats": REPEATS, "pairs": args.pairs,
                                  "seed": FIRST_SEED, "seconds": SECONDS}},
        "search_iteration": search_rows(parent),
        "stacked_cell": stack_rows(),
        "sweep_cells": sweep_rows(parent),
        "phase_register_distribution": readout_rows(),
        "from_perceptron": table_rows(),
        "instances": instance_rows(parent),
        "verify_layers": verify_rows(parent),
        "cli_calls": cli_rows(parent),
    }
    if args.parent is not None:
        here, there = pinned_rows(ROOT), pinned_rows(args.parent.resolve())
        record["pinned_runs"] = {"identical_to_parent": here == there, "rows": here}
        record["ledger"] = {"identical_to_parent": ledger_counts(here) == ledger_counts(there),
                            "counts": ledger_counts(here)}
    if args.pairs:
        record["end_to_end"] = end_to_end(args.parent.resolve(), args.pairs)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
