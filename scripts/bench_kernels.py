#!/usr/bin/env python
"""Time the package layer by layer and write a BENCH_*.json record.

Every layer is timed by one child script, run as ``python -c`` on a
checkout's own package, so with ``--parent`` both sides are timed by the
same code. A layer of LAYERS is a setup and a list of calls: the child runs
the setup once, then times each call, in order, once per seed
``seed = 0 .. CHILD_REPEATS - 1``, and keeps the median. One child run
times every layer; it runs CHILD_ROUNDS times per checkout, the sides
alternating which runs first. Each row of ``layers`` in the record keeps
each side's per-run medians (``change_runs``, ``parent_runs``) and their
median (``change_ms``, ``parent_ms``): on a shared 2-vCPU host one run's
median can sit twice another's, and a gain is judged against the spread of
the parent's own runs. Every layer runs with one BLAS thread, the setting of
``perfbench``: the thread variables are set before numpy is imported, and
the child processes inherit them.

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
from pathlib import Path

# before numpy is imported: OpenBLAS reads these once, when it loads
os.environ.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS")})

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as perfbench_workloads  # noqa: E402

CHILD_REPEATS = 9  # seeds 0..8, one call each, in each child run
CHILD_ROUNDS = 11  # child runs per checkout, alternating
FIRST_SEED = 20001  # perfbench seed of the first pair; not used while building
SECONDS = 40.0  # perfbench run length
WORKLOADS = ("train-n64", "sweep-n", "verify")

# (n, k): train-n64's table, sweep-n's largest cell (N = 64, K = 8), a
# 256 x 128 table, and 4096 x 8, where the search's arithmetic dominates
SEARCH_GRID = ((6, 6), (6, 3), (8, 7), (12, 3))


def cli_call(workload: str) -> str:
    """A CHILD_TIMER call of ``main`` on a perfbench workload's argv, with
    the timer's ``seed`` as its seed."""
    argv = perfbench_workloads.WORKLOADS[workload][0]("SEED")
    args = ", ".join("str(seed)" if arg == "SEED" else repr(arg) for arg in argv)
    return f"main([{args}], io.StringIO())"


# name -> (setup, calls), timed in this order
LAYERS = {
    # per table, one iteration (AND-simulation, diffusion, marginal), then
    # building its oracle: builds between iterations free arrays glibc may
    # trim, which put one row 21% apart; then the vote and the sampling on a
    # sweep table (one all-ones column) with every marginal cached
    "search": (
        "rng = np.random.default_rng(0)\n"
        f"handles = {{nk: random_handle(rng, *nk) for nk in {SEARCH_GRID}}}\n"
        "oracles = {nk: SimAndSearchOracle(h) for nk, h in handles.items()}\n"
        "capped = SimAndSearchOracle(OracleHandle(single_solution_instance(64, 64, 0.2, 0)))\n"
        "capped.plane_marginal(_iteration_cap(6))",
        [*(call for nk in SEARCH_GRID for call in (f"oracles[{nk}].plane_marginal(seed + 1)",
                                                   f"SimAndSearchOracle(handles[{nk}])")),
         "bounded_error_search(capped, seed)"]),
    # sweep-n's largest cell (3 tables of 64 x 8) advanced to r = 3 both ways,
    # each table asking for the same r: a stack's best case
    "stack": (
        "rng = np.random.default_rng(2)\n"
        "cell = [random_handle(rng, 6, 3) for _ in range(3)]",
        ["SimAndSearchOracle.stack(cell)[0].plane_marginal(3)",
         "[SimAndSearchOracle(h).plane_marginal(3) for h in cell]"]),
    # one controlled step of the gate engine, which only the references run
    "grover_step": (
        "gate = random_handle(np.random.default_rng(3), 6, 6)\n"
        "layout = gate.layout(l=l_bits(6))\n"
        "state = new_uniform(layout)",
        ["grover_operator(state, layout, gate, control=layout.n + layout.k)"]),
    # planted sets, the sweep's table, and the truth table of a planted set
    "instances": (
        "planted = {(n, k): (generate_planted_dataset(n, 2, 0.1, rng_seed=0)[0],\n"
        "                    sample_hyperplanes(k, 2, 0))\n"
        "           for n, k in ((64, 47), (512, 64), (2048, 512))}",
        ["generate_planted_dataset(64, 2, 0.1, rng_seed=seed)",
         "generate_planted_dataset(4096, 2, 0.1, rng_seed=seed)",
         "generate_planted_dataset(65536, 2, 0.1, rng_seed=seed)",
         "single_solution_instance(64, 8, 0.2, seed)",
         "single_solution_instance(16, 512, 0.2, seed)",
         *(f"from_perceptron(*planted[{nk}])" for nk in ((64, 47), (512, 64), (2048, 512)))]),
    # one criterion-7 trial per (gamma, N) of the acceptance suite
    "train": (
        "datasets = {(g, n): generate_planted_dataset(n, 2, g, rng_seed=0)[0]\n"
        "            for g in (0.1, 0.2) for n in (12, 64)}",
        [f"train_perceptron(datasets[({g}, {n})], 0.1, rng_seed=seed)"
         for g in (0.1, 0.2) for n in (12, 64)]),
    # seeded (n, k) = (4, 4) and (3, 4) tables of density 1/2, verify's
    # default suites: identity (20 tables, n <= 4, n + k <= 8),
    # sign-and-fidelity (50 tables, n <= 5, k <= 3) and phase gap (n <= 12),
    # and the sign-and-fidelity suite on 4 tables of n <= 10, k <= 6
    "verify": (
        "",
        ["controlled_phase_oracle_identity_gap(half_table(seed, 16, 16))",
         "controlled_phase_oracle_identity_gap(half_table(seed, 8, 16))",
         "_oracle_identity_sweep(np.random.default_rng(seed), 20)",
         "_sign_fidelity_sweep(np.random.default_rng(seed), 50, 5, 3, False)",
         "_phase_gap_sweep(12)",
         "_sign_fidelity_sweep(np.random.default_rng(seed), 4, 10, 6, False)"]),
    # one-cell sweeps (N, K, workers) of 9 trials: sweep-n's largest cell,
    # searched in one stack; two cells just under STACK_BYTES, in stacks of
    # two; two just over it, each table alone; sweep-n's cell over two workers
    "sweep": (
        "",
        [f"sweep({n}, {k}, {workers}, seed)" for n, k, workers in
         ((64, 8, 1), (128, 8, 1), (64, 64, 1), (128, 16, 1), (256, 8, 1), (64, 8, 2))]),
    # one whole CLI call per perfbench workload, and two parsers alone
    "cli": (
        "",
        [*(cli_call(workload) for workload in WORKLOADS),
         'build_parser("train")', 'build_parser("sweep")']),
}
# Run as ``python -c`` with a checkout's src on PYTHONPATH, with the repeats
# and the JSON of LAYERS as arguments: per layer and call, the median
# milliseconds over the seeds, as one JSON object.
CHILD_TIMER = """
import io, json, statistics, sys, time
import numpy as np
from qvstrain.cli import (_oracle_identity_sweep, _phase_gap_sweep, _sign_fidelity_sweep,
                          build_parser, main)
from qvstrain.counting import grover_operator, l_bits
from qvstrain.experiments import single_solution_instance
from qvstrain.oracles import (OracleHandle, TruthTable, controlled_phase_oracle_identity_gap,
                              from_perceptron)
from qvstrain.perceptron import generate_planted_dataset, sample_hyperplanes
from qvstrain.search import (SimAndSearchOracle, _iteration_cap, bounded_error_search,
                             train_perceptron)
from qvstrain.statevec import new_uniform
def random_handle(rng, n, k):
    return OracleHandle(TruthTable((rng.random((1 << n, 1 << k)) < 0.9).astype(np.uint8)))
def half_table(seed, rows, cols):
    return TruthTable(np.random.default_rng(seed).random((rows, cols)) < 0.5)
def sweep(n, k, workers, seed):
    main(["sweep", "--n-grid", str(n), "--k-grid", str(k), "--seed", str(seed),
          "--workers", str(workers)], io.StringIO())
repeats, layers = int(sys.argv[1]), json.loads(sys.argv[2])
medians = {}
for name, (setup, calls) in layers.items():
    exec(setup)
    medians[name] = {}
    for call in calls:
        times = []
        for seed in range(repeats):
            start = time.perf_counter()
            eval(call)
            times.append(time.perf_counter() - start)
        medians[name][call] = 1e3 * statistics.median(times)
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


def layer_rows(parent: Path | None) -> dict[str, list[dict]]:
    """Per layer, one row per call: the call's median milliseconds in each
    of CHILD_ROUNDS runs of CHILD_TIMER on this checkout and, when given, on
    ``parent``, alternating which side runs first, and the median over
    those runs."""
    sides = [("change", ROOT)] + ([("parent", parent)] if parent is not None else [])
    runs = {side: [] for side, _ in sides}
    for i in range(CHILD_ROUNDS):
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            proc = subprocess.run(
                [sys.executable, "-c", CHILD_TIMER, str(CHILD_REPEATS), json.dumps(LAYERS)],
                stdout=subprocess.PIPE, text=True, env=child_env(checkout), check=True)
            runs[side].append(json.loads(proc.stdout))
    rows = {name: [{"call": call} for call in calls] for name, (_, calls) in LAYERS.items()}
    for name, layer in rows.items():
        for row in layer:
            for side, medians in runs.items():
                row[f"{side}_runs"] = [m[name][row["call"]] for m in medians]
                row[f"{side}_ms"] = statistics.median(row[f"{side}_runs"])
    return rows


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
                     "settings": {"child_repeats": CHILD_REPEATS, "child_rounds": CHILD_ROUNDS,
                                  "pairs": args.pairs, "seed": FIRST_SEED, "seconds": SECONDS}},
        "layers": layer_rows(parent),
    }
    if parent is not None:
        here, there = pinned_rows(ROOT), pinned_rows(parent)
        record["pinned_runs"] = {"identical_to_parent": here == there, "rows": here}
        record["ledger"] = {"identical_to_parent": ledger_counts(here) == ledger_counts(there),
                            "counts": ledger_counts(here)}
    if args.pairs:
        record["end_to_end"] = end_to_end(parent, args.pairs)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
