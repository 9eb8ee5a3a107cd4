#!/usr/bin/env python
"""Time the counting kernels layer by layer and write a BENCH_*.json record.

Layers, each a median over REPEATS timed calls in this process:

* one AND-simulation on the full register, with the production spectral
  kernel (``counting.sim_and``) against the reference it replaces, the
  literal circuit ``phase_estimate`` -> flip of the 10..0 readout ->
  ``phase_estimate_inverse``;
* the closed-form phase readout ``phase_register_distribution``;
* building the truth table (``oracles.from_perceptron``).

With ``--parent DIR`` (a checkout of the commit to compare against) it also
records the query-ledger rows of the pinned seeded CLI runs in both
checkouts, and, with ``--pairs P``, runs ``perfbench/run.py`` on every
workload in P alternating parent/change pairs of SECONDS each, at seeds
FIRST_SEED, FIRST_SEED + 1, ..., and keeps each pair's end-to-end metrics.  Run from anywhere:

    python scripts/bench_kernels.py --out BENCH_5.json
    python scripts/bench_kernels.py --parent ../parent --pairs 10 --out BENCH_5.json

The record holds nproc, the numpy version and the git sha of this checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qvstrain.counting import (  # noqa: E402
    phase_estimate,
    phase_estimate_inverse,
    phase_register_distribution,
    sim_and,
)
from qvstrain.oracles import OracleHandle, TruthTable, from_perceptron  # noqa: E402
from qvstrain.perceptron import generate_planted_dataset, sample_hyperplanes  # noqa: E402
from qvstrain.statevec import StateVector, apply_open_controlled_z  # noqa: E402

REPEATS = 7
FIRST_SEED = 8001  # perfbench seed of the first pair; not used while building
SECONDS = 40.0  # perfbench run length

# (n, k, l) up to 2**19 amplitudes; l = l_bits(n) except the last two rows
KERNEL_GRID = ((3, 3, 5), (4, 3, 5), (5, 5, 6), (6, 3, 6), (6, 6, 6), (7, 6, 6), (6, 6, 7))
READOUT_WIDTHS = (4, 6, 7, 9)
TABLE_SIZES = ((64, 47), (512, 64), (2048, 512))
WORKLOADS = ("train-n64", "sweep-n", "verify")
PINNED_RUNS = (
    ("train", "--n", "12", "--m", "2", "--gamma", "0.2", "--trials", "3", "--seed", "1"),
    ("train", "--n", "24", "--m", "2", "--gamma", "0.15", "--trials", "2", "--seed", "101"),
    ("train", "--n", "64", "--m", "2", "--gamma", "0.1", "--trials", "3", "--seed", "0"),
    ("andor", "--random", "4,4,5", "--seed", "4"),
    ("sweep", "--n-grid", "8,16", "--k-grid", "4", "--trials", "3", "--seed", "1"),
)


def median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def reference_sim_and(state, layout, handle) -> None:
    phase_estimate(state, layout, handle)
    apply_open_controlled_z(state, layout.phase_msb, layout.phase_qubits[:-1])
    phase_estimate_inverse(state, layout, handle)


def random_handle(rng, n: int, k: int) -> OracleHandle:
    return OracleHandle(TruthTable((rng.random((1 << n, 1 << k)) < 0.9).astype(np.uint8)))


def kernel_rows() -> list[dict]:
    rng = np.random.default_rng(0)
    rows = []
    for n, k, l in KERNEL_GRID:
        handle = random_handle(rng, n, k)
        layout = handle.layout(l=l)
        size = 1 << layout.num_qubits
        state = StateVector(layout.num_qubits, np.full(size, 1.0 / math.sqrt(size)))
        spectral = median_ms(lambda: sim_and(state, layout, handle))
        ladder = median_ms(lambda: reference_sim_and(state, layout, handle))
        rows.append({"n": n, "k": k, "l": l, "amplitudes": size, "spectral_ms": spectral,
                     "ladder_ms": ladder, "speedup": ladder / spectral})
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


def child_env(checkout: Path) -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    return env


def pinned_rows(checkout: Path) -> dict[str, list[str]]:
    out = {}
    for argv in PINNED_RUNS:
        proc = subprocess.run([sys.executable, "-m", "qvstrain.cli", *argv], capture_output=True,
                              text=True, env=child_env(checkout), check=True)
        out[" ".join(argv)] = proc.stdout.splitlines()  # JSON lines, or CSV for sweep
    return out


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
    parser.add_argument("--out", default="BENCH_5.json")
    parser.add_argument("--parent", type=Path, help="checkout of the commit to compare against")
    parser.add_argument("--pairs", type=int, default=0, help="perfbench pairs per workload")
    args = parser.parse_args()
    if args.pairs < 0 or (args.pairs and args.parent is None):
        parser.error("need --pairs >= 0, and --parent with --pairs")
    record = {
        "manifest": {"git_sha": git_sha(), "nproc": os.cpu_count(), "numpy": np.__version__,
                     "python": sys.version.split()[0],
                     "settings": {"repeats": REPEATS, "pairs": args.pairs,
                                  "seed": FIRST_SEED, "seconds": SECONDS}},
        "sim_and": kernel_rows(),
        "phase_register_distribution": readout_rows(),
        "from_perceptron": table_rows(),
    }
    if args.parent is not None:
        here, there = pinned_rows(ROOT), pinned_rows(args.parent.resolve())
        record["pinned_runs"] = {"identical_to_parent": here == there, "rows": here}
    if args.pairs:
        record["end_to_end"] = end_to_end(args.parent.resolve(), args.pairs)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
