"""qvstrain benchmark: three CLI workloads, measured end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-n64 --seed 0 --seconds 40 --trace 0

Each workload runs in fresh single processes (``perfbench/worker.py``) with
``src`` on PYTHONPATH and single-threaded BLAS; op ``i`` is one call of
``qvstrain.cli.main`` with ``--seed seed+i`` (see ``workloads.py``), in a
closed loop for ``--seconds``.  Every op's output is checked.

``--trace 0`` prints the end-to-end metrics: ``ops_per_s``, ``setup_s``
(median over several fresh processes), ``peak_rss_mib``,
``success_fraction`` and ``passed_fraction`` (1 - failed_fraction).
``ops_per_s`` is post-stratified by op outcome, and it and ``setup_s`` are
scaled to the reference machine speed of ``calibration.py`` (see
``worker.py``); the raw values are printed alongside.
``--trace 1`` runs every op twice, untraced and traced (see ``worker.py``),
and prints the per-layer metrics of ``spans.py`` plus the tracing overhead;
its spans go to ``.bench_build/spans-<workload>.npz``.

Output: a manifest line first, one ``name = value unit`` line per metric,
and last one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 with a result; 1 if a worker fails, 2 on bad
arguments or when the checkout holds no ``src/qvstrain``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("train-n64", "sweep-n", "verify")
SETUP_SAMPLES = 7  # odd: the measuring process plus equal numbers before and after
BUDGET_S = 170.0  # every run ends well inside the 180 s limit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerFailed(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, extra: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its result line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--reference", args.reference, *extra,
           "--start", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker ran past the time budget") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def setup_samples(args, count: int, deadline: float) -> list[dict]:
    return [spawn(args, ["--setup-only"], deadline) for _ in range(count)]


def end_to_end(args, deadline: float):
    # set-up samples on both sides of the measuring process, so that a slow
    # spell of the shared machine does not move the median alone
    setups = setup_samples(args, SETUP_SAMPLES // 2, deadline)
    result = spawn(args, ["--seconds", str(args.seconds)], deadline)
    setups += [result, *setup_samples(args, SETUP_SAMPLES // 2, deadline)]
    attempted, failed = result["attempted"], result["failed"]
    metrics = {
        "ops_per_s": (result["stratified_ops_per_s"] / result["speed"], "op/s"),
        "setup_s": (statistics.median(r["setup_s"] * r["setup_speed"] for r in setups), "s"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
        "success_fraction": (result["success"] / result["denominator"]
                             if result["denominator"] else 0.0, "fraction"),
        "passed_fraction": (1.0 - failed / attempted, "fraction"),
    }
    notes = {
        "failed_fraction": (failed / attempted, "fraction"),
        "ops_per_s_raw": (result["ops_per_s"], "op/s"),
        "setup_s_raw": (statistics.median(r["setup_s"] for r in setups), "s"),
        "machine_speed": (result["speed"], "x"),
    }
    return attempted, failed, metrics, notes


def per_layer(args, deadline: float):
    spans_path = ROOT / ".bench_build" / f"spans-{args.workload}.npz"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    result = spawn(args, ["--seconds", str(args.seconds), "--trace-out", str(spans_path)],
                   deadline)
    metrics = {name: tuple(v) for name, v in result["layers"].items()}
    untraced, traced = result["ops_per_s"], result["traced_ops_per_s"]
    metrics["trace.ops_per_s_untraced"] = (untraced, "op/s")
    metrics["trace.ops_per_s_traced"] = (traced, "op/s")
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - traced / untraced), "%")
    notes = {"spans_file": (str(spans_path.relative_to(ROOT)), "")}
    return result["attempted"], result["failed"], metrics, notes


def manifest(args) -> dict:
    init = (ROOT / "src" / "qvstrain" / "__init__.py").read_text()
    version = re.search(r'__version__\s*=\s*"([^"]+)"', init)
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "qvstrain": version.group(1) if version else "unknown",
        "git_sha": sha,
        "numpy": numpy_version,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="qvstrain benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", help="reference records (default: the workload's "
                        "file under perfbench/reference)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qvstrain" / "cli.py").is_file():
        print(f"no qvstrain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.reference is None:
        args.reference = str(BENCH / "reference" / f"{args.workload}.json")

    print(json.dumps({"manifest": manifest(args)}), flush=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        attempted, failed, metrics, notes = (per_layer if args.trace else end_to_end)(
            args, deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"{name} = {value} {unit}".rstrip())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
