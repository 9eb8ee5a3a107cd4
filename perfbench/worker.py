"""One benchmark process: import qvstrain, run a workload's ops through the
public entry point ``qvstrain.cli.main(argv, out=...)``, check each op and
print one JSON result line on stdout.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH and
single-threaded BLAS.  ``--start`` is the parent's CLOCK_MONOTONIC reading
just before the spawn, so ``setup_s`` covers interpreter start, package
import and building the workload's inputs, up to the first timed op.

``stratified_ops_per_s`` weights the mean op time of each stratum of
``workloads.stratum`` by that stratum's share of the reference records, so
that a run's draw of expensive outcomes does not move it.  ``speed`` and
``setup_speed`` are the machine's speed relative to ``calibration.py``'s
reference, timed after every op and right after set-up.

With ``--trace-out`` every op runs twice back to back, once untraced and
once traced, in alternating order.  The machine's speed drifts over
seconds, so pairing the two runs of each op measures the tracing overhead
better than two separate processes would.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict

SETUP_CALIBRATIONS = 5


def stratified_rate(times: dict, shares: Counter) -> float | None:
    """1 / mean op time, each stratum's mean weighted by its share of the
    reference records; None when no stratum of the run has a share."""
    present = {key: shares[key] for key in times if shares[key]}
    if not present:
        return None
    total = sum(present.values())
    return 1.0 / sum(n / total * statistics.mean(times[key]) for key, n in present.items())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--start", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="run ops until this much time has passed")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", required=True, help="JSON file of reference records")
    parser.add_argument("--trace-out", help="trace the run and save its spans here")
    args = parser.parse_args()

    from qvstrain import cli

    import workloads

    argv_of = workloads.WORKLOADS[args.workload][0]
    with open(args.reference) as fh:
        reference = json.load(fh)["records"]
    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.start

    import calibration

    setup_speed = calibration.REFERENCE_S / statistics.mean(
        calibration.seconds() for _ in range(SETUP_CALIBRATIONS))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
        return 0

    shares = Counter(workloads.stratum(args.workload, r) for r in reference.values())
    op_seconds = {False: 0.0, True: 0.0}  # keyed by "traced"
    ops = {False: 0, True: 0}
    stratum_times = defaultdict(list)  # untraced ops that passed their checks
    kernel_weighted = 0.0  # sum over untraced ops of op seconds x kernel seconds
    failed = 0
    success = denominator = 0.0
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < args.seconds:
        index = ops[False]
        seed = args.seed + index
        modes = (False,) if tracer is None else ((False, True) if index % 2 else (True, False))
        for traced in modes:
            if tracer is not None:
                tracer.enable(traced)
                tracer.op = index
            out = io.StringIO()
            start = time.perf_counter()
            try:
                code = cli.main(argv_of(seed), out=out)
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            op_seconds[traced] += elapsed
            ops[traced] += 1
            if not traced:
                kernel_weighted += elapsed * calibration.seconds()
            try:
                record, s, d = workloads.check_op(
                    args.workload, seed, code, out.getvalue(), reference)
            except workloads.CheckFailed as exc:
                failed += 1
                if failed <= 5:
                    print(f"op seed {seed} failed: {exc}", file=sys.stderr)
                continue
            success += s
            denominator += d
            if not traced:
                stratum_times[workloads.stratum(args.workload, record)].append(elapsed)

    raw_rate = ops[False] / op_seconds[False]
    result = {
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "attempted": ops[False] + ops[True],
        "failed": failed,
        "ops_per_s": raw_rate,
        "stratified_ops_per_s": stratified_rate(stratum_times, shares) or raw_rate,
        "speed": calibration.REFERENCE_S * op_seconds[False] / kernel_weighted,
        "success": success,
        "denominator": denominator,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.enable(False)
        result["traced_ops_per_s"] = ops[True] / op_seconds[True]
        result["layers"] = tracer.metrics()
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
