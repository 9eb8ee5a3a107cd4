"""Record the reference ledger snapshots and outcomes of a workload's ops.

    PYTHONPATH=src python3 perfbench/record_reference.py --workload verify --count 200

writes ``perfbench/reference/<workload>.json`` with the checked record of
ops seeded 0 .. count-1.  The benchmark compares every op whose seed has a
record against it, so a change that moves a query count or a seeded result
shows as failed ops.  Re-record only when such a change is intended.
"""

from __future__ import annotations

import argparse
import io
import json
from pathlib import Path

from qvstrain import __version__, cli

import workloads

BENCH = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args()
    argv_of = workloads.WORKLOADS[args.workload][0]
    records = {}
    for seed in range(args.count):
        out = io.StringIO()
        code = cli.main(argv_of(seed), out=out)
        records[str(seed)] = workloads.check_op(args.workload, seed, code, out.getvalue(), {})[0]
    path = BENCH / "reference" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "qvstrain": __version__,
                   "argv_seed_0": argv_of(0), "records": records}, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
