"""The benchmark's workloads: the argv of each op and the checks on its output.

Op ``i`` of a run with seed ``s`` is one ``qvstrain`` CLI invocation with
``--seed s+i``.  ``check`` parses the op's output, enforces the invariants
that hold on every seed and returns the op's reference record (ledger
snapshot and outcome) together with its success count and denominator.
"""

from __future__ import annotations

import csv
import io
import json
import math


class CheckFailed(Exception):
    """An op's output broke an invariant or differs from its reference."""


def _ceil_log2(x: int) -> int:
    return max(0, (x - 1).bit_length())


def _phase_bits(n_rows: int) -> int:
    """Phase-register width ceil(n/2) + 3 of the cost model, n = ceil(log2 N)."""
    return (_ceil_log2(n_rows) + 1) // 2 + 3


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- train-n64 -----------------------------------------------------------------

TRAIN_N, TRAIN_GAMMA, TRAIN_EPSILON, TRAIN_C = 64, 0.1, 0.1, 2.0


def train_argv(seed: int) -> list[str]:
    return ["train", "--n", str(TRAIN_N), "--m", "2", "--gamma", str(TRAIN_GAMMA),
            "--trials", "1", "--seed", str(seed)]


def check_train(text: str, seed: int):
    """One trial row plus the summary.  The ledger obeys the cost model: no
    plain phase-oracle or classical queries, and the bit and controlled
    counts are whole multiples of 2**l - 1.  A trial succeeds when the
    trainer's answer is right: a version-space plane, or NotFound because
    no sampled plane separates the data."""
    lines = text.splitlines()
    _require(len(lines) == 2, f"expected 2 output lines, got {len(lines)}")
    row, summary = (json.loads(line) for line in lines)
    _require(summary.get("summary") is True and summary.get("trials") == 1, "bad summary row")
    _require(row["seed"] == seed and row["n"] == TRAIN_N, "trial row does not match the op")
    _require(row["K"] == math.ceil(TRAIN_C * math.log(1.0 / TRAIN_EPSILON) / TRAIN_GAMMA),
             f"unexpected K={row['K']}")
    q = row["queries"]
    unit = (1 << _phase_bits(TRAIN_N)) - 1
    _require(q["phase_oracle"] == 0 and q["classical_f"] == 0,
             f"train charged phase_oracle/classical_f: {q}")
    _require(q["bit_oracle"] % unit == 0 and q["controlled_phase_oracle"] % unit == 0,
             f"ledger counts are not multiples of {unit}: {q}")
    if row["found"]:
        _require(row["failure"] is None and row["in_version_space"] is not None,
                 "found trial without a version-space verdict")
        success = row["in_version_space"] is True
    else:
        _require(row["failure"] in ("sampling", "search"), f"unknown failure {row['failure']!r}")
        success = row["failure"] == "sampling"
    return row, int(success), 1


# -- sweep-n -------------------------------------------------------------------

SWEEP_N_GRID, SWEEP_K, SWEEP_TRIALS = (8, 16, 32, 64), 8, 3
SWEEP_HEADER = ["kind", "N", "K", "gamma", "trials", "median_quantum_bit_queries",
                "median_classical_queries", "found_rate", "sound", "slope_axis", "slope"]


def sweep_argv(seed: int) -> list[str]:
    return ["sweep", "--n-grid", ",".join(map(str, SWEEP_N_GRID)), "--k-grid", str(SWEEP_K),
            "--trials", str(SWEEP_TRIALS), "--seed", str(seed)]


def check_sweep(text: str, seed: int):
    """Header, one sound cell per grid point (bit-query medians are whole
    multiples of one AND-simulation's 4 (2**l - 1)), then the N-axis fit.
    Success is the summed found_rate over the cells."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == SWEEP_HEADER, "bad CSV header")
    cells = [r for r in rows[1:] if r[0] == "cell"]
    fits = [r for r in rows[1:] if r[0] == "fit"]
    _require([int(c[1]) for c in cells] == list(SWEEP_N_GRID), "cells do not match the grid")
    _require(len(fits) == 1 and fits[0][9] == "N", "expected one N-axis fit row")
    found = 0.0
    for c in cells:
        _require(c[8] == "True", f"cell N={c[1]} is not sound")
        unit = 4 * ((1 << _phase_bits(int(c[1]))) - 1)
        _require(float(c[5]) % unit == 0, f"cell N={c[1]} bit queries not a multiple of {unit}")
        found += float(c[7])
    return rows[1:], found, len(cells)


# -- verify --------------------------------------------------------------------

VERIFY_SUITES = ("sign_and_fidelity", "phase_gap_bound", "controlled_oracle_identity")


def verify_argv(seed: int) -> list[str]:
    return ["verify", "--seed", str(seed)]


def check_verify(text: str, seed: int):
    """Three suites without violations and an ``ok`` summary.  Success is
    checked minus violated cases."""
    rows = [json.loads(line) for line in text.splitlines()]
    suites = [r for r in rows if "suite" in r]
    _require([s["suite"] for s in suites] == list(VERIFY_SUITES), "unexpected suite list")
    _require(rows[-1] == {"summary": True, "ok": True}, f"verify not ok: {rows[-1]}")
    checked = sum(s["checked"] for s in suites)
    violations = sum(s["violations"] for s in suites)
    _require(violations == 0, f"{violations} violations")
    return suites, checked - violations, checked


WORKLOADS = {
    "train-n64": (train_argv, check_train),
    "sweep-n": (sweep_argv, check_sweep),
    "verify": (verify_argv, check_verify),
}


def stratum(workload: str, record):
    """Outcome class of a checked op, used to post-stratify ``ops_per_s``.
    A train trial's cost depends mostly on its class: a sampling failure
    runs the whole search schedule (0.84 s mean against 0.29 s).  The other
    workloads have one class."""
    return record["failure"] if workload == "train-n64" else None


def check_op(workload: str, seed: int, code, text: str, reference: dict):
    """Check one op's exit code and output against the workload's invariants
    and, when ``reference`` (records keyed by op seed as a string) holds
    the op's seed, against the recorded ledger snapshot and outcome.

    Returns (record, success, denominator); raises CheckFailed."""
    _require(code == 0, f"op returned {code!r}")
    try:
        record, success, denominator = WORKLOADS[workload][1](text, seed)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        raise CheckFailed(f"unparsable output: {exc!r}") from None
    record = json.loads(json.dumps(record))
    expected = reference.get(str(seed))
    _require(expected is None or expected == record, f"seed {seed} differs from the reference")
    return record, success, denominator
