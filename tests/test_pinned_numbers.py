"""Pinned ledger snapshots and outcomes of small seeded CLI runs.

The package's product is query counts.  A refactor that moves any count,
or any seeded search outcome, fails here; only a deliberate change to the
cost model or the construction should ever re-record these values.
"""

import csv
import io
import json
import math
import os

import pytest

from qvstrain.cli import main


def queries(bit_oracle: int, controlled_phase_oracle: int) -> dict:
    return {"bit_oracle": bit_oracle, "classical_f": 0,
            "controlled_phase_oracle": controlled_phase_oracle, "phase_oracle": 0}


def train_row(trial, seed, n, gamma, K, index, failure, bits, cpo) -> dict:
    found = failure is None
    return {"K": K, "failure": failure, "found": found, "gamma": gamma,
            "in_version_space": True if found else None, "index": index, "m": 2,
            "n": n, "queries": queries(bits, cpo), "seed": seed, "trial": trial}


def andor_row(instance, value, bits, cpo) -> dict:
    return {"agree": True, "direct": value, "instance": instance,
            "queries": queries(bits, cpo), "via_search": value}


PINNED_JSON = [
    (
        ("train", "--n", "12", "--m", "2", "--gamma", "0.2", "--trials", "3", "--seed", "1"),
        [
            train_row(0, 1, 12, 0.2, 24, 1, None, 18972, 5022),
            train_row(1, 2, 12, 0.2, 24, 18, None, 4092, 1054),
            train_row(2, 3, 12, 0.2, 24, 15, None, 6076, 1550),
            {"success_fraction": 1.0, "summary": True, "trials": 3},
        ],
    ),
    (
        ("train", "--n", "24", "--m", "2", "--gamma", "0.15", "--trials", "2", "--seed", "101"),
        [
            train_row(0, 101, 24, 0.15, 31, 2, None, 33768, 8820),
            train_row(1, 102, 24, 0.15, 31, -1, "sampling", 129780, 34650),
            {"success_fraction": 0.5, "summary": True, "trials": 2},
        ],
    ),
    (
        ("andor", "--random", "4,4,5", "--seed", "4"),
        [
            andor_row(0, 1, 960, 240),
            andor_row(1, 0, 14640, 3720),
            andor_row(2, 1, 960, 240),
            andor_row(3, 0, 14880, 3840),
            andor_row(4, 0, 15000, 3870),
            {"agreement_fraction": 1.0, "instances": 5, "summary": True},
        ],
    ),
    (
        ("gen-dataset", "--n", "12", "--m", "2", "--gamma", "0.195", "--seed", "7",
         "--out-file", os.devnull),
        [
            {"file": os.devnull, "gamma": 0.195, "m": 2, "n": 12,
             "planted_b": 0.03225522575868764, "planted_margin": 0.5144464841894006,
             "planted_w": [0.0041176947405490065, 0.9999915222590758]},
        ],
    ),
]


def run(argv) -> str:
    buf = io.StringIO()
    assert main(list(argv), out=buf) == 0
    return buf.getvalue()


@pytest.mark.parametrize("argv,expected", PINNED_JSON, ids=["train-n12", "train-n24", "andor", "gen-dataset"])
def test_json_rows_pinned(argv, expected):
    rows = [json.loads(line) for line in run(argv).splitlines()]
    assert rows == expected


def test_sweep_rows_pinned():
    out = run(("sweep", "--n-grid", "8,16", "--k-grid", "4", "--trials", "3", "--seed", "1"))
    header, *cells, fit = list(csv.reader(io.StringIO(out)))
    assert header[0] == "kind"
    assert cells == [
        ["cell", "8", "4", "0.2", "3", "3968.0", "8.0", "1.0", "True", "", ""],
        ["cell", "16", "4", "0.2", "3", "4092.0", "16.0", "1.0", "True", "", ""],
    ]
    assert fit[:-1] == ["fit", "", "", "0.2", "3", "", "", "", "", "N"]
    assert float(fit[-1]) == pytest.approx(math.log(4092 / 3968) / math.log(2), rel=1e-12)


def test_verify_suite_rows_pinned():
    out = run(("verify", "--seed", "7", "--tables", "10", "--n-max", "4",
               "--identity-tables", "5", "--gap-n-max", "9"))
    assert [json.loads(line) for line in out.splitlines()] == [
        {"checked": 56, "forced_low_precision": False, "suite": "sign_and_fidelity",
         "violations": 0},
        {"checked": 1022, "suite": "phase_gap_bound", "violations": 0},
        {"checked": 5, "suite": "controlled_oracle_identity", "violations": 0},
        {"ok": True, "summary": True},
    ]


def test_verify_fault_violation_count_pinned():
    # the fidelities of the violation rows are left unpinned: they sit at
    # rounding level of the readout (e.g. 0 vs 5e-32) and are not a count
    buf = io.StringIO()
    assert main(["verify", "--seed", "1", "--tables", "8", "--n-max", "4",
                 "--inject-precision-fault"], out=buf) == 1
    suite, *detail, summary = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert suite == {"checked": 32, "forced_low_precision": True,
                     "suite": "sign_and_fidelity", "violations": 15}
    assert len(detail) == 10 and all(r["violation"] == "sign_and_fidelity" for r in detail)
    assert summary == {"ok": False, "summary": True}
