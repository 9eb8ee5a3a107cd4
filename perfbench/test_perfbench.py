"""Tests of the benchmark itself (not part of the package's test suite):

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from qvstrain import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    manifest = json.loads(lines[0])["manifest"]
    assert {"qvstrain", "git_sha", "numpy", "python", "nproc", "argv", "seed"} <= set(manifest)
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_short_run_prints_every_metric_with_its_unit(workload, trace, section):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
    result = result_of(proc)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert "failed_fraction = 0.0 fraction" in proc.stdout


def test_altered_reference_entry_raises_failed_fraction(tmp_path):
    reference = json.loads((BENCH / "reference" / "train-n64.json").read_text())
    reference["records"]["0"]["queries"]["bit_oracle"] += 63  # still a whole multiple of 2**l - 1
    altered = tmp_path / "train-n64.json"
    altered.write_text(json.dumps(reference))
    proc = run_bench("--workload", "train-n64", "--seed", "0", "--seconds", "0.5",
                     "--reference", str(altered))
    result = result_of(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["passed_fraction"]["value"] < 1.0
    assert "failed_fraction = 0.0 " not in proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "verify", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def op_output(workload: str, seed: int) -> str:
    out = io.StringIO()
    assert cli.main(workloads.WORKLOADS[workload][0](seed), out=out) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload,old,new", [
    ("train-n64", '"phase_oracle": 0', '"phase_oracle": 1'),
    ("train-n64", '"classical_f": 0', '"classical_f": 64'),
    ("sweep-n", ",True,,", ",False,,"),
    ("verify", '"ok": true', '"ok": false'),
])
def test_invariant_checks_reject_broken_output(workload, old, new):
    text = op_output(workload, 3)
    workloads.check_op(workload, 3, 0, text, {})
    assert old in text
    with pytest.raises(workloads.CheckFailed):
        workloads.check_op(workload, 3, 0, text.replace(old, new, 1), {})
    with pytest.raises(workloads.CheckFailed):
        workloads.check_op(workload, 3, 1, text, {})
