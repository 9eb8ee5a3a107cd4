"""``scripts/run_scaling_sweep.py`` drives the ``sweep`` command over both
axes; nothing else runs it, so a change to the command's flags or columns
would break it unseen.  It is loaded from its file and run once, with one
trial per cell."""

import csv
import importlib.util
import math
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_script_writes_both_axes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["run_scaling_sweep.py", "--trials", "1"])
    assert load_script("run_scaling_sweep").main() == 0
    for tag, axis in (("n", "N"), ("k", "K")):
        with open(f"sweep_{tag}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["kind"] for row in rows] == ["cell"] * 4 + ["fit"]
        assert rows[-1]["slope_axis"] == axis and math.isfinite(float(rows[-1]["slope"]))
