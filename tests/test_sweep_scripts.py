"""``scripts/run_scaling_sweep.py`` drives the ``sweep`` command over both
axes and ``scripts/summarize_sweep.py`` reads the CSV files it writes;
nothing else runs them, so a change to the command's flags or columns would
break them unseen.  Both are loaded from their files and run once, with one
trial per cell."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_scripts_write_and_summarize_both_axes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["run_scaling_sweep.py", "--trials", "1"])
    assert load_script("run_scaling_sweep").main() == 0
    summarize = load_script("summarize_sweep").summarize
    capsys.readouterr()
    for tag, axis in (("n", "N"), ("k", "K")):
        summarize(f"sweep_{tag}.csv")
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"== sweep_{tag}.csv =="
        assert sum("ratio=" in line for line in lines) == 4
        fits = [line for line in lines if "slope vs" in line]
        assert len(fits) == 1 and fits[0].startswith(f"  slope vs {axis}: ")
