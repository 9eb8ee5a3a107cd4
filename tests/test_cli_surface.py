"""The CLI's help, version and usage-error text, byte for byte.

``main`` parses an argv that starts with a command name with that
command's parser alone, and builds the whole parser tree only for any other
argv or to report unrecognized arguments, so nothing else would notice if
the top-level usage, a command's help or a usage error changed with it.  ``cli_surface.json`` holds, for each argv of SURFACE_ARGV,
the exit code and the exact stdout and stderr of ``main`` at a terminal
width of 80 columns.  Regenerate it only for an intended change of the
text, from the root of a checkout:

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from qvstrain.cli import COMMANDS, build_parser, main

EXPECTED_PATH = Path(__file__).resolve().parent / "cli_surface.json"

SURFACE_ARGV = (
    ("--help",),
    ("train", "--help"),
    ("verify", "--help"),
    ("sweep", "--help"),
    ("andor", "--help"),
    ("gen-dataset", "--help"),
    ("--version",),
    (),
    ("bogus",),
    ("train",),
    ("train", "--seed", "1", "extra"),
    ("sweep", "--seed", "1", "--trials", "x"),
    ("-h", "train"),
    ("--", "train", "--seed", "1"),
    ("train", "--seed", "1", "--bogus"),
    ("train", "--version"),
    ("train", "--bogus", "1", "--seed", "1"),
    ("train", "--seed", "1", "--", "extra"),
    ("verify", "a", "b"),
    ("train", "-h", "extra"),
)

# one argv per command that gives every one of its options a value
FULL_ARGV = (
    ("train", "--dataset", "d.txt", "--n", "9", "--m", "3", "--gamma", "0.25",
     "--epsilon", "0.2", "--c-constant", "3", "--trials", "4", "--seed", "5",
     "--workers", "2"),
    ("verify", "--seed", "3", "--tables", "4", "--n-max", "2", "--k-max", "2",
     "--gap-n-max", "5", "--identity-tables", "6", "--inject-precision-fault"),
    ("sweep", "--n-grid", "8,16", "--k-grid", "4", "--gamma", "0.3", "--trials", "2",
     "--seed", "1", "--workers", "2"),
    ("andor", "--file", "i.txt", "--table", "t.txt", "--random", "4,4,1", "--seed", "2"),
    ("gen-dataset", "--n", "12", "--m", "3", "--gamma", "0.2", "--seed", "7",
     "--out-file", "o.txt"),
)


def surface(argv) -> dict:
    """Exit code, stdout and stderr of ``main(argv)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


@pytest.mark.parametrize("argv", SURFACE_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_cli_surface_is_byte_identical(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(EXPECTED_PATH.read_text())[" ".join(argv)]
    assert surface(argv) == expected


@pytest.mark.parametrize("argv", FULL_ARGV, ids=lambda argv: argv[0])
def test_command_parser_parses_as_the_full_parser(argv):
    assert vars(build_parser(argv[0]).parse_args(argv[1:])) == vars(build_parser().parse_args(argv))


TREE = ["qvstrain", *(f"qvstrain {name}" for name in COMMANDS)]


@pytest.mark.parametrize("argv, built", [
    (("verify", "--tables", "1", "--n-max", "1", "--k-max", "1", "--gap-n-max", "1",
      "--identity-tables", "1"), ["qvstrain verify"]),
    (("--version",), TREE),
    (("train", "--seed", "1", "extra"), ["qvstrain train", *TREE]),
], ids=["command", "top-level", "leftover"])
def test_a_call_builds_its_commands_parser_alone(argv, built, monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    surface(argv)
    assert progs == built


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    EXPECTED_PATH.write_text(json.dumps({" ".join(argv): surface(argv) for argv in SURFACE_ARGV},
                                        indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
