"""Rewrite ``cli.json``: the exit code and the sha256 of stdout and of stderr
of each CLI command below, run in one process through ``alcove.cli.main``.

Run from the repository root with ``PYTHONPATH=src python
tests/golden/regenerate.py``.  A change that moves a golden says so, and
why, in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from alcove.cli import main

GOLDEN = Path(__file__).with_name("cli.json")

_F1_SWEEPS = (
    "subregular", "reduced1", "omega", "covering_char", "dl_decent",
    "zero_gen", "presentations", "connectivity", "wtintersect", "elimination",
)
_F2_SWEEPS = ("dl_decent", "zero_gen", "wtintersect", "elimination")


def _sweeps(names) -> list[str]:
    return [arg for name in names for arg in ("--sweep", name)]


COMMANDS: list[list[str]] = [
    ["wset", "--n", "3", "--f", "1", "--p", "37", "--s", "231", "--mu", "20,10,0"],
    ["graph", "--n", "2", "--f", "1", "--p", "7", "--s", "21", "--mu", "5,1",
     "--format", "dot"],
    ["graph", "--n", "3", "--f", "1", "--p", "37", "--s", "231", "--mu", "20,10,0",
     "--format", "json"],
    ["verify", "--n", "2", "--f", "1", "--p", "13"],
    ["eliminate", "--n", "3", "--f", "1", "--p", "37", "--s", "231",
     "--mu", "20,10,0", "--sigma", "30,15,2"],
    ["eliminate", "--n", "3", "--f", "1", "--p", "37", "--s", "231",
     "--mu", "20,10,0", "--sigma", "18,9,0"],
    ["wset", "--n", "2", "--f", "2", "--p", "13", "--s", "21;12", "--mu", "9,1;8,2"],
    ["graph", "--n", "3", "--f", "2", "--p", "37", "--s", "231;312",
     "--mu", "30,15,1;28,14,2", "--format", "json"],
    ["graph", "--n", "3", "--f", "2", "--p", "37", "--s", "231;312",
     "--mu", "30,15,1;28,14,2", "--format", "dot"],
    ["verify", "--n", "2", "--f", "2", "--p", "5", "--sweep", "reduced1",
     "--sweep", "subregular", "--sweep", "connectivity"],
    ["verify", "--n", "2", "--f", "2", "--p", "7", "--sweep", "reduced1",
     "--sweep", "subregular", "--box-radius", "2"],
    ["verify", "--n", "3", "--f", "1", "--p", "37", "--sweep", "reduced1",
     "--mutate", "drop-dominant-hypothesis"],
    ["verify", "--n", "2", "--f", "2", "--p", "7", "--sweep", "omega",
     "--mutate", "drop-restricted-hypothesis"],
    ["wset", "--n", "4", "--f", "1", "--p", "23", "--s", "2341", "--mu", "21,14,7,0"],
    ["verify", "--n", "3", "--f", "1", "--p", "19", *_sweeps(_F1_SWEEPS)],
    ["verify", "--n", "2", "--f", "2", "--p", "7", *_sweeps(_F2_SWEEPS)],
    ["graph", "--n", "4", "--f", "1", "--p", "41", "--s", "2341",
     "--mu", "30,20,10,0", "--format", "json"],
    ["wset", "--n", "4", "--f", "2", "--p", "41", "--s", "2341;1234",
     "--mu", "30,20,10,0;30,20,10,0"],
    ["verify", "--n", "3", "--f", "2", "--p", "37", "--sweep", "reduced1",
     "--sweep", "subregular"],
    ["wset", "--n", "2", "--f", "1", "--p", "10000004400000259", "--s", "12",
     "--mu", "1,0"],
]


def run(argv: list[str]) -> dict:
    """Exit code and output digests of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in COMMANDS], indent=2) + "\n")
