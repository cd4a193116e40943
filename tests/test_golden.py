"""Every command in ``golden/cli.json`` still gives its committed exit code
and the sha256 of its committed stdout and stderr.  A change that moves one
regenerates the file with ``golden/regenerate.py`` and explains the move."""

from __future__ import annotations

import json

import pytest

from golden.regenerate import GOLDEN, run

GOLDENS = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "golden", GOLDENS, ids=[f"{i:02d}-{g['argv'][0]}" for i, g in enumerate(GOLDENS)]
)
def test_cli_output_matches_golden(golden):
    assert run(golden["argv"]) == golden
