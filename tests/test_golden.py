"""Every command in ``golden/cli.json`` still gives its committed exit code
and the sha256 of its committed stdout and stderr, and every seeded query in
``golden/queries.json`` its committed digest.  A change that moves one
regenerates both files with ``golden/regenerate.py`` and explains the move."""

from __future__ import annotations

import json

import pytest

from golden.regenerate import (
    GOLDEN,
    QUERIES,
    QUERY_CONFIGS,
    WOBV_ONLY,
    config_name,
    query_digests,
    run,
)

GOLDENS = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "golden", GOLDENS, ids=[f"{i:02d}-{g['argv'][0]}" for i, g in enumerate(GOLDENS)]
)
def test_cli_output_matches_golden(golden):
    assert run(golden["argv"]) == golden


QUERY_GOLDENS = json.loads(QUERIES.read_text())


@pytest.mark.parametrize("nfp", [*QUERY_CONFIGS, WOBV_ONLY], ids=config_name)
def test_seeded_queries_match_golden(nfp):
    assert query_digests(nfp) == QUERY_GOLDENS[config_name(nfp)]
