"""Rewrite the two golden files:

- ``cli.json``: the exit code and the sha256 of stdout and of stderr of each
  CLI command below, run in one process through ``alcove.cli.main``, help
  and argparse refusals included;
- ``queries.json``: one sha256 per (configuration, query kind) of the
  seeded library queries below, so that a mismatch names the group that
  moved.

Run from the repository root with ``PYTHONPATH=src python
tests/golden/regenerate.py``.  A change that moves a golden says so, and
why, in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from alcove.affine_weyl import (
    ExtAffineElt,
    affine_reflection,
    bruhat_leq,
    reduced_word,
    up_leq,
)
from alcove.cli import main
from alcove.herzig import (
    TameParam,
    admissible_pair,
    connectivity_graph,
    eliminate,
    enumerate_edges,
    wobv_with_presentations,
    wset_with_presentations,
)
from alcove.root_data import FiniteWeylElt, RootDatum, all_weyl_elements
from alcove.weights_dl import (
    DLPresentation,
    SerreWeight,
    d_sigma,
    jh_outer,
    jh_set,
    max_genericity,
    presentations_of,
)

GOLDEN = Path(__file__).with_name("cli.json")
QUERIES = Path(__file__).with_name("queries.json")

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
    ["--help"],
    ["verify", "--help"],
    ["verify", "--n", "2", "--p", "13", "--sweep", "nosuch"],
]


def run(argv: list[str]) -> dict:
    """Exit code and output digests of one in-process CLI run.  Help and
    argparse refusals end in SystemExit, whose code is the exit code; argparse
    wraps help to the terminal width, so that width is pinned."""
    out, err = io.StringIO(), io.StringIO()
    width = mock.patch.dict(os.environ, COLUMNS="80")
    with redirect_stdout(out), redirect_stderr(err), width:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


# (n, f, p) -> number of seeded tau; every query kind but eliminate runs on each
QUERY_CONFIGS: dict[tuple[int, int, int], int] = {
    (2, 1, 7): 3,
    (3, 1, 37): 3,
    (2, 2, 13): 3,
    (3, 2, 37): 2,
    (4, 1, 41): 2,
    (2, 3, 7): 2,
}
# eliminate runs on ELIMINATED_PER_TAU seeded sigma per seeded tau here
ELIMINATE_CONFIGS = ((2, 1, 7), (3, 1, 37), (2, 2, 13))
ELIMINATED_PER_TAU = 3
# the order queries run on PAIRS_PER_CONFIG seeded pairs per configuration
PAIRS_PER_CONFIG = 12
# admissible_pair runs on MATCHED_PER_TAU parameters t_{w(eta)} tau per tau
MATCHED_PER_TAU = 2
# wobv answers at (4,2,41), where the Bruhat intervals behind wset and the
# graph exceed their budget
WOBV_ONLY = (4, 2, 41)


def seeded_taus(nfp: tuple[int, int, int], count: int) -> list[TameParam]:
    """count distinct tame parameters 2 h_eta-deep over the lowest alcove,
    drawn from a generator seeded by the configuration alone.  The oracle's
    samplers are not used, so that changing them moves no golden."""
    datum = RootDatum(*nfp)
    depth = 2 * datum.h_eta
    rng = random.Random(repr(nfp))
    weyl = all_weyl_elements(datum)
    out = []
    while len(out) < count:
        fin = rng.choice(weyl)
        rows = []
        for _ in range(datum.f):
            row = [rng.randint(0, datum.p)]
            for _ in range(datum.n - 1):
                row.insert(0, row[0] + rng.randint(depth + 1, datum.p - depth - 1))
            rows.append(row)
        tau = TameParam(ExtAffineElt(datum, datum.weight(rows), fin))
        given = tau.lowest_alcove_depth()
        if given is not None and given >= depth and tau not in out:
            out.append(tau)
    return out


def seeded_eliminable(tau: TameParam, count: int) -> list[SerreWeight]:
    """count distinct p-restricted weights, d_sigma-deep and outside the
    predicted set of tau, drawn from a generator seeded by tau alone."""
    datum = tau.datum
    rng = random.Random(repr(tau.to_json()))
    members = wset_with_presentations(tau)
    out = []
    while len(out) < count:
        rows = []
        for _ in range(datum.f):
            row = [rng.randrange(datum.p)]
            for _ in range(datum.n - 1):
                row.insert(0, row[0] + rng.randrange(datum.p))
            rows.append(row)
        sigma = SerreWeight.from_weight(datum, datum.weight(rows))
        if sigma.is_p_regular() and sigma.depth >= d_sigma(sigma):
            if sigma not in members and sigma not in out:
                out.append(sigma)
    return out


def seeded_pairs(nfp: tuple[int, int, int], count: int) -> list[tuple[ExtAffineElt, ExtAffineElt]]:
    """count pairs (u, w) of equal Omega degree, drawn from a generator seeded
    by the configuration alone.  w has translation entries in [-r, r].  In
    even slots u is w times an affine reflection on a random side, so the two
    are comparable in the Bruhat order; in odd slots u is drawn like w and
    moved into its degree.  r is 1 at n = 4, where up_leq on independent
    pairs of radius 3 can take seconds."""
    datum = RootDatum(*nfp)
    radius = 1 if datum.n >= 4 else 2
    rng = random.Random(repr(("pairs", nfp)))
    weyl = all_weyl_elements(datum)
    roots = datum.positive_roots()

    def draw(degrees) -> ExtAffineElt:
        rows = [[rng.randint(-radius, radius) for _ in range(datum.n)] for _ in range(datum.f)]
        if degrees is not None:
            for row, deg in zip(rows, degrees):
                row[-1] += deg - sum(row)
        return ExtAffineElt(datum, datum.weight(rows), rng.choice(weyl))

    out = []
    for slot in range(count):
        w = draw(None)
        if slot % 2:
            u = draw(w.omega_degrees())
        else:
            r = affine_reflection(datum, rng.choice(roots), rng.randint(-radius, radius))
            u = r * w if rng.random() < 0.5 else w * r
        out.append((u, w))
    return out


def matched_params(tau: TameParam, count: int) -> list[TameParam]:
    """The first count of the parameters t_{w(eta)} tau, over w in
    all_weyl_elements order, that are (n-1)-deep: admissible_pair holds for
    each against tau."""
    datum = tau.datum
    out = []
    for w in all_weyl_elements(datum):
        rho = TameParam(ExtAffineElt.from_translation(datum, w.act(datum.eta())) * tau.elt)
        if (rho.lowest_alcove_depth() or -1) >= datum.n - 1:
            out.append(rho)
    return out[:count]


def _digest(values) -> str:
    text = "\n".join(json.dumps(v, sort_keys=True, separators=(",", ":")) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def _presented(mapping) -> list:
    return [[sigma.to_json(), pres.to_json()] for sigma, pres in mapping.items()]


def query_digests(nfp: tuple[int, int, int]) -> dict[str, str]:
    """The sha256 of each query kind over the seeded tau of one configuration."""
    if nfp == WOBV_ONLY:
        datum = RootDatum(*nfp)
        top = [30, 20, 10, 0]
        fin = FiniteWeylElt.from_one_line(datum, [[2, 3, 4, 1], [1, 2, 3, 4]])
        tau = TameParam(ExtAffineElt(datum, datum.weight([top, top]), fin))
        return {"wobv_with_presentations": _digest([_presented(wobv_with_presentations(tau))])}
    taus = seeded_taus(nfp, QUERY_CONFIGS[nfp])
    graphs = [connectivity_graph(tau) for tau in taus]
    digests = {
        "wset_with_presentations": _digest(_presented(wset_with_presentations(t)) for t in taus),
        "wobv_with_presentations": _digest(_presented(wobv_with_presentations(t)) for t in taus),
        "enumerate_edges": _digest([e.to_json() for e in enumerate_edges(t)] for t in taus),
        "graph_json": _digest(g.to_json() for g in graphs),
        "graph_dot": _digest(g.to_dot() for g in graphs),
        "jh_set": _digest(
            [s.to_json() for s in sorted(jh_set(t.as_dl()), key=SerreWeight.sort_key)]
            for t in taus
        ),
        "jh_outer": _digest(
            [[w.to_json(), s.to_json()] for w, s in jh_outer(t.as_dl())] for t in taus
        ),
        "presentations_of": _digest(
            [p.to_json() for p in presentations_of(s)]
            for t in taus
            for s in wset_with_presentations(t)
        ),
    }
    pairs = seeded_pairs(nfp, PAIRS_PER_CONFIG)
    digests["reduced_word"] = _digest(
        reduced_word(x) for x in [t.elt for t in taus] + [x for pair in pairs for x in pair]
    )
    digests["bruhat_leq"] = _digest([bruhat_leq(u, w), bruhat_leq(w, u)] for u, w in pairs)
    digests["up_leq"] = _digest([up_leq(u, w), up_leq(w, u)] for u, w in pairs)
    digests["max_genericity"] = _digest(
        max_genericity(R) for R in [t.as_dl() for t in taus] + [DLPresentation(w) for _, w in pairs]
    )
    # matched parameters give true verdicts; the other seeded tau, as rho,
    # give false ones at these seeds
    digests["admissible_pair"] = _digest(
        admissible_pair(rho, tau)
        for tau in taus
        for rho in matched_params(tau, MATCHED_PER_TAU) + [t for t in taus if t != tau]
    )
    if nfp in ELIMINATE_CONFIGS:
        digests["eliminate"] = _digest(
            eliminate(s, t).to_json()
            for t in taus
            for s in seeded_eliminable(t, ELIMINATED_PER_TAU)
        )
    return digests


def config_name(nfp: tuple[int, int, int]) -> str:
    return ",".join(map(str, nfp))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in COMMANDS], indent=2) + "\n")
    digests = {config_name(c): query_digests(c) for c in (*QUERY_CONFIGS, WOBV_ONLY)}
    QUERIES.write_text(json.dumps(digests, indent=2) + "\n")
