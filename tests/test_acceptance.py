"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is exact (these are integer/combinatorial identities); a
criterion fails loudly with its first witnesses rather than being weakened.
Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from alcove import affine_weyl as aw
from alcove import herzig as hz
from alcove.affine_weyl import ExtAffineElt
from alcove.cli import EXIT_OK, main as cli_main
from alcove.oracle import (
    SweepConfig,
    _deep_tau_samples,
    _restricted_weight_pool,
    brute_bruhat,
    brute_up,
    elements_of_length_leq,
    hyperplane_count_length,
    lemma_sweeps,
    subword_closure,
)
from alcove.root_data import RootDatum, WeightVec, all_weyl_elements

ORDER_CONFIGS = [(2, 1, 7), (3, 1, 37), (2, 2, 7)]


def report(number: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: {status}{suffix}")
    assert passed, f"criterion {number} failed: {detail}"


class TestAcceptance:
    def test_1_order_theory_equivalence(self):
        t0 = time.time()
        mismatches = []
        for n, f, p in ORDER_CONFIGS:
            datum = RootDatum(n, f, p)
            elems = elements_of_length_leq(datum, 6)
            for w in elems:
                subword_closure(w)
            for u, w in itertools.product(elems, repeat=2):
                if brute_bruhat(u, w) != aw.bruhat_leq(u, w):
                    mismatches.append(("bruhat", n, f, u.key(), w.key()))
                if brute_up(u, w) != aw.up_leq(u, w):
                    mismatches.append(("up", n, f, u.key(), w.key()))
            # cross-Omega pairs: both orders refuse
            delta = aw.omega_generator(datum, 0)
            for u in elems[:10]:
                if aw.bruhat_leq(u, u * delta) or aw.up_leq(u, u * delta):
                    mismatches.append(("omega", n, f, u.key()))
        elapsed = time.time() - t0
        report(
            1,
            "order-theory equivalence",
            not mismatches and elapsed <= 300,
            f"{len(mismatches)} discrepancies, {elapsed:.0f}s",
        )

    def test_2_length_agreement(self):
        t0 = time.time()
        rng = random.Random(2024)
        bad = 0
        per_config = 100_000
        for n, f, p in ORDER_CONFIGS:
            datum = RootDatum(n, f, p)
            weyl = all_weyl_elements(datum)
            for _ in range(per_config):
                lam = WeightVec(
                    tuple(
                        tuple(rng.randint(-20, 20) for _ in range(n))
                        for _ in range(f)
                    )
                )
                x = ExtAffineElt(datum, lam, rng.choice(weyl))
                if aw.length(x) != hyperplane_count_length(x):
                    bad += 1
        report(
            2,
            "length agreement",
            bad == 0,
            f"{3 * per_config} samples, {bad} mismatches, {time.time() - t0:.0f}s",
        )

    def test_3_lemma_sweeps(self):
        t0 = time.time()
        names = (
            "reduced1",
            "omega",
            "reduced2",
            "subregular",
            "reduced_factorizations",
            "zero_gen",
        )
        failures = []
        for n, p in [(2, 7), (3, 37)]:
            config = SweepConfig(
                n=n, f=1, p=p, box_radius=3, tau_samples=4, sweeps=names
            )
            rep = lemma_sweeps(config)
            for result in rep.results:
                if result.skipped or result.checked == 0 or not result.passed:
                    failures.append((n, result.name, result.to_json()))
        elapsed = time.time() - t0
        report(
            3,
            "lemma sweeps",
            not failures and elapsed <= 1800,
            f"{len(failures)} failing sweeps, {elapsed:.0f}s",
        )

    def test_4_dual_path_herzig_sets(self):
        t0 = time.time()
        # p = 13 for the first row: p = 7 admits fewer than 100 distinct
        # 1-deep parameters at rank two
        expectations = {
            (2, 1, 13): (2, 2),
            (3, 1, 37): (9, 6),
            (2, 2, 7): (4, 4),
        }
        problems = []
        for (n, f, p), (wset_size, wobv_size) in expectations.items():
            datum = RootDatum(n, f, p)
            rng = random.Random(41)
            seen = set()
            taus = []
            guard = 0
            while len(taus) < 100 and guard < 4000:
                guard += 1
                tau = _deep_tau_samples(datum, 1, datum.h_eta, rng)[0]
                if tau.elt.key() in seen:
                    continue
                seen.add(tau.elt.key())
                taus.append(tau)
            if len(taus) < 100:
                problems.append((n, f, p, "could not sample 100 parameters"))
                continue
            import math

            assert wobv_size == math.factorial(n) ** f
            for tau in taus:
                characterized = hz.wset(tau)
                defined = hz.wset_by_definition(tau)
                if characterized != defined:
                    problems.append((n, f, p, "path disagreement", tau.elt.key()))
                if len(characterized) != wset_size:
                    problems.append((n, f, p, "wset size", len(characterized)))
                if len(hz.wobv(tau)) != wobv_size:
                    problems.append((n, f, p, "wobv size"))
        report(
            4,
            "dual-path predicted sets",
            not problems,
            f"100 parameters x {len(expectations)} configs, "
            f"{len(problems)} problems, {time.time() - t0:.0f}s",
        )

    def test_5_obvweight_isolating_covering(self):
        t0 = time.time()
        failures = []
        for n, p in [(2, 13), (3, 37)]:
            config = SweepConfig(
                n=n,
                f=1,
                p=p,
                box_radius=3,
                tau_samples=4,
                sweeps=("obvweight", "isolating", "covering_char"),
            )
            rep = lemma_sweeps(config)
            for result in rep.results:
                if result.skipped or result.checked == 0 or not result.passed:
                    failures.append((n, result.name, result.to_json()))
        report(
            5,
            "outer-weight propositions",
            not failures,
            f"{len(failures)} failing sweeps, {time.time() - t0:.0f}s",
        )

    def test_6_elimination_totality(self):
        t0 = time.time()
        checked = 0
        failures = []
        for n, p, cap in [(2, 7, 10**9), (3, 37, 700)]:
            datum = RootDatum(n, 1, p)
            pool = _restricted_weight_pool(datum)
            if len(pool) > cap:
                stride = -(-len(pool) // cap)
                pool = pool[::stride]
            rng = random.Random(6)
            for tau in _deep_tau_samples(datum, 2, datum.h_eta, rng):
                members = hz.wset(tau)
                for sigma in pool:
                    if sigma in members:
                        continue
                    checked += 1
                    try:
                        cert = hz.eliminate(sigma, tau)
                    except Exception as exc:  # noqa: BLE001 - reported below
                        failures.append((n, sigma.lam.entries, repr(exc)))
                        continue
                    if not cert.verify():
                        failures.append((n, sigma.lam.entries, "replay failed"))
        report(
            6,
            "elimination totality",
            checked > 0 and not failures,
            f"{checked} certificates, {len(failures)} failures, "
            f"{time.time() - t0:.0f}s",
        )

    def test_7_connectivity(self):
        t0 = time.time()
        failures = []
        graphs = 0
        for n, p in [(2, 7), (3, 37)]:
            datum = RootDatum(n, 1, p)
            rng = random.Random(7)
            for tau in _deep_tau_samples(datum, 8, 2 * datum.h_eta, rng):
                graphs += 1
                graph = hz.connectivity_graph(tau)
                if not graph.is_connected():
                    failures.append((n, tau.elt.key(), "disconnected"))
                dist = graph.distance_to_extremal()
                if any(v is None for v in dist.values()):
                    failures.append((n, tau.elt.key(), "unreachable extremal"))
                for sigma in graph.vertices:
                    chain = graph.chain_to_extremal(sigma)
                    if chain is None or chain[-1] not in graph.extremal:
                        failures.append((n, tau.elt.key(), "no chain"))
                        break
        report(
            7,
            "connectivity",
            graphs == 16 and not failures,
            f"{graphs} graphs, {len(failures)} failures, {time.time() - t0:.0f}s",
        )

    def test_8_mutation_sensitivity(self):
        t0 = time.time()
        plans = [
            ("drop-restricted-hypothesis", "omega", 3, 37),
            ("drop-dominant-hypothesis", "reduced1", 3, 37),
            ("drop-lattice-hypothesis", "zero_gen", 2, 7),
        ]
        silent = []
        for mutation, sweep, n, p in plans:
            config = SweepConfig(
                n=n,
                f=1,
                p=p,
                box_radius=1,
                tau_samples=2,
                mutations=frozenset([mutation]),
                sweeps=(sweep,),
            )
            rep = lemma_sweeps(config)
            if rep.passed:
                silent.append(mutation)
        report(
            8,
            "mutation sensitivity",
            not silent,
            f"{len(plans)} mutations, silent: {silent}, {time.time() - t0:.0f}s",
        )

    def test_9_cli_determinism(self, tmp_path):
        t0 = time.time()
        goldens = [
            (
                "wset.json",
                ["wset", "--n", "3", "--f", "1", "--p", "37",
                 "--s", "231", "--mu", "20,10,0"],
            ),
            (
                "graph.dot",
                ["graph", "--n", "2", "--f", "1", "--p", "7",
                 "--s", "21", "--mu", "5,1", "--format", "dot"],
            ),
            (
                "graph.json",
                ["graph", "--n", "3", "--f", "1", "--p", "37",
                 "--s", "231", "--mu", "20,10,0", "--format", "json"],
            ),
            (
                "verify.json",
                ["verify", "--n", "2", "--f", "1", "--p", "13",
                 "--tau-samples", "1", "--pair-samples", "1",
                 "--sweep", "omega", "--sweep", "zero_gen"],
            ),
        ]
        unstable = []
        for name, argv in goldens:
            outputs = set()
            for run in range(3):
                target = tmp_path / f"{name}.{run}"
                code = cli_main(argv + ["--out", str(target)])
                if code != EXIT_OK:
                    unstable.append((name, f"exit {code}"))
                    break
                outputs.add(target.read_bytes())
            if len(outputs) > 1:
                unstable.append((name, "outputs differ"))
        report(
            9,
            "CLI determinism",
            not unstable,
            f"{len(goldens)} golden configs x 3 runs, unstable: {unstable}, "
            f"{time.time() - t0:.0f}s",
        )
