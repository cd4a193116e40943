from __future__ import annotations

import ast
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import alcove
from alcove import affine_weyl as aw
from alcove.affine_weyl import ExtAffineElt, omega_generator
from alcove.oracle import (
    MUTATIONS,
    ORACLE_LENGTH_BUDGET,
    SweepConfig,
    _deep_tau_samples,
    _restricted_weight_pool,
    all_reduced_words,
    brute_bruhat,
    brute_up,
    elements_of_length_leq,
    hyperplane_count_length,
    lemma_sweeps,
    subword_closure,
)
from alcove.root_data import (
    BudgetError,
    RootDatum,
    WeightVec,
    all_weyl_elements,
)
from alcove.weights_dl import _canonical_omega


class TestHyperplaneLength:
    @pytest.mark.parametrize("nfp", [(2, 1, 7), (3, 1, 37), (2, 2, 7)])
    def test_agrees_with_closed_form(self, nfp):
        n, f, p = nfp
        datum = RootDatum(n, f, p)
        rng = random.Random(23)
        weyl = all_weyl_elements(datum)
        for _ in range(500):
            lam = WeightVec(
                tuple(tuple(rng.randint(-8, 8) for _ in range(n)) for _ in range(f))
            )
            x = ExtAffineElt(datum, lam, rng.choice(weyl))
            assert hyperplane_count_length(x) == aw.length(x)

    @pytest.mark.parametrize("nfp", [(2, 1, 7), (3, 1, 7), (2, 2, 7)])
    def test_exhaustive_small_box(self, nfp):
        n, f, p = nfp
        datum = RootDatum(n, f, p)
        rng = range(-2, 3)
        rows = list(itertools.product(rng, repeat=n))
        for combo in itertools.product(rows, repeat=f):
            lam = WeightVec(combo)
            for w in all_weyl_elements(datum):
                x = ExtAffineElt(datum, lam, w)
                assert hyperplane_count_length(x) == aw.length(x)


class TestBruteBruhat:
    def test_reflexive(self, d2):
        u = omega_generator(d2, 0)
        assert brute_bruhat(u, u)

    def test_cross_omega_false(self, d2):
        assert not brute_bruhat(ExtAffineElt.identity(d2), omega_generator(d2, 0))

    def test_budget_guard(self, d2):
        big = ExtAffineElt.from_translation(d2, d2.weight([[9, -9]]))
        with pytest.raises(BudgetError):
            brute_bruhat(ExtAffineElt.identity(d2), big)

    def test_budget_checked_before_cache(self, d2):
        # the budget check runs inside the memo, and a call that raised is
        # never stored, so the refusal repeats
        t = ExtAffineElt.from_translation(d2, d2.weight([[5, -5]]))
        wa = aw.omega_decompose(t).wa
        assert aw.length(wa) > ORACLE_LENGTH_BUDGET
        before = subword_closure.cache_info().currsize
        for _ in range(2):
            with pytest.raises(BudgetError):
                subword_closure(wa)
        assert subword_closure.cache_info().currsize == before

    def test_word_count_and_closure(self, d3):
        t_eta = ExtAffineElt.from_translation(d3, d3.eta())
        dec = aw.omega_decompose(t_eta)
        words = all_reduced_words(dec.wa)
        assert len(words) >= 2
        assert all(len(w) == aw.length(dec.wa) for w in words)
        closure = subword_closure(dec.wa)
        assert len(closure) == len(aw.bruhat_interval(dec.wa))

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_fast_path(self, n):
        datum = RootDatum(n, 1, 7)
        elems = elements_of_length_leq(datum, 4)
        for u, w in itertools.product(elems, repeat=2):
            assert brute_bruhat(u, w) == aw.bruhat_leq(u, w)


class TestBruteUp:
    def test_identity_chain(self, d2):
        e = ExtAffineElt.identity(d2)
        assert brute_up(e, e)

    def test_agrees_with_fast_path(self, d3):
        elems = elements_of_length_leq(d3, 4)
        for u, w in itertools.product(elems, repeat=2):
            assert brute_up(u, w) == aw.up_leq(u, w)

    def test_no_chain_in_sufficient_window(self, d2):
        t10 = ExtAffineElt.from_translation(d2, d2.weight([[1, 0]]))
        t01 = ExtAffineElt.from_translation(d2, d2.weight([[0, 1]]))
        assert not brute_up(t10, t01)


class TestRestrictedWeightPool:
    @pytest.mark.parametrize("nfp", [(3, 1, 7), (2, 2, 5)])
    def test_candidates_are_distinct_and_canonical(self, nfp):
        datum = RootDatum(*nfp)
        lams = [sigma.lam for sigma in _restricted_weight_pool(datum)]
        assert lams
        assert len(set(lams)) == len(lams)
        assert all(_canonical_omega(datum, lam) == lam for lam in lams)


class TestDeepTauSamples:
    def test_zero_deep_parameters_are_kept(self):
        taus = _deep_tau_samples(RootDatum(3, 1, 19), 4, 0, random.Random(2024))
        depths = [tau.lowest_alcove_depth() for tau in taus]
        assert all(d is not None and d >= 0 for d in depths)
        assert 0 in depths


class TestSweeps:
    def test_small_clean_sweep_passes(self, d2_13):
        cfg = SweepConfig(
            n=2, f=1, p=13, box_radius=2, tau_samples=2, pair_samples=2
        )
        report = lemma_sweeps(cfg)
        assert report.passed
        for result in report.results:
            assert result.skipped is None
            assert result.checked > 0

    def test_two_embedding_sweep_passes(self, d22):
        cfg = SweepConfig(
            n=2, f=2, p=7, box_radius=1, tau_samples=2, pair_samples=2,
            sweeps=(
                "reduced1", "omega", "reduced2", "subregular",
                "reduced_factorizations", "zero_gen", "jh_paths",
                "herzig_dual", "obvweight", "connectivity",
            ),
        )
        report = lemma_sweeps(cfg)
        assert report.passed
        for result in report.results:
            assert result.skipped is None, result.name
            assert result.checked > 0, result.name

    @pytest.mark.parametrize(
        "n,f,p", [(2, 1, 7), (3, 1, 13), (2, 2, 7), (4, 1, 11)]
    )
    def test_presentation_solve_matches_scan(self, n, f, p):
        cfg = SweepConfig(
            n=n, f=f, p=p, tau_samples=1 if f > 1 else 3,
            sweeps=("presentations",),
        )
        result = lemma_sweeps(cfg).results[0]
        assert result.skipped is None
        assert result.checked > 0
        assert result.passed, result.counterexamples

    def test_presentation_sweep_skips_large_scans(self):
        cfg = SweepConfig(n=2, f=2, p=13, sweeps=("presentations",))
        result = lemma_sweeps(cfg).results[0]
        assert result.skipped is not None
        assert result.checked == 0

    def test_report_serializes(self, d2_13):
        cfg = SweepConfig(
            n=2, f=1, p=13, box_radius=1, tau_samples=1, pair_samples=1,
            sweeps=("omega", "zero_gen"),
        )
        payload = lemma_sweeps(cfg).to_json()
        text = json.dumps(payload, sort_keys=True)
        assert json.loads(text) == payload

    def test_depth_starved_sweep_is_skipped_not_weakened(self):
        cfg = SweepConfig(n=2, f=1, p=7, sweeps=("isolating",))
        report = lemma_sweeps(cfg)
        result = report.results[0]
        assert result.skipped is not None
        assert result.checked == 0
        assert report.passed  # skip is visible, not a failure

    def test_unknown_mutation_rejected(self):
        cfg = SweepConfig(n=2, f=1, p=7, mutations=frozenset(["nonsense"]))
        with pytest.raises(ValueError):
            lemma_sweeps(cfg)

    @pytest.mark.parametrize(
        "mutation,sweep,n,p",
        [
            ("drop-restricted-hypothesis", "omega", 2, 7),
            ("drop-restricted-hypothesis", "omega", 3, 37),
            ("drop-dominant-hypothesis", "reduced1", 3, 37),
            ("drop-lattice-hypothesis", "zero_gen", 2, 7),
            ("drop-lattice-hypothesis", "zero_gen", 3, 37),
        ],
    )
    def test_mutations_fire(self, mutation, sweep, n, p):
        assert mutation in MUTATIONS
        cfg = SweepConfig(
            n=n, f=1, p=p, box_radius=1, tau_samples=2, pair_samples=2,
            mutations=frozenset([mutation]), sweeps=(sweep,),
        )
        report = lemma_sweeps(cfg)
        assert not report.passed
        assert any(r.counterexamples for r in report.results)


def imported_names(module):
    source = (Path(alcove.__file__).parent / f"{module}.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["alcove" if node.level else "", node.module]))
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    return imported


@pytest.mark.parametrize("module", ["root_data", "affine_weyl", "weights_dl", "herzig"])
def test_fast_layer_does_not_import_the_oracle(module):
    # the oracle is an independent reference only while the fast layer
    # shares none of its code
    assert not imported_names(module) & {"alcove.oracle", "alcove.presentation_scan"}


@pytest.mark.parametrize("module", ["root_data", "affine_weyl", "weights_dl", "herzig"])
def test_fast_layer_does_not_import_fractions(module):
    # the fast layer locates alcoves by integer points; rational sample
    # points belong to the oracle
    assert "fractions" not in imported_names(module)


@pytest.mark.parametrize("module", ["alcove", "alcove.cli"])
def test_answer_path_does_not_load_the_oracle(module):
    # cli imports the oracle inside cmd_verify, which the AST check above
    # would count, so a fresh process reports what the import really loads
    src = str(Path(alcove.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    loaded = set(json.loads(result.stdout))
    assert module in loaded
    assert not loaded & {"alcove.oracle", "alcove.presentation_scan"}
