from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcove.root_data import (
    FiniteWeylElt,
    Root,
    RootDatum,
    ValidationError,
    _is_prime,
    all_weyl_elements,
    depth_of,
    frobenius_pi,
    frobenius_pi_inv,
    h_value,
    in_lowest_alcove,
    pairing,
)


def all_roots(datum):
    """Every root: the positive roots and their negatives."""
    pos = datum.positive_roots()
    return [*pos, *(Root(r.j, r.k, r.i) for r in pos)]


def small_datum():
    return st.sampled_from(
        [RootDatum(2, 1, 7), RootDatum(3, 1, 7), RootDatum(2, 2, 7), RootDatum(3, 2, 11)]
    )


def weight_for(datum, lo=-5, hi=5):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=datum.n, max_size=datum.n),
        min_size=datum.f,
        max_size=datum.f,
    ).map(lambda rows: datum.weight(rows))


class TestRootDatum:
    def test_rejects_rank_one(self):
        with pytest.raises(ValidationError):
            RootDatum(1, 1, 7)

    def test_rejects_composite_p(self):
        with pytest.raises(ValidationError):
            RootDatum(2, 1, 9)

    def test_rejects_small_p(self):
        # C0 has no lattice points when p <= n - 1
        with pytest.raises(ValidationError):
            RootDatum(3, 1, 2)

    def test_primality_agrees_with_trial_division(self):
        def by_trial_division(p):
            return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

        assert all(_is_prime(p) == by_trial_division(p) for p in range(2 * 10**4))

    def test_large_p_decided_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="is not prime"):
            RootDatum(2, 1, 100000007 * 100000037)
        assert RootDatum(2, 1, 2**61 - 1).p == 2**61 - 1
        with pytest.raises(ValidationError, match="too large"):
            RootDatum(2, 1, 2**64 + 13)
        assert time.perf_counter() - start < 1.0

    def test_eta_pairs_to_one_on_simple_roots(self, d3):
        eta = d3.eta()
        for alpha in d3.simple_roots():
            assert pairing(eta, alpha) == 1

    def test_root_counts(self, d3, d22):
        assert len(d3.positive_roots()) == 3
        assert len(all_roots(d3)) == 6
        assert len(d22.positive_roots()) == 2

    def test_fixed_tables_are_built_once(self, d22):
        for table in (RootDatum.eta, RootDatum.simple_roots, RootDatum.positive_roots):
            first = table(d22)
            assert table(d22) is first
            assert table(RootDatum(2, 2, 7)) is first
        for roots in (d22.simple_roots(), d22.positive_roots()):
            assert isinstance(roots, tuple)
        assert isinstance(d22.eta().entries, tuple)


class TestPairing:
    def test_zero_weight(self, d2):
        assert pairing(d2.zero(), Root(0, 0, 1)) == 0

    def test_eta_against_simple_coroot(self, d2):
        assert pairing(d2.weight([[1, 0]]), Root(0, 0, 1)) == 1

    def test_highest_root_evaluation(self, d3):
        assert pairing(d3.weight([[2, 1, 0]]), Root(0, 0, 2)) == 2

    @given(datum=small_datum(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bilinear_and_equivariant(self, datum, data):
        lam = data.draw(weight_for(datum))
        mu = data.draw(weight_for(datum))
        roots = all_roots(datum)
        beta = data.draw(st.sampled_from(roots))
        w = data.draw(st.sampled_from(all_weyl_elements(datum)))
        assert pairing(lam + mu, beta) == pairing(lam, beta) + pairing(mu, beta)
        assert pairing(w.act(lam), beta) == pairing(lam, w.inverse().act_root(beta))


class TestHValue:
    def test_x0_exactly_zero(self, d2):
        assert h_value(d2.weight([[3, 3]])) == 0

    def test_eta_value(self, d3):
        assert h_value(d3.eta()) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_eta_equals_h_eta(self, n):
        datum = RootDatum(n, 1, 11)
        assert h_value(datum.eta()) == n - 1 == datum.h_eta

    @given(datum=small_datum(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_detects_x0(self, datum, data):
        lam = data.draw(weight_for(datum))
        assert h_value(lam) >= 0
        # X^0: every embedding component is constant
        assert (h_value(lam) == 0) == all(len(set(row)) == 1 for row in lam.entries)

    @given(datum=small_datum(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_root_loop(self, datum, data):
        lam = data.draw(weight_for(datum))
        assert h_value(lam) == max(pairing(lam, b) for b in all_roots(datum))


class TestFrobenius:
    def test_single_embedding_identity(self, d2):
        lam = d2.weight([[4, 1]])
        assert frobenius_pi(lam) == lam

    def test_two_embeddings_swap(self, d22):
        lam = d22.weight([[1, 0], [3, 2]])
        assert frobenius_pi(lam) == d22.weight([[3, 2], [1, 0]])

    def test_fixes_eta(self, d22):
        assert frobenius_pi(d22.eta()) == d22.eta()

    @given(datum=small_datum(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_automorphism_of_order_dividing_f(self, datum, data):
        lam = data.draw(weight_for(datum))
        mu = data.draw(weight_for(datum))
        assert frobenius_pi(lam + mu) == frobenius_pi(lam) + frobenius_pi(mu)
        cur = lam
        for _ in range(datum.f):
            cur = frobenius_pi(cur)
        assert cur == lam
        assert frobenius_pi_inv(frobenius_pi(lam)) == lam

    @given(datum=small_datum(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_commutes_with_weyl_action_up_to_shift(self, datum, data):
        from alcove.root_data import pi_weyl

        lam = data.draw(weight_for(datum))
        w = data.draw(st.sampled_from(all_weyl_elements(datum)))
        assert frobenius_pi(w.act(lam)) == pi_weyl(w).act(frobenius_pi(lam))


class TestDepth:
    def test_wall_weight_not_zero_deep(self, d2):
        # lam + eta on the level-zero wall
        lam = d2.weight([[-1, 0]])
        assert depth_of(d2, lam) == -1

    def test_depth_is_strict_wall_distance(self, d2):
        # lam + eta pairs to 4; the nearest wall multiple of 7 is at distance
        # 3, and the inequality is strict, so the depth tops out at 2
        lam = d2.weight([[3, 0]])
        assert depth_of(d2, lam) == 2

    def test_lowest_alcove_restatement(self, d2):
        # lam - eta in C0 exactly when all pairings of lam lie in (0, p)
        for a in range(-2, 10):
            lam = d2.weight([[a, 0]])
            expected = 0 < a < 7
            assert in_lowest_alcove(d2, lam) == expected

    @given(datum=small_datum(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_depth(self, datum, data):
        # lam is m-deep iff every wall of lam + eta is more than m away, so
        # depth_of is the least such distance minus one
        lam = data.draw(weight_for(datum, -8, 8))
        shifted = lam + datum.eta()
        distances = [
            abs(pairing(shifted, beta) - k * datum.p)
            for beta in datum.positive_roots()
            for k in range(-20, 21)
        ]
        assert depth_of(datum, lam) == min(distances) - 1


class TestFiniteWeyl:
    def test_group_laws(self, d3):
        elems = all_weyl_elements(d3)
        assert len(elems) == 6
        e = FiniteWeylElt.identity(d3)
        for w in elems:
            assert w * w.inverse() == e

    def test_action_permutes_entries(self, d3):
        w0 = FiniteWeylElt.longest(d3)
        lam = d3.weight([[5, 2, 0]])
        assert w0.act(lam) == d3.weight([[0, 2, 5]])

    def test_one_line_parsing(self, d3):
        w = FiniteWeylElt.from_one_line(d3, [[2, 3, 1]])
        lam = d3.weight([[5, 2, 0]])
        # position i of the result reads position w^{-1}(i)
        assert w.act(lam) == d3.weight([[0, 5, 2]])

    def test_action_matches_its_definition(self):
        # (w . lam)[j][i] = lam[j][w_j^{-1}(i)], for every element at (3,2,p)
        datum = RootDatum(3, 2, 7)
        rng = random.Random(41)
        for w in all_weyl_elements(datum):
            inv = w.inverse().perms
            for _ in range(3):
                lam = datum.weight(
                    [[rng.randint(-9, 9) for _ in range(3)] for _ in range(2)]
                )
                expected = [
                    [lam.entries[j][inv[j][i]] for i in range(3)] for j in range(2)
                ]
                assert w.act(lam) == datum.weight(expected)

    def test_one_line_rejects_garbage(self, d3):
        with pytest.raises(ValidationError):
            FiniteWeylElt.from_one_line(d3, [[1, 1, 2]])
