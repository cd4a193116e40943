from __future__ import annotations

import inspect
import itertools
import random

import pytest

from alcove import weights_dl
from alcove.affine_weyl import (
    ExtAffineElt,
    length,
    omega_generator,
    p_dot,
    pi_elt_inv,
    restricted_reps,
)
from alcove.herzig import (
    TameParam,
    _outer_lifts,
    wobv_with_presentations,
    wset_with_presentations,
)
from alcove.oracle import _deep_tau_samples, eta_c0_weights
from alcove.presentation_scan import c0_presentations_by_scan
from alcove.root_data import (
    DepthError,
    FiniteWeylElt,
    RootDatum,
    ValidationError,
    WeightVec,
    all_weyl_elements,
    frobenius_pi,
    in_lowest_alcove,
    is_p_restricted,
    pi_weyl,
    x0_shift,
)
from alcove.weights_dl import (
    DLPresentation,
    InvalidPresentationError,
    SerrePresentation,
    SerreWeight,
    c0_presentations,
    covers,
    d_sigma,
    dl_equal,
    is_m_generic,
    jh_outer,
    jh_set,
    jh_set_by_reflection,
    max_genericity,
    outer_family,
    presentations_of,
)


def dl(datum, rows, perm=None):
    fin = (
        FiniteWeylElt.identity(datum)
        if perm is None
        else FiniteWeylElt.from_one_line(datum, perm)
    )
    return DLPresentation(ExtAffineElt(datum, datum.weight(rows), fin))


@pytest.fixture(scope="module")
def deep_r2(d2):
    return dl(d2, [[5, 1]])


@pytest.fixture(scope="module")
def deep_r3(d3):
    return dl(d3, [[20, 10, 0]], perm=[[2, 3, 1]])


class TestSerreWeight:
    def test_rejects_non_restricted(self, d2):
        with pytest.raises(ValidationError):
            SerreWeight.from_weight(d2, d2.weight([[9, 0]]))

    def test_equality_modulo_twist_lattice(self, d2):
        lam = d2.weight([[3, 0]])
        # f = 1: the lattice is (p - 1) Z on constants
        shifted = lam + x0_shift(d2, [6])
        assert SerreWeight.from_weight(d2, lam) == SerreWeight.from_weight(d2, shifted)
        other = lam + x0_shift(d2, [3])
        assert SerreWeight.from_weight(d2, lam) != SerreWeight.from_weight(d2, other)

    def test_equality_two_embeddings(self, d22):
        lam = d22.weight([[3, 0], [4, 1]])
        a = SerreWeight.from_weight(d22, lam)
        # (p - pi) of the constant (c0, c1) = (1, 1) shifts by (p-1, p-1)
        shift = x0_shift(d22, [7, 7]) - x0_shift(d22, [1, 1])
        assert a == SerreWeight.from_weight(d22, lam + shift)
        assert a != SerreWeight.from_weight(d22, lam + x0_shift(d22, [1, 0]))

    def test_canonicalization_is_class_invariant(self, d2, d22):
        from alcove.root_data import frobenius_pi

        rng = random.Random(29)
        for datum in (d2, d22):
            for _ in range(40):
                diffs = [
                    [rng.randint(0, datum.p - 1) for _ in range(datum.n - 1)]
                    for _ in range(datum.f)
                ]
                rows = []
                for j in range(datum.f):
                    row = [rng.randint(-3, 3)] * datum.n
                    for i in range(datum.n - 2, -1, -1):
                        row[i] = row[i + 1] + diffs[j][i]
                    rows.append(row)
                lam = datum.weight(rows)
                c = x0_shift(datum, [rng.randint(-4, 4) for _ in range(datum.f)])
                twisted = lam + c.scale(datum.p) - frobenius_pi(c)
                assert SerreWeight.from_weight(datum, lam) == SerreWeight.from_weight(
                    datum, twisted
                )


class TestSerrePresentation:
    def test_trivial_weight(self, d2):
        pres = SerrePresentation(ExtAffineElt.identity(d2), d2.eta())
        assert pres.weight().lam == d2.weight([[0, 0]])

    def test_spec_evaluation(self, d2):
        pres = SerrePresentation(ExtAffineElt.identity(d2), d2.weight([[4, 0]]))
        assert pres.weight() == SerreWeight.from_weight(d2, d2.weight([[3, 0]]))

    def test_rejects_non_restricted_element(self, d2):
        t = ExtAffineElt.from_translation(d2, d2.weight([[1, 0]]))
        with pytest.raises(InvalidPresentationError):
            SerrePresentation(t, d2.eta())

    def test_rejects_omega_outside_lowest_alcove(self, d2):
        with pytest.raises(InvalidPresentationError):
            SerrePresentation(ExtAffineElt.identity(d2), d2.weight([[8, 0]]))

    def test_omega_reindexing_names_equal_weight(self, d2):
        # the length-zero reindexing (w delta^{-1}, pi^{-1}(delta) . (omega - eta) + eta),
        # with the p-dot action rescaling the reindexed base point
        delta = omega_generator(d2, 0)
        checked = 0
        for rep in restricted_reps(d2):
            for omega in eta_c0_weights(d2, rep.omega_degrees())[:3]:
                pres = SerrePresentation(rep, omega)
                other_elt = pres.w1 * delta.inverse()
                shifted = p_dot(pi_elt_inv(delta), omega - d2.eta()) + d2.eta()
                other = SerrePresentation(other_elt, shifted)
                assert other.weight() == pres.weight()
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("nfp", [(2, 1, 7), (3, 1, 37), (2, 2, 13), (2, 3, 7)])
    def test_weight_map_is_the_p_dot_value(self, nfp):
        # every restricted rep and every outer lift of the graph edges, at
        # seeded omega over C0
        datum = RootDatum(*nfp)
        rng = random.Random(repr(nfp))
        reps = restricted_reps(datum)
        lifts = [
            x
            for alpha in datum.simple_roots()
            for w2 in reps
            for x, _ in _outer_lifts(alpha, w2)
        ]
        for w1 in (*reps, *lifts):
            k, v = weights_dl._weight_map(w1)
            for _ in range(3):
                rows = []
                for _ in range(datum.f):
                    gaps = [1] * (datum.n - 1)
                    for _ in range(rng.randrange(datum.p - datum.n + 1)):
                        gaps[rng.randrange(datum.n - 1)] += 1
                    row = [rng.randint(-datum.p, datum.p)]
                    for gap in gaps:
                        row.insert(0, row[0] + gap)
                    rows.append(row)
                omega = datum.weight(rows)
                assert in_lowest_alcove(datum, omega)
                lam = p_dot(pi_elt_inv(w1), omega - datum.eta())
                assert k + v.act(omega) == lam
                pres = SerrePresentation(w1, omega)
                assert pres.weight() == SerreWeight.from_weight(datum, lam)


class TestPresentationsOf:
    def test_round_trip(self, d2, d3):
        for datum, rows in [(d2, [[3, 0]]), (d2, [[5, 2]]), (d3, [[20, 10, 0]])]:
            sigma = SerreWeight.from_weight(datum, datum.weight(rows))
            found = presentations_of(sigma)
            assert found
            for pres in found:
                assert pres.weight() == sigma

    def test_non_deep_weight_has_none(self, d2):
        # lambda + eta on a wall: pairing 0 mod p
        sigma = SerreWeight.from_weight(d2, d2.weight([[6, 0]]))
        assert sigma.depth == -1
        assert presentations_of(sigma) == []

    def test_trivial_weight_has_omega_presentation(self, d2):
        sigma = SerreWeight.from_weight(d2, d2.weight([[0, 0]]))
        assert any(length(p.w1) == 0 for p in presentations_of(sigma))


class TestDSigma:
    def test_rank_two_constant(self, d2):
        for a in range(0, 7):
            for b in range(0, 7):
                lam = d2.weight([[a + b, b]])
                if not is_p_restricted(d2, lam):
                    continue
                sigma = SerreWeight.from_weight(d2, lam)
                if sigma.is_p_regular():
                    assert d_sigma(sigma) == 1

    def test_bounded_by_h_eta(self, d3):
        rng = random.Random(7)
        seen = set()
        for _ in range(60):
            a, b = rng.randint(0, 36), rng.randint(0, 36)
            base = rng.randint(0, 5)
            lam = d3.weight([[a + b + base, b + base, base]])
            if not is_p_restricted(d3, lam):
                continue
            sigma = SerreWeight.from_weight(d3, lam)
            if sigma.is_p_regular():
                val = d_sigma(sigma)
                seen.add(val)
                assert val <= d3.h_eta
        assert seen <= {1, 2} and 2 in seen

    def test_product_datum_uses_both_embeddings(self, d22):
        lam = d22.weight([[3, 0], [4, 1]])
        sigma = SerreWeight.from_weight(d22, lam)
        assert d_sigma(sigma) == 1

    def test_rejects_irregular(self, d2):
        sigma = SerreWeight.from_weight(d2, d2.weight([[6, 0]]))
        with pytest.raises(ValidationError):
            d_sigma(sigma)


class TestDLEquality:
    def test_syntactic_equality(self, deep_r2):
        assert dl_equal(deep_r2, deep_r2)

    def test_lowest_alcove_rigidity(self, d2):
        # distinct lowest-alcove data with root-lattice-congruent translations
        # never name the same representation
        grid = [d2.weight([[a + b, b]]) for a in range(1, 7) for b in range(0, 7)]
        grid = [m for m in grid if in_lowest_alcove(d2, m)]
        weyl = all_weyl_elements(d2)
        for s, w in itertools.product(weyl, repeat=2):
            for mu, lam in itertools.product(grid, repeat=2):
                if not (mu - lam).in_root_lattice():
                    continue
                expected = mu == lam and s == w
                r1 = DLPresentation(ExtAffineElt(d2, mu, s))
                r2 = DLPresentation(ExtAffineElt(d2, lam, w))
                assert dl_equal(r1, r2) == expected

    @pytest.mark.parametrize("nfp", [(2, 1, 7), (3, 1, 37), (2, 2, 7)])
    def test_orbit_pairs_are_equal(self, nfp):
        n, f, p = nfp
        datum = RootDatum(n, f, p)
        rng = random.Random(11)
        weyl = all_weyl_elements(datum)
        for _ in range(12):
            s = rng.choice(weyl)
            mu = WeightVec(
                tuple(tuple(rng.randint(0, p) for _ in range(n)) for _ in range(f))
            )
            r = rng.choice(weyl)
            nu = WeightVec(
                tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(f))
            )
            w = r * s * pi_weyl(r).inverse()
            lam = r.act(mu) + nu.scale(p) - w.act(frobenius_pi(nu))
            r1 = DLPresentation(ExtAffineElt(datum, mu, s))
            r2 = DLPresentation(ExtAffineElt(datum, lam, w))
            assert dl_equal(r1, r2) and dl_equal(r2, r1)


class TestGenericity:
    def test_given_presentation_depth(self, deep_r2, deep_r3):
        assert deep_r2.lowest_alcove_depth() == 2
        assert deep_r3.lowest_alcove_depth() == 9

    def test_c0_presentations_stay_equal(self, deep_r2):
        reps = c0_presentations(deep_r2)
        assert reps
        assert all(dl_equal(deep_r2, q) for q in reps)

    def test_max_genericity_matches(self, deep_r2):
        assert max_genericity(deep_r2) == 2
        assert is_m_generic(deep_r2, 2)
        assert not is_m_generic(deep_r2, 3)

    @pytest.mark.parametrize("nfp", [(2, 2, 13), (4, 1, 23)])
    def test_max_genericity_at_f2_and_n4(self, nfp):
        datum = RootDatum(*nfp)
        for tau in _deep_tau_samples(datum, 3, 0, random.Random(19)):
            R = tau.as_dl()
            given = R.lowest_alcove_depth()
            top = max_genericity(R)
            assert top >= given
            assert is_m_generic(R, top)
            assert not is_m_generic(R, top + 1)

    def test_twisted_presentation_recovers_depth(self, d2):
        # start from a deep presentation, twist it out of the lowest alcove,
        # and ask the orbit search to find the depth again
        base = dl(d2, [[5, 1]])
        r = FiniteWeylElt.from_one_line(d2, [[2, 1]])
        nu = d2.weight([[1, -1]])
        w = r * base.s * pi_weyl(r).inverse()
        lam = r.act(base.mu) + nu.scale(7) - w.act(frobenius_pi(nu))
        twisted = DLPresentation(ExtAffineElt(d2, lam, w))
        assert twisted.lowest_alcove_depth() is None
        assert dl_equal(base, twisted)
        assert max_genericity(twisted) == 2

    @pytest.mark.parametrize("nfp", [(3, 1, 13), (2, 2, 7)])
    def test_lowest_alcove_test_takes_the_translation_part(self, nfp):
        # in_lowest_alcove(mu, m) says that t_mu is m-deep as given
        datum = RootDatum(*nfp)
        n, f, p = nfp
        rows = [
            row + (last,)
            for row in itertools.product(range(-1, p + 1), repeat=n - 1)
            for last in (0, 1)
        ]
        for mu in itertools.product(rows, repeat=f):
            mu = WeightVec(mu)
            R = DLPresentation(ExtAffineElt.from_translation(datum, mu))
            depth = R.lowest_alcove_depth()
            for m in range(4):
                want = depth is not None and depth >= m
                assert in_lowest_alcove(datum, mu, m) == want, (mu.entries, m)

    @pytest.mark.parametrize("nfp", [(2, 1, 7), (3, 1, 7), (2, 1, 13), (2, 2, 5)])
    def test_is_m_generic_matches_scan(self, nfp):
        # m-generic means some presentation, given or scanned, is m-deep
        datum = RootDatum(*nfp)
        n, f, p = nfp
        rng = random.Random(12)
        weyl = all_weyl_elements(datum)
        for _ in range(12):
            mu = WeightVec(
                tuple(tuple(rng.randint(-p, p) for _ in range(n)) for _ in range(f))
            )
            R = DLPresentation(ExtAffineElt(datum, mu, rng.choice(weyl)))
            candidates = [R] + c0_presentations_by_scan(R)
            for m in range(p // 2 + 1):
                want = any(
                    in_lowest_alcove(datum, q.mu, depth=m)
                    for q in candidates
                )
                assert is_m_generic(R, m) == want, (mu.entries, m)

    def test_negative_m_refused(self, deep_r2):
        with pytest.raises(ValidationError):
            is_m_generic(deep_r2, -1)

    def test_scan_takes_the_solver_parameters(self):
        def params(fn):
            return [
                (q.name, q.kind, q.default)
                for q in inspect.signature(fn).parameters.values()
            ]

        assert params(c0_presentations_by_scan) == params(c0_presentations)


class TestMemo:
    def test_cold_and_warm_results_agree(self, deep_r2, deep_r3, d22, clear_caches):
        reps = [deep_r2, deep_r3, dl(d22, [[5, 1], [4, 0]])]

        def compute(order):
            out = {}
            for R in order:
                tau = TameParam(R.elt)
                out[R] = (
                    c0_presentations(R),
                    c0_presentations(R, R.mu.degrees()),
                    jh_set(R),
                    wset_with_presentations(tau),
                    wobv_with_presentations(tau),
                )
            return [out[R] for R in reps]

        clear_caches()
        cold = compute(reps)
        clear_caches()
        compute(reps[::-1])
        warm = compute(reps)
        assert warm == cold
        # each call returns a list of its own
        warm[0][0].clear()
        assert compute(reps) == cold

    def test_one_memo_entry_per_call_style(self, deep_r2):
        memo = weights_dl._c0_presentations
        memo.cache_clear()
        results = [
            c0_presentations(deep_r2),
            c0_presentations(deep_r2, None),
            c0_presentations(deep_r2, degrees=None),
        ]
        info = memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        assert all(r == results[0] for r in results)


class TestJHSet:
    def test_shallow_presentation_refused(self, d2):
        with pytest.raises(DepthError):
            jh_set(dl(d2, [[2, 1]]))

    @pytest.mark.parametrize("memo", [jh_set, wset_with_presentations])
    def test_refused_call_is_not_stored(self, d2, memo):
        # the depth check runs inside the memo, and a call that raised is
        # never stored, so the refusal repeats
        shallow = TameParam(dl(d2, [[2, 1]]).elt)
        before = memo.cache_info().currsize
        for _ in range(2):
            with pytest.raises(DepthError):
                memo(shallow)
        assert memo.cache_info().currsize == before

    def test_rank_two_count(self, deep_r2):
        assert len(jh_set(deep_r2)) == 2

    def test_rank_three_count(self, deep_r3):
        assert len(jh_set(deep_r3)) == 9

    def test_paths_agree(self, deep_r2, deep_r3):
        for R in (deep_r2, deep_r3):
            assert jh_set(R) == jh_set_by_reflection(R)

    def test_product_datum(self, d22):
        R = dl(d22, [[5, 1], [4, 0]])
        factors = jh_set(R)
        assert len(factors) == 4
        assert factors == jh_set_by_reflection(R)

    def test_equal_presentations_equal_jh(self, d2):
        # the deep presentations of one representation differ by twists of
        # constants under (p - pi); their factor sets must coincide
        base = dl(d2, [[5, 1]])
        shift = x0_shift(d2, [7]) - x0_shift(d2, [1])
        other = DLPresentation(ExtAffineElt(d2, base.mu + shift, base.s))
        assert dl_equal(base, other)
        assert other.lowest_alcove_depth() == base.lowest_alcove_depth()
        assert jh_set(base) == jh_set(other)


class TestJHOuter:
    def test_rank_two_all_outer(self, deep_r2):
        out = jh_outer(deep_r2)
        assert len(out) == 2
        sigmas = {s for _, s in out}
        assert len(sigmas) == 2
        assert sigmas == jh_set(deep_r2)

    def test_rank_three_six_of_nine(self, deep_r3):
        out = jh_outer(deep_r3)
        assert len(out) == 6
        sigmas = {s for _, s in out}
        assert len(sigmas) == 6
        assert sigmas < jh_set(deep_r3)

    def test_each_pair_once(self, deep_r3):
        out = jh_outer(deep_r3)
        assert len({w.perms for w, _ in out}) == len(out)


class TestCovering:
    def test_reflexive(self, deep_r3):
        for _, sigma in jh_outer(deep_r3):
            if sigma.depth >= d_sigma(sigma) + deep_r3.datum.h_eta:
                assert covers(sigma, sigma)

    def test_depth_refusal(self, d2):
        shallow = SerreWeight.from_weight(d2, d2.weight([[1, 0]]))
        with pytest.raises(DepthError):
            covers(shallow, shallow)

    def test_outer_family_members_contain_kappa(self, deep_r3):
        for _, kappa in jh_outer(deep_r3):
            if kappa.depth < d_sigma(kappa) + deep_r3.datum.h_eta:
                continue
            for R in outer_family(kappa):
                assert kappa in jh_set(R)
            break

    def test_isolating_consequence(self, deep_r2):
        # covering plus outer membership forces equality
        outer = {s for _, s in jh_outer(deep_r2)}
        factors = jh_set(deep_r2)
        for kappa in factors:
            if kappa.depth < d_sigma(kappa) + deep_r2.datum.h_eta:
                continue
            for sigma in outer:
                if covers(kappa, sigma):
                    assert kappa == sigma


class TestGenericityPropagation:
    def test_deep_outer_weight_forces_genericity(self, deep_r3):
        # a representation with an (m + d)-deep outer factor is m-generic
        for _, sigma in jh_outer(deep_r3):
            m = sigma.depth - d_sigma(sigma)
            if m <= 0:
                continue
            for R in outer_family(sigma):
                assert is_m_generic(R, m)
            break
