from __future__ import annotations

import dataclasses
import json
import random

import pytest

from alcove import herzig, weights_dl
from alcove.affine_weyl import (
    ExtAffineElt,
    _generator_walls,
    bruhat_interval,
    coxeter_generators,
    diamond,
    is_dominant_elt,
    length,
    restricted_reps,
    simple_reflection,
    w0_element,
    wh_element,
)
from alcove.herzig import (
    ConnectionEdge,
    NotEliminableError,
    TameParam,
    _edge_factors,
    _wset_table,
    admissible_pair,
    connectivity_graph,
    eliminate,
    enumerate_edges,
    equivalence_report,
    herzig_twist,
    wobv,
    wobv_with_presentations,
    wset,
    wset_by_definition,
    wset_with_presentations,
)
from alcove.oracle import _deep_tau_samples
from alcove.root_data import (
    BudgetError,
    DepthError,
    FiniteWeylElt,
    RootDatum,
    all_weyl_elements,
    frobenius_pi,
    in_lowest_alcove,
    is_p_restricted,
    x0_shift,
)
from alcove.weights_dl import (
    DLPresentation,
    SerrePresentation,
    SerreWeight,
    _rep_maps,
    c0_presentations,
    d_sigma,
    jh_set,
)


def tame(datum, rows, perm=None):
    fin = (
        FiniteWeylElt.identity(datum)
        if perm is None
        else FiniteWeylElt.from_one_line(datum, perm)
    )
    return TameParam(ExtAffineElt(datum, datum.weight(rows), fin))


@pytest.fixture(scope="module")
def tau2(d2):
    return tame(d2, [[5, 1]])


@pytest.fixture(scope="module")
def tau3(d3):
    return tame(d3, [[20, 10, 0]], perm=[[2, 3, 1]])


class TestTameParam:
    def test_is_a_dl_presentation_of_another_class(self, d2, d22):
        taus = (tame(d2, [[5, 1]]), tame(d22, [[5, 1], [4, 1]], perm=[[2, 1], [1, 2]]))
        for tau in taus:
            R = DLPresentation(tau.elt)
            assert isinstance(tau, DLPresentation)
            assert tau.lowest_alcove_depth() == R.lowest_alcove_depth()
            assert tau.to_json() == R.to_json()
            assert tau.datum == R.datum
            assert tau != R
            assert type(tau.as_dl()) is DLPresentation
            assert tau.as_dl() == R


class TestWset:
    def test_shallow_refused(self, d2):
        with pytest.raises(DepthError):
            wset(tame(d2, [[2, 1]]))

    def test_counts(self, tau2, tau3):
        assert len(wset(tau2)) == 2
        assert len(wset(tau3)) == 9

    def test_dual_paths_agree(self, tau2, tau3):
        assert wset(tau2) == wset_by_definition(tau2)
        assert wset(tau3) == wset_by_definition(tau3)

    def test_product_datum(self, d22):
        tau = tame(d22, [[5, 1], [4, 0]])
        members = wset(tau)
        assert len(members) == 4
        assert members == wset_by_definition(tau)

    @pytest.mark.parametrize("nfp,size", [((3, 2, 13), 81), ((4, 1, 23), 88)])
    def test_dual_paths_agree_at_f2_and_n4(self, nfp, size):
        datum = RootDatum(*nfp)
        tau = _deep_tau_samples(datum, 1, datum.h_eta, random.Random(13))[0]
        members = wset(tau)
        assert len(members) == size
        assert wset_by_definition(tau) == members

    @pytest.mark.parametrize("n", [6, 9])
    def test_interval_budget_refused_before_the_reps_are_built(self, n, monkeypatch):
        # the interval below w0 has length n(n-1)/2 > 14; building the n!
        # restricted reps first made n = 9 take tens of seconds to refuse
        def refuse(*args, **kwargs):
            raise AssertionError("restricted reps built before the budget test")

        for module in (herzig, weights_dl):
            monkeypatch.setattr(module, "restricted_reps", refuse)
        datum = RootDatum(n, 1, 101)
        tau = tame(datum, [[10 * (n - i) for i in range(n)]], [[*range(2, n + 1), 1]])
        with pytest.raises(BudgetError):
            wset(tau)

    def test_twist_is_bijective_on_members(self, tau3):
        factors = jh_set(tau3.as_dl())
        twisted = {herzig_twist(s) for s in factors}
        assert len(twisted) == len(factors)


class TestImmutableResults:
    def test_memoised_results_refuse_mutation(self, d2, tau2):
        members, obvious = wset(tau2), wobv(tau2)
        reps, gens = list(restricted_reps(d2)), list(coxeter_generators(d2))
        sigma = next(iter(members))
        for view in (wset_with_presentations(tau2), wobv_with_presentations(tau2)):
            with pytest.raises((TypeError, AttributeError)):
                view.clear()
            with pytest.raises((TypeError, AttributeError)):
                view[sigma] = None
        for seq in (
            restricted_reps(d2),
            coxeter_generators(d2),
            _generator_walls(d2),
            _wset_table(d2),
            _rep_maps(d2),
            _edge_factors(d2),
            *_edge_factors(d2),
        ):
            with pytest.raises((TypeError, AttributeError)):
                seq.pop()
            with pytest.raises((TypeError, AttributeError)):
                seq[0] = None
        for rep, by_fin in zip(restricted_reps(d2), _wset_table(d2)):
            with pytest.raises(TypeError):
                by_fin[rep.fin] = ()
        top = w0_element(d2) * restricted_reps(d2)[1]
        interval = bruhat_interval(top)
        bruhat_interval(top).clear()
        assert bruhat_interval(top) == interval
        assert (wset(tau2), wobv(tau2)) == (members, obvious)
        assert list(restricted_reps(d2)) == reps
        assert list(coxeter_generators(d2)) == gens
        assert len(members) == 2


def _by_length(elements):
    return sorted(elements, key=lambda x: (length(x), x.key()))


def _reference_wset(tau):
    """The scan of every element of each sorted interval below w0 rep."""
    datum = tau.datum
    out = {}
    for rep in restricted_reps(datum):
        for x in _by_length(bruhat_interval(w0_element(datum) * rep)):
            y = tau.elt * x.inverse()
            if not y.fin.is_identity():
                continue
            if not in_lowest_alcove(datum, y.trans):
                continue
            pres = SerrePresentation(rep, y.trans)
            out.setdefault(pres.weight(), pres)
    return list(out.items())


def _reference_wobv(tau):
    """Every restricted rep inverted and multiplied per tau."""
    datum = tau.datum
    out = {}
    for rep in restricted_reps(datum):
        omega = (tau.elt * rep.inverse()).trans
        if not in_lowest_alcove(datum, omega):
            continue
        pres = SerrePresentation(rep, omega)
        out.setdefault(pres.weight(), pres)
    return list(out.items())


def _reference_edges(tau):
    """The nested alpha / w2 / w1 loop, every product formed per tau."""
    datum = tau.datum
    w0, wh_inv = w0_element(datum), wh_element(datum).inverse()
    out = []
    for alpha in datum.simple_roots():
        s_alpha = simple_reflection(datum, alpha)
        for w2 in restricted_reps(datum):
            for w1 in _by_length(bruhat_interval(wh_inv * w2)):
                if not is_dominant_elt(w1):
                    continue
                w = tau.elt * (w2.inverse() * s_alpha * w0 * w1).inverse()
                if not in_lowest_alcove(datum, w.trans, depth=datum.h_eta):
                    continue
                R = DLPresentation(w)
                a, b = (
                    SerrePresentation(
                        wh_inv * lift, R.elt.act_weight(lift.inverse().trans)
                    ).weight()
                    for lift in (w2, diamond(s_alpha * w2))
                )
                if a != b:
                    out.append(ConnectionEdge(a, b, R, alpha, w1, w2).to_json())
    return out


class TestPerDatumTables:
    @pytest.mark.parametrize(
        "nfp, count",
        [
            ((3, 1, 37), 3),
            ((2, 2, 13), 3),
            ((3, 2, 37), 1),
            ((4, 1, 29), 1),
            ((2, 3, 7), 2),
            ((4, 1, 41), 1),
        ],
    )
    def test_outputs_and_order_match_the_per_tau_loops(self, nfp, count):
        # order matters: setdefault keeps the first witness presentation
        datum = RootDatum(*nfp)
        for tau in _deep_tau_samples(datum, count, datum.h_eta, random.Random(23)):
            assert list(wset_with_presentations(tau).items()) == _reference_wset(tau)
            assert list(wobv_with_presentations(tau).items()) == _reference_wobv(tau)
            assert [e.to_json() for e in enumerate_edges(tau)] == _reference_edges(tau)

    def test_warm_datum_needs_no_interval_or_diamond(self, d3, monkeypatch):
        first, fresh = _deep_tau_samples(d3, 2, 2 * d3.h_eta, random.Random(29))
        connectivity_graph(first)

        def refuse(*args, **kwargs):
            raise AssertionError("per-tau call into a per-datum step")

        monkeypatch.setattr(herzig, "bruhat_interval", refuse)
        monkeypatch.setattr(herzig, "diamond", refuse)
        assert len(wset(fresh)) == 9
        assert len(wobv(fresh)) == 6
        assert connectivity_graph(fresh).is_connected()

    def test_warm_datum_edges_need_no_outer_presentation(self, d3, monkeypatch):
        # per tau, wset, wobv and the edges read every weight off a table map
        first, fresh = _deep_tau_samples(d3, 2, 2 * d3.h_eta, random.Random(31))
        expected = [e.to_json() for e in enumerate_edges(first)]
        herzig.wset_with_presentations.cache_clear()
        herzig.wobv_with_presentations.cache_clear()

        def refuse(*args, **kwargs):
            raise AssertionError("per-tau call into the outer presentation path")

        monkeypatch.setattr(herzig, "_outer_lifts", refuse)
        for name in ("_weight_map", "_outer_weight", "is_restricted_elt"):
            monkeypatch.setattr(herzig, name, refuse)
            monkeypatch.setattr(weights_dl, name, refuse)
        monkeypatch.setattr(herzig, "p_dot", refuse)
        monkeypatch.setattr(weights_dl, "pi_elt_inv", refuse)
        assert [e.to_json() for e in enumerate_edges(first)] == expected
        assert len(wset(fresh)) == 9
        assert len(wobv(fresh)) == 6
        assert len(enumerate_edges(fresh)) > 0

    def test_edges_weigh_each_distinct_lift_map_once(self, d3, monkeypatch):
        first, fresh = _deep_tau_samples(d3, 2, 2 * d3.h_eta, random.Random(37))
        enumerate_edges(first)
        wset(fresh)
        lifts, _, rows = _edge_factors(d3)
        from_weight = SerreWeight.from_weight
        calls = []

        def counting(datum, lam):
            calls.append(lam)
            return from_weight(datum, lam)

        monkeypatch.setattr(SerreWeight, "from_weight", staticmethod(counting))
        assert len(enumerate_edges(fresh)) > 0
        assert 0 < len(calls) <= len(lifts) < 2 * len(rows)


class TestWobv:
    def test_rank_two_all_extremal(self, tau2):
        assert wobv(tau2) == wset(tau2)

    def test_rank_three_count(self, tau3):
        obv = wobv(tau3)
        assert len(obv) == 6
        assert obv < wset(tau3)

    def test_no_interval_where_intervals_exceed_their_budget(self, monkeypatch):
        # at (4,2,41) the intervals below w0 rep are refused; wobv needs none
        def refuse(*args, **kwargs):
            raise AssertionError("wobv asked for a Bruhat interval")

        monkeypatch.setattr(herzig, "bruhat_interval", refuse)
        datum = RootDatum(4, 2, 41)
        tau = tame(datum, [[30, 20, 10, 0]] * 2, [[2, 3, 4, 1], [1, 2, 3, 4]])
        assert len(wobv(tau)) == 576

    def test_product_count(self, d22):
        tau = tame(d22, [[5, 1], [4, 0]])
        assert len(wobv(tau)) == 4  # (2!)^2

    def test_omega_presented_weights_are_extremal(self, tau2, tau3):
        # a predicted weight presented by a length-zero element is obvious
        for tau in (tau2, tau3):
            obv = wobv(tau)
            for sigma, pres in wset_with_presentations(tau).items():
                if length(pres.w1) == 0:
                    assert sigma in obv


class TestEliminate:
    def _non_members(self, datum, tau, bound=40):
        members = wset(tau)
        out = []
        rng = random.Random(3)
        for _ in range(200):
            rows = []
            for _ in range(datum.f):
                diffs = [rng.randint(0, datum.p - 1) for _ in range(datum.n - 1)]
                base = rng.randint(0, datum.p - 2)
                row = [base] * datum.n
                for i in range(datum.n - 2, -1, -1):
                    row[i] = row[i + 1] + diffs[i]
                rows.append(row)
            lam = datum.weight(rows)
            if not is_p_restricted(datum, lam):
                continue
            sigma = SerreWeight.from_weight(datum, lam)
            if not sigma.is_p_regular() or sigma.depth < d_sigma(sigma):
                continue
            if sigma in members or sigma in out:
                continue
            out.append(sigma)
            if len(out) >= bound:
                break
        return out

    def test_member_not_eliminable(self, tau2):
        sigma = next(iter(wset(tau2)))
        with pytest.raises(NotEliminableError) as err:
            eliminate(sigma, tau2)
        assert err.value.witness is not None

    def test_certificates_revalidate(self, d2, tau2):
        for sigma in self._non_members(d2, tau2, bound=10):
            cert = eliminate(sigma, tau2)
            assert cert.verify()
            assert cert.sigma == sigma
            payload = json.dumps(cert.to_json())
            assert payload  # serializable

    def test_rank_three_certificates(self, d3, tau3):
        for sigma in self._non_members(d3, tau3, bound=5):
            cert = eliminate(sigma, tau3)
            assert cert.verify()

    @pytest.mark.parametrize("nfp", [(4, 1, 23), (2, 2, 13)])
    def test_certificates_at_f2_and_n4(self, nfp):
        datum = RootDatum(*nfp)
        tau = _deep_tau_samples(datum, 1, datum.h_eta, random.Random(17))[0]
        sigmas = self._non_members(datum, tau, bound=4)
        assert sigmas
        for sigma in sigmas:
            cert = eliminate(sigma, tau)
            assert cert.sigma == sigma
            assert cert.verify()

    def test_tampered_certificate_fails(self, d2, tau2):
        import dataclasses

        from alcove.weights_dl import DLPresentation

        sigma = self._non_members(d2, tau2, bound=1)[0]
        cert = eliminate(sigma, tau2)
        shifted = DLPresentation(
            ExtAffineElt.from_translation(d2, d2.weight([[1, 0]])) * cert.R.elt
        )
        tampered = dataclasses.replace(cert, R=shifted)
        assert not tampered.verify()


class TestConnect:
    def test_self_pair_has_no_edge(self, tau2, tau3):
        # the two designated outer weights of an edge always differ
        for tau in (tau2, tau3):
            assert all(edge.sigma != edge.sigma2 for edge in enumerate_edges(tau))

    def test_rank_two_pair_connected(self, tau2):
        a, b = sorted(wset(tau2), key=lambda s: s.sort_key())
        edges = enumerate_edges(tau2)
        assert any({edge.sigma, edge.sigma2} == {a, b} for edge in edges)
        assert all(edge.verify(tau2) for edge in edges)

    def test_edges_land_in_wset_and_jh(self, tau3):
        members = wset(tau3)
        for edge in enumerate_edges(tau3):
            assert edge.sigma in members and edge.sigma2 in members
            factors = jh_set(edge.R)
            assert edge.sigma in factors and edge.sigma2 in factors

    def test_edge_verify_rejects_wrong_tau(self, tau2, d2):
        edge = enumerate_edges(tau2)[0]
        assert not edge.verify(tame(d2, [[6, 2]]))


class TestGraph:
    def test_rank_two_graph(self, tau2):
        graph = connectivity_graph(tau2)
        assert len(graph.vertices) == 2
        assert graph.is_connected()
        dist = graph.distance_to_extremal()
        assert all(v is not None for v in dist.values())

    def test_rank_three_graph(self, tau3):
        graph = connectivity_graph(tau3)
        assert len(graph.vertices) == 9
        assert graph.is_connected()
        dist = graph.distance_to_extremal()
        assert all(v is not None for v in dist.values())
        for sigma in graph.vertices:
            chain = graph.chain_to_extremal(sigma)
            assert chain is not None
            assert chain[0] == sigma
            assert chain[-1] in graph.extremal

    def test_disconnected_graph(self, tau3):
        graph = connectivity_graph(tau3)
        v = next(u for u in graph.vertices if u not in graph.extremal)
        cut = dataclasses.replace(
            graph,
            edges=tuple(e for e in graph.edges if v not in (e.sigma, e.sigma2)),
        )
        assert not cut.is_connected()
        assert [v] in cut.components()
        for comp in cut.components():
            assert comp == sorted(comp, key=lambda s: s.sort_key())
        dist = cut.distance_to_extremal()
        assert dist[v] is None
        assert cut.chain_to_extremal(v) is None
        top = next(iter(cut.extremal))
        assert cut.chain_to_extremal(top) == [top]
        for sigma, d in dist.items():
            if d is not None:
                chain = cut.chain_to_extremal(sigma)
                assert chain[0] == sigma and chain[-1] in cut.extremal
                assert len(chain) - 1 == d

    def test_shallow_graph_refused(self, d2):
        with pytest.raises(DepthError):
            connectivity_graph(tame(d2, [[3, 1]]))

    def test_exports_are_consistent(self, tau2):
        graph = connectivity_graph(tau2)
        payload = graph.to_json()
        assert payload["connected"] is True
        assert len(payload["vertices"]) == 2
        dot = graph.to_dot()
        assert dot.startswith("graph weights {")
        assert dot.count("--") == len(
            {
                (min(e.sigma.sort_key(), e.sigma2.sort_key()),
                 max(e.sigma.sort_key(), e.sigma2.sort_key()),
                 (e.alpha.j, e.alpha.i), e.R.sort_key())
                for e in graph.edges
            }
        )


class TestAdmissiblePair:
    def test_depth_refusals(self, d2):
        rho = tame(d2, [[3, 1]])  # 1-deep: fine for rho at n=2
        shallow_tau = tame(d2, [[3, 1]])  # needs 2-deep
        with pytest.raises(DepthError):
            admissible_pair(rho, shallow_tau)

    def test_matched_pair_true_on_all_paths(self, d2):
        tau = tame(d2, [[5, 1]])
        for w in all_weyl_elements(d2):
            rho = TameParam(
                ExtAffineElt.from_translation(d2, w.act(d2.eta())) * tau.elt
            )
            if (rho.lowest_alcove_depth() or -1) < d2.n - 1:
                continue
            report = equivalence_report(rho, tau)
            assert report.admissible
            assert report.all_agree

    def test_far_pair_false_on_all_paths(self, d2_13):
        rho = tame(d2_13, [[8, 1]])
        tau = tame(d2_13, [[12, 6]], perm=[[2, 1]])
        report = equivalence_report(rho, tau)
        assert not report.admissible
        assert report.all_agree

    def test_equivalence_on_random_pairs(self, d2_13):
        rng = random.Random(17)
        weyl = all_weyl_elements(d2_13)
        checked = 0
        for _ in range(10):
            a = rng.randint(4, 9)
            b = rng.randint(3, a - 1)
            c = rng.randint(4, 9)
            e = rng.randint(3, c - 1)
            rho = TameParam(
                ExtAffineElt(d2_13, d2_13.weight([[a, a - b]]), rng.choice(weyl))
            )
            tau = TameParam(
                ExtAffineElt(d2_13, d2_13.weight([[c, c - e]]), rng.choice(weyl))
            )
            if (rho.lowest_alcove_depth() or -1) < 1:
                continue
            if (tau.lowest_alcove_depth() or -1) < 2:
                continue
            assert equivalence_report(rho, tau).all_agree
            checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("nfp", [(3, 1, 19), (2, 2, 7)])
    def test_rho_off_digit_normal_form(self, nfp):
        # an X^0 twist (p - pi)c of rho's translation part names the same
        # parameter but is not among the one-per-class presentations that
        # c0_presentations lists for rho
        datum = RootDatum(*nfp)
        c = x0_shift(datum, [1] + [0] * (datum.f - 1))
        z = c.scale(datum.p) - frobenius_pi(c)
        rng = random.Random(29)
        verdicts = set()
        for tau in _deep_tau_samples(datum, 3, datum.n, rng):
            shifts = [
                ExtAffineElt.from_translation(datum, w.act(datum.eta()))
                for w in all_weyl_elements(datum)
            ]
            rhos = [TameParam(t * tau.elt) for t in shifts]
            rhos += _deep_tau_samples(datum, 3, datum.n - 1, rng)
            for rho in rhos:
                if (rho.lowest_alcove_depth() or -1) < datum.n - 1:
                    continue
                twisted = TameParam(ExtAffineElt(datum, rho.mu + z, rho.s))
                assert twisted.as_dl() not in c0_presentations(twisted.as_dl())
                want = bool(jh_set(tau.as_dl()) & wset(rho))
                assert admissible_pair(rho, tau) == want
                assert admissible_pair(twisted, tau) == want
                verdicts.add(want)
        assert verdicts == {True, False}
