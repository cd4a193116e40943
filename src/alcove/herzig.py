"""Tame inertial parameters as combinatorial data, the predicted weight set
W?, obvious (extremal) weights, weight-elimination certificates, connecting
types, and the weight-connectivity graph.

A tame parameter is carried by an extended affine Weyl element t_mu . s.  All
depth hypotheses are those of the statements being computed and are enforced
on the given presentation; a violation raises :class:`DepthError` instead of
returning an extrapolated answer.  Predicates that quantify over
presentations do so through the exact orbit enumeration of
:mod:`alcove.weights_dl`, with per-embedding Omega degrees pinned whenever an
admissible-set membership makes only one degree vector possible.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType

from .affine_weyl import (
    ExtAffineElt,
    adm_eta,
    bruhat_interval,
    diamond,
    is_dominant_elt,
    is_restricted_elt,
    p_dot,
    restricted_reps,
    simple_reflection,
    up_leq,
    w0_element,
    wh_element,
)
from .root_data import (
    AlcoveError,
    DepthError,
    FiniteWeylElt,
    Root,
    RootDatum,
    ValidationError,
    WeightVec,
    all_weyl_elements,
    in_lowest_alcove,
    is_p_restricted,
)
from .weights_dl import (
    DLPresentation,
    InvalidPresentationError,
    SerrePresentation,
    SerreWeight,
    _first_witnesses,
    _outer_member,
    _outer_weight,
    _rep_maps,
    _require_depth,
    _weight_map,
    c0_presentations,
    d_sigma,
    jh_outer,
    jh_set,
    presentations_of,
)


class NotEliminableError(AlcoveError):
    """The weight belongs to the predicted set; no certificate exists."""

    def __init__(self, message: str, witness: SerrePresentation | None = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True, slots=True)
class TameParam(DLPresentation):
    """Tame inertial parameter presented by the element t_mu . s.  It is
    never equal to the DL presentation of the same element (dataclass
    equality compares classes), so memos keyed by DL presentations take
    :meth:`as_dl`."""

    def as_dl(self) -> DLPresentation:
        return DLPresentation(self.elt)


def herzig_twist(sigma: SerreWeight) -> SerreWeight:
    """The bijection on p-regular weights sending F(lam) to F(wh . lam)."""
    datum = sigma.datum
    if not sigma.is_p_regular():
        raise ValidationError("the twist is defined on p-regular weights")
    lam = p_dot(wh_element(datum), sigma.lam)
    if not is_p_restricted(datum, lam):
        raise AssertionError("twist left the p-restricted region")
    return SerreWeight.from_weight(datum, lam)


@functools.cache
def wset_with_presentations(
    tau: TameParam,
) -> MappingProxyType[SerreWeight, SerrePresentation]:
    """The predicted set W? by its membership characterization: sigma has a
    presentation (w, omega) with t_mu s in t_omega W~_{<= w0 w}.  Returns one
    witnessing presentation per weight, as a read-only view of the memo."""
    _require_depth(tau, tau.datum.h_eta, "wset")
    datum = tau.datum
    mu, s = tau.elt.trans, tau.elt.fin
    table = _wset_table(datum)  # first: over budget it refuses before any rep is built
    # x = t_nu s, so t_mu s x^{-1} = t_{mu - nu}
    candidates = (
        (rep, k, v, mu - nu)
        for (rep, k, v, _), by_fin in zip(_rep_maps(datum), table)
        for nu in by_fin.get(s, ())
    )
    return MappingProxyType(_first_witnesses(datum, candidates))


@functools.cache
def _wset_table(datum: RootDatum) -> tuple[MappingProxyType, ...]:
    """Per restricted rep, in the order of :func:`_rep_maps`, the translation
    parts of the interval below w0 rep grouped by finite part, each group in
    interval order: t_mu s x^{-1} is a translation only when x has the finite
    part s.  The first rep is the identity, so the budget of the first
    interval, the one below w0, is tested before the reps are built."""
    bruhat_interval(w0_element(datum))
    table = []
    for rep in restricted_reps(datum):
        by_fin: dict[FiniteWeylElt, list[WeightVec]] = {}
        for x in bruhat_interval(w0_element(datum) * rep):
            by_fin.setdefault(x.fin, []).append(x.trans)
        table.append(MappingProxyType({k: tuple(v) for k, v in by_fin.items()}))
    return tuple(table)


def wset(tau: TameParam) -> frozenset[SerreWeight]:
    return frozenset(wset_with_presentations(tau))


def wset_by_definition(tau: TameParam) -> frozenset[SerreWeight]:
    """The predicted set computed from its definition as the twist of the
    Jordan-Holder set of the associated representation; cross-check path."""
    datum = tau.datum
    _require_depth(tau, datum.h_eta, "wset")
    factors = jh_set(tau.as_dl())
    return frozenset(
        herzig_twist(s) for s in factors if s.is_p_regular()
    )


@functools.cache
def wobv_with_presentations(
    tau: TameParam,
) -> MappingProxyType[SerreWeight, SerrePresentation]:
    """Extremal (obvious) weights: presentations with t_mu s in t_omega W w,
    as a read-only view of the memo."""
    _require_depth(tau, tau.datum.h_eta, "wobv")
    datum = tau.datum
    mu, s = tau.elt.trans, tau.elt.fin
    # _rep_maps, not _wset_table: wobv builds no Bruhat interval, so it
    # answers where the intervals exceed their budget, e.g. at (4,2,41)
    candidates = ((rep, k, v, mu + s.act(back)) for rep, k, v, back in _rep_maps(datum))
    return MappingProxyType(_first_witnesses(datum, candidates))


def wobv(tau: TameParam) -> frozenset[SerreWeight]:
    return frozenset(wobv_with_presentations(tau))


# ---------------------------------------------------------------------------
# weight elimination


@dataclass(frozen=True)
class EliminationCertificate:
    """Witness that sigma cannot lie in the predicted set of tau: a 0-generic
    representation with sigma among its outer factors such that no
    lowest-alcove re-presentation (s, nu) of it puts the parameter inside
    t_nu s Adm(eta).  Both conditions are re-checkable by :meth:`verify`."""

    sigma: SerreWeight
    tau: TameParam
    R: DLPresentation
    outer_w: FiniteWeylElt
    presentation: SerrePresentation
    checked: tuple[DLPresentation, ...]

    def verify(self) -> bool:
        # outer membership by construction: sigma = F_{(w1, omega)} and
        # R is the outer family member indexed by outer_w
        if self.presentation.weight() != self.sigma:
            return False
        if self.R != _outer_member(self.presentation, self.outer_w):
            return False
        if self.presentation.depth < d_sigma(self.sigma):
            return False
        # re-enumerate the admissible-degree re-presentations and re-test
        fresh = _pinned_presentations(self.R, self.tau.elt)
        if {q.sort_key() for q in fresh} != {
            q.sort_key() for q in self.checked
        }:
            return False
        return _outside_adm(self.tau, fresh)

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma.to_json(),
            "tau": self.tau.to_json(),
            "representation": self.R.to_json(),
            "outer_w": self.outer_w.to_json(),
            "presentation": self.presentation.to_json(),
            "checked_presentations": [q.to_json() for q in self.checked],
        }


def _pinned_presentations(
    R: DLPresentation, top: ExtAffineElt
) -> list[DLPresentation]:
    """The lowest-alcove presentations of R whose degrees are those of top
    less those of eta: the only ones that can put top in t_nu s Adm(eta)."""
    degrees = tuple(
        t - e for t, e in zip(top.omega_degrees(), R.datum.eta().degrees())
    )
    return c0_presentations(R, degrees=degrees)


def _outside_adm(tau: TameParam, presentations: list[DLPresentation]) -> bool:
    """Whether no presentation t_nu s in the list puts tau in t_nu s Adm(eta)."""
    admissible = adm_eta(tau.datum)
    return all(q.elt.inverse() * tau.elt not in admissible for q in presentations)


def eliminate(sigma: SerreWeight, tau: TameParam) -> EliminationCertificate:
    """Produce a self-revalidating elimination certificate for a d_sigma-deep
    weight outside the predicted set.  Raises :class:`NotEliminableError`
    (with a membership witness) when sigma does belong to the set."""
    datum = tau.datum
    _require_depth(tau, datum.h_eta, "eliminate")
    ds = d_sigma(sigma)
    if sigma.depth < ds:
        raise DepthError(
            f"eliminate requires sigma to be {ds}-deep (found {sigma.depth})"
        )
    members = wset_with_presentations(tau)
    if sigma in members:
        raise NotEliminableError(
            "sigma lies in the predicted set", witness=members[sigma]
        )
    pres = presentations_of(sigma)[0]
    for u in all_weyl_elements(datum):
        R_u = _outer_member(pres, u)
        if R_u.lowest_alcove_depth() is None:
            raise AssertionError("outer construction left the lowest alcove")
        candidates = _pinned_presentations(R_u, tau.elt)
        if _outside_adm(tau, candidates):
            cert = EliminationCertificate(
                sigma=sigma,
                tau=tau,
                R=R_u,
                outer_w=u,
                presentation=pres,
                checked=tuple(candidates),
            )
            if not cert.verify():
                raise AssertionError("freshly built certificate failed replay")
            return cert
    raise AssertionError(
        "no certificate found; the elimination existence statement failed"
    )


# ---------------------------------------------------------------------------
# connecting types


@dataclass(frozen=True)
class ConnectionEdge:
    """A representation R(w) and a factorization w^{-1} s~ = w2^{-1} s_a w0 w1
    whose two designated outer factors tie sigma and sigma2 inside W?."""

    sigma: SerreWeight
    sigma2: SerreWeight
    R: DLPresentation
    alpha: Root
    w1: ExtAffineElt
    w2: ExtAffineElt

    def verify(self, tau: TameParam) -> bool:
        datum = self.R.datum
        if not is_restricted_elt(self.w2) or not is_dominant_elt(self.w1):
            return False
        if not up_leq(self.w1, wh_element(datum).inverse() * self.w2):
            return False
        factor = (
            self.w2.inverse()
            * simple_reflection(datum, self.alpha)
            * w0_element(datum)
            * self.w1
        )
        if (self.R.elt * factor).key() != tau.elt.key():
            return False
        pair = tuple(
            _outer_weight(self.R, x, *_weight_map(x))
            for x, _ in _outer_lifts(self.alpha, self.w2)
        )
        return pair == (self.sigma, self.sigma2)

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma.to_json(),
            "sigma2": self.sigma2.to_json(),
            "R": self.R.to_json(),
            "alpha": {"embedding": self.alpha.j, "i": self.alpha.i + 1, "k": self.alpha.k + 1},
            "w1": self.w1.to_json(),
            "w2": self.w2.to_json(),
        }


def _outer_lifts(
    alpha: Root, w2: ExtAffineElt
) -> tuple[tuple[ExtAffineElt, WeightVec], ...]:
    """(x, (wh x)^{-1}(0)) with x = wh^{-1} lift for the restricted lifts w2
    and (s_alpha w2)^diamond: the tau-independent halves of the outer factors
    (:func:`_outer_weight`) corresponding to w0 w2 and w0 s_alpha w2."""
    datum = w2.datum
    wh_inv = wh_element(datum).inverse()
    lifts = (w2, diamond(simple_reflection(datum, alpha) * w2))
    return tuple((wh_inv * lift, lift.inverse().trans) for lift in lifts)


@functools.cache
def _edge_factors(datum: RootDatum) -> tuple[tuple, tuple, tuple]:
    """(lifts, translations, rows) with one row (alpha, w2, w1, fin, t, a, b)
    per simple root alpha, restricted w2 and dominant w1 below wh^{-1} w2 in
    the raising order, in enumeration order.  F = (w2^{-1} s_alpha w0 w1)^{-1}
    has finite part fin and translation part translations[t].  lifts[a] and
    lifts[b] are the maps (F(back), k, v) of the two outer lifts (x, back)
    from :func:`_outer_lifts`, with (k, v) the :func:`_weight_map` of x: for
    tau = t_mu s and R = tau F the lift's :func:`_outer_weight` is
    k + v(mu + s(F(back))).  Equal maps and translations are stored once."""
    w0 = w0_element(datum)
    wh_inv = wh_element(datum).inverse()
    lifts: dict[tuple, int] = {}
    translations: dict[WeightVec, int] = {}
    rows = []
    for alpha in datum.simple_roots():
        s_alpha = simple_reflection(datum, alpha)
        for w2 in restricted_reps(datum):
            bound = wh_inv * w2
            if not is_dominant_elt(bound):
                raise AssertionError("wh^{-1} w2 left the dominant region")
            maps = [(back, *_weight_map(x)) for x, back in _outer_lifts(alpha, w2)]
            for w1 in bruhat_interval(bound):
                if not is_dominant_elt(w1):
                    continue
                factor_inv = (w2.inverse() * s_alpha * w0 * w1).inverse()
                a, b = (
                    lifts.setdefault((factor_inv.act_weight(back), k, v), len(lifts))
                    for back, k, v in maps
                )
                t = translations.setdefault(factor_inv.trans, len(translations))
                rows.append((alpha, w2, w1, factor_inv.fin, t, a, b))
    return tuple(lifts), tuple(translations), tuple(rows)


def enumerate_edges(tau: TameParam) -> list[ConnectionEdge]:
    """All connecting-type edges over the predicted set of tau: simple roots
    alpha and factorizations s~ = w (w2^{-1} s_alpha w0 w1) with w2 restricted,
    w1 dominant below wh^{-1} w2 in the raising order, and the translation
    part of w deep enough for the membership criteria to apply."""
    datum = tau.datum
    _require_depth(tau, datum.h_eta, "enumerate_edges")
    members = wset(tau)
    mu, s = tau.elt.trans, tau.elt.fin
    lifts, translations, rows = _edge_factors(datum)
    # each translation and lift map is evaluated once, at the first row that
    # needs it, so a refusal is raised at the first row that meets it
    deep: dict[int, WeightVec | None] = {}
    weights: dict[int, SerreWeight] = {}

    def outer_weight(i: int) -> SerreWeight:
        if i not in weights:
            c, k, v = lifts[i]
            omega = mu + s.act(c)
            if not in_lowest_alcove(datum, omega):
                raise InvalidPresentationError("omega - eta does not lie in C0")
            weights[i] = SerreWeight.from_weight(datum, k + v.act(omega))
        return weights[i]

    edges = []
    for alpha, w2, w1, fin, t, i, j in rows:
        if t not in deep:
            trans = mu + s.act(translations[t])
            deep[t] = trans if in_lowest_alcove(datum, trans, depth=datum.h_eta) else None
        trans = deep[t]
        if trans is None:
            continue
        a, b = outer_weight(i), outer_weight(j)
        if a == b:
            continue
        if a not in members or b not in members:
            raise AssertionError("designated outer weight escaped the predicted set")
        R = DLPresentation(ExtAffineElt(datum, trans, s * fin))
        edges.append(ConnectionEdge(sigma=a, sigma2=b, R=R, alpha=alpha, w1=w1, w2=w2))
    return edges


@dataclass(frozen=True)
class ConnectivityGraph:
    tau: TameParam
    vertices: tuple[SerreWeight, ...]
    edges: tuple[ConnectionEdge, ...]
    extremal: frozenset[SerreWeight]

    @functools.cached_property
    def _adjacency(self) -> dict[SerreWeight, list[SerreWeight]]:
        """Each vertex's neighbours, in sort_key order."""
        adj: dict[SerreWeight, set[SerreWeight]] = {v: set() for v in self.vertices}
        for e in self.edges:
            adj[e.sigma].add(e.sigma2)
            adj[e.sigma2].add(e.sigma)
        return {v: sorted(ys, key=SerreWeight.sort_key) for v, ys in adj.items()}

    def _bfs(self, sources: list[SerreWeight]):
        """Breadth-first search from the sources: yields (vertex, parent,
        distance) in the order found, neighbours in sort_key order."""
        queue = deque((v, None, 0) for v in sources)
        seen = set(sources)
        while queue:
            v, parent, dist = queue.popleft()
            yield v, parent, dist
            for y in self._adjacency[v]:
                if y not in seen:
                    seen.add(y)
                    queue.append((y, v, dist + 1))

    def components(self) -> list[list[SerreWeight]]:
        comps: list[list[SerreWeight]] = []
        seen: set[SerreWeight] = set()
        for v in self.vertices:
            if v not in seen:
                comp = [x for x, _, _ in self._bfs([v])]
                seen.update(comp)
                comps.append(sorted(comp, key=SerreWeight.sort_key))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def distance_to_extremal(self) -> dict[SerreWeight, int | None]:
        """Breadth-first distance from each vertex to the extremal set."""
        dist: dict[SerreWeight, int | None] = dict.fromkeys(self.vertices)
        sources = [v for v in self.vertices if v in self.extremal]
        for v, _, d in self._bfs(sources):
            dist[v] = d
        return dist

    def chain_to_extremal(self, sigma: SerreWeight) -> list[SerreWeight] | None:
        """A shortest chain of connected weights from sigma to an extremal
        weight, inclusive on both ends."""
        parents: dict[SerreWeight, SerreWeight | None] = {}
        for v, parent, _ in self._bfs([sigma]):
            parents[v] = parent
            if v in self.extremal:
                chain = [v]
                while parents[chain[-1]] is not None:
                    chain.append(parents[chain[-1]])
                return chain[::-1]
        return None

    def to_json(self) -> dict:
        dist = self.distance_to_extremal()
        return {
            "tau": self.tau.to_json(),
            "vertices": [
                {
                    "sigma": v.to_json(),
                    "extremal": v in self.extremal,
                    "distance_to_extremal": dist[v],
                }
                for v in self.vertices
            ],
            "edges": [e.to_json() for e in self._sorted_edges()],
            "connected": self.is_connected(),
        }

    def _sorted_edges(self) -> list[ConnectionEdge]:
        return sorted(
            self.edges,
            key=lambda e: (
                e.sigma.sort_key(),
                e.sigma2.sort_key(),
                (e.alpha.j, e.alpha.i, e.alpha.k),
                e.R.sort_key(),
            ),
        )

    def to_dot(self) -> str:
        names = {
            v: ";".join(",".join(str(a) for a in row) for row in v.lam.entries)
            for v in self.vertices
        }
        lines = ["graph weights {"]
        for v in self.vertices:
            shape = "doublecircle" if v in self.extremal else "circle"
            lines.append(f'  "{names[v]}" [shape={shape}];')
        seen_pairs = set()
        for e in self._sorted_edges():
            a, b = sorted((names[e.sigma], names[e.sigma2]))
            alpha = f"a{e.alpha.i + 1}@{e.alpha.j}"
            r_name = ";".join(
                ",".join(str(x) for x in row) for row in e.R.mu.entries
            )
            key = (a, b, alpha, r_name)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            lines.append(f'  "{a}" -- "{b}" [label="{alpha}|{r_name}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def connectivity_graph(tau: TameParam) -> ConnectivityGraph:
    """Graph over the predicted set with connecting-type edges; requires the
    parameter 2 h_eta-deep so that the chain construction applies."""
    datum = tau.datum
    _require_depth(tau, 2 * datum.h_eta, "connectivity_graph")
    members = sorted(wset(tau), key=lambda s: s.sort_key())
    edges = enumerate_edges(tau)
    return ConnectivityGraph(
        tau=tau,
        vertices=tuple(members),
        edges=tuple(edges),
        extremal=wobv(tau),
    )


# ---------------------------------------------------------------------------
# admissibility of pairs


@dataclass(frozen=True)
class EquivalenceReport:
    admissible: bool
    jh_meets_wset: bool
    jh_meets_wobv: bool
    outer_meets_wset: bool

    @property
    def all_agree(self) -> bool:
        return (
            self.admissible
            == self.jh_meets_wset
            == self.jh_meets_wobv
            == self.outer_meets_wset
        )

    def to_json(self) -> dict:
        return {
            "admissible": self.admissible,
            "jh_meets_wset": self.jh_meets_wset,
            "jh_meets_wobv": self.jh_meets_wobv,
            "outer_meets_wset": self.outer_meets_wset,
            "all_agree": self.all_agree,
        }


def admissible_pair(rho: TameParam, tau: TameParam) -> bool:
    """Whether some presentations put the parameter of rho inside
    Adm(eta) . w(tau).  rho must be (n-1)-generic and tau n-generic on their
    given presentations."""
    datum = rho.datum
    _require_depth(rho, datum.n - 1, "admissible_pair (rho)")
    _require_depth(tau, datum.n, "admissible_pair (tau)")
    admissible = adm_eta(datum)
    # quantify over presentations: one of rho per X^0 class, then pin tau's
    # degrees.  Moving rho by an X^0 twist z moves the pinned presentations of
    # tau by z too, and t_z x t_{-z} = x, so rho's own need not be listed.
    for rp in c0_presentations(rho.as_dl()):
        for tp in _pinned_presentations(tau.as_dl(), rp.elt):
            if rp.elt * tp.elt.inverse() in admissible:
                return True
    return False


def equivalence_report(rho: TameParam, tau: TameParam) -> EquivalenceReport:
    """Evaluate the four combinatorial forms of the admissibility condition
    and report them side by side."""
    datum = rho.datum
    factors = jh_set(tau.as_dl())
    predicted = wset(rho)
    obvious = wobv(rho)
    outer = {s for _, s in jh_outer(tau.as_dl())}
    return EquivalenceReport(
        admissible=admissible_pair(rho, tau),
        jh_meets_wset=bool(factors & predicted),
        jh_meets_wobv=bool(factors & obvious),
        outer_meets_wset=bool(outer & predicted),
    )
