"""Serre weights via lowest-alcove presentations, Deligne-Lusztig
presentation calculus, combinatorial Jordan-Holder sets, outer factors, and
the covering order.

A Serre weight is stored by a p-restricted dominant highest weight,
canonicalized modulo the sublattice (p - pi) X^0: two highest weights give
the same simple module exactly when their difference is constant on each
embedding with those constants in the image of (p - pi) on Z^f.  A
Deligne-Lusztig presentation is an extended affine Weyl element t_mu . s;
two presentations name the same virtual representation exactly when they are
related by w = r s pi(r)^{-1}, lam = r(mu) + p nu - w(pi(nu)) for some finite
Weyl r and weight nu, which is decided here by an exact per-cycle linear
solve rather than a search.

Jordan-Holder sets are computed purely combinatorially and only under the
stated depth hypotheses on the given presentation; anything shallower is
refused, never guessed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .affine_weyl import (
    ExtAffineElt,
    adm_eta,
    alcove_element_of_point,
    bruhat_interval,
    is_dominant_elt,
    is_restricted_elt,
    pi_elt_inv,
    restricted_reps,
    w0_element,
    wh_element,
)
from .root_data import (
    DepthError,
    FiniteWeylElt,
    RootDatum,
    ValidationError,
    WeightVec,
    all_weyl_elements,
    depth_of,
    h_value,
    in_lowest_alcove,
    is_p_restricted,
    pi_weyl,
    x0_shift,
)


class InvalidPresentationError(ValidationError):
    """The presentation data violate its invariants."""


# ---------------------------------------------------------------------------
# Serre weights


def _x0_class_digits(datum: RootDatum, values: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical representative of a vector of per-embedding constants modulo
    the image of (p - pi): the base-p digits of sum(values[j] p^j) mod p^f - 1."""
    p, f = datum.p, datum.f
    modulus = p**f - 1
    r = sum(v * p**j for j, v in enumerate(values)) % modulus
    return tuple((r // p**j) % p for j in range(f))


@dataclass(frozen=True, slots=True)
class SerreWeight:
    """Simple module with p-restricted highest weight, stored canonically."""

    datum: RootDatum
    lam: WeightVec

    @staticmethod
    def from_weight(datum: RootDatum, lam: WeightVec) -> "SerreWeight":
        if not is_p_restricted(datum, lam):
            raise ValidationError(f"highest weight not p-restricted: {lam.entries}")
        return SerreWeight(datum, _canonical_omega(datum, lam))

    @property
    def depth(self) -> int:
        """Largest m with the highest weight m-deep in its p-alcove."""
        return depth_of(self.datum, self.lam)

    def is_p_regular(self) -> bool:
        return self.depth >= 0

    def to_json(self) -> dict:
        return {"lambda": self.lam.to_json(), "canonical": True}

    def sort_key(self) -> tuple:
        return self.lam.entries


def d_sigma(sigma: SerreWeight) -> int:
    """The defect max over closed base-alcove vertices v of h at (wh . w)(v),
    where the highest weight lies in the p-dot alcove of w.  Bounded by n-1."""
    datum = sigma.datum
    if not sigma.is_p_regular():
        raise ValidationError("d_sigma is defined for p-regular weights")
    w = alcove_element_of_point(datum, sigma.lam + datum.eta(), datum.p)
    top = wh_element(datum) * w
    return max(h_value(top.act_weight(v)) for v in datum.base_vertices())


@dataclass(frozen=True, slots=True)
class SerrePresentation:
    """Pair (w1 in the restricted set, omega with omega - eta in C0) naming
    the weight of the p-dot value of pi^{-1}(w1) at omega - eta."""

    w1: ExtAffineElt
    omega: WeightVec

    def __post_init__(self) -> None:
        if not is_restricted_elt(self.w1):
            raise InvalidPresentationError("presentation element is not restricted")
        if not in_lowest_alcove(self.w1.datum, self.omega):
            raise InvalidPresentationError("omega - eta does not lie in C0")

    @classmethod
    def _prechecked(cls, w1: ExtAffineElt, omega: WeightVec) -> "SerrePresentation":
        """The presentation (w1, omega) for a caller that has already tested
        both invariants: w1 once per table, omega per call."""
        pres = object.__new__(cls)
        object.__setattr__(pres, "w1", w1)
        object.__setattr__(pres, "omega", omega)
        return pres

    @property
    def datum(self) -> RootDatum:
        return self.w1.datum

    @property
    def depth(self) -> int:
        return depth_of(self.datum, self.omega - self.datum.eta())

    def weight(self) -> SerreWeight:
        k, v = _weight_map(self.w1)
        return SerreWeight.from_weight(self.datum, k + v.act(self.omega))

    def to_json(self) -> dict:
        return {"w": self.w1.to_json(), "omega": self.omega.to_json()}


def _weight_map(w1: ExtAffineElt) -> tuple[WeightVec, FiniteWeylElt]:
    """(k, v) = (p nu - eta, v) for a restricted w1 with pi^{-1}(w1) = t_nu v:
    the presentation (w1, omega) names F(k + v(omega)), the p-dot value of
    pi^{-1}(w1) at omega - eta."""
    if not is_restricted_elt(w1):
        raise InvalidPresentationError("presentation element is not restricted")
    datum = w1.datum
    pinv = pi_elt_inv(w1)
    return pinv.trans.scale(datum.p) - datum.eta(), pinv.fin


@functools.cache
def _rep_maps(datum: RootDatum) -> tuple[tuple, ...]:
    """Per restricted rep, in order, (rep, k, v, rep^{-1}(0)) with (k, v) its
    :func:`_weight_map`: t_mu s rep^{-1} has translation part
    mu + s(rep^{-1}(0))."""
    return tuple(
        (rep, *_weight_map(rep), rep.inverse().trans) for rep in restricted_reps(datum)
    )


def _canonical_omega(datum: RootDatum, omega: WeightVec) -> WeightVec:
    """Normalize omega modulo (p - pi) X^0 (digit normal form on the last
    entries); the named Serre weight is unchanged."""
    last = tuple(row[-1] for row in omega.entries)
    digits = _x0_class_digits(datum, last)
    return WeightVec(
        tuple(
            tuple(x + d - row[-1] for x in row)
            for row, d in zip(omega.entries, digits)
        )
    )


def presentations_of(sigma: SerreWeight) -> list[SerrePresentation]:
    """All lowest-alcove presentations of sigma up to canonicalization (the
    element ranges over the restricted representatives modulo X^0, omega is
    normalized modulo (p - pi) X^0).  Empty exactly when sigma is not 0-deep."""
    datum = sigma.datum
    out = []
    for rep, k, v, _ in _rep_maps(datum):
        omega = v.inverse().act(sigma.lam - k)
        if not in_lowest_alcove(datum, omega):
            continue
        omega = _canonical_omega(datum, omega)
        if SerreWeight.from_weight(datum, k + v.act(omega)) != sigma:
            raise AssertionError("presentation solve failed to round-trip")
        out.append(SerrePresentation._prechecked(rep, omega))
    return out


# ---------------------------------------------------------------------------
# Deligne-Lusztig presentations


@dataclass(frozen=True, slots=True)
class DLPresentation:
    """Combinatorial name t_mu . s for a Deligne-Lusztig representation."""

    elt: ExtAffineElt

    @property
    def datum(self) -> RootDatum:
        return self.elt.datum

    @property
    def s(self) -> FiniteWeylElt:
        return self.elt.fin

    @property
    def mu(self) -> WeightVec:
        return self.elt.trans

    def lowest_alcove_depth(self) -> int | None:
        """Depth of mu - eta in C0 for this presentation, or None if the
        translation part does not sit over the lowest alcove."""
        datum = self.datum
        if not in_lowest_alcove(datum, self.mu):
            return None
        return depth_of(datum, self.mu - datum.eta())

    def to_json(self) -> dict:
        return self.elt.to_json()

    def sort_key(self) -> tuple:
        return self.elt.key()


@functools.cache
def _twist_positions(datum: RootDatum, w: FiniteWeylElt):
    """Cycles of the coordinate permutation underlying nu |-> w(pi(nu))."""
    f, n = datum.f, datum.n
    winv = w.inverse()

    def rho(pos):
        j, i = pos
        return ((j - 1) % f, winv.perms[j][i])

    seen = set()
    cycles = []
    for j in range(f):
        for i in range(n):
            if (j, i) in seen:
                continue
            cyc = [(j, i)]
            seen.add((j, i))
            cur = rho((j, i))
            while cur != (j, i):
                cyc.append(cur)
                seen.add(cur)
                cur = rho(cur)
            cycles.append(cyc)
    return cycles


def _solve_twisted(
    datum: RootDatum, w: FiniteWeylElt, target: WeightVec
) -> WeightVec | None:
    """Integer solution nu of p nu - w(pi(nu)) = target, if one exists.

    On each cycle z_0 -> z_1 -> ... of the underlying coordinate permutation
    the system is cyclic with unit determinant p^k - 1, so integrality reduces
    to one divisibility per cycle.
    """
    p = datum.p
    rows = [list(r) for r in datum.zero().entries]
    for cyc in _twist_positions(datum, w):
        k = len(cyc)
        acc = 0
        for t, (j, i) in enumerate(cyc):
            acc += p ** (k - 1 - t) * target.entries[j][i]
        if acc % (p**k - 1) != 0:
            return None
        val = acc // (p**k - 1)
        for t, (j, i) in enumerate(cyc):
            rows[j][i] = val
            val = p * val - target.entries[j][i]
    return WeightVec(tuple(tuple(r) for r in rows))


def _twisted_conjugates(R: DLPresentation):
    """For each finite Weyl r, the pair (w, b) with w = r s pi(r)^{-1} and
    b = r(mu); presentations of R are exactly (w, b + p nu - w pi nu)."""
    datum = R.datum
    for r in all_weyl_elements(datum):
        w = r * R.s * pi_weyl(r).inverse()
        yield w, r.act(R.mu)


def dl_equal(r1: DLPresentation, r2: DLPresentation) -> bool:
    """Whether two presentations name the same representation, via the exact
    orbit relation (no search box)."""
    if r1.datum != r2.datum:
        return False
    for w, b in _twisted_conjugates(r1):
        if w != r2.s:
            continue
        if _solve_twisted(r1.datum, w, r2.mu - b) is not None:
            return True
    return False


def _forced_row(p: int, c: list[int]) -> tuple[int, ...] | None:
    """The integer row x, normalized to last entry 0, with c + p x over the
    lowest alcove, or None if there is none.

    Every gap of c + p x must be positive while the gaps sum to less than p,
    so raising one difference of x by 1 would alone break the bound: each
    difference is forced to its least admissible value.
    """
    n = len(c)
    row = [0] * n
    spread = 0
    for i in range(n - 2, -1, -1):
        gap = c[i] - c[i + 1]
        d = -gap // p + 1
        row[i] = row[i + 1] + d
        spread += gap + p * d
    return tuple(row) if spread < p else None


def _c0_translations(
    datum: RootDatum, w: FiniteWeylElt, b: WeightVec
) -> list[tuple[tuple[int, ...], ...]]:
    """The rows of every weight b + p nu - w(pi(nu)) over the lowest alcove,
    one per class of nu modulo X^0 (nu normalized to last entry 0 in each
    embedding).

    Embedding j of that weight is b_j + p nu_j - w_j(nu_{j-1}), so nu_j is
    forced by nu_{j-1} (:func:`_forced_row`).  Taking spreads,
    p spread(nu_j) <= (p - 1) + spread(b_j) + spread(nu_{j-1}), so every
    spread of nu is at most ``bound``; that leaves each difference of
    nu_{f-1} a few values, and each start is followed once around the cycle.
    """
    p, n, f = datum.p, datum.n, datum.f
    winv = w.inverse().perms
    bound = 1 + max(max(row) - min(row) for row in b.entries) // (p - 1)
    last = b.entries[f - 1]
    ranges = []
    for i in range(n - 1):
        gap = last[i] - last[i + 1]
        lo = (-gap - bound) // p + 1
        hi = (-gap + bound) // p + 1
        ranges.append(range(lo, hi + 1))
    out = []
    for diffs in itertools.product(*ranges):
        start = [0] * n
        for i in range(n - 2, -1, -1):
            start[i] = start[i + 1] + diffs[i]
        start = prev = tuple(start)
        rows = []
        for j in range(f):
            c = [b.entries[j][i] - prev[winv[j][i]] for i in range(n)]
            prev = _forced_row(p, c)
            if prev is None:
                break
            rows.append(tuple(ci + p * x for ci, x in zip(c, prev)))
        if prev == start:
            out.append(tuple(rows))
    return out


def c0_presentations(
    R: DLPresentation, degrees: tuple[int, ...] | None = None
) -> list[DLPresentation]:
    """Lowest-alcove presentations (s', mu') of R, with mu' - eta in C0,
    sorted.

    With ``degrees`` the per-embedding degree of mu' is pinned exactly and the
    list is complete.  Without it the presentations come in X^0 classes
    (shifting nu by a constant moves mu' by (p - pi) of it), and the list
    holds one presentation per class, with mu' in the digit normal form of
    :func:`_canonical_omega`.  Depth and admissible-set memberships are
    invariant under that shift, which is all that unpinned callers need.
    The cost does not grow with p.
    """
    return list(_c0_presentations(R, degrees))


@functools.cache
def _c0_presentations(
    R: DLPresentation, degrees: tuple[int, ...] | None
) -> tuple[DLPresentation, ...]:
    datum = R.datum
    n = datum.n
    found: dict[tuple, DLPresentation] = {}
    for w, b in _twisted_conjugates(R):
        for rows in _c0_translations(datum, w, b):
            if degrees is None:
                mu2 = _canonical_omega(datum, WeightVec(rows))
            else:
                # the constant that pins the degrees must itself be a twist
                # (p - pi) c, so that mu2 stays in the orbit
                nums = [d - sum(row) for d, row in zip(degrees, rows)]
                if any(v % n for v in nums):
                    continue
                consts = tuple(v // n for v in nums)
                if any(_x0_class_digits(datum, consts)):
                    continue
                mu2 = WeightVec(rows) + x0_shift(datum, consts)
            cand = DLPresentation(ExtAffineElt(datum, mu2, w))
            found[cand.sort_key()] = cand
    return tuple(found[k] for k in sorted(found))


def is_m_generic(R: DLPresentation, m: int) -> bool:
    """Whether some presentation of R has translation part m-deep over the
    lowest alcove, that is whether :func:`max_genericity` is at least m."""
    if m < 0:
        raise ValidationError("genericity m must be >= 0")
    top = max_genericity(R)
    return top is not None and top >= m


def max_genericity(R: DLPresentation) -> int | None:
    """Largest m such that R is m-generic, or None if R has no lowest-alcove
    presentation at all.  Presentations in one X^0 class share their depth,
    so the deepest of the one-per-class list is the deepest of all."""
    return max(
        (pres.lowest_alcove_depth() for pres in c0_presentations(R)), default=None
    )


# ---------------------------------------------------------------------------
# Jordan-Holder sets


def _require_depth(x: DLPresentation, depth: int, what: str) -> None:
    """Refuse unless the given presentation x is depth-deep over the lowest
    alcove."""
    given = x.lowest_alcove_depth()
    if given is None or given < depth:
        raise DepthError(
            f"{what} requires the given presentation to be {depth}-deep over "
            f"the lowest alcove (found {given})"
        )


@functools.cache
def jh_set(R: DLPresentation) -> frozenset[SerreWeight]:
    """Jordan-Holder factors of the reduction of R, by the admissible-set
    criterion: sigma has a presentation (w, omega) with the translated lower
    interval of w0 w inside t_mu s Adm(eta).

    Requires the given translation part to be h_eta-deep over the lowest
    alcove; shallower input is refused.
    """
    _require_depth(R, R.datum.h_eta, "jh_set")
    datum = R.datum
    admissible = adm_eta(datum)
    out = set()
    for rep, k, v, _ in _rep_maps(datum):
        top = w0_element(datum) * rep
        top_inv = top.inverse()
        # t_omega top = t_mu s a for a in Adm(eta) with t_omega a translation;
        # y = a top^{-1} has finite part s^{-1}, so t_omega = t_mu s y and the
        # translated interval (t_mu s)^{-1} t_omega x is y x
        fin = R.s.inverse() * top.fin
        interval = bruhat_interval(top)
        for a in admissible:
            if a.fin != fin:
                continue
            y = a * top_inv
            omega = R.elt.act_weight(y.trans)
            if not in_lowest_alcove(datum, omega):
                continue
            if all(y * x in admissible for x in interval):
                out.add(SerreWeight.from_weight(datum, k + v.act(omega)))
    return frozenset(out)


def jh_set_by_reflection(R: DLPresentation) -> frozenset[SerreWeight]:
    """Jordan-Holder factors by the raising-order criterion: there are
    (w, omega) and a dominant u with u below wh . w in the raising order and
    t_omega in t_mu s u^{-1} W.  Cross-check path for :func:`jh_set`."""
    datum = R.datum
    _require_depth(R, datum.h_eta, "jh_set")
    out = set()
    for rep, k, v, _ in _rep_maps(datum):
        bound = wh_element(datum) * rep
        if not is_dominant_elt(bound):
            raise AssertionError("wh . w left the dominant region")
        for u in bruhat_interval(bound):
            if not is_dominant_elt(u):
                continue
            omega = (R.elt * u.inverse()).trans
            if not in_lowest_alcove(datum, omega):
                continue
            out.add(SerreWeight.from_weight(datum, k + v.act(omega)))
    return frozenset(out)


def jh_outer(R: DLPresentation) -> list[tuple[FiniteWeylElt, SerreWeight]]:
    """Outer Jordan-Holder factors: for each finite Weyl w the weight with
    presentation (w^diamond, t_mu s (wh w^diamond)^{-1}(0)), each listed once."""
    datum = R.datum
    _require_depth(R, datum.h_eta, "jh_outer")
    return [
        (w, _outer_weight(R, rep, k, v))
        for w, (rep, k, v, _) in zip(all_weyl_elements(datum), _rep_maps(datum))
    ]


def _outer_weight(
    R: DLPresentation, x: ExtAffineElt, k: WeightVec, v: FiniteWeylElt
) -> SerreWeight:
    """The outer factor of R named by a restricted x with :func:`_weight_map`
    (k, v): the weight of the presentation (x, R((wh x)^{-1}(0)))."""
    datum = R.datum
    omega = R.elt.act_weight((wh_element(datum) * x).inverse().trans)
    if not in_lowest_alcove(datum, omega):
        raise InvalidPresentationError("omega - eta does not lie in C0")
    return SerreWeight.from_weight(datum, k + v.act(omega))


def _outer_member(pres: SerrePresentation, u: FiniteWeylElt) -> DLPresentation:
    """R(t_{omega - u(v)} u) for v = (wh w1)^{-1}(0): the member indexed by u
    of the family of representations with the weight of pres as an outer
    factor."""
    at_zero = (wh_element(pres.datum) * pres.w1).inverse().trans
    return DLPresentation(ExtAffineElt(pres.datum, pres.omega - u.act(at_zero), u))


def covers(kappa: SerreWeight, sigma: SerreWeight) -> bool:
    """The covering order: sigma lies in the Jordan-Holder set of every
    Deligne-Lusztig representation with kappa among its outer factors.  That
    family is exactly {R(t_{nu_u} u) : u finite Weyl} built from any fixed
    presentation of kappa."""
    datum = kappa.datum
    dk = d_sigma(kappa)
    if kappa.depth < datum.h_eta + dk:
        raise DepthError(
            f"covers requires kappa to be {datum.h_eta + dk}-deep "
            f"(found {kappa.depth})"
        )
    pres = presentations_of(kappa)[0]
    return all(
        sigma in jh_set(_outer_member(pres, u)) for u in all_weyl_elements(datum)
    )


def outer_family(kappa: SerreWeight) -> list[DLPresentation]:
    """The 0-generic representations with kappa as an outer factor."""
    datum = kappa.datum
    if kappa.depth < d_sigma(kappa):
        raise DepthError("outer_family requires kappa to be d_sigma-deep")
    pres = presentations_of(kappa)[0]
    return [_outer_member(pres, u) for u in all_weyl_elements(datum)]
