"""The extended affine Weyl group of a product of GL_n factors.

Elements are written t_lam . w and act on X*(T) (x) R on the left by
x |-> lam + w(x).  The group splits as W_a x| Omega where W_a is the affine
Weyl group (translations in the root lattice) and Omega, the length-zero
stabilizer of the base alcove, is free abelian on one generator per
embedding (u_j = t_{e_0} . (n-cycle) in factor j).

Lengths come in two flavours: a closed-form evaluation (used everywhere) and
an independent hyperplane-count in :mod:`alcove.oracle`.  Every alcove test
locates w(A0) by an integer point, n times its sample point.  Left descents
are read off by folding that point into A0 across the walls of A0, which
gives the canonical reduced word; the Bruhat order is a walk along that word
whose descents are read off the same way.  The Jantzen-style raising order is
decided by the Bruhat order on a dominant translate of the two alcoves.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .root_data import (
    BudgetError,
    FiniteWeylElt,
    Root,
    RootDatum,
    ValidationError,
    WeightVec,
    all_weyl_elements,
    frobenius_pi_inv,
    pairing,
    pi_weyl_inv,
    x0_shift,
)

DEFAULT_INTERVAL_BUDGET = 14


@dataclass(frozen=True, slots=True)
class ExtAffineElt:
    """t_trans . fin, acting on points by x |-> trans + fin(x)."""

    datum: RootDatum
    trans: WeightVec
    fin: FiniteWeylElt

    @staticmethod
    def identity(datum: RootDatum) -> "ExtAffineElt":
        return ExtAffineElt(datum, datum.zero(), FiniteWeylElt.identity(datum))

    @staticmethod
    def from_translation(datum: RootDatum, lam: WeightVec) -> "ExtAffineElt":
        return ExtAffineElt(datum, lam, FiniteWeylElt.identity(datum))

    @staticmethod
    def from_finite(datum: RootDatum, w: FiniteWeylElt) -> "ExtAffineElt":
        return ExtAffineElt(datum, datum.zero(), w)

    def __mul__(self, other: "ExtAffineElt") -> "ExtAffineElt":
        # (t_a w)(t_b v) = t_{a + w(b)} (w v)
        return ExtAffineElt(
            self.datum,
            self.trans + self.fin.act(other.trans),
            self.fin * other.fin,
        )

    def inverse(self) -> "ExtAffineElt":
        winv = self.fin.inverse()
        return ExtAffineElt(self.datum, -winv.act(self.trans), winv)

    def is_identity(self) -> bool:
        return self.trans.is_zero() and self.fin.is_identity()

    def act_weight(self, lam: WeightVec) -> WeightVec:
        return self.trans + self.fin.act(lam)

    def omega_degrees(self) -> tuple[int, ...]:
        """Per-embedding class in W~/W_a; a group homomorphism to Z^f."""
        return self.trans.degrees()

    def to_json(self) -> dict:
        return {"trans": self.trans.to_json(), "perm": self.fin.to_json()}

    def key(self) -> tuple:
        return (self.trans.entries, self.fin.perms)


def _act_scaled(w: ExtAffineElt, point: WeightVec, scale: int) -> WeightVec:
    """scale . w(point / scale) = scale trans + fin(point): the action of w on
    a point that is stored multiplied by scale."""
    return w.trans.scale(scale) + w.fin.act(point)


def p_dot(w: ExtAffineElt, lam: WeightVec) -> WeightVec:
    """The p-dot action (t_nu v) . lam = p nu + v(lam + eta) - eta."""
    eta = w.datum.eta()
    return _act_scaled(w, lam + eta, w.datum.p) - eta


def pi_elt_inv(w: ExtAffineElt) -> ExtAffineElt:
    return ExtAffineElt(w.datum, frobenius_pi_inv(w.trans), pi_weyl_inv(w.fin))


# ---------------------------------------------------------------------------
# generators, length, reduced words


def _cycle_perm(n: int) -> tuple[int, ...]:
    return tuple((i + 1) % n for i in range(n))


def omega_generator(datum: RootDatum, j: int) -> ExtAffineElt:
    """The length-zero generator of Omega in embedding j."""
    rows = [[0] * datum.n for _ in range(datum.f)]
    rows[j][0] = 1
    perms = [tuple(range(datum.n)) for _ in range(datum.f)]
    perms[j] = _cycle_perm(datum.n)
    return ExtAffineElt(
        datum,
        WeightVec(tuple(tuple(r) for r in rows)),
        FiniteWeylElt(tuple(perms)),
    )


def omega_element(datum: RootDatum, degrees) -> ExtAffineElt:
    """The Omega element with given per-embedding degree vector, in closed
    form: u_j^n = t_{(1, ..., 1)} in embedding j is central, so with
    q, r = divmod(m, n), u_j^m = t_{q (1, ..., 1)} . u_j^r, and u_j^r is the
    translation by r leading ones times the r-th power of the n-cycle."""
    if len(degrees) != datum.f:
        raise ValidationError(f"expected {datum.f} Omega degrees, got {len(degrees)}")
    n = datum.n
    rows, perms = [], []
    for m in degrees:
        q, r = divmod(m, n)
        rows.append(tuple(q + (i < r) for i in range(n)))
        perms.append(tuple((i + r) % n for i in range(n)))
    return ExtAffineElt(datum, WeightVec(tuple(rows)), FiniteWeylElt(tuple(perms)))


def simple_reflection(datum: RootDatum, beta: Root) -> ExtAffineElt:
    """Reflection in the finite Weyl group attached to any root."""
    perms = [list(range(datum.n)) for _ in range(datum.f)]
    perms[beta.j][beta.i], perms[beta.j][beta.k] = beta.k, beta.i
    return ExtAffineElt.from_finite(
        datum, FiniteWeylElt(tuple(tuple(p) for p in perms))
    )


def affine_reflection(datum: RootDatum, beta: Root, level: int) -> ExtAffineElt:
    """Reflection across the hyperplane <x, beta^> = level."""
    s = simple_reflection(datum, beta)
    rows = [[0] * datum.n for _ in range(datum.f)]
    rows[beta.j][beta.i] = level
    rows[beta.j][beta.k] = -level
    return ExtAffineElt(datum, WeightVec(tuple(tuple(r) for r in rows)), s.fin)


@functools.cache
def coxeter_generators(datum: RootDatum) -> tuple[tuple[str, ExtAffineElt], ...]:
    """Labelled Coxeter generators of W_a: per embedding j the finite wall
    reflections s1@j .. s{n-1}@j and the affine reflection s0@j across the
    level-one wall of the highest root."""
    gens: list[tuple[str, ExtAffineElt]] = []
    for j in range(datum.f):
        for i in range(datum.n - 1):
            gens.append((f"s{i + 1}@{j}", simple_reflection(datum, Root(j, i, i + 1))))
        gens.append((f"s0@{j}", affine_reflection(datum, Root(j, 0, datum.n - 1), 1)))
    return tuple(gens)


def length(w: ExtAffineElt) -> int:
    """Closed-form length of t_lam . v: sum over positive roots beta of
    |<lam, beta^>| when v^{-1} beta > 0 and |<lam, beta^> - 1| otherwise."""
    datum = w.datum
    vinv = w.fin.inverse()
    total = 0
    for beta in datum.positive_roots():
        c = pairing(w.trans, beta)
        back = vinv.act_root(beta)
        if back.is_positive:
            total += abs(c)
        else:
            total += abs(c - 1)
    return total


@functools.cache
def _canonical_word_indices(wa: ExtAffineElt) -> tuple[int, ...]:
    """Canonical reduced word of a W_a element as generator indices: the fold
    of a point of wa(A0), so each letter is the first left descent."""
    if any(wa.omega_degrees()):
        raise ValidationError("element is not in the affine Weyl group")
    return tuple(_fold(wa.datum, _alcove_point(wa), wa.datum.n))


@dataclass(frozen=True, slots=True)
class OmegaDecomp:
    """w = wa . delta with wa in W_a and delta of length zero."""

    wa: ExtAffineElt
    delta: ExtAffineElt


def omega_decompose(w: ExtAffineElt) -> OmegaDecomp:
    delta = omega_element(w.datum, w.omega_degrees())
    wa = w * delta.inverse()
    if wa.omega_degrees() != (0,) * w.datum.f:
        raise ValidationError("omega decomposition failed")
    return OmegaDecomp(wa, delta)


def reduced_word(w: ExtAffineElt) -> list[str]:
    """Canonical reduced word: Coxeter generator labels followed by the
    Omega part, one ``omega^m@j`` label per embedding with m != 0."""
    dec = omega_decompose(w)
    gens = coxeter_generators(w.datum)
    labels = [gens[i][0] for i in _canonical_word_indices(dec.wa)]
    for j, m in enumerate(dec.delta.omega_degrees()):
        if m != 0:
            labels.append(f"omega^{m}@{j}")
    return labels


# ---------------------------------------------------------------------------
# walls of the base alcove, and folding into it


@functools.cache
def _generator_walls(datum: RootDatum) -> tuple[tuple[Root, int], ...]:
    """Wall of A0 fixed by each Coxeter generator, aligned with
    coxeter_generators ordering."""
    walls = []
    for j in range(datum.f):
        for i in range(datum.n - 1):
            walls.append((Root(j, i, i + 1), 0))
        walls.append((Root(j, 0, datum.n - 1), 1))
    return tuple(walls)


def _alcove_point(w: ExtAffineElt) -> WeightVec:
    """n times the sample point of w(A0).  The sample point of A0 is eta / n,
    so this is the integer weight n trans + fin(eta)."""
    return _act_scaled(w, w.datum.eta(), w.datum.n)


def _beyond(point: WeightVec, wall: tuple[Root, int], scale: int) -> bool:
    """Whether the wall of A0 separates point / scale from A0; a point on the
    wall is refused."""
    beta, level = wall
    v = pairing(point, beta)
    if v == level * scale:
        raise ValidationError("point lies on an affine wall")
    return v < 0 if level == 0 else v > scale


def _fold(datum: RootDatum, point: WeightVec, scale: int) -> list[int]:
    """Fold point / scale into A0, each time across the first wall of A0 that
    it lies beyond.  The generators applied, multiplied in order, carry A0 to
    the alcove of point / scale.  Since l(s w) < l(w) iff the wall of s
    separates A0 from w(A0) (Humphreys, Reflection Groups and Coxeter Groups,
    4.5), each letter is the first left descent of what is left, so the word
    is reduced."""
    gens = coxeter_generators(datum)
    walls = _generator_walls(datum)
    word: list[int] = []
    while True:
        idx = next(
            (i for i, wall in enumerate(walls) if _beyond(point, wall, scale)), None
        )
        if idx is None:
            return word
        word.append(idx)
        point = _act_scaled(gens[idx][1], point, scale)


def alcove_element_of_point(
    datum: RootDatum, point: WeightVec, scale: int
) -> ExtAffineElt:
    """The affine Weyl group element w with point / scale in w(A0): the
    product of the generators that fold that point into the base alcove."""
    gens = coxeter_generators(datum)
    out = ExtAffineElt.identity(datum)
    for idx in _fold(datum, point, scale):
        out = out * gens[idx][1]
    return out


# ---------------------------------------------------------------------------
# region membership


def _simple_pairings(w: ExtAffineElt) -> list[int]:
    """n times the simple pairings of the sample point of w(A0)."""
    point = _alcove_point(w)
    return [pairing(point, beta) for beta in w.datum.simple_roots()]


def is_dominant_elt(w: ExtAffineElt) -> bool:
    """w(A0) dominant: positive simple pairings on an interior point."""
    return all(v > 0 for v in _simple_pairings(w))


def is_restricted_elt(w: ExtAffineElt) -> bool:
    """w(A0) restricted: simple pairings within (0, 1), that is n times them
    within (0, n)."""
    n = w.datum.n
    return all(0 < v < n for v in _simple_pairings(w))


def w0_element(datum: RootDatum) -> ExtAffineElt:
    return ExtAffineElt.from_finite(datum, FiniteWeylElt.longest(datum))


def wh_element(datum: RootDatum) -> ExtAffineElt:
    """w0 . t_{-eta}, the restricted element pairing the lowest and highest
    restricted alcoves."""
    return w0_element(datum) * ExtAffineElt.from_translation(datum, -datum.eta())


def diamond(w: ExtAffineElt) -> ExtAffineElt:
    """The canonical restricted representative t_nu . w of X*(T) w.

    Existence: restricted alcoves form a fundamental domain for translations.
    The translation is pinned modulo X^0 by requiring the minimum entry of
    each embedding component of the result's translation part to be 0.
    """
    datum = w.datum
    n = datum.n
    shift_rows = []
    for row in _alcove_point(w).entries:
        nu = [0] * n
        for i in range(n - 2, -1, -1):
            # unique integer with 0 < (row[i] + n nu[i]) - (row[i+1] + n nu[i+1]) < n
            nu[i] = (row[i + 1] + n * nu[i + 1] - row[i]) // n + 1
        shift_rows.append(tuple(nu))
    cand = ExtAffineElt.from_translation(datum, WeightVec(tuple(shift_rows))) * w
    # normalize the X^0 ambiguity: minimum translation entry 0 per embedding
    mins = [-min(row) for row in cand.trans.entries]
    out = ExtAffineElt.from_translation(datum, x0_shift(datum, mins)) * cand
    if not is_restricted_elt(out):
        raise ValidationError("diamond construction left the restricted region")
    return out


@functools.cache
def restricted_reps(datum: RootDatum) -> tuple[ExtAffineElt, ...]:
    """Canonical representatives of the restricted elements modulo X^0, one
    per finite Weyl element: the diamond of each element of
    :func:`all_weyl_elements`, in that order."""
    return tuple(
        diamond(ExtAffineElt.from_finite(datum, w))
        for w in all_weyl_elements(datum)
    )


# ---------------------------------------------------------------------------
# Bruhat order


def bruhat_leq(u: ExtAffineElt, w: ExtAffineElt) -> bool:
    """Bruhat order on the extended group: equal Omega parts and the lifting
    property recursion on the affine Weyl group parts."""
    if u.omega_degrees() != w.omega_degrees():
        return False
    delta_inv = omega_element(u.datum, u.omega_degrees()).inverse()
    return _bruhat_wa(u * delta_inv, w * delta_inv)


@functools.cache
def _bruhat_wa(u: ExtAffineElt, w: ExtAffineElt) -> bool:
    """Lifting property (Bjorner-Brenti, Prop. 2.2.7) as a walk along the
    canonical reduced word of w: for its first letter s, u <= w iff
    min(u, su) <= sw, and su < u iff the wall of s separates A0 from u(A0).
    Only the point of u(A0) and the length of u are carried."""
    datum = w.datum
    gens = coxeter_generators(datum)
    walls = _generator_walls(datum)
    word = _canonical_word_indices(w)
    point = _alcove_point(u)
    lu = length(u)
    for k, idx in enumerate(word):
        if lu > len(word) - k:
            return False
        if lu == 0:
            return True
        if _beyond(point, walls[idx], datum.n):
            point = _act_scaled(gens[idx][1], point, datum.n)
            lu -= 1
    return lu == 0


def bruhat_interval(w: ExtAffineElt) -> list[ExtAffineElt]:
    """The lower Bruhat interval of w, enumerated by subword dynamic
    programming over the canonical reduced word."""
    if length(w) > DEFAULT_INTERVAL_BUDGET:
        raise BudgetError(
            f"interval of an element of length {length(w)} exceeds budget "
            f"{DEFAULT_INTERVAL_BUDGET}"
        )
    return list(_lower_interval(w))


@functools.cache
def _lower_interval(w: ExtAffineElt) -> tuple[ExtAffineElt, ...]:
    """The lower interval of w in (length, key) order, sorted once, when the
    memo fills."""
    datum = w.datum
    dec = omega_decompose(w)
    gens = coxeter_generators(datum)
    e = ExtAffineElt.identity(datum)
    elements: dict[tuple, ExtAffineElt] = {e.key(): e}
    for idx in _canonical_word_indices(dec.wa):
        s = gens[idx][1]
        for x in [x * s for x in elements.values()]:
            elements.setdefault(x.key(), x)
    interval = (x * dec.delta for x in elements.values())
    return tuple(sorted(interval, key=lambda x: (length(x), x.key())))


# ---------------------------------------------------------------------------
# the raising (Jantzen) order


def _dominates(lo: WeightVec, hi: WeightVec) -> bool:
    """Whether hi is above lo in the dominance order: each prefix sum of each
    row of lo is at most the matching prefix sum of hi.  A chain of raising
    moves from lo to hi exists only if this holds."""
    return all(
        a <= b
        for row_lo, row_hi in zip(lo.entries, hi.entries)
        for a, b in zip(itertools.accumulate(row_lo), itertools.accumulate(row_hi))
    )


def up_leq(u: ExtAffineElt, w: ExtAffineElt) -> bool:
    """The raising order on the extended group: equal Omega parts, and the
    alcove of u below the alcove of w in the Jantzen order.

    The raising order is invariant under translation by X, and on dominant
    alcoves it equals the Bruhat order (Lusztig, Adv. Math. 1980; the oracle
    suite cross-validates this against a chain search).  So both elements are
    translated by the smallest sum of fundamental weights that makes them
    dominant, and the Bruhat order decides there.
    """
    if u.omega_degrees() != w.omega_degrees():
        return False
    if u.key() == w.key():
        return True
    datum = u.datum
    lo, hi = _alcove_point(u), _alcove_point(w)
    # equal Omega degrees give equal row sums, so prefix sums decide dominance
    if not _dominates(lo, hi):
        return False
    lam = datum.zero()
    for alpha in datum.simple_roots():
        k = max(
            0,
            -pairing(lo, alpha) // datum.n + 1,
            -pairing(hi, alpha) // datum.n + 1,
        )
        lam = lam + datum.omega_alpha(alpha).scale(k)
    shift = ExtAffineElt.from_translation(datum, lam)
    return bruhat_leq(shift * u, shift * w)


# ---------------------------------------------------------------------------
# admissible sets


@functools.cache
def adm_eta(datum: RootDatum) -> frozenset[ExtAffineElt]:
    """Adm(eta): the union of the lower Bruhat intervals of the translations
    t_{w(eta)}, each within the default interval budget."""
    members: set[ExtAffineElt] = set()
    for w in all_weyl_elements(datum):
        t = ExtAffineElt.from_translation(datum, w.act(datum.eta()))
        members.update(bruhat_interval(t))
    return frozenset(members)
