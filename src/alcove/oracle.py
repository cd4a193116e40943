"""Brute-force reference implementations and exhaustive lemma sweeps.

Everything here is deliberately naive and kept separate from the optimized
paths: lengths are counted from alcove vertices, the Bruhat order is decided
by subword tests over every reduced word, and the raising order by a fresh
breadth-first chain search on rational sample points.  A bug in the fast
paths cannot also live here.  This is the only module that builds exact
rational points, and it holds the reference enumerations (elements by
length, boxes of elements) that the sweeps and tests draw from.

:func:`lemma_sweeps` drives the exhaustive verification harness.  Failures
are report content with serialized witnesses, never exceptions.  Named
mutations deliberately drop a hypothesis to demonstrate the harness can fail.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import affine_weyl as aw
from . import herzig as hz
from . import weights_dl as wd
from .affine_weyl import ExtAffineElt
from .presentation_scan import (
    SCAN_BUDGET,
    _weight_from_pattern,
    compare_with_scan,
    eta_c0_weights,
    scan_size,
)
from .root_data import (
    BudgetError,
    FiniteWeylElt,
    Root,
    RootDatum,
    ValidationError,
    WeightVec,
    all_weyl_elements,
    frobenius_pi,
    in_lowest_alcove,
    is_p_restricted,
    pairing,
    x0_shift,
)

ORACLE_LENGTH_BUDGET = 8
ELIMINATION_CAP = 800
WITNESS_CAP = 12


# ---------------------------------------------------------------------------
# independent length


def hyperplane_count_length(w: ExtAffineElt) -> int:
    """Length as the number of affine hyperplanes separating the base alcove
    from its image, read off from exact vertex evaluations: for each positive
    root the image strip is (c, c+1) and contributes |c| crossings."""
    datum = w.datum
    images = [w.act_weight(v) for v in datum.base_vertices()]
    total = 0
    for beta in datum.positive_roots():
        total += abs(min(pairing(img, beta) for img in images))
    return total


# ---------------------------------------------------------------------------
# brute-force Bruhat order


@functools.cache
def all_reduced_words(w: ExtAffineElt) -> tuple[tuple[int, ...], ...]:
    """Every reduced word of an affine Weyl group element, as tuples of
    generator indices, found by peeling each left descent in turn.  Beyond
    the word budget it raises BudgetError, and the memo stores nothing."""
    ell = hyperplane_count_length(w)
    if ell > ORACLE_LENGTH_BUDGET:
        raise BudgetError(
            f"length {ell} exceeds the oracle word budget {ORACLE_LENGTH_BUDGET}"
        )
    if ell == 0:
        if not w.is_identity():
            raise ValueError("length-zero element outside W_a")
        return ((),)
    collected = []
    for idx, (_, s) in enumerate(aw.coxeter_generators(w.datum)):
        shorter = s * w
        if hyperplane_count_length(shorter) == ell - 1:
            for rest in all_reduced_words(shorter):
                collected.append((idx,) + rest)
    return tuple(collected)


@functools.cache
def subword_closure(w: ExtAffineElt) -> frozenset:
    """Set of keys of all subword products of the reduced words of w.  The
    subword property makes the set independent of the word; that independence
    is asserted across every word rather than assumed.  Refused, like
    :func:`all_reduced_words`, beyond the word budget."""
    words = all_reduced_words(w)
    gens = aw.coxeter_generators(w.datum)
    e = ExtAffineElt.identity(w.datum)
    closure: frozenset | None = None
    for word in words:
        elements = {e.key(): e}
        for idx in word:
            s = gens[idx][1]
            for x in list(elements.values()):
                y = x * s
                elements.setdefault(y.key(), y)
        current = frozenset(elements)
        if closure is None:
            closure = current
        elif closure != current:
            raise AssertionError(
                "subword closures disagree across reduced words"
            )
    assert closure is not None
    return closure


def brute_bruhat(u: ExtAffineElt, w: ExtAffineElt) -> bool:
    """Bruhat order by the subword test over all reduced words."""
    if u.omega_degrees() != w.omega_degrees():
        return False
    delta_inv = aw.omega_element(u.datum, u.omega_degrees()).inverse()
    ua, wa = u * delta_inv, w * delta_inv
    return ua.key() in subword_closure(wa)


# ---------------------------------------------------------------------------
# exact rational points


# Rational points of X*(T) (x) R, as f-tuples of Fraction n-tuples.
Point = tuple[tuple[Fraction, ...], ...]


def sample_point(datum: RootDatum) -> Point:
    """Exact rational interior point of A0: per embedding ((n-1)/n, ..., 1/n,
    0).  Its root pairings are non-integral, so no image meets a wall."""
    row = tuple(Fraction(datum.n - 1 - i, datum.n) for i in range(datum.n))
    return (row,) * datum.f


def pair_point(point: Point, beta: Root) -> Fraction:
    row = point[beta.j]
    return row[beta.i] - row[beta.k]


def act_point(w: ExtAffineElt, point: Point) -> Point:
    """w(point) = trans + fin(point), where fin moves entry i of row j to
    position perm_j[i]."""
    out = []
    for trow, perm, row in zip(w.trans.entries, w.fin.perms, point):
        moved = [None] * len(row)
        for i, x in enumerate(row):
            moved[perm[i]] = x
        out.append(tuple(a + b for a, b in zip(trow, moved)))
    return tuple(out)


# ---------------------------------------------------------------------------
# brute-force raising order


def _point_prefixes(point) -> list[tuple[Fraction, ...]]:
    out = []
    for row in point:
        acc = Fraction(0)
        pref = []
        for a in row:
            acc += a
            pref.append(acc)
        out.append(tuple(pref))
    return out


def brute_up(u: ExtAffineElt, w: ExtAffineElt) -> bool:
    """Raising order by forward breadth-first closure of single upward wall
    reflections on exact sample points.  Chains are confined to the dominance
    interval between the two alcoves, so exhaustion is definitive."""
    if u.omega_degrees() != w.omega_degrees():
        return False
    datum = u.datum
    start = act_point(u, sample_point(datum))
    goal = act_point(w, sample_point(datum))
    if start == goal:
        return True
    lo_pref, hi_pref = _point_prefixes(start), _point_prefixes(goal)
    for j in range(datum.f):
        if lo_pref[j][-1] != hi_pref[j][-1]:
            return False
        if any(a > b for a, b in zip(lo_pref[j], hi_pref[j])):
            return False

    def admissible(point) -> bool:
        pref = _point_prefixes(point)
        for j in range(datum.f):
            for t in range(datum.n):
                if not lo_pref[j][t] <= pref[j][t] <= hi_pref[j][t]:
                    return False
        return True

    roots = datum.positive_roots()
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for point in frontier:
            for beta in roots:
                val = pair_point(point, beta)
                m = math.floor(val) + 1
                while True:
                    delta = m - val
                    rows = [list(r) for r in point]
                    rows[beta.j][beta.i] += delta
                    rows[beta.j][beta.k] -= delta
                    new = tuple(tuple(r) for r in rows)
                    if not admissible(new):
                        break
                    if new == goal:
                        return True
                    if new not in seen:
                        seen.add(new)
                        nxt.append(new)
                    m += 1
        frontier = nxt
    return False


# ---------------------------------------------------------------------------
# reference enumerations


def elements_of_length_leq(
    datum: RootDatum, max_length: int, degrees: tuple[int, ...] | None = None
) -> list[ExtAffineElt]:
    """All elements of W_a (optionally shifted into a fixed Omega class) with
    length at most max_length, by breadth-first growth."""
    gens = aw.coxeter_generators(datum)
    seen = {ExtAffineElt.identity(datum).key(): ExtAffineElt.identity(datum)}
    frontier = [ExtAffineElt.identity(datum)]
    for cur_len in range(max_length):
        nxt = []
        for x in frontier:
            for _, s in gens:
                y = x * s
                if hyperplane_count_length(y) == cur_len + 1 and y.key() not in seen:
                    seen[y.key()] = y
                    nxt.append(y)
        frontier = nxt
    out = list(seen.values())
    if degrees is not None:
        delta = aw.omega_element(datum, degrees)
        out = [x * delta for x in out]
    return sorted(out, key=lambda x: (hyperplane_count_length(x), x.key()))


def box_elements(datum: RootDatum, radius: int):
    """Every element t_lam . w with translation entries in [-radius, radius],
    translation-major in product order, w in all_weyl_elements order."""
    rng = range(-radius, radius + 1)
    rows = list(itertools.product(rng, repeat=datum.n))
    weyl = all_weyl_elements(datum)
    for combo in itertools.product(rows, repeat=datum.f):
        lam = WeightVec(combo)
        for w in weyl:
            yield ExtAffineElt(datum, lam, w)


def _one_copy(datum: RootDatum) -> RootDatum:
    return RootDatum(datum.n, 1, datum.p)


def _sorted_product(datum: RootDatum, copies) -> list[ExtAffineElt]:
    """Every element whose factor in embedding j lies in copies[j], in
    (length, key) order."""
    out = [
        ExtAffineElt(
            datum,
            WeightVec(tuple(x.trans.entries[0] for x in combo)),
            FiniteWeylElt(tuple(x.fin.perms[0] for x in combo)),
        )
        for combo in itertools.product(*copies)
    ]
    return sorted(out, key=lambda x: (hyperplane_count_length(x), x.key()))


def dominant_box(datum: RootDatum, radius: int) -> list[ExtAffineElt]:
    """All dominant elements t_lam . w with translation entries in
    [-radius, radius], in (length, key) order.  An element is dominant iff
    its factor in every embedding is, so this is a product of one-copy boxes."""
    copy_box = filter(aw.is_dominant_elt, box_elements(_one_copy(datum), radius))
    return _sorted_product(datum, [list(copy_box)] * datum.f)


def _dominant_below(
    datum: RootDatum, copy_box: list[ExtAffineElt], bound: ExtAffineElt
) -> list[ExtAffineElt]:
    """The elements of the dominant box below bound in the raising order, in
    (length, key) order.  The raising order holds iff it holds in every
    embedding, so the one-copy box is filtered against each factor of bound."""
    one = _one_copy(datum)
    factors = [
        ExtAffineElt(one, WeightVec((row,)), FiniteWeylElt((perm,)))
        for row, perm in zip(bound.trans.entries, bound.fin.perms)
    ]
    return _sorted_product(
        datum, [[x for x in copy_box if aw.up_leq(x, b)] for b in factors]
    )


# ---------------------------------------------------------------------------
# sweep harness


MUTATIONS = {
    "drop-restricted-hypothesis": "the wall-crossing pairing sweep draws its "
    "element from non-restricted dominant elements",
    "drop-dominant-hypothesis": "the reduced-factorization sweep replaces the "
    "raising-order hypothesis with a scan of non-dominant elements",
    "drop-lattice-hypothesis": "the presentation-rigidity sweep drops the "
    "root-lattice congruence between the two translation parts",
}


@dataclass(frozen=True)
class SweepConfig:
    n: int
    f: int
    p: int
    box_radius: int = 3
    tau_samples: int = 4
    pair_samples: int = 6
    seed: int = 2024
    mutations: frozenset = frozenset()
    sweeps: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        # a sweep that samples nothing would pass while checking nothing
        if min(self.tau_samples, self.pair_samples) < 1 or self.box_radius < 0:
            raise ValidationError("sample counts must be >= 1 and box_radius >= 0")


@dataclass
class SweepResult:
    name: str
    checked: int = 0
    counterexamples: list = field(default_factory=list)
    skipped: str | None = None

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def note(self, witness: dict) -> None:
        if len(self.counterexamples) < WITNESS_CAP:
            self.counterexamples.append(witness)
        else:
            self.counterexamples[-1] = {"suppressed": "further witnesses"}

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "passed": self.passed,
            "skipped": self.skipped,
            "counterexamples": self.counterexamples,
        }


@dataclass
class SweepReport:
    config: SweepConfig
    results: list[SweepResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "config": {
                "n": self.config.n,
                "f": self.config.f,
                "p": self.config.p,
                "box_radius": self.config.box_radius,
                "tau_samples": self.config.tau_samples,
                "pair_samples": self.config.pair_samples,
                "seed": self.config.seed,
                "mutations": sorted(self.config.mutations),
                "sweeps": (
                    None if self.config.sweeps is None else list(self.config.sweeps)
                ),
            },
            "passed": self.passed,
            "sweeps": [r.to_json() for r in self.results],
        }


def _deep_tau_samples(
    datum: RootDatum, count: int, depth: int, rng: random.Random
) -> list[hz.TameParam]:
    """Deterministic pseudo-random tame parameters with the given presentation
    depth over the lowest alcove."""
    if datum.p - depth - 1 < (depth + 1) * (datum.n - 1):
        raise BudgetError(
            f"p = {datum.p} admits no parameters {depth}-deep over the lowest "
            f"alcove at n = {datum.n}"
        )
    weyl = all_weyl_elements(datum)
    out = []
    guard = 0
    while len(out) < count and guard < 10000:
        guard += 1
        s = rng.choice(weyl)
        pattern, bases = [], []
        for _ in range(datum.f):
            diffs = [
                rng.randint(depth + 1, datum.p - depth - 1)
                for _ in range(datum.n - 1)
            ]
            if sum(diffs) > datum.p - depth - 1:
                break
            pattern.append(diffs)
            bases.append(rng.randint(0, datum.p - 2))
        if len(pattern) < datum.f:
            continue
        mu = _weight_from_pattern(datum, pattern, bases) + datum.eta()
        if in_lowest_alcove(datum, mu, depth):
            out.append(hz.TameParam(ExtAffineElt(datum, mu, s)))
    if len(out) < count:
        raise BudgetError(
            f"could not sample {count} parameters of depth {depth} at p={datum.p}"
        )
    return out


def _restricted_pool(
    datum: RootDatum, config: SweepConfig
) -> tuple[ExtAffineElt, ...]:
    if "drop-restricted-hypothesis" in config.mutations:
        pool = [
            x
            for x in dominant_box(datum, 1)
            if not aw.is_restricted_elt(x) and aw.length(x) <= 3
        ]
        return tuple(pool[:4])
    return aw.restricted_reps(datum)


def _sweep_reduced1(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    wh_inv = aw.wh_element(datum).inverse()
    w0 = aw.w0_element(datum)
    mutated = "drop-dominant-hypothesis" in config.mutations
    if mutated:
        box = [
            x
            for x in box_elements(datum, 1)
            if not aw.is_dominant_elt(x) and aw.length(x) <= 4
        ]
    else:
        copy_box = dominant_box(_one_copy(datum), config.box_radius)
    for w2 in aw.restricted_reps(datum):
        below = box if mutated else _dominant_below(datum, copy_box, wh_inv * w2)
        for w1 in below:
            # a mutated sweep only demonstrates sensitivity; stop once enough
            # witnesses are found
            if mutated and len(res.counterexamples) >= 3:
                return
            for alpha in datum.simple_roots():
                s_a = aw.simple_reflection(datum, alpha)
                res.checked += 1
                lhs = aw.length(w2.inverse() * s_a * w0 * w1)
                rhs = (
                    aw.length(w2.inverse())
                    + aw.length(s_a * w0)
                    + aw.length(w1)
                )
                if lhs != rhs:
                    res.note(
                        {
                            "w2": w2.to_json(),
                            "w1": w1.to_json(),
                            "alpha": [alpha.j, alpha.i + 1, alpha.k + 1],
                            "length": lhs,
                            "expected": rhs,
                        }
                    )


def _omega_of_diamond(datum: RootDatum, x: ExtAffineElt) -> WeightVec:
    return (aw.diamond(x) * x.inverse()).trans


def _sweep_omega(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    """The four pairing constraints on the translation correcting s_alpha w2
    back into the restricted region.  Distinct simple roots in type A pair
    to -1 when adjacent in the same embedding and to 0 otherwise."""
    for w2 in _restricted_pool(datum, config):
        for alpha in datum.simple_roots():
            s_a = aw.simple_reflection(datum, alpha)
            omega = _omega_of_diamond(datum, s_a * w2)
            res.checked += 1
            bad = []
            if pairing(omega, alpha) != 1:
                bad.append(["pair_alpha", pairing(omega, alpha)])
            omega_alpha = datum.omega_alpha(alpha)
            for beta in datum.simple_roots():
                if beta == alpha:
                    continue
                adjacent = beta.j == alpha.j and (
                    beta.i == alpha.k or beta.k == alpha.i
                )
                value = pairing(omega, beta)
                if not adjacent and value != 0:
                    bad.append(["pair_orthogonal", [beta.j, beta.i + 1], value])
                if value > 0:
                    bad.append(["pair_nonpositive", [beta.j, beta.i + 1], value])
            for gamma in datum.positive_roots():
                if pairing(omega_alpha, gamma) <= 1 and pairing(omega, gamma) > 1:
                    bad.append(
                        ["pair_bounded", [gamma.j, gamma.i + 1, gamma.k + 1],
                         pairing(omega, gamma)]
                    )
            if bad:
                res.note(
                    {
                        "w2": w2.to_json(),
                        "alpha": [alpha.j, alpha.i + 1, alpha.k + 1],
                        "omega": omega.to_json(),
                        "violations": bad,
                    }
                )


def _sweep_reduced2(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    w0 = aw.w0_element(datum)
    for w2 in aw.restricted_reps(datum):
        for alpha in datum.simple_roots():
            s_a = aw.simple_reflection(datum, alpha)
            dia = aw.diamond(s_a * w2)
            res.checked += 1
            whole = aw.length(w2.inverse() * s_a * w0)
            split = aw.length(dia) + aw.length(dia * w2.inverse() * s_a * w0)
            if whole != split:
                res.note(
                    {
                        "w2": w2.to_json(),
                        "alpha": [alpha.j, alpha.i + 1, alpha.k + 1],
                        "length": whole,
                        "split": split,
                    }
                )


def _sweep_subregular(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    wh = aw.wh_element(datum)
    w0 = aw.w0_element(datum)
    copy_box = dominant_box(_one_copy(datum), config.box_radius)
    for w2 in aw.restricted_reps(datum):
        candidates = _dominant_below(datum, copy_box, wh.inverse() * w2)
        for alpha in datum.simple_roots():
            s_a = aw.simple_reflection(datum, alpha)
            dia = aw.diamond(s_a * w2)
            upper = w0 * wh.inverse() * dia
            for w1 in candidates:
                res.checked += 1
                lower = dia * w2.inverse() * s_a * w0 * w1
                if not aw.bruhat_leq(lower, upper):
                    res.note(
                        {
                            "w2": w2.to_json(),
                            "w1": w1.to_json(),
                            "alpha": [alpha.j, alpha.i + 1, alpha.k + 1],
                        }
                    )


def _sweep_reduced_factorizations(
    datum: RootDatum, config: SweepConfig, res: SweepResult
) -> None:
    """w0 . w and (wh w)^{-1} w0 w are reduced factorizations for restricted w."""
    w0 = aw.w0_element(datum)
    wh = aw.wh_element(datum)
    for w in aw.restricted_reps(datum):
        res.checked += 1
        ok1 = aw.length(w0 * w) == aw.length(w0) + aw.length(w)
        prod = (wh * w).inverse() * (w0 * w)
        ok2 = aw.length(prod) == aw.length((wh * w).inverse()) + aw.length(w0 * w)
        if not (ok1 and ok2):
            res.note({"w": w.to_json(), "w0w_reduced": ok1, "inverse_reduced": ok2})


def _sweep_zero_gen(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    """Rigidity of lowest-alcove presentations: two presentations over the
    lowest alcove whose translation parts differ by a root-lattice element
    name the same representation only when they are identical."""
    rng = random.Random(config.seed)
    weyl = all_weyl_elements(datum)
    drop_lattice = "drop-lattice-hypothesis" in config.mutations
    for tau in _deep_tau_samples(datum, config.tau_samples, 0, rng):
        s, mu = tau.elt.fin, tau.elt.trans
        R_mu = wd.DLPresentation(tau.elt)
        # the root-lattice congruence classes over the lowest alcove are
        # exactly the degree-pinned grid
        grid = eta_c0_weights(datum, mu.degrees())
        if len(grid) > 12:
            grid = rng.sample(grid, 12)
        candidates: list[WeightVec] = [mu] + [lam for lam in grid if lam != mu]
        if drop_lattice:
            # X^0 twist by (p - pi) of a constant: same parameter, distinct
            # lowest-alcove presentation; the root-lattice hypothesis is what
            # rules these out
            c = x0_shift(datum, [1] * datum.f)
            candidates.append(mu + c.scale(datum.p) - frobenius_pi(c))
        for w in weyl:
            for lam in candidates:
                if not drop_lattice and not (mu - lam).in_root_lattice():
                    continue
                if not in_lowest_alcove(datum, lam):
                    continue
                res.checked += 1
                same = wd.dl_equal(R_mu, wd.DLPresentation(ExtAffineElt(datum, lam, w)))
                expected = lam == mu and w == s
                if same != expected:
                    res.note(
                        {
                            "s": s.to_json(),
                            "mu": mu.to_json(),
                            "w": w.to_json(),
                            "lambda": lam.to_json(),
                            "equal": same,
                        }
                    )


def _sweep_presentations(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    """The bounded solve of c0_presentations against the pattern scan, on
    0-deep parameters and on arbitrary elements (see
    :func:`alcove.presentation_scan.compare_with_scan`); skipped where the
    scan is too large to run."""
    size = scan_size(datum)
    if size > SCAN_BUDGET:
        raise BudgetError(
            f"the reference scan would test {size} candidates per "
            f"representation (budget {SCAN_BUDGET})"
        )
    rng = random.Random(config.seed + 10)
    for tau in _deep_tau_samples(datum, config.tau_samples, 0, rng):
        compare_with_scan(tau.as_dl(), rng, res)


def _sweep_jh_paths(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    rng = random.Random(config.seed + 1)
    for tau in _deep_tau_samples(datum, config.tau_samples, datum.h_eta, rng):
        R = tau.as_dl()
        res.checked += 1
        a = wd.jh_set(R)
        b = wd.jh_set_by_reflection(R)
        if a != b:
            res.note(
                {
                    "R": R.to_json(),
                    "only_admissible": [s.to_json() for s in a - b],
                    "only_reflection": [s.to_json() for s in b - a],
                }
            )


def _sweep_herzig_dual(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    rng = random.Random(config.seed + 2)
    for tau in _deep_tau_samples(datum, config.tau_samples, datum.h_eta, rng):
        res.checked += 1
        a = hz.wset(tau)
        b = hz.wset_by_definition(tau)
        if a != b:
            res.note(
                {
                    "tau": tau.to_json(),
                    "only_characterization": [s.to_json() for s in a - b],
                    "only_definition": [s.to_json() for s in b - a],
                }
            )


def _sweep_obvweight(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    """Both designated outer weights of every connecting factorization lie in
    the predicted set and in the Jordan-Holder set of the connecting type."""
    rng = random.Random(config.seed + 3)
    for tau in _deep_tau_samples(datum, config.tau_samples, 2 * datum.h_eta, rng):
        members = hz.wset(tau)
        try:
            edges = hz.enumerate_edges(tau)
        except AssertionError as exc:
            res.note({"tau": tau.to_json(), "error": str(exc)})
            continue
        for edge in edges:
            res.checked += 1
            factors = wd.jh_set(edge.R)
            ok = (
                edge.sigma in members
                and edge.sigma2 in members
                and edge.sigma in factors
                and edge.sigma2 in factors
            )
            if not ok:
                res.note({"tau": tau.to_json(), "edge": edge.to_json()})


def _sweep_isolating(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    rng = random.Random(config.seed + 4)
    depth = 2 * datum.h_eta + 2
    for tau in _deep_tau_samples(datum, max(1, config.tau_samples // 2), depth, rng):
        R = tau.as_dl()
        factors = wd.jh_set(R)
        outer = {s for _, s in wd.jh_outer(R)}
        for kappa in factors:
            if kappa.depth < datum.h_eta + wd.d_sigma(kappa):
                continue
            for sigma in outer:
                res.checked += 1
                if wd.covers(kappa, sigma) and kappa != sigma:
                    res.note(
                        {"kappa": kappa.to_json(), "sigma": sigma.to_json(),
                         "R": R.to_json()}
                    )


def _interval_set(pres: wd.SerrePresentation) -> frozenset:
    datum = pres.datum
    top = aw.w0_element(datum) * pres.w1
    t_omega = ExtAffineElt.from_translation(datum, pres.omega)
    return frozenset((t_omega * x).key() for x in aw.bruhat_interval(top))


def _compatible_inclusion(
    kappa_pres: wd.SerrePresentation, sigma_pres: wd.SerrePresentation
) -> bool:
    """Whether some X^0 shift of sigma's presentation nests its translated
    interval inside kappa's."""
    datum = kappa_pres.datum
    big = _interval_set(kappa_pres)
    top_k = aw.w0_element(datum) * kappa_pres.w1
    top_s = aw.w0_element(datum) * sigma_pres.w1
    deg_k = [
        o + t
        for o, t in zip(kappa_pres.omega.degrees(), top_k.omega_degrees())
    ]
    deg_s = [
        o + t
        for o, t in zip(sigma_pres.omega.degrees(), top_s.omega_degrees())
    ]
    consts = []
    for a, b in zip(deg_k, deg_s):
        if (a - b) % datum.n != 0:
            return False
        consts.append((a - b) // datum.n)
    shifted = wd.SerrePresentation(
        sigma_pres.w1, sigma_pres.omega + x0_shift(datum, consts)
    )
    return _interval_set(shifted) <= big


def _sweep_covering_char(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    """covers(kappa, sigma) implies nested presentation intervals."""
    rng = random.Random(config.seed + 5)
    depth = 2 * datum.h_eta + 2
    for tau in _deep_tau_samples(datum, max(1, config.tau_samples // 2), depth, rng):
        R = tau.as_dl()
        factors = sorted(wd.jh_set(R), key=lambda s: s.sort_key())
        for kappa in factors:
            if kappa.depth < datum.h_eta + wd.d_sigma(kappa):
                continue
            kp = wd.presentations_of(kappa)
            for sigma in factors:
                if not wd.covers(kappa, sigma):
                    continue
                res.checked += 1
                found = any(
                    _compatible_inclusion(a, b)
                    for a in kp
                    for b in wd.presentations_of(sigma)
                )
                if not found:
                    res.note(
                        {"kappa": kappa.to_json(), "sigma": sigma.to_json()}
                    )


def _sweep_wtintersect(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    rng = random.Random(config.seed + 6)
    taus = _deep_tau_samples(datum, config.pair_samples, datum.n, rng)
    rhos = _deep_tau_samples(datum, config.pair_samples, datum.n - 1, rng)
    weyl = all_weyl_elements(datum)
    # include matched pairs, where the conditions hold
    matched = []
    for tau in taus[: max(2, len(taus) // 2)]:
        w = rng.choice(weyl)
        rho = hz.TameParam(
            ExtAffineElt.from_translation(datum, w.act(datum.eta())) * tau.elt
        )
        if in_lowest_alcove(datum, rho.mu, datum.n - 1):
            matched.append((rho, tau))
    pairs = list(zip(rhos, taus)) + matched
    for rho, tau in pairs:
        res.checked += 1
        report = hz.equivalence_report(rho, tau)
        if not report.all_agree:
            res.note(
                {
                    "rho": rho.to_json(),
                    "tau": tau.to_json(),
                    "report": report.to_json(),
                }
            )


def _sweep_dl_decent(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    """Genericity propagation: a representation containing an (m + d)-deep
    weight among its outer factors is m-generic."""
    rng = random.Random(config.seed + 7)
    for tau in _deep_tau_samples(
        datum, max(1, config.tau_samples // 2), 2 * datum.h_eta, rng
    ):
        R = tau.as_dl()
        for _, sigma in wd.jh_outer(R):
            ds = wd.d_sigma(sigma)
            m = sigma.depth - ds
            if m <= 0:
                continue
            for family_R in wd.outer_family(sigma):
                res.checked += 1
                if not wd.is_m_generic(family_R, m):
                    res.note(
                        {
                            "sigma": sigma.to_json(),
                            "R": family_R.to_json(),
                            "expected_genericity": m,
                        }
                    )


def _restricted_weight_pool(datum: RootDatum) -> list[wd.SerreWeight]:
    """All p-regular Serre weights with d_sigma-deep highest weight, one per
    isomorphism class.  The p-restricted condition bounds only the simple
    pairings, so every per-embedding difference vector in [0, p-1]^{n-1} is
    admissible, including the upper alcoves."""
    out = []
    p, f, n = datum.p, datum.f, datum.n
    rows = list(itertools.product(range(p), repeat=n - 1))
    digit_classes = range(p**f - 1)
    for pattern in itertools.product(rows, repeat=f):
        base = _weight_from_pattern(datum, pattern, (0,) * f)
        if not is_p_restricted(datum, base):
            raise AssertionError("difference grid escaped the restricted region")
        # base has last entries 0, so the last entries of lam are the digits
        # of r < p^f - 1: lam is already in digit normal form, and distinct
        # (pattern, r) name distinct weights
        for r in digit_classes:
            shift = [(r // p**j) % p for j in range(f)]
            lam = base + x0_shift(datum, shift)
            sigma = wd.SerreWeight.from_weight(datum, lam)
            if sigma.is_p_regular() and sigma.depth >= wd.d_sigma(sigma):
                out.append(sigma)
    return sorted(out, key=lambda s: s.sort_key())


def _sweep_elimination(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    rng = random.Random(config.seed + 8)
    pool = _restricted_weight_pool(datum)
    if len(pool) > ELIMINATION_CAP:
        # deterministic stride keeps the sweep exhaustive in spirit while
        # bounding the run; the cap is part of the sweep's declared box
        stride = -(-len(pool) // ELIMINATION_CAP)
        pool = pool[::stride]
    for tau in _deep_tau_samples(datum, max(2, config.tau_samples // 2), datum.h_eta, rng):
        members = hz.wset(tau)
        for sigma in pool:
            if sigma in members:
                continue
            res.checked += 1
            try:
                cert = hz.eliminate(sigma, tau)
            except (AssertionError, hz.NotEliminableError) as exc:
                res.note(
                    {"sigma": sigma.to_json(), "tau": tau.to_json(), "error": str(exc)}
                )
                continue
            if not cert.verify():
                res.note(
                    {"sigma": sigma.to_json(), "tau": tau.to_json(),
                     "error": "certificate replay failed"}
                )


def _sweep_connectivity(datum: RootDatum, config: SweepConfig, res: SweepResult) -> None:
    rng = random.Random(config.seed + 9)
    for tau in _deep_tau_samples(datum, config.tau_samples, 2 * datum.h_eta, rng):
        res.checked += 1
        graph = hz.connectivity_graph(tau)
        dist = graph.distance_to_extremal()
        problems = {}
        if not graph.is_connected():
            problems["components"] = [
                [s.to_json() for s in comp] for comp in graph.components()
            ]
        unreachable = [v.to_json() for v in graph.vertices if dist[v] is None]
        if unreachable:
            problems["unreachable"] = unreachable
        if problems:
            problems["tau"] = tau.to_json()
            res.note(problems)


_SWEEPS = {
    "reduced1": _sweep_reduced1,
    "omega": _sweep_omega,
    "reduced2": _sweep_reduced2,
    "subregular": _sweep_subregular,
    "reduced_factorizations": _sweep_reduced_factorizations,
    "zero_gen": _sweep_zero_gen,
    "presentations": _sweep_presentations,
    "jh_paths": _sweep_jh_paths,
    "herzig_dual": _sweep_herzig_dual,
    "obvweight": _sweep_obvweight,
    "isolating": _sweep_isolating,
    "covering_char": _sweep_covering_char,
    "wtintersect": _sweep_wtintersect,
    "dl_decent": _sweep_dl_decent,
    "elimination": _sweep_elimination,
    "connectivity": _sweep_connectivity,
}

SWEEP_NAMES = tuple(_SWEEPS)


def lemma_sweeps(config: SweepConfig) -> SweepReport:
    """Run the exhaustive verification sweeps for one configuration.

    Counterexamples land in the report with full witnesses; they are data,
    not exceptions.  ``config.mutations`` deliberately breaks hypotheses so
    the harness can demonstrate sensitivity.
    """
    unknown = set(config.mutations) - set(MUTATIONS)
    if unknown:
        raise ValueError(f"unknown mutations: {sorted(unknown)}")
    datum = RootDatum(config.n, config.f, config.p)
    names = config.sweeps if config.sweeps is not None else SWEEP_NAMES
    results = []
    for name in names:
        res = SweepResult(name=name)
        try:
            _SWEEPS[name](datum, config, res)
        except BudgetError as exc:
            # p too small to sample parameters at the depth this statement
            # demands: the sweep is visibly skipped, never silently weakened
            res.skipped = str(exc)
        results.append(res)
    return SweepReport(config=config, results=results)
