"""Root datum for a product of f copies of GL_n: weights, roots, the finite
Weyl group, the cyclic embedding-shift automorphism, and depth predicates.

Conventions used throughout the package:

- A weight is an f-tuple of integer n-vectors, one vector per embedding.
  Addition is componentwise.
- A finite Weyl group element is an f-tuple of permutations of {0, ..., n-1}
  in image form (``perm[i]`` is the image of ``i``).  It acts on a weight by
  ``(w . lam)[j][i] = lam[j][w_j^{-1}(i)]``.
- Roots are triples (embedding j, i, k) with i != k, standing for e_i - e_k
  in factor j.  Positive means i < k, simple means k = i + 1.
- ``eta`` is fixed as (n-1, n-2, ..., 0) in every embedding.
- The shift automorphism ``pi`` moves embedding component j to component
  j + 1 (mod f); it fixes ``eta``.
- JSON serialization: weights as arrays of arrays of integers, permutations
  as one-line arrays of 1-indexed images.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Sequence


class AlcoveError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AlcoveError):
    """Malformed or inconsistent input data."""


class DepthError(AlcoveError):
    """A depth/genericity precondition is not satisfied; the requested
    computation is refused rather than extrapolated."""


class BudgetError(AlcoveError):
    """An enumeration exceeded its configured resource budget."""


# Miller-Rabin with these bases decides primality exactly below 2**64.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for p < 2**64."""
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class RootDatum:
    """Context object carrying (n, f, p) for all computations.

    n is the rank of each GL_n factor, f the number of embeddings, p a prime
    with p > n - 1 so that the lowest p-alcove contains lattice points.
    """

    n: int
    f: int
    p: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValidationError("rank n must be >= 2 (n = 1 has no roots)")
        if self.f < 1:
            raise ValidationError("number of embeddings f must be >= 1")
        if self.p >= 2**64:
            raise ValidationError(
                f"p = {self.p} is too large: primality is decided only below 2**64"
            )
        if not _is_prime(self.p):
            raise ValidationError(f"p = {self.p} is not prime")
        if self.p <= self.n - 1:
            raise ValidationError(
                f"p = {self.p} <= n - 1 = {self.n - 1}: C0 empty"
            )

    @property
    def h_eta(self) -> int:
        """Largest pairing of eta against a coroot (= n - 1)."""
        return self.n - 1

    def zero(self) -> "WeightVec":
        row = (0,) * self.n
        return WeightVec((row,) * self.f)

    def eta(self) -> "WeightVec":
        return _fixed_tables(self)[0]

    def weight(self, entries: Sequence[Sequence[int]]) -> "WeightVec":
        ent = tuple(tuple(int(x) for x in row) for row in entries)
        if len(ent) != self.f or any(len(row) != self.n for row in ent):
            raise ValidationError(
                f"weight must be {self.f} rows of {self.n} integers"
            )
        return WeightVec(ent)

    def simple_roots(self) -> tuple["Root", ...]:
        return _fixed_tables(self)[1]

    def positive_roots(self) -> tuple["Root", ...]:
        return _fixed_tables(self)[2]

    def omega_alpha(self, alpha: "Root") -> "WeightVec":
        """Fundamental weight dual to the simple root alpha, fixed as
        (1, ..., 1, 0, ..., 0) in alpha's embedding (unique up to constants).
        """
        if not alpha.is_simple:
            raise ValidationError("omega_alpha is defined for simple roots")
        rows = [[0] * self.n for _ in range(self.f)]
        for i in range(alpha.i + 1):
            rows[alpha.j][i] = 1
        return WeightVec(tuple(tuple(r) for r in rows))

    def base_vertices(self) -> list["WeightVec"]:
        """Integer vertices of the simplex factor of the closed base alcove:
        the prefix vectors (1, ..., 1, 0, ..., 0) with t ones, t = 0..n-1."""
        out = []
        for t in range(self.n):
            row = tuple(1 if i < t else 0 for i in range(self.n))
            out.append(WeightVec((row,) * self.f))
        return out


@functools.cache
def _fixed_tables(
    datum: RootDatum,
) -> tuple["WeightVec", tuple["Root", ...], tuple["Root", ...]]:
    """eta, the simple roots and the positive roots of the datum, built once."""
    n, f = datum.n, datum.f
    eta = WeightVec((tuple(range(n - 1, -1, -1)),) * f)
    simple = tuple(Root(j, i, i + 1) for j in range(f) for i in range(n - 1))
    positive = tuple(
        Root(j, i, k) for j in range(f) for i in range(n) for k in range(i + 1, n)
    )
    return eta, simple, positive


@dataclass(frozen=True, slots=True)
class Root:
    """The root e_i - e_k in embedding j (0-indexed positions, i != k)."""

    j: int
    i: int
    k: int

    def __post_init__(self) -> None:
        if self.i == self.k:
            raise ValidationError("root positions must differ")

    @property
    def is_positive(self) -> bool:
        return self.i < self.k

    @property
    def is_simple(self) -> bool:
        return self.k == self.i + 1


@dataclass(frozen=True, slots=True)
class WeightVec:
    """Element of the character lattice: one integer n-vector per embedding."""

    entries: tuple[tuple[int, ...], ...]

    def __add__(self, other: "WeightVec") -> "WeightVec":
        return WeightVec(
            tuple(
                tuple(map(operator.add, ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "WeightVec") -> "WeightVec":
        return WeightVec(
            tuple(
                tuple(map(operator.sub, ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> "WeightVec":
        return WeightVec(tuple(tuple(-a for a in row) for row in self.entries))

    def scale(self, c: int) -> "WeightVec":
        return WeightVec(tuple(tuple(c * a for a in row) for row in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def degrees(self) -> tuple[int, ...]:
        """Per-embedding coordinate sums (the class in X/ZR per factor)."""
        return tuple(sum(row) for row in self.entries)

    def in_root_lattice(self) -> bool:
        return all(d == 0 for d in self.degrees())

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


@dataclass(frozen=True, slots=True)
class FiniteWeylElt:
    """Element of the finite Weyl group: one permutation per embedding,
    stored in image form on {0, ..., n-1}."""

    perms: tuple[tuple[int, ...], ...]

    @staticmethod
    def identity(datum: RootDatum) -> "FiniteWeylElt":
        return FiniteWeylElt((tuple(range(datum.n)),) * datum.f)

    @staticmethod
    def longest(datum: RootDatum) -> "FiniteWeylElt":
        return FiniteWeylElt((tuple(range(datum.n - 1, -1, -1)),) * datum.f)

    @staticmethod
    def from_one_line(datum: RootDatum, rows: Sequence[Sequence[int]]) -> "FiniteWeylElt":
        """Build from 1-indexed one-line notation, one row per embedding."""
        if len(rows) != datum.f:
            raise ValidationError(f"expected {datum.f} permutation rows")
        perms = []
        for row in rows:
            imgs = tuple(int(x) - 1 for x in row)
            if sorted(imgs) != list(range(datum.n)):
                raise ValidationError(f"not a permutation of 1..{datum.n}: {row}")
            perms.append(imgs)
        return FiniteWeylElt(tuple(perms))

    def __mul__(self, other: "FiniteWeylElt") -> "FiniteWeylElt":
        return FiniteWeylElt(
            tuple(
                tuple(pa[b] for b in pb)
                for pa, pb in zip(self.perms, other.perms)
            )
        )

    def inverse(self) -> "FiniteWeylElt":
        out = []
        for perm in self.perms:
            inv = [0] * len(perm)
            for i, v in enumerate(perm):
                inv[v] = i
            out.append(tuple(inv))
        return FiniteWeylElt(tuple(out))

    def is_identity(self) -> bool:
        return all(perm[i] == i for perm in self.perms for i in range(len(perm)))

    def act(self, lam: WeightVec) -> WeightVec:
        # entry i of row j moves to position perm_j[i]
        out = []
        for row, perm in zip(lam.entries, self.perms):
            moved = list(row)
            for i, v in zip(perm, row):
                moved[i] = v
            out.append(tuple(moved))
        return WeightVec(tuple(out))

    def act_root(self, beta: Root) -> Root:
        perm = self.perms[beta.j]
        return Root(beta.j, perm[beta.i], perm[beta.k])

    def to_json(self) -> list[list[int]]:
        return [[v + 1 for v in perm] for perm in self.perms]


def all_weyl_elements(datum: RootDatum) -> list[FiniteWeylElt]:
    """All (n!)^f finite Weyl group elements, in a fixed deterministic order."""
    perms = sorted(itertools.permutations(range(datum.n)))
    return [
        FiniteWeylElt(combo)
        for combo in itertools.product(perms, repeat=datum.f)
    ]


def pairing(lam: WeightVec, beta: Root) -> int:
    """Pairing of a weight against the coroot of beta = e_i - e_k."""
    row = lam.entries[beta.j]
    return row[beta.i] - row[beta.k]


def h_value(nu: WeightVec) -> int:
    """max over all roots of the pairing; 0 exactly on X^0."""
    return max(max(row) - min(row) for row in nu.entries)


def frobenius_pi(lam: WeightVec) -> WeightVec:
    """Cyclic shift of embedding components: component j moves to j+1 mod f."""
    ent = lam.entries
    f = len(ent)
    return WeightVec(tuple(ent[(j - 1) % f] for j in range(f)))


def frobenius_pi_inv(lam: WeightVec) -> WeightVec:
    ent = lam.entries
    f = len(ent)
    return WeightVec(tuple(ent[(j + 1) % f] for j in range(f)))


def pi_weyl(w: FiniteWeylElt) -> FiniteWeylElt:
    perms = w.perms
    f = len(perms)
    return FiniteWeylElt(tuple(perms[(j - 1) % f] for j in range(f)))


def pi_weyl_inv(w: FiniteWeylElt) -> FiniteWeylElt:
    perms = w.perms
    f = len(perms)
    return FiniteWeylElt(tuple(perms[(j + 1) % f] for j in range(f)))


def _wall_distance(value: int, p: int) -> int:
    """Distance from an integer to the nearest multiple of p."""
    r = value % p
    return min(r, p - r)


def depth_of(datum: RootDatum, lam: WeightVec) -> int:
    """Largest m such that lam is m-deep in its p-alcove, or -1 if lam + eta
    lies on an affine wall.  lam is m-deep iff |<lam+eta, a^> - kp| > m for
    every root a and integer k."""
    shifted = lam + datum.eta()
    dist = min(
        _wall_distance(pairing(shifted, beta), datum.p)
        for beta in datum.positive_roots()
    )
    return dist - 1


def in_lowest_alcove(datum: RootDatum, mu: WeightVec, depth: int = 0) -> bool:
    """Whether the translation part mu of a presentation sits over C0,
    depth-deep: depth < <mu, a^> < p - depth for all positive roots a, that
    is mu - eta in C0 and depth-deep."""
    for beta in datum.positive_roots():
        v = pairing(mu, beta)
        if not (depth < v < datum.p - depth):
            return False
    return True


def is_p_restricted(datum: RootDatum, lam: WeightVec) -> bool:
    """Membership in X_1: dominant with simple pairings <= p - 1."""
    for beta in datum.simple_roots():
        v = pairing(lam, beta)
        if not (0 <= v <= datum.p - 1):
            return False
    return True


def x0_shift(datum: RootDatum, constants: Sequence[int]) -> WeightVec:
    """The X^0 element with the given constant per embedding."""
    if len(constants) != datum.f:
        raise ValidationError(f"expected {datum.f} constants")
    return WeightVec(tuple((int(c),) * datum.n for c in constants))
