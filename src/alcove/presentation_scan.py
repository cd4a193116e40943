"""Reference enumeration of lowest-alcove presentations, part of the
oracle layer: every weight over the lowest alcove is scanned by its
per-embedding difference pattern.  It is the reference for
:func:`alcove.weights_dl.c0_presentations`, and its cost grows with p.

It lives apart from :mod:`alcove.oracle`, which imports it from here,
because the largest module's source sets the memory peak of compiling the
package when no bytecode cache is written.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from . import weights_dl as wd
from .affine_weyl import ExtAffineElt
from .root_data import (
    RootDatum,
    WeightVec,
    all_weyl_elements,
    frobenius_pi,
    pi_weyl,
)

# Candidates the unpinned scan may test per representation in the oracle's
# presentations sweep; (2,2,7) needs about 3.8e5, (2,2,13) about 1.7e7.
SCAN_BUDGET = 400_000


@functools.cache
def _difference_patterns(datum: RootDatum) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per-embedding difference vectors of weights omega with omega - eta in
    C0: each difference positive, total < p."""
    p, n = datum.p, datum.n

    def rows() -> list[tuple[int, ...]]:
        out = []

        def rec(prefix: list[int], total: int) -> None:
            if len(prefix) == n - 1:
                out.append(tuple(prefix))
                return
            d = 1
            while total + d < p:
                prefix.append(d)
                rec(prefix, total + d)
                prefix.pop()
                d += 1

        rec([], 0)
        return out

    return tuple(itertools.product(rows(), repeat=datum.f))


def _weight_from_pattern(
    datum: RootDatum, pattern, bases: tuple[int, ...]
) -> WeightVec:
    rows = []
    for j in range(datum.f):
        row = [bases[j]] * datum.n
        for i in range(datum.n - 2, -1, -1):
            row[i] = row[i + 1] + pattern[j][i]
        rows.append(tuple(row))
    return WeightVec(tuple(rows))


def _pattern_weighted_sum(datum: RootDatum, row: tuple[int, ...]) -> int:
    # sum of entries of the weight with this difference row and base 0
    return sum((t + 1) * d for t, d in enumerate(row))


def eta_c0_weights(datum: RootDatum, degrees: tuple[int, ...]) -> list[WeightVec]:
    """Weights omega with omega - eta in C0 and the exact per-embedding degree
    vector."""
    out = []
    for pattern in _difference_patterns(datum):
        bases = []
        for j in range(datum.f):
            num = degrees[j] - _pattern_weighted_sum(datum, pattern[j])
            if num % datum.n != 0:
                bases = None
                break
            bases.append(num // datum.n)
        if bases is not None:
            out.append(_weight_from_pattern(datum, pattern, tuple(bases)))
    return out


def _scan_half_window(datum: RootDatum) -> int:
    return (datum.p**datum.f - 1) // 2 + 1


def c0_presentations_by_scan(
    R: wd.DLPresentation, degrees: tuple[int, ...] | None = None
) -> list[wd.DLPresentation]:
    """Reference for :func:`alcove.weights_dl.c0_presentations`, with the
    same parameters: scan every lowest-alcove weight mu' by its difference
    pattern and keep those that solve the orbit relation.  With ``degrees``
    the scan is complete.
    Without it, the per-embedding base of mu' ranges over a window of about
    p^f values around the degree of each twisted conjugate, which meets every
    X^0 class of presentations; the cost grows with p."""
    datum = R.datum
    n, f = datum.n, datum.f
    found: dict[tuple, wd.DLPresentation] = {}
    half = _scan_half_window(datum)
    for w, b in wd._twisted_conjugates(R):
        bdeg = b.degrees()
        for pattern in _difference_patterns(datum):
            sums = [_pattern_weighted_sum(datum, pattern[j]) for j in range(f)]
            if degrees is not None:
                base_choices = [[ (degrees[j] - sums[j]) // n ]
                                if (degrees[j] - sums[j]) % n == 0 else []
                                for j in range(f)]
            else:
                base_choices = []
                for j in range(f):
                    center = (bdeg[j] - sums[j]) // n
                    base_choices.append(
                        list(range(center - half, center + half + 1))
                    )
            for bases in itertools.product(*base_choices):
                mu2 = _weight_from_pattern(datum, pattern, bases)
                if wd._solve_twisted(datum, w, mu2 - b) is not None:
                    cand = wd.DLPresentation(ExtAffineElt(datum, mu2, w))
                    found[cand.sort_key()] = cand
    return [found[k] for k in sorted(found)]


def scan_size(datum: RootDatum) -> int:
    """Candidates the unpinned scan tests for one representation."""
    window = 2 * _scan_half_window(datum) + 1
    return (
        len(_difference_patterns(datum))
        * window**datum.f
        * math.factorial(datum.n) ** datum.f
    )


def compare_with_scan(R: wd.DLPresentation, rng: random.Random, res) -> None:
    """Check :func:`alcove.weights_dl.c0_presentations` against the scan on
    R and on an arbitrary element (possibly on a wall or with no
    lowest-alcove presentation), each also twisted to an equal presentation.
    Pinned results must be list-equal to the scan.  Unpinned results must be
    the scan's results in digit normal form, one per class, so that both
    meet the same classes (w, mu' mod X^0); and they must not depend on the
    presentation they start from.  Counts and witnesses go to the sweep
    result ``res``."""
    datum = R.datum
    weyl = all_weyl_elements(datum)

    def random_weight(radius: int) -> WeightVec:
        return WeightVec(
            tuple(
                tuple(rng.randint(-radius, radius) for _ in range(datum.n))
                for _ in range(datum.f)
            )
        )

    def twist(Q: wd.DLPresentation) -> wd.DLPresentation:
        r, nu = rng.choice(weyl), random_weight(2)
        w = r * Q.s * pi_weyl(r).inverse()
        lam = r.act(Q.mu) + nu.scale(datum.p) - w.act(frobenius_pi(nu))
        return wd.DLPresentation(ExtAffineElt(datum, lam, w))

    other = wd.DLPresentation(
        ExtAffineElt(datum, random_weight(datum.p), rng.choice(weyl))
    )
    for Q in (R, other):
        twisted = twist(Q)
        res.checked += 1
        fast = [q.sort_key() for q in wd.c0_presentations(Q)]
        scan = c0_presentations_by_scan(Q)
        canonical = sorted(
            {(wd._canonical_omega(datum, q.mu).entries, q.s.perms) for q in scan}
        )
        moved = wd.c0_presentations(twisted) != wd.c0_presentations(Q)
        if fast != canonical or moved:
            res.note(
                {
                    "R": Q.to_json(),
                    "twisted": twisted.to_json(),
                    "fast": [list(k) for k in fast],
                    "scan": [list(k) for k in canonical],
                }
            )
        pinned = sorted({q.mu.degrees() for q in scan})
        if len(pinned) > 8:
            pinned = rng.sample(pinned, 8)
        # and one degree vector that Q's own degree class misses
        pinned.append(tuple(d + (j == 0) for j, d in enumerate(Q.mu.degrees())))
        for degrees in pinned:
            for P in (Q, twisted):
                res.checked += 1
                got = wd.c0_presentations(P, degrees=degrees)
                want = c0_presentations_by_scan(P, degrees=degrees)
                if got != want:
                    res.note(
                        {
                            "R": P.to_json(),
                            "degrees": list(degrees),
                            "fast": [q.to_json() for q in got],
                            "scan": [q.to_json() for q in want],
                        }
                    )
