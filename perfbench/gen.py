"""Seeded input generator for the benchmark.

Pure standard library: nothing here imports ``alcove``, so the inputs a run
feeds to the program depend only on the seed and on this file.  Every stream
is a ``random.Random`` keyed by a string that names the seed, the workload and
the stream, so adding a stream never shifts the inputs of another.

Inputs are plain data (lists of ints), in the conventions of the package:

* a weight is ``f`` rows of ``n`` ints, one row per embedding;
* a finite Weyl element is ``f`` 0-indexed permutations in image form;
* an extended affine element ``t_lam . w`` is ``{"trans": rows, "perm": perms}``.
"""

from __future__ import annotations

import random


def stream(seed: int, *names) -> random.Random:
    """Independent deterministic stream for (seed, names)."""
    return random.Random(":".join(str(x) for x in (seed,) + names))


def _perm(rng: random.Random, n: int) -> list[int]:
    return rng.sample(range(n), n)


def _gaps(rng: random.Random, count: int, lo: int, total: int) -> list[int]:
    """``count`` ints, each >= lo, with sum <= total; uniform over such tuples."""
    while True:
        gaps = [rng.randint(lo, total) for _ in range(count)]
        if sum(gaps) <= total:
            return gaps


def tame_param(rng: random.Random, n: int, f: int, p: int, depth: int) -> dict:
    """A tame parameter ``t_mu . s`` whose given presentation is ``depth``-deep
    over the lowest alcove.

    Per embedding the simple pairings of ``mu`` are >= depth + 1 and sum to at
    most p - depth - 1, so every positive-root pairing lies in
    [depth + 1, p - depth - 1]: that is the depth condition, by construction.
    """
    if (n - 1) * (depth + 1) > p - depth - 1:
        raise ValueError(f"p = {p} admits no {depth}-deep parameter at n = {n}")
    rows = []
    for _ in range(f):
        gaps = _gaps(rng, n - 1, depth + 1, p - depth - 1)
        row = [rng.randint(0, p - 2)] * n
        for i in range(n - 2, -1, -1):
            row[i] = row[i + 1] + gaps[i]
        rows.append(row)
    return {
        "n": n, "f": f, "p": p,
        "trans": rows,
        "perm": [_perm(rng, n) for _ in range(f)],
    }


def deep_serre_weight(rng: random.Random, n: int, f: int, p: int) -> list[list[int]]:
    """Highest weight of a p-restricted Serre weight that is (n-1)-deep in its
    p-alcove.  The elimination defect d_sigma never exceeds n - 1, so such a
    weight satisfies the precondition of ``eliminate`` for every tau."""
    while True:
        rows = []
        for _ in range(f):
            gaps = [rng.randrange(p) for _ in range(n - 1)]
            row = [rng.randrange(p)] * n
            for i in range(n - 2, -1, -1):
                row[i] = row[i + 1] + gaps[i]
            rows.append(row)
        if _depth(rows, p) >= n - 1:
            return rows


def _depth(rows: list[list[int]], p: int) -> int:
    """Largest m with lam m-deep in its p-alcove (pairings of lam + eta
    against every positive coroot at distance > m from pZ)."""
    n = len(rows[0])
    dist = p
    for row in rows:
        shifted = [a + (n - 1 - i) for i, a in enumerate(row)]
        for i in range(n):
            for k in range(i + 1, n):
                r = (shifted[i] - shifted[k]) % p
                dist = min(dist, r, p - r)
    return dist - 1


def affine_elt(
    rng: random.Random, n: int, f: int, radius: int, degrees=None
) -> dict:
    """Random ``t_lam . w`` with translation entries in [-radius, radius]; with
    ``degrees`` the last entry of each row is moved so that row j sums to
    degrees[j] (same Omega class)."""
    rows = [[rng.randint(-radius, radius) for _ in range(n)] for _ in range(f)]
    if degrees is not None:
        for row, deg in zip(rows, degrees):
            row[-1] += deg - sum(row)
    return {"trans": rows, "perm": [_perm(rng, n) for _ in range(f)]}


def degrees(elt: dict) -> list[int]:
    return [sum(row) for row in elt["trans"]]


def reflect(elt: dict, j: int, i: int, k: int, level: int) -> dict:
    """s_{beta, level} . elt for beta = e_i - e_k in embedding j, where
    s_{beta, level} = t_{level (e_i - e_k)} s_beta.  Bruhat theory says the
    result and elt are comparable, the shorter one below."""
    rows = [list(r) for r in elt["trans"]]
    perms = [list(q) for q in elt["perm"]]
    rows[j][i], rows[j][k] = rows[j][k] + level, rows[j][i] - level
    swap = {i: k, k: i}
    perms[j] = [swap.get(x, x) for x in perms[j]]
    return {"trans": rows, "perm": perms}


def length(elt: dict) -> int:
    """Length of t_lam . v: sum over positive roots b of |<lam, b>| when
    v^{-1} b > 0 and |<lam, b> - 1| otherwise.  Used only to size inputs."""
    total = 0
    for row, perm in zip(elt["trans"], elt["perm"]):
        inv = [0] * len(perm)
        for a, b in enumerate(perm):
            inv[b] = a
        for i in range(len(row)):
            for k in range(i + 1, len(row)):
                c = row[i] - row[k]
                total += abs(c) if inv[i] < inv[k] else abs(c - 1)
    return total


def elt_of_length(
    rng: random.Random, n: int, f: int, lo: int, hi: int, radius: int = 2
) -> dict:
    """Random element of the affine Weyl group (degree 0) with lo <= length <= hi."""
    while True:
        elt = affine_elt(rng, n, f, radius, degrees=[0] * f)
        if lo <= length(elt) <= hi:
            return elt
