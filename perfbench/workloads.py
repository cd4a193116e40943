"""The in-process workloads: per-datum set-up, the query schedule of one
round, and the correctness check of every query.

A workload is a closed loop with one client: the worker runs the queries of
round 0, then round 1, and so on, one query at a time.  A round is a fixed
mix of query kinds, so any whole number of rounds has the stated input mix;
the inputs of round r come from the seeded streams of :mod:`gen` and depend
only on (seed, workload, r).

A query is ``Query(kind, run, check)``.  ``run`` is the timed call into the
program; it returns the result, or ``Refused(exc)`` when the call raised the
query's declared refusal.  ``check`` runs after the round, outside the timed
region, and returns None when the result is right, or a one-line reason when
it is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from alcove import affine_weyl as aw
from alcove import herzig as hz
from alcove import oracle
from alcove import weights_dl as wd
from alcove.root_data import FiniteWeylElt, RootDatum, WeightVec

import gen

# Predicted weight-set sizes |W?(tau)| per (n, f).  The (3,2) and (4,1)
# values are the counts on which three independent paths agree in ROADMAP.md
# (81 at (3,2,13), 88 at (4,1,23)); p does not change them.
WSET_SIZE = {(3, 1): 9, (3, 2): 81, (4, 1): 88, (2, 2): 4}

# Small enough for the brute-force oracles (all reduced words, chain search).
ORACLE_MAX_LENGTH = 6


@dataclass(frozen=True)
class Refused:
    exc: Exception


@dataclass(frozen=True)
class Query:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _elt(datum: RootDatum, data: dict) -> aw.ExtAffineElt:
    return aw.ExtAffineElt(
        datum,
        WeightVec(tuple(tuple(r) for r in data["trans"])),
        FiniteWeylElt(tuple(tuple(q) for q in data["perm"])),
    )


def _tau(data: dict) -> hz.TameParam:
    datum = RootDatum(data["n"], data["f"], data["p"])
    return hz.TameParam(_elt(datum, data))


def _wset_size_error(tau: hz.TameParam, members) -> str | None:
    expected = WSET_SIZE[(tau.datum.n, tau.datum.f)]
    if len(members) != expected:
        return f"|wset| = {len(members)}, expected {expected}"
    return None


def _warm_datum(datum: RootDatum) -> None:
    aw.adm_eta(datum)
    aw.restricted_reps(datum)


# ---------------------------------------------------------------------------
# predict: wset + wobv + connectivity_graph on a stream of distinct tau


PREDICT_CONFIGS = {"A": (3, 1, 37), "B": (3, 2, 37), "C": (4, 1, 41)}
# Twelve cheap (3,1,37) queries per (3,2,37) and (4,1,41) query: the median
# then lies inside the (3,1,37) cluster and the 90th percentile inside the
# (4,1,41) cluster, away from the edges of both.
PREDICT_ROUND = "AAAAAABAAAAAAC"


def _predict_query(kind: str, tau: hz.TameParam) -> Query:
    def run():
        return hz.wset(tau), hz.wobv(tau), hz.connectivity_graph(tau)

    def check(result) -> str | None:
        members, obvious, graph = result
        size_error = _wset_size_error(tau, members)
        if size_error:
            return size_error
        expected = math.factorial(tau.datum.n) ** tau.datum.f
        if len(obvious) != expected:
            return f"|wobv| = {len(obvious)}, expected {expected}"
        if not obvious <= members or set(graph.vertices) != members:
            return "wobv or graph vertices disagree with wset"
        if not graph.is_connected():
            return "graph is not connected"
        for sigma in graph.vertices:
            chain = graph.chain_to_extremal(sigma)
            if not chain or chain[0] != sigma or chain[-1] not in obvious:
                return "a vertex has no chain to an extremal weight"
        return None

    return Query(kind, run, check)


def predict_setup(seed: int) -> None:
    for key, (n, f, p) in PREDICT_CONFIGS.items():
        datum = RootDatum(n, f, p)
        _warm_datum(datum)
        tau = _tau(gen.tame_param(gen.stream(seed, "predict", "warm", key), n, f, p, 2 * (n - 1)))
        _predict_query(key, tau).run()


def predict_round(seed: int, r: int) -> list[Query]:
    rngs = {key: gen.stream(seed, "predict", key, r) for key in PREDICT_CONFIGS}
    out = []
    for key in PREDICT_ROUND:
        n, f, p = PREDICT_CONFIGS[key]
        tau = _tau(gen.tame_param(rngs[key], n, f, p, 2 * (n - 1)))
        out.append(_predict_query(f"predict{(n, f, p)}", tau))
    return out


# ---------------------------------------------------------------------------
# present: the presentation calculus on a few shared tau per round


PRESENT_CONFIGS = {"P1": (3, 1, 37), "P2": (4, 1, 23), "P3": (2, 2, 13)}
# Eliminations per round and configuration.  At (4,1,23) a wset query goes
# first, so that no elimination pays the cold wset: the five eliminations and
# the wset then form one cluster that holds the 90th percentile well inside.
PRESENT_ELIMINATIONS = {"P1": 10, "P2": 5, "P3": 10}


def _eliminate_query(kind: str, tau: hz.TameParam, lam: list[list[int]]) -> Query:
    datum = tau.datum
    sigma = wd.SerreWeight.from_weight(datum, datum.weight(lam))

    def run():
        try:
            cert = hz.eliminate(sigma, tau)
        except hz.NotEliminableError as exc:
            return Refused(exc)
        return cert, cert.verify()

    def check(result) -> str | None:
        if isinstance(result, Refused):
            witness = result.exc.witness
            if witness is None or witness.weight() != sigma or sigma not in hz.wset(tau):
                return "refused elimination of a weight outside the predicted set"
            return None
        cert, verified = result
        if not verified:
            return "certificate failed verify()"
        if cert.sigma != sigma or sigma in hz.wset(tau):
            return "certificate for the wrong weight or a predicted weight"
        return None

    return Query(kind, run, check)


def _wset_query(kind: str, tau: hz.TameParam) -> Query:
    def run():
        return hz.wset(tau)

    return Query(kind, run, lambda members: _wset_size_error(tau, members))


def _dual_path_query(kind: str, tau: hz.TameParam) -> Query:
    def run():
        return hz.wset_by_definition(tau)

    def check(result) -> str | None:
        if result != hz.wset(tau):
            return "wset_by_definition disagrees with wset"
        return None

    return Query(kind, run, check)


def _genericity_query(kind: str, tau: hz.TameParam) -> Query:
    def run():
        return wd.max_genericity(tau.as_dl())

    def check(result) -> str | None:
        given = tau.lowest_alcove_depth()
        if result is None or result < given:
            return f"max_genericity {result} below the given depth {given}"
        return None

    return Query(kind, run, check)


def _admissible_query(kind: str, rho: hz.TameParam, tau: hz.TameParam) -> Query:
    def run():
        return hz.admissible_pair(rho, tau)

    def check(result) -> str | None:
        # the paper's equivalence: admissible iff JH(tau) meets W?(rho)
        expected = bool(wd.jh_set(tau.as_dl()) & hz.wset(rho))
        if result != expected:
            return f"admissible_pair {result} but JH(tau) meets W?(rho) is {expected}"
        return None

    return Query(kind, run, check)


def present_setup(seed: int) -> None:
    for key, (n, f, p) in PRESENT_CONFIGS.items():
        datum = RootDatum(n, f, p)
        _warm_datum(datum)
        rng = gen.stream(seed, "present", "warm", key)
        tau = _tau(gen.tame_param(rng, n, f, p, n - 1))
        _eliminate_query(key, tau, gen.deep_serre_weight(rng, n, f, p)).run()


def present_round(seed: int, r: int) -> list[Query]:
    out = []
    for key, (n, f, p) in PRESENT_CONFIGS.items():
        rng = gen.stream(seed, "present", key, r)
        # (3,1,37) parameters are n-deep so they also qualify for admissible_pair
        depth = n if key == "P1" else n - 1
        tau = _tau(gen.tame_param(rng, n, f, p, depth))
        label = f"{(n, f, p)}"
        if key == "P2":
            out.append(_wset_query(f"wset{label}", tau))
        for _ in range(PRESENT_ELIMINATIONS[key]):
            lam = gen.deep_serre_weight(rng, n, f, p)
            out.append(_eliminate_query(f"eliminate{label}", tau, lam))
        if key != "P3":
            out.append(_dual_path_query(f"wset_by_definition{label}", tau))
        if key == "P1":
            # max_genericity fills the unpinned presentation cache that
            # admissible_pair(rho = tau, .) then reads: the shared-tau hit.
            out.append(_genericity_query(f"max_genericity{label}", tau))
            other = tau if r % 2 == 0 else _tau(gen.tame_param(rng, n, f, p, n))
            out.append(_admissible_query(f"admissible_pair{label}", tau, other))
    return out


# ---------------------------------------------------------------------------
# orders: length, bruhat_leq and up_leq on fresh pairs, plus intervals


ORDERS_CONFIGS = {
    # (n, f, p): one pair per (translation radius, reflection pair?) slot and
    # round.  Reflection pairs cover radius 3-8.  Independent equal-degree
    # pairs stay small: up_leq on them has a heavy tail that grows fast with
    # the radius (mean 19 ms and p99 0.2 s at (3,1,37) radius 8; one n = 4
    # radius 3 pair took 18 s), and a few such pairs would set a run's time.
    (3, 1, 37): tuple((radius, True) for radius in range(3, 9)) + ((3, False), (4, False)),
    (2, 2, 13): tuple((radius, True) for radius in range(3, 9)) + ((3, False), (5, False)),
    (4, 1, 23): ((1, False), (3, True)),
}
# bruhat_interval queries per round: (n, f, p) and the length range
ORDERS_INTERVALS = (((3, 1, 37), 6, 10), ((2, 2, 13), 6, 10))


def _pair_query(kind: str, u: aw.ExtAffineElt, w: aw.ExtAffineElt, reflected: bool) -> Query:
    def run():
        return aw.length(u), aw.length(w), aw.bruhat_leq(u, w), aw.up_leq(u, w)

    def check(result) -> str | None:
        lu, lw, leq, up = result
        if (lu, lw) != (oracle.hyperplane_count_length(u), oracle.hyperplane_count_length(w)):
            return "length disagrees with the hyperplane count"
        if reflected and leq != (lu < lw):
            return "bruhat_leq on a reflection pair disagrees with the lengths"
        if leq and lu > lw:
            return "bruhat_leq holds from a longer element"
        if max(lu, lw) <= ORACLE_MAX_LENGTH:
            if leq != oracle.brute_bruhat(u, w):
                return "bruhat_leq disagrees with brute_bruhat"
            if up != oracle.brute_up(u, w):
                return "up_leq disagrees with brute_up"
        return None

    return Query(kind, run, check)


def _interval_query(kind: str, w: aw.ExtAffineElt) -> Query:
    def run():
        return aw.bruhat_interval(w)

    def check(result) -> str | None:
        keys = {x.key() for x in result}
        lw = oracle.hyperplane_count_length(w)
        if w.key() not in keys or len(keys) != len(result):
            return "interval misses its top element or repeats one"
        if any(oracle.hyperplane_count_length(x) > lw for x in result):
            return "interval holds an element longer than its top"
        if lw <= ORACLE_MAX_LENGTH and keys != oracle.subword_closure(w):
            return "interval disagrees with the subword closure"
        return None

    return Query(kind, run, check)


def orders_setup(seed: int) -> None:
    for (n, f, p) in ORDERS_CONFIGS:
        datum = RootDatum(n, f, p)
        _warm_datum(datum)
        rng = gen.stream(seed, "orders", "warm", n, f)
        w = _elt(datum, gen.affine_elt(rng, n, f, 3))
        _pair_query("warm", w, w, False).run()


def orders_round(seed: int, r: int) -> list[Query]:
    out = []
    for (n, f, p), slots in ORDERS_CONFIGS.items():
        datum = RootDatum(n, f, p)
        rng = gen.stream(seed, "orders", n, f, r)
        for radius, reflected in slots:
            w = gen.affine_elt(rng, n, f, radius)
            if reflected:
                j, i, k = rng.randrange(f), *sorted(rng.sample(range(n), 2))
                u = gen.reflect(w, j, i, k, rng.randint(-radius, radius))
            else:
                u = gen.affine_elt(rng, n, f, radius, gen.degrees(w))
            out.append(_pair_query(
                f"pair{(n, f, p)}", _elt(datum, u), _elt(datum, w), reflected
            ))
    for (n, f, p), lo, hi in ORDERS_INTERVALS:
        rng = gen.stream(seed, "orders", "interval", n, f, r)
        w = gen.elt_of_length(rng, n, f, lo, hi)
        out.append(_interval_query(f"interval{(n, f, p)}", _elt(RootDatum(n, f, p), w)))
    return out


WORKLOADS = {
    "predict": (predict_setup, predict_round),
    "present": (present_setup, present_round),
    "orders": (orders_setup, orders_round),
}
