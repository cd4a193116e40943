"""Tests of the benchmark itself: the generator is deterministic, generated
inputs meet the program's preconditions, every correctness check fires on a
deliberately wrong answer, and traced counts repeat exactly.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from alcove import affine_weyl as aw  # noqa: E402
from alcove import herzig as hz  # noqa: E402
from alcove.root_data import RootDatum, depth_of  # noqa: E402
from tracing import Tracer  # noqa: E402

D3 = RootDatum(3, 1, 37)


def _draw(seed):
    rng = gen.stream(seed, "test")
    return (
        gen.tame_param(rng, 3, 2, 37, 4),
        gen.deep_serre_weight(rng, 4, 1, 23),
        gen.affine_elt(rng, 2, 2, 5),
        gen.elt_of_length(rng, 3, 1, 6, 10),
    )


def test_generator_is_deterministic_per_seed():
    assert _draw(7) == _draw(7)
    assert _draw(7) != _draw(8)
    assert run.cli_commands(7) == run.cli_commands(7)
    assert run.cli_commands(7) != run.cli_commands(8)


def test_rounds_are_deterministic_per_seed():
    def keys(queries):
        return [q.kind for q in queries]

    for make in (wl.predict_round, wl.present_round, wl.orders_round):
        assert keys(make(3, 0)) == keys(make(3, 1))  # fixed mix per round
    assert [q.run() for q in wl.orders_round(3, 0)] == [q.run() for q in wl.orders_round(3, 0)]


def test_generated_inputs_meet_preconditions():
    rng = gen.stream(1, "pre")
    for n, f, p, depth in [(3, 1, 37, 4), (3, 2, 37, 4), (4, 1, 41, 6), (2, 2, 13, 1)]:
        for _ in range(20):
            tau = wl._tau(gen.tame_param(rng, n, f, p, depth))
            assert tau.lowest_alcove_depth() >= depth
            datum = tau.datum
            lam = datum.weight(gen.deep_serre_weight(rng, n, f, p))
            assert depth_of(datum, lam) >= n - 1
    for _ in range(20):
        w = gen.elt_of_length(rng, 3, 1, 6, 10)
        assert gen.length(w) == aw.length(wl._elt(D3, w))
        assert 6 <= gen.length(w) <= 10
        u = gen.reflect(w, 0, 0, 2, 3)
        assert aw.bruhat_leq(wl._elt(D3, u), wl._elt(D3, w)) != aw.bruhat_leq(
            wl._elt(D3, w), wl._elt(D3, u))


def _tau(seed=5, depth=4):
    return wl._tau(gen.tame_param(gen.stream(seed, "t"), 3, 1, 37, depth))


def test_predict_check_fires_on_wrong_answers():
    tau = _tau()
    query = wl._predict_query("predict", tau)
    members, obvious, graph = query.run()
    assert query.check((members, obvious, graph)) is None
    truncated = frozenset(list(members)[:-1])
    assert query.check((truncated, obvious, graph)) is not None
    assert query.check((members, frozenset(list(obvious)[:-1]), graph)) is not None
    no_edges = dataclasses.replace(graph, edges=())
    assert query.check((members, obvious, no_edges)) is not None


def test_present_checks_fire_on_wrong_answers():
    tau = _tau(depth=3)
    lam = gen.deep_serre_weight(gen.stream(5, "s"), 3, 1, 37)
    query = wl._eliminate_query("eliminate", tau, lam)
    result = query.run()
    assert query.check(result) is None
    if not isinstance(result, wl.Refused):
        cert, _ = result
        assert query.check((cert, False)) is not None
        other = next(s for s in hz.wset(tau))
        assert query.check((dataclasses.replace(cert, sigma=other), True)) is not None

    dual = wl._dual_path_query("dual", tau)
    assert dual.check(dual.run()) is None
    assert dual.check(frozenset(list(hz.wset(tau))[:-1])) is not None

    generic = wl._genericity_query("generic", tau)
    assert generic.check(tau.lowest_alcove_depth()) is None
    assert generic.check(tau.lowest_alcove_depth() - 1) is not None

    pair = wl._admissible_query("pair", tau, tau)
    answer = pair.run()
    assert pair.check(answer) is None
    assert pair.check(not answer) is not None


def test_orders_checks_fire_on_wrong_answers():
    rng = gen.stream(2, "o")
    while True:  # a pair small enough for the brute-force oracles
        w = gen.elt_of_length(rng, 3, 1, 3, 6)
        u = gen.reflect(w, 0, 0, 1, rng.randint(-1, 1))
        if gen.length(u) <= wl.ORACLE_MAX_LENGTH:
            break
    U, W = wl._elt(D3, u), wl._elt(D3, w)
    query = wl._pair_query("pair", U, W, True)
    lu, lw, leq, up = query.run()
    assert query.check((lu, lw, leq, up)) is None
    assert query.check((lu + 1, lw, leq, up)) is not None
    assert query.check((lu, lw, not leq, up)) is not None
    assert query.check((lu, lw, leq, not up)) is not None

    interval = wl._interval_query("interval", W)
    elements = interval.run()
    assert interval.check(elements) is None
    assert interval.check(elements[:-1]) is not None
    assert interval.check(elements + [elements[0]]) is not None


def test_cli_check_fires_on_wrong_answers():
    schemas = run.load_schemas()
    sub, argv, schema = run.cli_commands(1)[0]
    _, proc = run.run_child([sys.executable, "-m", "alcove.cli", *argv], 60)
    assert run.check_cli(sub, schema, proc, None, schemas) is None
    assert run.check_cli(sub, schema, proc, proc.stdout + b" ", schemas) is not None

    def changed(stdout=proc.stdout, returncode=0):
        return subprocess.CompletedProcess(proc.args, returncode, stdout, b"")

    payload = json.loads(proc.stdout)
    payload["wset"] = payload["wset"][:-1]
    assert run.check_cli(sub, schema, changed(json.dumps(payload).encode()), None, schemas)
    del payload["wobv"]
    assert run.check_cli(sub, schema, changed(json.dumps(payload).encode()), None, schemas)
    assert run.check_cli(sub, schema, changed(returncode=4), None, schemas) is not None


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    inner = tracer._span("inner", lambda: sum(range(20000)), None)
    outer = tracer._span("outer", lambda: [inner() for _ in range(3)], "items")
    counted = tracer._count("leaf", lambda: None)
    outer()
    counted()
    metrics = tracer.metrics()
    assert metrics["outer.calls"] == 1 and metrics["inner.calls"] == 3
    assert metrics["outer.items"] == 3 and metrics["leaf.calls"] == 1
    (_, o_start, o_end, _, _) = tracer.spans[0]
    total = (o_end - o_start) / 1e9
    assert abs(metrics["outer.self_s"] + metrics["inner.self_s"] - total) < 1e-9
    assert all(span[3] == 0 for span in tracer.spans[1:])


def test_traced_counts_repeat_exactly():
    job = {"workload": "orders", "seed": 4, "mode": "fixed", "rounds": 3, "trace": True,
           "root": str(HERE.parent)}

    def counts():
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                              capture_output=True, text=True, env=run.child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        trace = json.loads(proc.stdout)["trace"]
        return {k: v for k, v in trace.items() if not k.endswith("_s")}

    first = counts()
    assert first == counts()
    assert first["affine_weyl.bruhat_leq.calls"] > 0
    assert first.get("weights_dl.c0_presentations.calls", 0) == 0
