"""One benchmark process for an in-process workload.

Reads a job as JSON on stdin and writes one JSON object on stdout.  The job
names the workload, the seed and a mode:

* ``setup``: import the package and warm its per-datum caches, then report
  the time that took;
* ``loop``: set up, then run whole rounds until the timed queries have taken
  ``seconds`` and at least ``min_rounds`` rounds are done.  Each round's
  results are checked after the round, outside the timed region.  Peak
  resident memory is read after ``min_rounds`` rounds, a fixed amount of
  work, so that it does not grow with the program's speed;
* ``fixed``: set up, then run exactly ``rounds`` rounds, optionally traced,
  so that the work (and every count) is the same from run to run.

Run by ``run.py`` with ``PYTHONPATH`` naming the checkout's ``src``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

MAX_FAILURES_SHOWN = 20


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    job = json.load(sys.stdin)
    start = time.perf_counter()
    import alcove
    import workloads

    src = Path(job["root"]).resolve() / "src"
    if Path(alcove.__file__).resolve().parent.parent != src:
        print(f"imported alcove from {alcove.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup, make_round = workloads.WORKLOADS[job["workload"]]
    seed = job["seed"]
    setup(seed)
    out = {"setup_s": time.perf_counter() - start}
    if job["mode"] == "setup":
        print(json.dumps(out))
        return 0

    latencies, kinds, failures, round_ends = [], [], [], []
    busy = rounds = 0
    rss = None
    budget = job.get("seconds", 0) * 10**9
    while True:
        # The round's queries run back to back; their checks follow the
        # round, so no check warms a cache or evicts one before a query.
        done = []
        for query in make_round(seed, rounds):
            if tracer:
                tracer.query = len(latencies)
            t0 = time.perf_counter_ns()
            try:
                result, error = query.run(), None
            except Exception as exc:  # any exception is a failed query
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter_ns() - t0
            busy += elapsed
            latencies.append(elapsed)
            kinds.append(query.kind)
            done.append((query, result, error))
        if tracer:
            tracer.on = False
        for query, result, error in done:
            if error is None:
                try:
                    error = query.check(result)
                except Exception as exc:  # a check that crashes fails the query
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                failures.append(f"{query.kind}: {error}")
        del done
        if tracer:
            tracer.on = True
        rounds += 1
        round_ends.append(len(latencies))
        if rounds == job.get("min_rounds"):
            rss = _rss_mb()
        if job["mode"] == "fixed":
            if rounds >= job["rounds"]:
                break
        elif rounds >= job["min_rounds"] and busy >= budget:
            break

    out.update(
        rounds=rounds,
        busy_s=busy / 1e9,
        latencies_ns=latencies,
        kinds=kinds,
        round_ends=round_ends,
        failed=len(failures),
        failures=failures[:MAX_FAILURES_SHOWN],
        peak_rss_mb=rss if rss is not None else _rss_mb(),
    )
    if tracer:
        out["trace"] = tracer.metrics()
        if job.get("trace_out"):
            tracer.dump(job["trace_out"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
