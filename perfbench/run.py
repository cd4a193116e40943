"""The alcove benchmark: closed-loop workloads with one client, end to end or
traced per layer.

    python3 perfbench/run.py --workload predict --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (why each was chosen is in ``perfbench/NOTES.md``):

* ``predict``  wset + wobv + connectivity_graph on distinct tau;
* ``present``  eliminate + verify, max_genericity, admissible_pair and the
  dual-path wset on a few shared tau;
* ``orders``   length, bruhat_leq, up_leq on fresh pairs, and intervals;
* ``cli``      fresh ``alcove`` processes, one after another.

Every query's result is checked outside the timed region.  Prints one line
per metric (name, value, unit), the check summary, and as its last line one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a fixed
number of rounds runs once untraced and once traced, and the metrics are the
per-layer counts and self times plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

# Per workload: the fewest rounds of a timed run (peak memory is read after
# them) and the rounds of a traced run.  At the parent commit, on a 2-core
# x86 container, a predict round takes about 1 s, a present round about 3 s,
# an orders round about 0.05 s and a cli round about 4 s.
MIN_ROUNDS = {"predict": 4, "present": 2, "orders": 200, "cli": 2}
TRACE_ROUNDS = {"predict": 3, "present": 2, "orders": 100, "cli": 1}
# Throughput is the median over blocks of whole rounds (about 1 s of work
# each, 4 s for cli): robust to bursts of load on a shared machine and to the
# rare very slow up_leq pair, where one run-wide mean is not.
ROUNDS_PER_BLOCK = {"predict": 1, "present": 1, "orders": 5, "cli": 1}
SETUP_SAMPLES = 4  # fresh processes that only set up; the timed one adds a fifth
CLI_SETUP_SAMPLES = 5  # interpreter start plus import is cheap: take more
OVERHEAD_PAIRS = 2  # untraced/traced pairs; the overhead compares the fastest of each
WORKER_TIMEOUT_S = 150
CLI_TIMEOUT_S = 60

E2E_UNITS = {
    "throughput_qps": "queries/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = [
    "root_data.FiniteWeylElt.inverse.calls",
    "root_data.FiniteWeylElt.act.calls",
    "affine_weyl.mul.calls",
    "affine_weyl.inverse.calls",
    "affine_weyl.length.calls",
    "affine_weyl.bruhat_interval.calls",
    "affine_weyl.bruhat_interval.self_s",
    "affine_weyl.bruhat_interval.elements",
    "affine_weyl.bruhat_leq.calls",
    "affine_weyl.bruhat_leq.self_s",
    "affine_weyl.up_leq.calls",
    "affine_weyl.up_leq.self_s",
    "affine_weyl.adm_eta.self_s",
    "affine_weyl.restricted_reps.self_s",
    "affine_weyl.diamond.calls",
    "affine_weyl.diamond.self_s",
    "weights_dl.c0_presentations.calls",
    "weights_dl.c0_presentations.self_s",
    "weights_dl.c0_presentations.results",
    "weights_dl.max_genericity.self_s",
    "weights_dl.jh_set.self_s",
    "weights_dl.presentations_of.calls",
    "weights_dl.presentations_of.self_s",
    "herzig.wset.self_s",
    "herzig.wobv.self_s",
    "herzig.connectivity_graph.self_s",
    "herzig.eliminate.self_s",
    "herzig.certificate_verify.self_s",
    "herzig.admissible_pair.self_s",
    "cli.import_s",
    "cli.wset.process_s",
    "cli.graph.process_s",
    "cli.eliminate.process_s",
    "cli.verify.process_s",
    "trace.untraced_s",
    "trace.traced_s",
    "trace.overhead_pct",
]

CLI_SUBCOMMANDS = ("wset", "graph", "eliminate", "verify")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed query)."""


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_pct"):
        return "%"
    return "s" if name.endswith("_s") else "count"


def quantile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank quantile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], timeout: float, stdin: str | None = None):
    """Run one child to completion; return (wall seconds, CompletedProcess)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, input=stdin, capture_output=True, text=stdin is not None,
                          env=child_env(), cwd=ROOT, timeout=timeout)
    return time.perf_counter() - start, proc


# ---------------------------------------------------------------------------
# in-process workloads: the loop runs in a worker process


def worker(job: dict) -> dict:
    job = dict(job, root=str(ROOT))
    try:
        _, proc = run_child([sys.executable, str(HERE / "worker.py")], WORKER_TIMEOUT_S,
                            json.dumps(job))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def in_process(args) -> tuple[dict, int, int, list[str]]:
    base = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        return traced_in_process(base)
    setups = [worker(dict(base, mode="setup"))["setup_s"] for _ in range(SETUP_SAMPLES)]
    res = worker(dict(base, mode="loop", seconds=args.seconds,
                      min_rounds=MIN_ROUNDS[args.workload]))
    setups.append(res["setup_s"])
    metrics = latency_metrics(args.workload, res["latencies_ns"], res["round_ends"], res["kinds"])
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    print(f"# rounds {res['rounds']}, setup samples {[round(s, 4) for s in setups]}")
    return metrics, len(res["latencies_ns"]), res["failed"], res["failures"]


def latency_metrics(workload: str, latencies_ns: list[float], round_ends: list[int],
                    kinds: list[str]) -> dict:
    ms = [x / 1e6 for x in latencies_ns]
    p50, _ = quantile(ms, 0.5)
    p90, beyond = quantile(ms, 0.9)
    step = ROUNDS_PER_BLOCK[workload]
    cuts = [0] + round_ends[step - 1::step]
    if len(cuts) < 2:  # not one whole block: the whole run is the block
        cuts = [0, len(ms)]
    rates = [(b - a) / (sum(ms[a:b]) / 1e3) for a, b in zip(cuts, cuts[1:])]
    print(f"# queries {len(ms)}, samples beyond p90 {beyond}; {len(rates)} blocks, "
          f"queries/s from {min(rates):.4g} to {max(rates):.4g}")
    for kind in sorted(set(kinds)):
        mine = [x for x, k in zip(ms, kinds) if k == kind]
        print(f"#   {kind:<36} n={len(mine):<5} median {statistics.median(mine):10.3f} ms")
    return {
        "throughput_qps": statistics.median(rates),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
    }


def traced_in_process(base: dict) -> tuple[dict, int, int, list[str]]:
    rounds = TRACE_ROUNDS[base["workload"]]
    OUT.mkdir(exist_ok=True)
    runs = []
    spans = OUT / f"trace-{base['workload']}-{base['seed']}.json"
    for pair in range(OVERHEAD_PAIRS):
        runs.append(worker(dict(base, mode="fixed", rounds=rounds)))
        runs.append(worker(dict(base, mode="fixed", rounds=rounds, trace=True,
                                trace_out=None if pair else str(spans))))
    metrics = dict(runs[1]["trace"])
    add_overhead(metrics, min(r["busy_s"] for r in runs[0::2]),
                 min(r["busy_s"] for r in runs[1::2]))
    failures = [line for r in runs for line in r["failures"]]
    attempted = sum(len(r["latencies_ns"]) for r in runs)
    return metrics, attempted, sum(r["failed"] for r in runs), failures


def add_overhead(metrics: dict, plain_s: float, traced_s: float) -> None:
    metrics["trace.untraced_s"] = plain_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_pct"] = 100 * (traced_s - plain_s) / plain_s


# ---------------------------------------------------------------------------
# cli: fresh processes, one at a time


def cli_commands(seed: int) -> list[tuple[str, list[str], str | None]]:
    """(subcommand, argv, schema) for one round: the four golden commands and
    three more drawn from the seed."""

    def tau_args(tau: dict) -> list[str]:
        return ["--n", str(tau["n"]), "--f", str(tau["f"]), "--p", str(tau["p"]),
                "--s", ";".join("".join(str(v + 1) for v in q) for q in tau["perm"]),
                "--mu", rows(tau["trans"])]

    def rows(lam) -> str:
        return ";".join(",".join(str(a) for a in row) for row in lam)

    rng = gen.stream(seed, "cli")
    wset_tau = gen.tame_param(rng, 3, 1, 37, 4)
    elim_tau = gen.tame_param(rng, 3, 1, 37, 2)
    sigma = gen.deep_serre_weight(rng, 3, 1, 37)
    graph_tau = gen.tame_param(rng, 3, 2, 37, 4)
    golden_tau = ["--s", "231", "--mu", "20,10,0"]
    return [
        ("wset", ["wset", "--n", "3", "--f", "1", "--p", "37", *golden_tau], "wset"),
        ("graph", ["graph", "--n", "2", "--f", "1", "--p", "7", "--s", "21",
                   "--mu", "5,1", "--format", "dot"], None),
        ("graph", ["graph", "--n", "3", "--f", "1", "--p", "37", *golden_tau,
                   "--format", "json"], "graph"),
        ("verify", ["verify", "--n", "2", "--f", "1", "--p", "13", "--tau-samples", "1",
                    "--pair-samples", "1", "--sweep", "omega", "--sweep", "zero_gen"], "report"),
        ("wset", ["wset", *tau_args(wset_tau)], "wset"),
        ("eliminate", ["eliminate", *tau_args(elim_tau), "--sigma", rows(sigma)], "certificate"),
        ("graph", ["graph", *tau_args(graph_tau), "--format", "json"], "graph"),
    ]


def load_schemas() -> dict:
    return {
        name: json.loads((ROOT / "src" / "alcove" / "schemas" / f"{name}.schema.json").read_text())
        for name in ("wset", "graph", "report", "certificate")
    }


def check_cli(sub: str, schema: str | None, proc, first: bytes | None, schemas) -> str | None:
    import jsonschema

    payload = None
    if schema is not None:
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            payload = None
    # refusing a weight that lies in the predicted set is eliminate's declared exit 2
    refused = sub == "eliminate" and payload is not None and payload.get("eliminable") is False
    if proc.returncode != (2 if refused else 0):
        return f"exit code {proc.returncode}: {proc.stderr.decode()[-200:]}"
    if schema is None:
        if not proc.stdout.startswith(b"graph weights {"):
            return "DOT output does not start with the graph header"
    elif payload is None:
        return "output is not JSON"
    elif not refused:
        try:
            jsonschema.validate(payload, schemas[schema])
        except jsonschema.ValidationError as exc:
            return f"output does not match {schema}.schema.json: {exc.message[:200]}"
        if sub == "wset" and len(payload["wset"]) != 9:
            return f"wset has {len(payload['wset'])} weights, expected 9"
        if sub == "graph" and not payload["connected"]:
            return "graph is not connected"
        if sub == "verify" and not payload["passed"]:
            return "verify reported a failing sweep"
        if sub == "eliminate" and not payload["revalidated"]:
            return "certificate was not revalidated"
    if first is not None and proc.stdout != first:
        return "output differs from the first run of the same command"
    return None


def cli_rounds(seed: int, rounds: int | None, seconds: float, traced: bool) -> dict:
    """Run whole rounds of fresh processes, one at a time: exactly ``rounds``,
    or at least MIN_ROUNDS until they took ``seconds``."""
    commands = cli_commands(seed)
    schemas = load_schemas()
    first: dict[int, bytes] = {}
    latencies, kinds, failures, children, round_ends = [], [], [], [], []
    wall = {sub: 0.0 for sub in CLI_SUBCOMMANDS}
    busy, done = 0.0, 0
    out_file = OUT / "cli-child.json"
    while True:
        for idx, (sub, argv, schema) in enumerate(commands):
            if traced:
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(out_file), *argv]
            else:
                cmd = [sys.executable, "-m", "alcove.cli", *argv]
            try:
                elapsed, proc = run_child(cmd, CLI_TIMEOUT_S)
                error = check_cli(sub, schema, proc, first.get(idx), schemas)
                first.setdefault(idx, proc.stdout)
            except subprocess.TimeoutExpired:
                elapsed, error = CLI_TIMEOUT_S, f"timed out after {CLI_TIMEOUT_S} s"
            if traced and error is None:
                children.append(json.loads(out_file.read_text()))
                out_file.unlink()
            busy += elapsed
            wall[sub] += elapsed
            latencies.append(elapsed * 1e9)
            kinds.append(f"cli {sub} {' '.join(argv[1:7])}")
            if error:
                failures.append(f"{sub} {' '.join(argv[1:])}: {error}")
        done += 1
        round_ends.append(len(latencies))
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= MIN_ROUNDS["cli"] and busy >= seconds:
            break
    return {"latencies_ns": latencies, "kinds": kinds, "failures": failures,
            "round_ends": round_ends, "wall": wall, "children": children}


def cli(args) -> tuple[dict, int, int, list[str]]:
    if args.trace:
        return traced_cli(args.seed)
    setups = []
    for _ in range(CLI_SETUP_SAMPLES):
        elapsed, proc = run_child(
            [sys.executable, "-c", "import alcove.cli; print(alcove.cli.__file__)"], CLI_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.decode().startswith(str(ROOT / "src")):
            raise BenchError("cannot import alcove.cli from the checkout's src/")
        setups.append(elapsed)
    res = cli_rounds(args.seed, None, args.seconds, False)
    metrics = latency_metrics("cli", res["latencies_ns"], res["round_ends"], res["kinds"])
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"# setup samples {[round(s, 4) for s in setups]}")
    return metrics, len(res["latencies_ns"]), len(res["failures"]), res["failures"]


def traced_cli(seed: int) -> tuple[dict, int, int, list[str]]:
    rounds = TRACE_ROUNDS["cli"]
    OUT.mkdir(exist_ok=True)
    runs = []
    for _ in range(OVERHEAD_PAIRS):
        runs += [cli_rounds(seed, rounds, 0, False), cli_rounds(seed, rounds, 0, True)]
    traced = runs[1]
    children = traced["children"]
    metrics: dict[str, float] = {}
    for child in children:
        for name, value in child["metrics"].items():
            metrics[name] = metrics.get(name, 0) + value
    with open(OUT / f"trace-cli-{seed}.json", "w") as handle:
        json.dump([{"names": c["names"], "spans": c["spans"]} for c in children], handle)
    if children:
        metrics["cli.import_s"] = statistics.median(c["import_s"] for c in children)
    for sub, seconds in traced["wall"].items():
        metrics[f"cli.{sub}.process_s"] = seconds
    add_overhead(metrics, min(sum(r["latencies_ns"]) / 1e9 for r in runs[0::2]),
                 min(sum(r["latencies_ns"]) / 1e9 for r in runs[1::2]))
    failures = [line for r in runs for line in r["failures"]]
    attempted = sum(len(r["latencies_ns"]) for r in runs)
    return metrics, attempted, len(failures), failures


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["predict", "present", "orders", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "alcove" / "__init__.py").is_file():
        print(f"error: no alcove package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = cli if args.workload == "cli" else in_process
        metrics, attempted, failed, failures = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    names = PER_LAYER if args.trace else list(E2E_UNITS)
    report = {name: {"value": metrics.get(name, 0), "unit": unit_of(name)} for name in names}
    for name, entry in report.items():
        print(f"{name:<44} {entry['value']:>16.6f} {entry['unit']}")
    print(f"{'error_rate':<44} {failed / max(attempted, 1):>16.6f} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(f"checks: {'all passed' if failed == 0 else f'{failed} FAILED'}")
    for line in failures:
        print(f"  FAIL {line}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
