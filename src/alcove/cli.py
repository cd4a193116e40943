"""Command-line interface: weight-set enumeration, graph export, lemma
verification, and elimination certificates over a JSON/DOT surface.

Exit codes: 0 success, 2 precondition or validation refusal, 3 resource
budget exceeded, 4 verification failure.  Outputs are deterministic for a
fixed configuration: JSON is emitted with sorted keys, DOT with a documented
sort of vertices and edges.
"""

from __future__ import annotations

import argparse
import json
import sys

from .affine_weyl import ExtAffineElt
from .herzig import (
    NotEliminableError,
    TameParam,
    connectivity_graph,
    eliminate,
    wobv_with_presentations,
    wset_with_presentations,
)
from .root_data import (
    AlcoveError,
    BudgetError,
    DepthError,
    FiniteWeylElt,
    RootDatum,
    ValidationError,
)
from .weights_dl import SerreWeight, max_genericity, presentations_of

EXIT_OK = 0
EXIT_REFUSED = 2
EXIT_BUDGET = 3
EXIT_VERIFY_FAILED = 4

# the verify parser's choices, spelled out so that only cmd_verify loads
# alcove.oracle; a test keeps them equal to oracle.SWEEP_NAMES and
# sorted(oracle.MUTATIONS)
SWEEP_NAMES = (
    "reduced1", "omega", "reduced2", "subregular", "reduced_factorizations",
    "zero_gen", "presentations", "jh_paths", "herzig_dual", "obvweight",
    "isolating", "covering_char", "wtintersect", "dl_decent", "elimination",
    "connectivity",
)
MUTATION_NAMES = (
    "drop-dominant-hypothesis", "drop-lattice-hypothesis", "drop-restricted-hypothesis",
)


def _parse_rows(
    text: str, rows: int, cols: int, what: str, one_line: bool = False
) -> list[list[int]]:
    """Integer groups joined by ';', entries comma-separated; with one_line
    (permutations only), a group may also be written unseparated: "231"."""
    parts = text.split(";")
    if len(parts) != rows:
        raise ValidationError(
            f"{what}: expected {rows} group(s) separated by ';', got {len(parts)}"
        )
    out = []
    for part in parts:
        entries = [x for x in part.replace(" ", "").split(",") if x]
        if one_line and len(entries) == 1 and cols > 1 and entries[0].isdigit():
            entries = list(entries[0])
        if len(entries) != cols:
            raise ValidationError(
                f"{what}: expected {cols} entries per group, got {len(entries)}"
            )
        try:
            out.append([int(x) for x in entries])
        except ValueError as exc:
            raise ValidationError(f"{what}: non-integer entry ({exc})") from exc
    return out


def _datum(args) -> RootDatum:
    return RootDatum(args.n, args.f, args.p)


def _tame_param(args, datum: RootDatum) -> TameParam:
    s = FiniteWeylElt.from_one_line(
        datum, _parse_rows(args.s, datum.f, datum.n, "--s", one_line=True)
    )
    mu = datum.weight(_parse_rows(args.mu, datum.f, datum.n, "--mu"))
    return TameParam(ExtAffineElt(datum, mu, s))


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(text)


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_wset(args) -> int:
    datum = _datum(args)
    tau = _tame_param(args, datum)
    members = wset_with_presentations(tau)
    obvious = wobv_with_presentations(tau)
    weights = sorted(members, key=lambda s: s.sort_key())
    payload = {
        "datum": {"n": datum.n, "f": datum.f, "p": datum.p},
        "tame_param": tau.to_json(),
        "genericity": {
            "given_presentation_depth": tau.lowest_alcove_depth(),
            "max_over_presentations": max_genericity(tau.as_dl()),
        },
        "wset": [
            {
                "sigma": s.to_json(),
                "extremal": s in obvious,
                "witness": members[s].to_json(),
                "presentations": [p.to_json() for p in presentations_of(s)],
            }
            for s in weights
        ],
        "wobv": [s.to_json() for s in sorted(obvious, key=lambda s: s.sort_key())],
    }
    _emit(args, _dump(payload))
    return EXIT_OK


def cmd_graph(args) -> int:
    datum = _datum(args)
    tau = _tame_param(args, datum)
    graph = connectivity_graph(tau)
    if args.format == "dot":
        _emit(args, graph.to_dot())
    else:
        _emit(args, _dump(graph.to_json()))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .oracle import SweepConfig, lemma_sweeps

    config = SweepConfig(
        n=args.n,
        f=args.f,
        p=args.p,
        box_radius=args.box_radius,
        tau_samples=args.tau_samples,
        pair_samples=args.pair_samples,
        seed=args.seed,
        mutations=frozenset(args.mutate or []),
        sweeps=tuple(args.sweep) if args.sweep else None,
    )
    report = lemma_sweeps(config)
    _emit(args, _dump(report.to_json()))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_eliminate(args) -> int:
    datum = _datum(args)
    tau = _tame_param(args, datum)
    lam = datum.weight(_parse_rows(args.sigma, datum.f, datum.n, "--sigma"))
    sigma = SerreWeight.from_weight(datum, lam)
    try:
        cert = eliminate(sigma, tau)
    except NotEliminableError as exc:
        payload = {
            "eliminable": False,
            "reason": str(exc),
            "membership_witness": exc.witness.to_json() if exc.witness else None,
        }
        _emit(args, _dump(payload))
        return EXIT_REFUSED
    payload = cert.to_json()
    payload["eliminable"] = True
    payload["revalidated"] = True
    _emit(args, _dump(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alcove",
        description="Alcove combinatorics for products of GL_n: predicted "
        "weight sets, connectivity graphs, lemma verification, and "
        "elimination certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tame: bool) -> None:
        p.add_argument("--n", type=int, required=True, help="rank of each GL_n factor")
        p.add_argument("--f", type=int, default=1, help="number of embeddings")
        p.add_argument("--p", type=int, required=True, help="prime")
        if tame:
            p.add_argument(
                "--s",
                required=True,
                help="finite Weyl element, one-line 1-indexed, embeddings joined by ';'",
            )
            p.add_argument(
                "--mu",
                required=True,
                help="translation part, comma-separated integers, embeddings joined by ';'",
            )
        p.add_argument("--out", help="output path (default stdout)")

    p_wset = sub.add_parser("wset", help="predicted weight set of a tame parameter")
    common(p_wset, tame=True)
    p_wset.set_defaults(func=cmd_wset)

    p_graph = sub.add_parser("graph", help="weight-connectivity graph")
    common(p_graph, tame=True)
    p_graph.add_argument("--format", choices=["json", "dot"], default="json")
    p_graph.set_defaults(func=cmd_graph)

    p_verify = sub.add_parser("verify", help="run the lemma sweep harness")
    common(p_verify, tame=False)
    p_verify.add_argument("--box-radius", type=int, default=3)
    p_verify.add_argument("--tau-samples", type=int, default=4)
    p_verify.add_argument("--pair-samples", type=int, default=6)
    p_verify.add_argument("--seed", type=int, default=2024)
    p_verify.add_argument(
        "--sweep",
        action="append",
        choices=list(SWEEP_NAMES),
        help="run only the named sweep (repeatable; default all)",
    )
    p_verify.add_argument(
        "--mutate",
        action="append",
        choices=list(MUTATION_NAMES),
        help="deliberately drop a hypothesis to demonstrate sensitivity",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_elim = sub.add_parser(
        "eliminate", help="weight-elimination certificate for sigma against tau"
    )
    common(p_elim, tame=True)
    p_elim.add_argument(
        "--sigma",
        required=True,
        help="highest weight of sigma, comma-separated, embeddings joined by ';'",
    )
    p_elim.set_defaults(func=cmd_eliminate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse (Python 3.11) reads "--opt=--" as an empty list of values
    # instead of refusing it; refuse it here, as argparse refuses "--opt"
    for name, value in vars(args).items():
        if isinstance(value, list) and (not value or [] in value):
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        return args.func(args)
    except (DepthError, ValidationError, NotEliminableError) as exc:
        print(_dump({"error": str(exc), "kind": "refusal"}), file=sys.stderr, end="")
        return EXIT_REFUSED
    except BudgetError as exc:
        print(_dump({"error": str(exc), "kind": "budget"}), file=sys.stderr, end="")
        return EXIT_BUDGET
    except AlcoveError as exc:
        print(_dump({"error": str(exc), "kind": "internal"}), file=sys.stderr, end="")
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
