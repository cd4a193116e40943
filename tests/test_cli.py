from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from alcove import oracle
from alcove.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_VERIFY_FAILED,
    MUTATION_NAMES,
    SWEEP_NAMES,
    main,
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def load_schema(name):
    text = resources.files("alcove.schemas").joinpath(name).read_text()
    return json.loads(text)


WSET_ARGS = ("wset", "--n", "3", "--f", "1", "--p", "37", "--s", "231", "--mu", "20,10,0")
GRAPH_ARGS = ("graph", "--n", "2", "--f", "1", "--p", "7", "--s", "21", "--mu", "5,1")


class TestWsetCommand:
    def test_nine_weights(self):
        code, out, _ = run_cli(*WSET_ARGS)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["wset"]) == 9
        assert len(payload["wobv"]) == 6
        jsonschema.validate(payload, load_schema("wset.schema.json"))

    def test_invalid_p_refused(self):
        code, _, err = run_cli(
            "wset", "--n", "3", "--f", "1", "--p", "2", "--s", "231", "--mu", "1,0,0"
        )
        assert code == EXIT_REFUSED
        assert "C0 empty" in err

    def test_dot_format_refused(self):
        # wset has no --format (JSON is its only output), so argparse refuses it
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main([*WSET_ARGS, "--format", "dot"])
        assert exc.value.code == EXIT_REFUSED
        assert "unrecognized arguments: --format dot" in err.getvalue()

    def test_shallow_parameter_refused(self):
        code, _, err = run_cli(
            "wset", "--n", "2", "--f", "1", "--p", "7", "--s", "21", "--mu", "2,1"
        )
        assert code == EXIT_REFUSED
        assert "deep" in err

    def test_malformed_permutation_refused(self):
        code, _, err = run_cli(
            "wset", "--n", "3", "--f", "1", "--p", "37", "--s", "221", "--mu", "20,10,0"
        )
        assert code == EXIT_REFUSED


class TestGraphCommand:
    def test_json_graph(self):
        code, out, _ = run_cli(*GRAPH_ARGS)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["connected"] is True
        assert len(payload["vertices"]) == 2
        jsonschema.validate(payload, load_schema("graph.schema.json"))

    def test_dot_graph(self):
        code, out, _ = run_cli(*GRAPH_ARGS, "--format", "dot")
        assert code == EXIT_OK
        assert out.startswith("graph weights {")
        assert out.endswith("}\n")

    def test_deterministic_across_runs(self):
        outputs = {run_cli(*GRAPH_ARGS, "--format", fmt)[1]
                   for fmt in ("dot", "dot", "dot")}
        assert len(outputs) == 1
        outputs = {run_cli(*WSET_ARGS)[1] for _ in range(3)}
        assert len(outputs) == 1


class TestVerifyCommand:
    def test_clean_run_exit_zero(self):
        code, out, _ = run_cli(
            "verify", "--n", "2", "--f", "1", "--p", "13",
            "--box-radius", "1", "--tau-samples", "1", "--pair-samples", "1",
            "--sweep", "omega", "--sweep", "zero_gen",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] is True
        jsonschema.validate(payload, load_schema("report.schema.json"))

    def test_mutated_run_exit_four(self):
        code, out, _ = run_cli(
            "verify", "--n", "2", "--f", "1", "--p", "7",
            "--tau-samples", "1", "--pair-samples", "1",
            "--sweep", "zero_gen", "--mutate", "drop-lattice-hypothesis",
        )
        assert code == EXIT_VERIFY_FAILED
        payload = json.loads(out)
        assert payload["passed"] is False
        assert any(s["counterexamples"] for s in payload["sweeps"])
        jsonschema.validate(payload, load_schema("report.schema.json"))

    def test_config_names_what_was_checked(self):
        configs = []
        for samples in ("1", "2"):
            code, out, _ = run_cli(
                "verify", "--n", "2", "--f", "1", "--p", "13",
                "--sweep", "wtintersect", "--pair-samples", samples,
            )
            assert code == EXIT_OK
            payload = json.loads(out)
            jsonschema.validate(payload, load_schema("report.schema.json"))
            configs.append(payload["config"])
        assert [c["pair_samples"] for c in configs] == [1, 2]
        assert configs[0]["sweeps"] == ["wtintersect"]

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            "verify", "--n", "2", "--f", "1", "--p", "13",
            "--tau-samples", "1", "--pair-samples", "1",
            "--sweep", "omega", "--out", str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        json.loads(target.read_text())

    def test_output_into_missing_directory_refused(self, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(*GRAPH_ARGS, "--out", str(target))
        assert code == EXIT_REFUSED
        assert out == ""
        assert json.loads(err)["kind"] == "refusal"
        assert "Traceback" not in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "option, value, sweep",
        [
            ("--tau-samples", "0", "herzig_dual"),
            ("--tau-samples", "-1", "herzig_dual"),
            ("--pair-samples", "0", "wtintersect"),
            ("--box-radius", "-1", "reduced1"),
        ],
    )
    def test_empty_sample_refused(self, option, value, sweep):
        # a sweep that samples nothing would pass while checking nothing
        code, out, err = run_cli(
            "verify", "--n", "2", "--f", "1", "--p", "7",
            option, value, "--sweep", sweep,
        )
        assert code == EXIT_REFUSED
        assert out == ""
        assert json.loads(err)["kind"] == "refusal"


class TestEliminateCommand:
    def test_certificate_emitted(self):
        code, out, _ = run_cli(
            "eliminate", "--n", "2", "--f", "1", "--p", "7",
            "--s", "21", "--mu", "5,1", "--sigma", "2,0",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["eliminable"] is True
        assert payload["revalidated"] is True
        jsonschema.validate(payload, load_schema("certificate.schema.json"))

    def test_member_not_eliminable(self):
        code, out, _ = run_cli(
            "eliminate", "--n", "2", "--f", "1", "--p", "7",
            "--s", "21", "--mu", "5,1", "--sigma", "4,1",
        )
        assert code == EXIT_REFUSED
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("certificate.schema.json"))
        assert payload["eliminable"] is False
        assert payload["membership_witness"] is not None

    def test_schema_accepts_exactly_two_shapes(self):
        schema = load_schema("certificate.schema.json")
        _, out, _ = run_cli(
            "eliminate", "--n", "2", "--f", "1", "--p", "7",
            "--s", "21", "--mu", "5,1", "--sigma", "2,0",
        )
        cert = json.loads(out)
        refusal = {"eliminable": False, "reason": "member", "membership_witness": None}
        jsonschema.validate(refusal, schema)
        for bad in (
            {**cert, "eliminable": False},
            {**cert, "reason": "member"},
            {**refusal, "eliminable": True},
            {**refusal, "sigma": cert["sigma"]},
            {"eliminable": False, "reason": "member"},
        ):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, schema)

    def test_malformed_sigma_refused(self):
        rank_two = ("--n", "2", "--f", "1", "--p", "7", "--s", "21")
        rank_three = ("--n", "3", "--f", "1", "--p", "37", "--s", "231")
        cases = (
            # only --s takes the unseparated one-line form, so "51" and "20"
            # are one entry each, not (5,1) and (2,0)
            (rank_two, "5,1", "2"),
            (rank_two, "51", "2,0"),
            (rank_two, "5,1", "20"),
            # a space inside an entry, an empty entry and a trailing comma
            # are refused, not read as (20,10,0)
            (rank_three, "2 0,1 0,0", "30,15,2"),
            (rank_three, "20,,10,0", "30,15,2"),
            (rank_three, "20,10,0,", "30,15,2"),
        )
        for config, mu, sigma in cases:
            code, _, err = run_cli(
                "eliminate", *config, "--mu", mu, "--sigma", sigma
            )
            assert code == EXIT_REFUSED
            assert "refusal" in err


class TestArgumentParsing:
    @pytest.mark.parametrize(
        "argv",
        [
            (*WSET_ARGS[:-2], "--mu=--"),
            ("wset", "--n=--", "--p", "7", "--s", "21", "--mu", "5,1"),
            (*GRAPH_ARGS, "--out=--"),
            ("verify", "--n", "2", "--p", "13", "--sweep=--"),
        ],
    )
    def test_double_dash_value_refused(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == EXIT_REFUSED

    def test_verify_choices_match_the_oracle(self):
        # the parser spells the names out so that it need not load the oracle
        assert SWEEP_NAMES == oracle.SWEEP_NAMES
        assert MUTATION_NAMES == tuple(sorted(oracle.MUTATIONS))


# ---------------------------------------------------------------------------
# fuzzing: small well-formed and malformed arguments, n <= 3, f <= 2, p <= 13


SCHEMAS = {
    "wset": "wset.schema.json",
    "graph": "graph.schema.json",
    "eliminate": "certificate.schema.json",
}
JUNK = st.text(alphabet="0123456789,; -+x.", max_size=12)
MALFORMED = {
    "n": st.sampled_from(["-2", "0", "1", "", "x", "2.0", "--"]),
    "f": st.sampled_from(["-1", "0", "", "x", "1.5", "--"]),
    "p": st.sampled_from(["-7", "0", "1", "4", "9", "12", "", "x", "7.0", "--"]),
}


def _join(rows):
    return ";".join(",".join(str(x) for x in row) for row in rows)


def _rows(f, n, lo, hi, gap):
    # rows of n integers falling by 1..gap from a start in [lo, hi]
    row = st.tuples(
        st.integers(lo, hi), st.lists(st.integers(1, gap), min_size=n - 1, max_size=n - 1)
    ).map(lambda t: [t[0] + sum(t[1][i:]) for i in range(n)])
    return st.lists(row, min_size=f, max_size=f).map(_join)


@st.composite
def cli_arguments(draw):
    """One command; at most one argument malformed, the others well-formed."""
    command = draw(st.sampled_from(["wset", "graph", "eliminate"]))
    n, f = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    values = {
        "n": str(n),
        "f": str(f),
        "p": str(p),
        "s": draw(st.lists(st.permutations(range(1, n + 1)), min_size=f, max_size=f).map(_join)),
        "mu": draw(_rows(f, n, -2, 2 * p, max(1, p // 2))),
    }
    if command == "eliminate":
        values["sigma"] = draw(_rows(f, n, -1, p, p))
    broken = draw(st.sampled_from([None, *values]))
    if broken is not None:
        values[broken] = draw(MALFORMED.get(broken, JUNK))
    argv = [command, *(f"--{k}={v}" for k, v in values.items())]
    if command == "graph" and draw(st.booleans()):
        argv.append("--format=dot")
    return argv


class TestFuzz:
    @given(argv=cli_arguments())
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_every_outcome_is_an_exit_code(self, argv):
        try:
            code, out, err = run_cli(*argv)
        except SystemExit as exc:  # argparse refuses malformed integers
            code, out, err = exc.code, "", ""
        assert code in (EXIT_OK, EXIT_REFUSED, EXIT_BUDGET, EXIT_VERIFY_FAILED)
        assert "Traceback" not in err
        if not out or "--format=dot" in argv:
            return
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema(SCHEMAS[argv[0]]))
        if code != EXIT_OK:
            # the one refusal with a stdout payload: sigma is a member
            assert argv[0] == "eliminate" and payload["eliminable"] is False
            assert payload["membership_witness"] is not None
