from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import jsonschema
import pytest

from alcove.cli import (
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_VERIFY_FAILED,
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
        code, _, err = run_cli(*WSET_ARGS, "--format", "dot")
        assert code == EXIT_REFUSED
        assert "refusal" in err

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
        assert payload["eliminable"] is False
        assert payload["membership_witness"] is not None

    def test_malformed_sigma_refused(self):
        code, _, err = run_cli(
            "eliminate", "--n", "2", "--f", "1", "--p", "7",
            "--s", "21", "--mu", "5,1", "--sigma", "2",
        )
        assert code == EXIT_REFUSED
        assert "refusal" in err
