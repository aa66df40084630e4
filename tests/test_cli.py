import json
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qesbethe.cli import VERIFY_TOLERANCES, main
from qesbethe.config import Tolerances
from qesbethe.models import model_spec, spec_to_json_dict

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/qesbethe/schema/result.schema.json").read_text()
)
GOLDEN_DIR = Path(__file__).parent / "golden"

WORKED_EXAMPLE = [
    "solve",
    "--family", "mp-crossed",
    "--a1", "1", "--a2", "1",
    "--beta", "1.5707963267948966",
    "--M", "1",
]
VERIFY_EXAMPLE = ["verify", *WORKED_EXAMPLE[1:]]
AW_M4 = ["limits", "--case", "aw", "--a", "0.3", "--b", "0.2", "--c", "0.1", "--d", "0.25",
         "--q", "0.5", "--M", "4"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolveCommand:
    def test_worked_example_json(self, capsys):
        code, out, _ = run_cli(WORKED_EXAMPLE, capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        evals = [s["eigenvalue"][0] for s in doc["solutions"]]
        np.testing.assert_allclose(evals, [-2.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(doc["solutions"][1]["roots_x"][0][0], 1.0, atol=1e-12)

    def test_spec_file_input(self, capsys, tmp_path):
        doc = {
            "family": "sextic-i",
            "params": {"a": 1.0, "b": 2.0, "c": 3.0},
            "M": 2,
            "sector": "even",
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["solve", "--spec", str(path)], capsys)
        assert code == 0
        parsed = json.loads(out)
        jsonschema.validate(parsed, SCHEMA)
        assert parsed["spec"]["family"] == "sextic-i"

    @pytest.mark.parametrize(
        "change, message",
        [
            pytest.param({"family": 5}, "not a valid ModelFamily", id="family-number"),
            pytest.param({"sector": 5}, "not a valid Sector", id="sector-number"),
            pytest.param({"sector": ["odd"]}, "not a valid Sector", id="sector-list"),
            pytest.param({"params": {"a": True, "b": 2.0, "c": 3.0}}, "got True", id="param-bool"),
            pytest.param(
                {"params": {"a": [1.0, False], "b": 2.0, "c": 3.0}}, "got [1.0, False]",
                id="pair-bool",
            ),
            pytest.param(
                {"params": {"a": ["1.5", 0.0], "b": 2.0, "c": 3.0}}, "got ['1.5', 0.0]",
                id="pair-string",
            ),
        ],
    )
    def test_spec_file_wrong_type_exit_one(self, capsys, tmp_path, change, message):
        doc = {"family": "sextic-i", "params": {"a": 1.0, "b": 2.0, "c": 3.0}, "M": 3, **change}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["solve", "--spec", str(path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("qesbethe: error:") and message in err

    def test_spec_integer_beyond_double_range_exit_one(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"family": "sextic-i", "params": {"a": 1%s, "b": 2, "c": 3}, "M": 2}'
                        % ("0" * 400))
        code, out, err = run_cli(["solve", "--spec", str(path)], capsys)
        assert code == 1 and out == ""
        assert err == "qesbethe: error: parameter 'a' is beyond the double range\n"

    def test_homotopy_seed_mode(self, capsys):
        code, out, _ = run_cli(WORKED_EXAMPLE + ["--seed", "homotopy"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert all(s["flags"]["seed_source"] == "homotopy" for s in doc["solutions"])

    def test_usage_error_exit_one(self, capsys):
        code, _, err = run_cli(
            ["solve", "--family", "sextic-i", "--M", "5", "--sector", "even",
             "--a", "1", "--b", "1", "--c", "1"],
            capsys,
        )
        assert code == 1
        assert "even sector requires even M" in err

    @pytest.mark.parametrize(
        "a1",
        [pytest.param([f"--a1={v}"], id=v) for v in ("nan", "inf", "-inf", "1,nan")]
        # a separate word that opens with a minus sign, in any case
        + [
            pytest.param(["--a1", v], id=f"word{v}")
            for v in ("-inf", "-Infinity", "-NaN", "-INF,1", "-nan,0.5")
        ],
    )
    def test_non_finite_flag_exit_one(self, capsys, a1):
        code, out, err = run_cli(
            ["solve", "--family", "mp-crossed", *a1, "--a2", "1",
             "--beta", "0.3", "--M", "2"],
            capsys,
        )
        assert code == 1 and out == ""
        assert "a1 must be finite" in err

    def test_missing_param_exit_one(self, capsys):
        code, _, err = run_cli(["solve", "--family", "trig-q", "--M", "1"], capsys)
        assert code == 1

    def test_no_tolerances_applied(self, capsys):
        _, out, _ = run_cli(WORKED_EXAMPLE, capsys)
        assert json.loads(out)["meta"]["tolerances"] == {}

    def test_tol_rejected_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(WORKED_EXAMPLE + ["--tol", "bae_residual=1e-7"])
        assert exc.value.code == 1
        assert "--tol bae_residual=1e-7" in capsys.readouterr().err

    def test_spec_file_closed(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(
            {"family": "mp-crossed", "params": {"a1": 1.0, "a2": 1.0, "beta": 0.3}, "M": 1}
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli(["solve", "--spec", str(path)], capsys)
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestDeterminism:
    def test_byte_identical_reruns(self, child_env):
        args = [
            "solve", "--family", "trig-q",
            "--a", "0.3", "--b", "-0.2", "--c", "0.25", "--d", "0.4", "--e", "-0.35",
            "--q", "0.6", "--M", "3",
        ]
        runs = [
            subprocess.run(
                [sys.executable, "-m", "qesbethe", *args],
                capture_output=True, env=child_env, check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestRepeatedCalls:
    """``main`` reuses one parser per process; no call may see another's
    arguments."""

    def test_tolerances_independent_between_calls(self, capsys):
        _, out, _ = run_cli(VERIFY_EXAMPLE + ["--tol", "zero_mode=1e-3"], capsys)
        assert json.loads(out)["meta"]["tolerances"]["zero_mode"] == 1e-3
        _, out, _ = run_cli(VERIFY_EXAMPLE, capsys)
        assert json.loads(out)["meta"]["tolerances"] == Tolerances().as_dict(VERIFY_TOLERANCES)

    def test_usage_error_does_not_break_next_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--family", "no-such-family", "--M", "1"])
        assert exc.value.code == 1
        capsys.readouterr()
        code, out, _ = run_cli(WORKED_EXAMPLE, capsys)
        assert code == 0
        assert len(json.loads(out)["solutions"]) == 2


def test_no_command_imports_scipy(child_env):
    """All five commands, verify and grid included, run on numpy alone: no
    scipy module is ever imported.  Runs in a child process because pytest
    has already imported scipy."""
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        from qesbethe.cli import main

        mp = ["--family", "mp-crossed", "--a1", "1.2", "--a2", "0.8",
              "--beta", "0.6", "--M", "3"]
        trig = ["--family", "trig-q", "--a", "0.3", "--b", "-0.2", "--c", "0.25",
                "--d", "0.4", "--e", "-0.35", "--q", "0.6", "--M", "3"]
        cent = ["--family", "centrifugal-i", "--b", "1.2", "--c", "0.7", "--d", "2.2",
                "--e", "0.9", "--f", "1.6", "--M", "2"]
        commands = [
            ["solve", *mp], ["solve", *mp, "--seed", "homotopy"],
            ["limits", "--case", "aw", "--q", "0.5", "--a", "0.3", "--b", "0.3",
             "--c", "0.3", "--d", "0.3", "--M", "2"],
            ["dump-matrix", *mp],
            ["verify", *mp], ["verify", *trig], ["verify", *cent],
            ["grid", *mp], ["grid", *trig], ["grid", *cent],
        ]
        for args in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(args) == 0, args
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, (args, loaded)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr


class TestVerifyCommand:
    def test_passing_model(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--family", "mp-crossed", "--a1", "1.2", "--a2", "0.8",
             "--beta", "0.6", "--M", "3"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["passed"] and all(c["passed"] for c in doc["checks"])

    def test_failing_tolerance_exit_two(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--family", "mp-crossed", "--a1", "1.2", "--a2", "0.8",
             "--beta", "0.6", "--M", "3", "--tol", "bae_residual=1e-18"],
            capsys,
        )
        assert code == 2
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert not doc["passed"]

    def test_tolerance_override_recorded(self, capsys):
        code, out, _ = run_cli(VERIFY_EXAMPLE + ["--tol", "bae_residual=1e-7"], capsys)
        doc = json.loads(out)
        assert doc["meta"]["tolerances"]["bae_residual"] == 1e-7

    def test_meta_lists_applied_tolerances(self, capsys):
        _, out, _ = run_cli(VERIFY_EXAMPLE, capsys)
        assert list(json.loads(out)["meta"]["tolerances"]) == list(VERIFY_TOLERANCES)

    def test_unapplied_tolerance_exit_one(self, capsys):
        code, out, err = run_cli(VERIFY_EXAMPLE + ["--tol", "divide_exact=1e-2"], capsys)
        assert code == 1
        assert out == ""
        assert "divide_exact" in err


# former holes of the verified envelope, at default tolerances
ESCAPED_ROOTS = {
    # mp-crossed just off beta = 0: the largest roots sit near 1/(2|beta|)
    "beta-near-0": ("mp-crossed", 7, {"a1": complex(2.4382823351740726, 0.7119514191580878),
                                      "a2": complex(0.7125707424400739, -0.745496478313193),
                                      "beta": -0.0004886281286418104}),
    "q0.48": ("trig-q", 6, {"a": 0.322, "b": -0.148, "c": -0.21, "d": 0.113, "e": -0.118,
                            "q": 0.48}),
    "small": ("trig-q", 6, {"a": -0.1331172491348974, "b": -0.13919460414384335,
                            "c": -0.12113935740585571, "d": 0.13098219095714073,
                            "e": 0.1860518478159062, "q": 0.7018425744386362}),
}
# the ground-state polish lands on another Bethe solution
SAME_SIGN = ("trig-q", 6, {"a": 0.684, "b": 0.668, "c": 0.849, "d": 0.707, "e": 0.596,
                           "q": 0.405})


def verify_model(model, capsys, tmp_path):
    family, M, params = model
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec_to_json_dict(model_spec(family, M=M, **params))))
    code, out, _ = run_cli(["verify", "--spec", str(path)], capsys)
    return code, {c["name"]: c["passed"] for c in json.loads(out)["checks"]}


class TestVerifyEnvelope:
    @pytest.mark.parametrize("name", sorted(ESCAPED_ROOTS))
    def test_far_roots_pass(self, name, capsys, tmp_path):
        code, checks = verify_model(ESCAPED_ROOTS[name], capsys, tmp_path)
        assert code == 0 and all(checks.values()), checks

    def test_wrong_bethe_solution_fails(self, capsys, tmp_path):
        code, checks = verify_model(SAME_SIGN, capsys, tmp_path)
        assert code == 2
        assert not checks["eigenvalue_match"] and not checks["schrodinger_pointwise"]


class TestLimitsCommand:
    def test_askey_wilson_case(self, capsys):
        code, out, _ = run_cli(
            ["limits", "--case", "aw", "--q", "0.5", "--a", "0.3", "--b", "0.3",
             "--c", "0.3", "--d", "0.3", "--M", "1"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["passed"] and doc["reduced_bae"]["passed"]
        np.testing.assert_allclose(doc["rows"][1]["expected"][0], 0.9919, rtol=1e-12)

    def test_missing_parameter_is_a_usage_error(self, capsys):
        code, out, err = run_cli(["limits", "--case", "aw", "--q", "0.5", "--M", "2"], capsys)
        assert code == 1 and out == ""
        assert err == "qesbethe: error: limit case aw requires parameters ['a', 'b', 'c', 'd']\n"

    def test_asymptotic_case(self, capsys):
        code, out, _ = run_cli(
            ["limits", "--case", "mp-from-mp", "--a1", "1.0", "--beta", "0.3",
             "--M", "2", "--large", "1e5"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["passed"] and doc["large"] == 1e5

    def test_meta_lists_applied_tolerances(self, capsys):
        # an asymptotic case checks against its budget, not exact_limit
        _, out, _ = run_cli(
            ["limits", "--case", "mp-from-mp", "--a1", "1.0", "--beta", "0.3", "--M", "2"],
            capsys,
        )
        assert json.loads(out)["meta"]["tolerances"] == {"reduced_bae": 1e-9}

    def test_exact_limit_tolerance_applied(self, capsys):
        code, out, _ = run_cli(AW_M4, capsys)
        doc = json.loads(out)
        assert code == 0 and 0 < doc["max_gap"] < 1e-12
        code, out, _ = run_cli(AW_M4 + ["--tol", "exact_limit=1e-18"], capsys)
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert code == 2 and not doc["passed"]
        assert doc["meta"]["tolerances"] == {"exact_limit": 1e-18, "reduced_bae": 1e-9}

    def test_reduced_bae_tolerance_applied(self, capsys):
        code, out, _ = run_cli(AW_M4 + ["--tol", "reduced_bae=1e-18"], capsys)
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert code == 2
        assert doc["reduced_bae"]["passed"] is False
        assert doc["meta"]["tolerances"]["reduced_bae"] == 1e-18

    def test_unapplied_tolerance_exit_one(self, capsys):
        code, _, err = run_cli(
            ["limits", "--case", "ch-from-sextic", "--b", "1.0", "--c", "1.5", "--M", "2",
             "--tol", "exact_limit=1e-3"],
            capsys,
        )
        assert code == 1
        assert "exact_limit" in err


class TestNegativeValues:
    """Negative numbers in exponent notation and RE,IM pairs that start
    with a minus sign are values, written apart or after '='."""

    @staticmethod
    def assert_both_forms(capsys, head, flag, value, tail):
        code, out, err = run_cli([*head, flag, value, *tail], capsys)
        assert code == 0, err
        assert run_cli([*head, f"{flag}={value}", *tail], capsys) == (0, out, err)
        return json.loads(out)

    def test_solve_exponent(self, capsys):
        doc = self.assert_both_forms(
            capsys, ["solve", "--family", "mp-crossed", "--a1", "1.2,0.3", "--a2", "0.9,-0.4"],
            "--beta", "-1e-5", ["--M", "2"],
        )
        assert doc["spec"]["params"]["beta"] == -1e-5

    def test_solve_pair(self, capsys):
        doc = self.assert_both_forms(
            capsys, ["solve", "--family", "trig-q", "--a", "0.5", "--c", "0.25", "--d", "0.4",
                     "--e", "-3.5E-1", "--q", "0.6"],
            "--b", "-2e-1,0", ["--M", "2"],
        )
        assert doc["spec"]["params"]["b"] == -0.2 and doc["spec"]["params"]["e"] == -0.35

    def test_limits_exponent(self, capsys):
        doc = self.assert_both_forms(
            capsys, ["limits", "--case", "mp-from-mp", "--a1", "1.0"], "--beta", "-3e-1",
            ["--M", "2"],
        )
        assert doc["passed"]

    def test_limits_pair(self, capsys):
        doc = self.assert_both_forms(
            capsys, ["limits", "--case", "aw", "--b", "0.2", "--c", "-2.5e-1", "--d", "0.4",
                     "--q", "0.5"],
            "--a", "-3e-1,0", ["--M", "2"],
        )
        assert doc["passed"]


class TestGridCommand:
    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(
            ["grid", "--family", "sextic-i", "--a", "1", "--b", "2", "--c", "3",
             "--M", "2", "--sector", "even", "--n", "5", "--solution", "1"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x_re,x_im,phi0sq_re,phi0sq_im,psi_re,psi_im,residual"
        assert len(lines) == 6
        assert all(len(line.split(",")) == 7 for line in lines[1:])

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_is_a_usage_error(self, capsys, n):
        code, out, err = run_cli(
            ["grid", "--family", "sextic-i", "--a", "1", "--b", "2", "--c", "3",
             "--M", "2", "--sector", "even", "--n", n],
            capsys,
        )
        assert code == 1 and out == ""
        assert "--n" in err

    def test_solution_index_bounds(self, capsys):
        code, _, err = run_cli(
            ["grid", "--family", "sextic-i", "--a", "1", "--b", "2", "--c", "3",
             "--M", "2", "--sector", "even", "--solution", "9"],
            capsys,
        )
        assert code == 1


class TestDumpMatrix:
    def test_golden_hand_worked_matrix(self, capsys):
        code, out, _ = run_cli(
            ["dump-matrix", "--family", "mp-crossed", "--a1", "1", "--a2", "1",
             "--beta", "1.5707963267948966", "--M", "1"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        golden = json.loads((GOLDEN_DIR / "dump_matrix_m1.json").read_text())
        assert doc["dim"] == golden["dim"]
        np.testing.assert_allclose(doc["entries"], golden["entries"], atol=1e-14)

    def test_overflowing_entries_exit_one(self, capsys):
        code, out, err = run_cli(
            ["dump-matrix", "--family", "sextic-i", "--a", "1e120", "--b", "1e120",
             "--c", "1e120", "--M", "2"],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == (
            "qesbethe: error: column 0 of sextic-i (M=2): entries left the double range\n"
        )


class TestGoldenDocuments:
    def test_solve_golden_numeric_and_schema(self, capsys):
        code, out, _ = run_cli(WORKED_EXAMPLE, capsys)
        doc = json.loads(out)
        golden = json.loads((GOLDEN_DIR / "solve_mp_m1.json").read_text())
        jsonschema.validate(golden, SCHEMA)
        assert doc["spec"] == golden["spec"]
        for got, want in zip(doc["solutions"], golden["solutions"]):
            np.testing.assert_allclose(got["eigenvalue"], want["eigenvalue"], atol=1e-12)
            np.testing.assert_allclose(got["roots_x"], want["roots_x"], atol=1e-9)

