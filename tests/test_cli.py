"""End-to-end command-line behavior: output formats and the exit-code contract."""

import json
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from conftest import run_cli
from lctkit import FieldMismatchError, VariableMismatchError, cli

GOLDEN = Path(__file__).parent / "golden"


def schema(name):
    return json.loads(resources.files("lctkit.schemas").joinpath(name).read_text())


# -- exit codes ------------------------------------------------------------------


def test_exit_0_success():
    code, out, _ = run_cli(["pole", "x^2+y^2+z^6"])
    assert code == 0
    assert "lambda_uncapped: 7/6" in out
    assert "certified: yes" in out
    assert "newton: 7/6 (agrees: yes)" in out


def test_exit_1_parse_error_with_span():
    code, _, err = run_cli(["pole", "x^"])
    assert code == 1
    assert err.startswith("error at line 1 col 3:")


def test_exit_1_usage_errors():
    for argv in ([], ["bogus"], ["verify"], ["verify", "--family", "Q"]):
        code, _, err = run_cli(argv)
        assert code == 1
        assert err.startswith("error")


def test_exit_2_depth_limit_still_reports(tmp_path):
    code, out, _ = run_cli(["pole", "x^2+y^2+z^5", "--max-depth", "1"])
    assert code == 2
    assert "lambda_uncapped: 3/2" in out
    assert "certified: no" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["pole", "x^2+y^3", "--max-depth", "-1"],
        ["resolve", "x^2+y^3", "--max-depth", "-3"],
        ["verify", "--family", "A", "--n", "1", "--max-depth", "-1"],
    ],
)
def test_exit_1_negative_depth(argv):
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert "max_depth must be at least 0" in err


def test_depth_zero_is_a_budget_not_an_error():
    code, out, _ = run_cli(["pole", "x^2+y^3", "--max-depth", "0"])
    assert code == 2
    assert "certified: no" in out


def test_untranslated_origin_without_center_is_not_certified(tmp_path):
    # In the y-chart of (x - y^2)^2 the strict transform x^2 involves only x,
    # and y carries the divisor, so the origin left behind by the translate
    # has no valid blow-up center. It must stay a DepthLimit leaf: the true
    # value is 1/2, not the 1 found in the translated chart.
    script = tmp_path / "a.script"
    script.write_text(
        "blowup x y\nchart y\nsubst x := x - y\ntranslate x := x + 1\n"
    )
    argv = ["(x - y^2)^2", "--vars", "x,y", "--script", str(script)]
    code, out, _ = run_cli(["pole", *argv])
    assert code == 2
    assert "certified: no" in out
    code, out, _ = run_cli(["resolve", *argv, "--json"])
    assert code == 2
    nodes = json.loads(out)["nodes"]
    assert [n["path"] for n in nodes if n["status"] == "DepthLimit"] == ["U_y/S_x"]


def test_exit_3_internal_inconsistency(tmp_path):
    script = tmp_path / "bad.script"
    # (t^2+1)(t^2+2) passes the modulus checks, and 1 + a^2 is a zero divisor
    script.write_text("blowup x y z\nchart z\nsubst z := (1+a^2)*z\n")
    code, _, err = run_cli(
        ["pole", "x^2+y^2+z^3", "--field", "a:t^4+3*t^2+2", "--script", str(script)]
    )
    assert code == 3
    assert "zero divisor" in err


@pytest.mark.parametrize(
    "minpoly",
    [
        "t^2-1",
        "(t^2+1)^2",
        "t^3-t",
        "t^2-1000000000000000000",  # root 10^9
        "t^3-1000003000003000001",  # (t - 1000001)(t^2 + 1000001*t + 1000001^2)
    ],
)
def test_exit_1_reducible_field(minpoly):
    code, out, err = run_cli(["pole", "x^2+y^2", "--field", f"i:{minpoly}"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: minimal polynomial")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "field",
    [
        "i:t^2+1",
        "j:t^2+t+1",
        # The rational-root test must not trial-divide a constant near 10^18.
        "i:t^2+1000000000000000003",
        "i:t^3+1000000000000000003",
    ],
)
def test_irreducible_fields_still_accepted(field):
    start = time.perf_counter()
    code, out, _ = run_cli(["pole", "x^2+y^2", "--field", field])
    assert time.perf_counter() - start < 2
    assert code == 0
    assert "certified: yes" in out


@pytest.mark.parametrize("error", [VariableMismatchError, FieldMismatchError])
def test_exit_1_mismatch_errors(monkeypatch, error):
    def mismatched(args):
        raise error("operands come from different rings")

    monkeypatch.setitem(cli._COMMANDS, "parse", mismatched)
    code, out, err = run_cli(["parse", "x"])
    assert code == 1
    assert out == ""
    assert err == "error: operands come from different rings\n"


def test_exit_4_unreliable_estimate():
    code, _, err = run_cli(
        ["estimate", "x^2", "--mode", "real", "--samples", "1000",
         "--tmin", "0.5", "--tmax", "0.9", "--levels", "2"]
    )
    assert code == 4
    assert "unreliable" in err


@pytest.mark.parametrize(
    "poly, message", [("1", "nonzero constant"), ("0", "zero polynomial")]
)
def test_exit_1_estimate_constant_input(poly, message):
    code, out, err = run_cli(["estimate", poly, "--samples", "1000"])
    assert code == 1
    assert out == ""
    assert message in err


# -- text output -------------------------------------------------------------------


def test_parse_reprints_canonically():
    code, out, _ = run_cli(["parse", "z^3 + x^2   + y^2"])
    assert code == 0
    assert out.strip() == "x^2 + y^2 + z^3"


def test_newton_lists_facets():
    code, out, _ = run_cli(["newton", "x^2+y^2+z^6"])
    assert code == 0
    assert "lambda: 7/6" in out
    assert "weights [3, 3, 1] order 6" in out


@pytest.mark.parametrize(
    "poly, golden",
    [
        ("x^2 + y^3 + y*z^3", "newton_e7.json"),
        ("x^2+y^2*z+z^4", "newton_x2_y2z_z4.json"),
        ("x^2+y^3+z^7", "newton_x2_y3_z7.json"),
    ],
)
def test_newton_json_matches_golden(poly, golden):
    code, out, _ = run_cli(["newton", poly, "--json"])
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_verify_family_table():
    code, out, _ = run_cli(["verify", "--family", "E6"])
    assert code == 0
    assert "12/13" in out and "13/12" in out and "mismatch" in out


def test_verify_all_has_32_rows():
    code, out, _ = run_cli(["verify", "--all"])
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("member")]
    assert len(rows) == 32


def test_custom_variables_and_field():
    code, out, _ = run_cli(["pole", "u^2+v^2+w^8", "--vars", "u,v,w"])
    assert code == 0
    assert "lambda_uncapped: 9/8" in out
    assert "candidate: E@U_w k=4 h=4 value=5/4" in out
    code, out, _ = run_cli(["parse", "j^2 + y", "--field", "j:t^2+t+1"])
    assert code == 0
    assert out.strip() == "(-1 - j) + y"


def test_resolve_reports_leaf_mix():
    code, out, _ = run_cli(["resolve", "x^2+y^2+z^6"])
    assert code == 0
    assert "nodes:" in out and "UnitStrict" in out


# -- machine-readable output ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv,schema_name",
    [
        (["newton", "x^2+y^2+z^6", "--json"], "newton.schema.json"),
        (["resolve", "x^2+y^2+z^6", "--json"], "tree.schema.json"),
        (["pole", "x^2+y^2+z^6", "--json"], "pole.schema.json"),
        (["verify", "--family", "D", "--n", "4", "--json"], "verify.schema.json"),
        (
            ["estimate", "z^2", "--samples", "50000", "--tmin", "1e-3",
             "--tmax", "1e-1", "--json"],
            "estimate.schema.json",
        ),
    ],
)
def test_json_outputs_validate_and_repeat(argv, schema_name):
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    jsonschema.validate(json.loads(out1), schema(schema_name))


def test_json_rationals_are_num_den_pairs():
    _, out, _ = run_cli(["pole", "x^2+y^2+z^6", "--json"])
    payload = json.loads(out)
    assert payload["lambda_uncapped"] == {"num": 7, "den": 6}
    assert payload["lambda_capped"] == {"num": 1, "den": 1}
    assert payload["certified"] is True
    assert payload["candidates"][0]["divisor"] == "E@U_z/U_z"


def test_json_depth_limit_partial_report():
    code, out, _ = run_cli(["pole", "x^2+y^2+z^5", "--max-depth", "1", "--json"])
    assert code == 2
    payload = json.loads(out)
    assert payload["lambda_uncapped"] == {"num": 3, "den": 2}
    jsonschema.validate(payload, schema("pole.schema.json"))


def test_json_unreliable_estimate_partial():
    code, out, _ = run_cli(
        ["estimate", "x^2", "--mode", "real", "--samples", "1000",
         "--tmin", "0.5", "--tmax", "0.9", "--levels", "2", "--json"]
    )
    assert code == 4
    payload = json.loads(out)
    assert payload["lambda_hat"] is None
    assert "unreliable" in payload
    jsonschema.validate(payload, schema("estimate.schema.json"))


# -- file outputs ----------------------------------------------------------------------


def test_dot_export(tmp_path):
    dot = tmp_path / "tree.dot"
    code, _, _ = run_cli(["resolve", "x^2+y^2+z^6", "--dot", str(dot)])
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "U_z/U_z" in text and "UnitStrict" in text


def test_dot_marks_orbit_charts(tmp_path):
    dot = tmp_path / "d4.dot"
    script = tmp_path / "d4.script"
    script.write_text("blowup x y z\nchart y\ntranslate z := z + i\norbit 2\n")
    code, _, _ = run_cli(
        ["resolve", "x^2+y^2*z+z^3", "--script", str(script), "--dot", str(dot)]
    )
    assert code == 0
    assert "peripheries=2" in dot.read_text()


def test_csv_export(tmp_path):
    csv = tmp_path / "hits.csv"
    code, _, _ = run_cli(
        ["estimate", "z^2", "--samples", "50000", "--tmin", "1e-3",
         "--tmax", "1e-1", "--csv", str(csv)]
    )
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,hits"
    assert len(lines) == 9


def test_script_from_file(tmp_path):
    script = tmp_path / "d5.script"
    script.write_text("blowup x y z\nchart y\nsubst z := z + y*z^4\n")
    code, out, _ = run_cli(["pole", "x^2+y^2*z+z^4", "--script", str(script)])
    assert code == 0
    assert "lambda_uncapped: 9/8" in out


def test_missing_script_file_is_input_error(tmp_path):
    code, _, err = run_cli(
        ["pole", "x^2", "--script", str(tmp_path / "absent.script")]
    )
    assert code == 1
    assert "error" in err
