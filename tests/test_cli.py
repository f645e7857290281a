"""End-to-end command-line behavior: output formats and the exit-code contract."""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from conftest import raised_h, raised_k, run_cli
from member_scripts import replay, scripted_resolution
from lctkit import (
    GAUSS,
    Auto,
    ChartError,
    FieldMismatchError,
    InternalInconsistencyError,
    LctkitError,
    ScriptError,
    SourceSpan,
    VariableMismatchError,
    blowup,
    cli,
    lambda_newton,
    lambda_uncapped,
    parse_poly,
    resolve,
)
from lctkit.parser import parse_script
from lctkit.serialize import dump_json, pole_json, tree_json

GOLDEN = Path(__file__).parent / "golden"
# A 6-variable, 14-term support, wide for a facet search.
WIDE = (
    "f^3 + e^3 + d^3 + c*d*f^4 + c*d^3*f + c^2*d^2 + c^3 + b*d^2*e + b*c^2*e"
    " + b*c^2*d^2*f + b^6 + a*b*c^4 + a^3*b*c + a^5"
)


def schema(name):
    return json.loads(resources.files("lctkit.schemas").joinpath(name).read_text())


def replay_text(poly, script, names="x,y,z", max_depth=24):
    """Replay the script text on the polynomial, both parsed over GAUSS in
    the named variables."""
    variables = tuple(names.split(","))
    f = parse_poly(poly, GAUSS, variables)
    return replay(f, parse_script(script, GAUSS, variables), max_depth)


# -- exit codes ------------------------------------------------------------------


def test_exit_0_success():
    code, out, _ = run_cli(["pole", "x^2+y^2+z^6"])
    assert code == 0
    assert "lambda_uncapped: 7/6" in out
    assert "certified: yes" in out
    assert "newton: 7/6 (agrees: yes)" in out


def test_exit_0_on_a_chain_deeper_than_the_recursion_limit():
    code, out, err = run_cli(["pole", "x^2+y^2+z^1200", "--max-depth", "5000"])
    assert (code, err) == (0, "")
    assert "lambda_uncapped: 1201/1200" in out


def test_exit_1_parse_error_with_span():
    code, _, err = run_cli(["pole", "x^"])
    assert code == 1
    assert err.startswith("error at line 1 col 3:")


@pytest.mark.parametrize(
    "poly", ["x^²", "x^" + "1" * 5000], ids=["superscript-digit", "5000-digits"]
)
def test_exit_1_bad_integer_literal_in_a_fresh_process(poly):
    # A digit int() rejects, or more digits than it converts by default.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "lctkit.cli", "pole", poly],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error at line 1 col 3:")
    assert "Traceback" not in result.stderr


def test_exit_1_usage_errors():
    for argv in ([], ["bogus"], ["verify"], ["verify", "--family", "Q"]):
        code, _, err = run_cli(argv)
        assert code == 1
        assert err.startswith("error")


def test_verify_all_refuses_an_index():
    # --n names a member of one family, so --all would silently drop it.
    code, out, err = run_cli(["verify", "--all", "--n", "3"])
    assert code == 1
    assert out == ""
    assert err == "error: argument --n: not allowed with argument --all\n"


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


def test_untranslated_origin_without_center_is_not_certified():
    # In the y-chart of (x - y^2)^2 the rewrite turns the strict transform
    # into x^2, so the origin of U_y/S_x would sit on {x = 0}, which no
    # divisor records; the translate would then report 1, while the true
    # value is 1/2. The rewrite itself is refused.
    script = "blowup x y\nchart y\nsubst x := x - y\ntranslate x := x + 1\n"
    with pytest.raises(ChartError) as info:
        replay_text("(x - y^2)^2", script, "x,y")
    assert str(info.value) == (
        "rewrite of 'x' puts the origin on the component {x = 0} of "
        "the strict transform, whose divisor and h the chart does not record"
    )


BACK = "blowup x y z\nchart z\ntranslate z := z + 1\ntranslate z := z - 1\n"


def test_exit_1_translate_back_onto_a_dropped_divisor():
    # The first translate drops the divisor {z = 0} of the z-chart; the
    # second moves the origin back onto it, where the strict transform is
    # divisible by z and the chart would hold no record of that divisor.
    with pytest.raises(ChartError) as info:
        replay_text("x^2+y^2+z^3", BACK, max_depth=4)
    assert "\n" not in str(info.value)


def test_translate_refusal_names_the_component():
    # The script above, with the exact message.
    with pytest.raises(ChartError) as info:
        replay_text("x^2+y^2+z^3", BACK, max_depth=4)
    assert str(info.value) == (
        "translation of 'z' puts the origin on the component {z = 0} "
        "of the strict transform, whose divisor and h the chart does not "
        "record"
    )


def test_exit_1_rewrite_onto_an_unrecorded_component():
    # x := x + y turns (x+y)^2 into the strict transform x^2, so the origin
    # sits on {x = 0}, which no divisor record covers. Blowing that origin up
    # would report 1 from the new divisor alone; the true value is 1/2.
    with pytest.raises(ChartError) as info:
        replay_text("(x+y)^2", "subst x := x + y\n", "x,y")
    assert "\n" not in str(info.value)


def test_exit_3_internal_inconsistency(monkeypatch):
    # A blow-up child whose k is one too high breaks the per-step identity
    # f(map) = monomial * strict; the run must stop before any report.
    child = blowup._child
    monkeypatch.setattr(
        blowup, "_child", lambda *args, **kw: raised_k(child(*args, **kw))
    )
    code, out, err = run_cli(["pole", "x^2+y^2+z^3"])
    assert code == 3
    assert out == ""
    assert err.startswith("internal inconsistency: total transform identity failed")
    assert err.count("\n") == 1


def test_exit_3_raised_h(monkeypatch):
    # A blow-up child whose new h is one too high leaves every total
    # transform intact, and its candidate (h + 1)/k would be too high; the
    # run-matrix check must stop the run before any report.
    child = blowup._child
    monkeypatch.setattr(
        blowup, "_child", lambda *args, **kw: raised_h(child(*args, **kw))
    )
    code, out, err = run_cli(["pole", "x^2+y^2+z^3"])
    assert code == 3
    assert out == ""
    assert err.startswith("internal inconsistency: Jacobian check failed at U_x:")
    assert err.count("\n") == 1


def test_exit_3_raised_h_kept_across_a_translation(monkeypatch):
    # A record that a translation child keeps must equal its parent's; a
    # raised h there stops the run, though no later blow-up goes through it.
    child = blowup._child

    def corrupted(chart, step, *args):
        made = child(chart, step, *args)
        if isinstance(step, blowup.TranslateStep):
            record = made.divisors["z"]
            divisors = {"z": replace(record, h=record.h + 1)}
            return replace(made, divisors=divisors)
        return made

    monkeypatch.setattr(blowup, "_child", corrupted)
    script = "blowup x y z\nchart z\ntranslate x := x + 1\n"
    with pytest.raises(InternalInconsistencyError) as info:
        replay_text("x^2+y^2+z^3", script)
    assert str(info.value).startswith(
        "divisor records changed across a coordinate change at U_z/T_x: "
    )
    assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "minpoly",
    [
        "t^2-1",
        "(t^2+1)^2",
        "t^3-t",
        "t^2-1000000000000000000",  # root 10^9
        "t^3-1000003000003000001",  # (t - 1000001)(t^2 + 1000001*t + 1000001^2)
        "t^4+3*t^2+2",  # (t^2+1)(t^2+2): no rational root, still reducible
        "t^4+1",  # irreducible, but degree 4 is beyond what is proved
    ],
)
def test_exit_1_reducible_field(minpoly):
    code, out, err = run_cli(["pole", "x^2+y^2", "--field", f"i:{minpoly}"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: minimal polynomial")
    assert err.count("\n") == 1


def test_exit_1_zero_modulus_is_not_monic():
    # The zero polynomial has no leading coefficient 1, so the message names
    # the modulus, not the degree of zero.
    for command in ("parse", "pole"):
        assert run_cli([command, "x", "--field", "i:0"]) == (
            1,
            "",
            "error: minimal polynomial must be monic\n",
        )


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


class UnlistedError(LctkitError):
    """A package error that no except clause of the CLI names."""


# Every package error maps to exit 1 unless it is a parse or internal error,
# so an error class added later cannot escape as a traceback.
@pytest.mark.parametrize(
    "error", [VariableMismatchError, FieldMismatchError, UnlistedError]
)
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


@pytest.mark.parametrize("text", ["0", "x-x", "2*x - 2*x + 0*y", "(x+y)^2 - (x+y)^2"])
def test_parse_prints_the_zero_polynomial(text):
    code, out, err = run_cli(["parse", text])
    assert (code, out, err) == (0, "0\n", "")
    code, out, err = run_cli(["parse", text, "--json"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["canonical"] == "0"
    assert report["total_degree"] is None
    assert report["support"] == []


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


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["verify", "--all", "--json"], "verify_all.json"),
        (["pole", "x^2+y^2*z+z^6", "--json"], "pole_x2_y2z_z6.json"),
        # six variables, fourteen terms: seven facets, lambda 17/10
        (["newton", WIDE, "--vars", "a,b,c,d,e,f", "--json"], "newton_wide_6var.json"),
        # a plain sum with repeated factors, x^0 and a cancelling pair
        (
            ["parse", "- 3*x*x^2 + 2*y^3*z - y*z*y^2 + 5 - 5 + z^0*x^3", "--json"],
            "parse_plain_sum.json",
        ),
        # a sum that cancels to zero: no support and no total degree
        (["parse", "x-x", "--json"], "parse_zero.json"),
    ],
)
def test_json_matches_golden(argv, golden):
    code, out, _ = run_cli(argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "command, golden",
    [
        ("pole", "pole_eisenstein_fractional.json"),
        ("resolve", "resolve_eisenstein_fractional.json"),
    ],
)
def test_fractional_and_non_rational_coefficients_match_golden(command, golden):
    # Pins the printing of coefficients with a denominator and of
    # coefficients outside Q, through blow-ups over Q(j).
    poly = "1/2*x^2 + (j+1/3)*y^3 - 2/3*j*z^5"
    argv = [command, poly, "--field", "j:t^2+t+1", "--max-depth", "3", "--json"]
    code, out, _ = run_cli(argv)
    assert code == 2
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "n, poly, golden",
    [
        (4, "x^2 + y^2*z + z^3", "resolve_d4_scripted.json"),
        (7, "x^2 + y^2*z + z^6", "resolve_d7_scripted.json"),
    ],
)
def test_scripted_resolve_json_matches_golden(n, poly, golden):
    tree = replay(parse_poly(poly), scripted_resolution("D", n))
    assert not tree.has_depth_limit()
    assert dump_json(tree_json(tree, 24)) == (GOLDEN / golden).read_text()


def test_deep_auto_tree_json_matches_golden():
    # A disguised E8 at depth 5: 22 charts, 15 leaves and strict transforms
    # of up to 8 terms, so every sibling of a wide blow-up is pinned byte
    # for byte, records, paths and statuses included.
    tree = resolve(parse_poly("2*x^2+y^3+3*(z+3*x)^5"), Auto(max_depth=5))
    assert not tree.has_depth_limit()
    golden = GOLDEN / "resolve_disguised_e8_depth5.json"
    assert dump_json(tree_json(tree, 5)) == golden.read_text()


def test_exit_1_blowup_on_a_resolved_chart():
    # One blow-up resolves x^2+y^2+z^2: the z-chart is already UnitStrict.
    with pytest.raises(ScriptError) as info:
        replay_text("x^2+y^2+z^2", "blowup x y z\nchart z\nblowup x y z\n")
    assert info.value.span == SourceSpan(3, 1, 6)
    assert info.value.message == "blowup requested on a UnitStrict chart at U_z"


def test_exit_1_blowup_center_off_the_hypersurface():
    # z^3 does not vanish on the line {x = y = 0}: the script's center misses
    # the hypersurface, which is an input error, not an internal one.
    with pytest.raises(ChartError) as info:
        replay_text("x^2+y^2+z^3", "blowup x y\nchart x\n")
    assert str(info.value) == (
        "blow-up center {x = y = 0} at root does not lie on the strict "
        "transform: its term z^3 does not vanish there"
    )


@pytest.mark.parametrize(
    "text, expected_code, golden",
    [
        # A bare blowup may end a script: all of its charts resolve alone.
        ("blowup x y z\nchart z\nblowup x y z\n", 0, "pole_a5_bare_blowup_last.json"),
        ("blowup x y z\nchart z\nstop\n", 2, "pole_a5_stop_in_chart.json"),
    ],
)
def test_scripted_pole_json_matches_golden(text, expected_code, golden):
    # Exit code 2 is the depth-limit flag.
    f = parse_poly("x^2+y^2+z^6")
    tree = replay(f, parse_script(text))
    assert tree.has_depth_limit() == (expected_code == 2)
    report = lambda_uncapped(tree, lambda_newton(f))
    assert dump_json(pole_json(tree, report)) == (GOLDEN / golden).read_text()


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


def test_dot_matches_golden(tmp_path):
    # Pins the DOT bytes of an A5 tree: labels, node order and edges.
    dot = tmp_path / "a5.dot"
    code, _, _ = run_cli(["resolve", "x^2+y^2+z^6", "--dot", str(dot)])
    assert code == 0
    assert dot.read_bytes() == (GOLDEN / "resolve_a5.dot").read_bytes()


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


@pytest.mark.parametrize("command", ["pole", "resolve"])
def test_script_flag_is_refused(tmp_path, command):
    # Only Auto resolves; `--script` is an unknown option like any other.
    script = tmp_path / "d5.script"
    script.write_text("blowup x y z\nchart y\nsubst z := z + y*z^4\n")
    code, out, err = run_cli([command, "x^2+y^2*z+z^4", "--script", str(script)])
    assert code == 1
    assert out == ""
    assert err == f"error: unrecognized arguments: --script {script}\n"
