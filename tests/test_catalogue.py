"""The bundled singularity catalogue and its verification table."""

from fractions import Fraction

import pytest

from member_scripts import replay, script_text, scripted_resolution
from lctkit import (
    FAMILIES,
    Auto,
    generator,
    lambda_newton,
    lambda_uncapped,
    paper_claim,
    parse_poly,
    resolve,
    verify,
    verify_all,
)
from lctkit.catalogue import MEMBERS
from lctkit.serialize import verify_json

P = parse_poly
F = Fraction


def test_family_roster():
    assert FAMILIES == ("A", "D", "E6", "E7", "E8")


def test_generators():
    assert generator("A", 1) == P("x^2 + y^2 + z^2")
    assert generator("A", 7) == P("x^2 + y^2 + z^8")
    assert generator("D", 4) == P("x^2 + y^2*z + z^3")
    assert generator("D", 5) == P("x^2 + y^2*z + z^4")
    assert generator("D", 9) == P("x^2 + y^2*z + z^8")
    assert generator("E6") == P("x^2 + y^3 + z^4")
    assert generator("E7") == P("x^2 + y^3 + y*z^3")
    assert generator("E8") == P("x^2 + y^3 + z^5")


def test_index_bounds():
    with pytest.raises(ValueError):
        generator("A", 0)
    with pytest.raises(ValueError):
        generator("D", 3)
    with pytest.raises(ValueError):
        generator("E6", 6)
    with pytest.raises(ValueError):
        generator("Q", 1)
    with pytest.raises(ValueError):
        generator("A")
    # the families extend upward past the audited span
    assert generator("A", 21) == P("x^2 + y^2 + z^22")
    assert generator("D", 13) == P("x^2 + y^2*z + z^12")


def test_paper_claims():
    assert paper_claim("A", 5) == (F(7, 6),)
    assert paper_claim("A", 6) == (F(7, 6),)
    assert paper_claim("D", 4) == (F(4, 3),)
    assert paper_claim("D", 5) == (F(6, 5),)
    assert paper_claim("D", 8) == (F(9, 8), F(7, 6))
    assert paper_claim("E6") == (F(12, 13),)
    assert paper_claim("E7") == (F(5, 6),)
    assert paper_claim("E8") == (F(9, 8),)


def test_script_shapes():
    assert script_text("A", 5).count("chart z") == 3
    assert script_text("A", 6).count("chart z") == 3
    d_even = script_text("D", 6)
    assert "translate z := z + i" in d_even and "orbit 2" in d_even
    d_odd = script_text("D", 7)
    assert "subst z := z + y*z^4" in d_odd
    for family in ("E6", "E7", "E8"):
        scripted_resolution(family)  # parses cleanly


def test_verify_single_rows():
    e6 = verify("E6")
    assert e6.claimed_values == (F(12, 13),)
    assert e6.newton_value == F(13, 12)
    assert e6.claim_vs_newton == "mismatch"
    a5 = verify("A", 5)
    assert a5.newton_value == F(7, 6)
    assert a5.engine_value == F(7, 6)
    assert a5.engine_certified
    assert a5.claim_vs_newton == "match"
    assert a5.engine_vs_newton == "match"


# engine values are the minima that Auto finds, which the hand scripts find
# too; they are pinned here so catalogue regressions surface as table diffs
TABLE = {
    ("A", 1): (F(3, 2), F(3, 2), True, "match", "match"),
    ("A", 2): (F(4, 3), F(3, 2), False, "mismatch", "mismatch"),
    ("A", 3): (F(5, 4), F(5, 4), True, "match", "match"),
    ("A", 4): (F(6, 5), F(5, 4), False, "mismatch", "mismatch"),
    ("A", 5): (F(7, 6), F(7, 6), True, "match", "match"),
    ("A", 6): (F(8, 7), F(7, 6), False, "mismatch", "mismatch"),
    ("A", 7): (F(9, 8), F(9, 8), True, "match", "match"),
    ("A", 8): (F(10, 9), F(9, 8), False, "mismatch", "mismatch"),
    ("A", 9): (F(11, 10), F(11, 10), True, "match", "match"),
    ("A", 10): (F(12, 11), F(11, 10), False, "mismatch", "mismatch"),
    ("A", 11): (F(13, 12), F(13, 12), True, "match", "match"),
    ("A", 12): (F(14, 13), F(13, 12), False, "mismatch", "mismatch"),
    ("A", 13): (F(15, 14), F(15, 14), True, "match", "match"),
    ("A", 14): (F(16, 15), F(15, 14), False, "mismatch", "mismatch"),
    ("A", 15): (F(17, 16), F(17, 16), True, "match", "match"),
    ("A", 16): (F(18, 17), F(17, 16), False, "mismatch", "mismatch"),
    ("A", 17): (F(19, 18), F(19, 18), True, "match", "match"),
    ("A", 18): (F(20, 19), F(19, 18), False, "mismatch", "mismatch"),
    ("A", 19): (F(21, 20), F(21, 20), True, "match", "match"),
    ("A", 20): (F(22, 21), F(21, 20), False, "mismatch", "mismatch"),
    ("D", 4): (F(7, 6), F(5, 4), False, "mismatch", "mismatch"),
    ("D", 5): (F(9, 8), F(9, 8), False, "mismatch", "match"),
    ("D", 6): (F(11, 10), F(9, 8), False, "mismatch", "mismatch"),
    ("D", 7): (F(13, 12), F(13, 12), False, "mismatch", "match"),
    ("D", 8): (F(15, 14), F(13, 12), False, "mismatch", "mismatch"),
    ("D", 9): (F(17, 16), F(17, 16), False, "mismatch", "match"),
    ("D", 10): (F(19, 18), F(17, 16), False, "mismatch", "mismatch"),
    ("D", 11): (F(21, 20), F(21, 20), False, "mismatch", "match"),
    ("D", 12): (F(23, 22), F(21, 20), False, "mismatch", "mismatch"),
    ("E6", None): (F(13, 12), F(13, 12), False, "mismatch", "match"),
    ("E7", None): (F(19, 18), F(15, 14), False, "mismatch", "mismatch"),
    ("E8", None): (F(31, 30), F(25, 24), False, "mismatch", "mismatch"),
}


def test_verify_all_table():
    rows = verify_all()
    assert len(rows) == len(TABLE) == 32
    for row in rows:
        newton, engine, cert, cvn, evn = TABLE[(row.family, row.n)]
        assert row.newton_value == newton
        assert row.engine_value == engine
        assert row.engine_certified == cert
        assert row.claim_vs_newton == cvn
        assert row.engine_vs_newton == evn
        assert not row.depth_limited


def test_verify_all_deterministic():
    first = verify_all()
    second = verify_all()
    assert verify_json(first) == verify_json(second)
    assert [r.label for r in first] == [r.label for r in second]


def test_scripts_report_what_auto_reports():
    # Auto(12) and the hand scripts give every member the same report. The
    # even D scripts also recentre at the two conjugate off-origin points,
    # which Auto never visits: one more divisor, born below the translation
    # and listed once, since the replay reads past `orbit 2`. Every other
    # candidate agrees in (k, h).
    # An id names the path of the chart blown up, which the odd D scripts'
    # rewrite lengthens, so ids are not compared.
    for family, n in MEMBERS:
        f = generator(family, n)
        newton = lambda_newton(f)
        auto = resolve(f, Auto(12))
        scripted = replay(f, scripted_resolution(family, n), 12)
        a, s = lambda_uncapped(auto, newton), lambda_uncapped(scripted, newton)
        label = f"{family}{n or ''}"
        for name in ("lambda_uncapped", "lambda_capped", "multiplicity", "certified"):
            assert getattr(a, name) == getattr(s, name), (label, name)
        assert auto.has_depth_limit() == scripted.has_depth_limit(), label
        extra = [c for c in s.candidates if "/T_" in c.divisor]
        kept = [(c.k, c.h) for c in s.candidates if "/T_" not in c.divisor]
        assert sorted(kept) == sorted((c.k, c.h) for c in a.candidates), label
        assert len(extra) == (family == "D" and n % 2 == 0), label


@pytest.mark.parametrize("depth", list(range(13)) + [24])
def test_verify_reports_what_the_scripts_report(depth):
    # verify resolves with Auto; at every depth its row carries the engine
    # value, certificate and depth-limit flag of the member's hand script.
    for family, n in MEMBERS:
        f = generator(family, n)
        tree = replay(f, scripted_resolution(family, n), depth)
        scripted = lambda_uncapped(tree, lambda_newton(f))
        row = verify(family, n, depth)
        label = (row.label, depth)
        assert row.engine_value == scripted.lambda_uncapped, label
        assert row.engine_certified == scripted.certified, label
        assert row.depth_limited == tree.has_depth_limit(), label
