"""Pole candidates and reports: divisor collection, capping, certification."""

from dataclasses import replace
from fractions import Fraction

import pytest

from lctkit import (
    Auto,
    ChartError,
    ChartStatus,
    InternalInconsistencyError,
    PoleIndex,
    ResolutionTree,
    Scripted,
    TreeNode,
    generator,
    lambda_newton,
    lambda_uncapped,
    make_root_chart,
    parse_poly,
    resolve,
    scripted_resolution,
)

P = parse_poly


def report_for(text, depth=12):
    f = P(text)
    return lambda_uncapped(resolve(f, Auto(max_depth=depth)), lambda_newton(f))


def test_pole_index_value():
    assert PoleIndex("E@root", k=4, h=4).value == Fraction(5, 4)
    assert PoleIndex("E@root", k=2, h=0).value == Fraction(1, 2)
    record = PoleIndex("E@root", k=6, h=4)
    assert record.value is record.value  # built once per record
    assert replace(record, h=5).value == 1


def test_a5_certified_chain():
    rep = report_for("x^2 + y^2 + z^6")
    assert rep.lambda_uncapped == Fraction(7, 6)
    assert rep.lambda_capped == 1
    assert rep.certified
    assert rep.multiplicity == 1
    assert rep.newton_value == Fraction(7, 6)
    assert rep.newton_agrees
    assert [(c.divisor, c.value) for c in rep.candidates] == [
        ("E@U_z/U_z", Fraction(7, 6)),
        ("E@U_z", Fraction(5, 4)),
        ("E@root", Fraction(3, 2)),
    ]


def test_a4_uncertified_chain():
    rep = report_for("x^2 + y^2 + z^5")
    assert rep.lambda_uncapped == Fraction(5, 4)
    assert not rep.certified
    assert rep.newton_value == Fraction(6, 5)
    assert not rep.newton_agrees


def test_monomial_multiplicity():
    # x^2*y^2 carries two coordinate divisors of equal value 1/2
    rep = report_for("x^2*y^2")
    assert rep.lambda_uncapped == Fraction(1, 2)
    assert rep.multiplicity == 2
    assert rep.certified
    assert {c.divisor for c in rep.candidates} == {"root/x", "root/y"}
    assert rep.lambda_capped == Fraction(1, 2)


def test_smooth_input_has_no_candidates():
    rep = report_for("x + y^2")
    assert rep.lambda_uncapped is None
    assert rep.lambda_capped == 1
    assert rep.multiplicity == 1
    assert rep.candidates == ()
    assert not rep.certified


def test_capping():
    rep = report_for("x^2 + y^2 + z^6")
    assert rep.lambda_capped == 1


def test_scale_invariance():
    base = report_for("x^2 + y^2*z + z^4")
    for c in ("3", "1/2", "(1+i)"):
        assert report_for(f"{c}*(x^2 + y^2*z + z^4)") == base


def test_refinement_monotonicity():
    # deeper trees only add divisors, so the running minimum cannot rise
    f = P("x^2 + y^2 + z^9")
    values = []
    for depth in range(1, 6):
        rep = lambda_uncapped(resolve(f, Auto(max_depth=depth)))
        values.append(rep.lambda_uncapped)
    assert values == sorted(values, reverse=True)
    assert values[-1] == Fraction(9, 8)


def test_orbit_replicates_divisors():
    tree = resolve(generator("D", 4), Scripted(scripted_resolution("D", 4), max_depth=12))
    rep = lambda_uncapped(tree, lambda_newton(generator("D", 4)))
    assert rep.lambda_uncapped == Fraction(5, 4)
    assert not rep.certified
    names = [c.divisor for c in rep.candidates]
    assert names == ["E@U_y", "E@U_y/T_z", "E@U_y/T_z~2", "E@root"]
    assert [c.value for c in rep.candidates] == [
        Fraction(5, 4),
        Fraction(5, 4),
        Fraction(5, 4),
        Fraction(3, 2),
    ]
    # the three minimal divisors never pass through a common point, so the
    # pole order stays 1 (multiplicity counts divisors met inside one chart)
    assert rep.multiplicity == 1


@pytest.mark.parametrize(
    "family,n,depth", [("A", 5, 12), ("D", 4, 12), ("D", 7, 12), ("E7", None, 6)]
)
def test_report_matches_separate_walks(family, n, depth):
    # lambda_uncapped walks the tree once; each field must equal its own
    # definition read off tree.leaves().
    script = Scripted(scripted_resolution(family, n), depth)
    tree = resolve(generator(family, n), script)
    rep = lambda_uncapped(tree)
    leaves = [leaf.chart for leaf in tree.leaves()]
    lam = min(Fraction(c.h + 1, c.k) for c in rep.candidates)
    assert rep.lambda_uncapped == lam
    assert rep.multiplicity == max(
        sum(Fraction(r.h + 1, r.k) == lam for r in leaf.divisors.values())
        for leaf in leaves
    )
    unit = ChartStatus.UNIT_STRICT
    assert rep.certified == all(leaf.status is unit for leaf in leaves)


def test_multiplicity_requires_attained_value():
    # In the A5 chain, E@U_z (5/4) meets E@U_z/U_z (7/6) in one chart, but
    # only the divisor attaining the minimum 7/6 counts, so the multiplicity
    # is 1, not 2.
    tree = resolve(P("x^2 + y^2 + z^6"), Auto(max_depth=12))
    assert max(len(leaf.chart.divisors) for leaf in tree.leaves()) == 2
    rep = lambda_uncapped(tree)
    assert rep.lambda_uncapped == Fraction(7, 6)
    assert rep.multiplicity == 1


def test_candidates_reject_unexpanded_tree():
    root = make_root_chart(P("x^2 + y^2"))
    tree = ResolutionTree(P("x^2 + y^2"), TreeNode(root, ()))
    with pytest.raises(ChartError, match="Open leaves"):
        lambda_uncapped(tree)


def test_candidates_reject_divisor_seen_with_two_exponent_pairs():
    # U_x and U_y of x^2 + y^2 + z^3 both see E@root with (k, h) = (2, 2);
    # a tree in which one sighting says h = 3 is inconsistent
    tree = resolve(P("x^2 + y^2 + z^3"), Auto(max_depth=4))
    ux, uy, uz = tree.root.children
    assert ux.chart.divisors == {"x": PoleIndex("E@root", k=2, h=2)}
    forged = replace(ux.chart, divisors={"x": PoleIndex("E@root", k=2, h=3)})
    bad = ResolutionTree(
        tree.root_polynomial,
        TreeNode(tree.root.chart, (TreeNode(forged, ()), uy, uz)),
    )
    assert len(lambda_uncapped(tree).candidates) == 1
    with pytest.raises(InternalInconsistencyError, match="E@root"):
        lambda_uncapped(bad)


# Known false certificates: the certificate looks only at chart origins, so
# these are certified at a wrong value. Each test asserts what a sound
# certificate must give; the marker goes once none is certified wrong.
@pytest.mark.xfail(strict=True, reason="certified wrong: 3/2 for a double plane")
def test_double_plane_is_not_certified_wrong():
    rep = report_for("(x+y+z)^2", depth=5)
    assert not rep.certified or rep.lambda_uncapped == Fraction(1, 2)


@pytest.mark.xfail(strict=True, reason="certified wrong: 3/2 for a disguised A2")
def test_disguised_a2_is_not_certified_wrong():
    rep = report_for("x^2+(y-z)^2+z^3", depth=5)
    assert not rep.certified or rep.lambda_uncapped == Fraction(4, 3)


@pytest.mark.xfail(strict=True, reason="certified wrong: 3/4 for a double conic")
def test_double_conic_is_not_certified_wrong():
    rep = report_for("(x^2+y^2+z^2)^2", depth=5)
    assert not rep.certified or rep.lambda_uncapped == Fraction(1, 2)
