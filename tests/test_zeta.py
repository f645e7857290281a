"""Pole candidates and reports: divisor collection, capping, certification."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from member_scripts import replay, scripted_resolution
from lctkit import (
    GAUSS,
    Auto,
    ChartError,
    ChartStatus,
    InternalInconsistencyError,
    PoleIndex,
    ResolutionTree,
    TreeNode,
    generator,
    lambda_newton,
    lambda_uncapped,
    make_root_chart,
    ScriptError,
    parse_poly,
    resolve,
)
from lctkit.parser import parse_script
from lctkit.zeta import _candidates

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


def test_deep_chain_resolves_without_recursion():
    # A1200 blows up 600 times along one path; the walk keeps its own stack.
    rep = report_for("x^2 + y^2 + z^1200", depth=5000)
    assert rep.certified
    assert rep.lambda_uncapped == Fraction(1201, 1200)


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
    tree = replay(generator("D", 4), scripted_resolution("D", 4), max_depth=12)
    rep = lambda_uncapped(tree, lambda_newton(generator("D", 4)))
    assert rep.lambda_uncapped == Fraction(5, 4)
    assert not rep.certified
    # the replay reads past `orbit 2`: the divisor born below the
    # translation to z = i is listed once, not once per conjugate point
    names = [c.divisor for c in rep.candidates]
    assert names == ["E@U_y", "E@U_y/T_z", "E@root"]
    assert [c.value for c in rep.candidates] == [
        Fraction(5, 4),
        Fraction(5, 4),
        Fraction(3, 2),
    ]
    # the two minimal divisors never pass through a common point, so the
    # pole order stays 1 (multiplicity counts divisors met inside one chart)
    assert rep.multiplicity == 1


@pytest.mark.parametrize(
    "family,n,depth", [("A", 5, 12), ("D", 4, 12), ("D", 7, 12), ("E7", None, 6)]
)
def test_report_matches_separate_walks(family, n, depth):
    # lambda_uncapped walks the tree once; each field must equal its own
    # definition read off tree.leaves().
    tree = replay(generator(family, n), scripted_resolution(family, n), depth)
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


# -- the integer order against a Fraction reference -------------------------

# x^2 + y^2 + z^2 after one blow-up: a root over three UnitStrict leaves
# U_x, U_y, U_z, each a BlowupStep child that sees the divisor E@root.
_ONE_BLOWUP = resolve(P("x^2 + y^2 + z^2"), Auto(max_depth=1))
_IDS = ("E@root", "E@U_x", "E@U_z/U_y", "root/x", "root/y")
# (k, h) pairs with equal values for different k: 1/2, 1 and 3/2 thrice each.
_PAIRS = ((2, 0), (4, 1), (6, 2), (1, 0), (2, 1), (3, 2), (2, 2), (4, 5), (6, 8), (3, 1))


def _fraction_reference(leaves):
    """The candidates as (id, k, h) sorted by (Fraction value, id), the
    minimum and the multiplicity, all by Fraction comparisons."""
    seen = {}
    for leaf in leaves:
        for r in leaf.divisors.values():
            seen.setdefault(r.divisor, r)
    rows = []
    for divisor, r in seen.items():
        rows.append((Fraction(r.h + 1, r.k), divisor, r.k, r.h))
    rows.sort()
    if not rows:
        return [], None, 1
    lam = rows[0][0]
    mult = max(
        sum(Fraction(r.h + 1, r.k) == lam for r in leaf.divisors.values())
        for leaf in leaves
    )
    return [row[1:] for row in rows], lam, mult


def _forged_tree(records, sightings):
    """_ONE_BLOWUP with leaf j carrying records[id] on the variables of
    sightings[j], a dict variable -> id."""
    root = _ONE_BLOWUP.root
    leaves = tuple(
        TreeNode(
            replace(
                node.chart,
                divisors={v: records[d] for v, d in seen.items()},
                status=ChartStatus.UNIT_STRICT,
            ),
            (),
        )
        for node, seen in zip(root.children, sightings)
    )
    return ResolutionTree(
        _ONE_BLOWUP.root_polynomial,
        TreeNode(root.chart, leaves),
    )


@st.composite
def _forged_cases(draw):
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=5, unique=True))
    records = {d: PoleIndex(d, *draw(st.sampled_from(_PAIRS))) for d in ids}
    sightings = [
        dict(zip("xyz", draw(st.lists(st.sampled_from(ids), max_size=3, unique=True))))
        for _ in range(3)
    ]
    return records, sightings


_EQUAL_VALUES = (
    {
        "E@root": PoleIndex("E@root", 2, 0),
        "E@U_x": PoleIndex("E@U_x", 4, 1),
        "root/x": PoleIndex("root/x", 6, 2),
        "root/y": PoleIndex("root/y", 3, 2),
    },
    [{"x": "root/x", "y": "E@U_x"}, {"x": "E@root", "z": "root/y"}, {"y": "root/x"}],
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_forged_cases())
@example(_EQUAL_VALUES)
def test_integer_order_matches_the_fraction_reference(case):
    tree = _forged_tree(*case)
    leaves = [node.chart for node in tree.leaves()]
    order, lam, mult = _fraction_reference(leaves)
    candidates = _candidates(leaves)
    assert [(c.divisor, c.k, c.h) for c in candidates] == order
    rep = lambda_uncapped(tree)
    assert rep.candidates == candidates
    assert rep.lambda_uncapped == lam
    assert rep.multiplicity == mult
    assert rep.lambda_capped == (1 if lam is None else min(Fraction(1), lam))


def test_equal_values_sort_by_id_and_orbit_copies_follow():
    rep = lambda_uncapped(_forged_tree(*_EQUAL_VALUES))
    # 1/2 as k = 2, 4 and 6, ties broken by id.
    assert [c.divisor for c in rep.candidates] == [
        "E@U_x", "E@root", "root/x", "root/y"
    ]
    assert rep.lambda_uncapped == Fraction(1, 2)
    # U_x meets root/x and E@U_x, both 1/2.
    assert rep.multiplicity == 2


@pytest.mark.parametrize(
    "text",
    ["x^2 + y^2 + z^2", "x^2 + y^3 + z^5", "x^2 + y^2*z^2", "x^2*y^2", "x*y + z^3"],
)
@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
def test_depth_flag_matches_the_leaves(text, depth):
    # x^2 + y^2*z^2 doubles its tree per level; at depth 0 every Open root
    # is itself the one DepthLimit leaf.
    tree = resolve(P(text), Auto(max_depth=depth))
    expected = any(
        leaf.chart.status is ChartStatus.DEPTH_LIMIT for leaf in tree.leaves()
    )
    assert tree.has_depth_limit() == expected
    if depth == 0 and tree.root.chart.status is ChartStatus.DEPTH_LIMIT:
        assert not tree.root.children and expected


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


# Known wrong multiplicity: counted only at chart origins.
@pytest.mark.xfail(
    strict=True,
    reason="multiplicity 1, not 2: divisors meeting off chart origins go "
    "uncounted (ROADMAP item 7)",
)
def test_crossing_planes_have_multiplicity_two():
    # A linear change of coordinates makes x^2 - y^2 = uv: the two divisors
    # {u = 0} and {v = 0}, each of value 1, meet along the z-axis.
    rep = lambda_uncapped(resolve(P("x^2 - y^2"), Auto()))
    assert rep.lambda_uncapped == 1
    assert rep.multiplicity == 2


def test_rewrite_then_translate_is_refused_or_right():
    # In U_y the strict transform is (x - y)^2; the rewrite makes it x^2, so
    # the origin of U_y/S_x would lie on {x = 0}, which no divisor records,
    # and the translation away from it would leave lambda_uncapped at 1.
    variables = ("x", "y")
    f = parse_poly("(x - y^2)^2", GAUSS, variables)
    script = parse_script(
        "blowup x y\nchart y\nsubst x := x - y\ntranslate x := x + 1\n",
        GAUSS,
        variables,
    )
    try:
        rep = lambda_uncapped(replay(f, script), lambda_newton(f))
    except (ChartError, ScriptError):
        return
    assert rep.lambda_uncapped == Fraction(1, 2)
