"""Blow-up charts: substitution bookkeeping, classification, and drivers."""

import re
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from member_scripts import replay, scripted_resolution
from lctkit import (
    GAUSS,
    Auto,
    ChartError,
    ChartStatus,
    FactorizationDestroyedError,
    InternalInconsistencyError,
    PoleIndex,
    Polynomial,
    ScriptError,
    UnitInputError,
    ZeroPolynomialError,
    blowup_origin,
    generator,
    make_root_chart,
    parse_poly,
    resolve,
)
import lctkit.blowup as blowup_module
from lctkit.algebra import _lowest_exponents
from lctkit.blowup import (
    BlowupStep,
    RewriteStep,
    TranslateStep,
    _classify,
    _step_substitution,
    apply_affine,
    translate,
)
from lctkit.catalogue import MEMBERS
from lctkit.parser import (
    BlowupDirective,
    ResolutionScript,
    SourceSpan,
    StopDirective,
    SubstDirective,
    parse_script,
)
from conftest import EISENSTEIN, raised_h, raised_k, workload_pass
from jacobian_reference import (
    _verify_stepwise,
    composed_map_from_root,
    jacobian_verdicts,
    total_transform_identity,
)
from test_algebra import as_poly, field_and, field_coeffs, ring_terms

P = parse_poly


def z_chart(chart):
    return blowup_origin(chart, ("x", "y", "z"))[2]


# -- root charts --------------------------------------------------------------


def test_root_chart_plain():
    root = make_root_chart(P("x^2 + y^2 + z^3"))
    assert root.strict == P("x^2 + y^2 + z^3")
    assert root.status is ChartStatus.OPEN
    assert not root.exceptional
    assert root.depth == 0


def test_root_chart_divides_out_coordinate_content():
    # x^2*y^2*(1 + x) carries coordinate divisors before any blow-up
    root = make_root_chart(P("x^2*y^2 + x^3*y^2"))
    assert root.strict == P("1 + x")
    assert root.divisors == {
        "x": PoleIndex("root/x", k=2, h=0),
        "y": PoleIndex("root/y", k=2, h=0),
    }
    assert root.exceptional == ("x", "y")
    assert root.status is ChartStatus.UNIT_STRICT


def test_root_chart_rejects_degenerate_input():
    with pytest.raises(ZeroPolynomialError):
        make_root_chart(P("0"))
    with pytest.raises(UnitInputError):
        make_root_chart(P("1 + x"))


# -- single blow-up of the origin ----------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_a_family_depth_one_charts(n):
    f = generator("A", n)
    root = make_root_chart(f)
    ux, uy, uz = blowup_origin(root, ("x", "y", "z"))
    assert ux.strict == P(f"1 + y^2 + x^{n - 1}*z^{n + 1}")
    assert uy.strict == P(f"x^2 + 1 + y^{n - 1}*z^{n + 1}")
    assert uz.strict == P(f"x^2 + y^2 + z^{n - 1}")
    for child, v in ((ux, "x"), (uy, "y"), (uz, "z")):
        assert child.divisors == {v: PoleIndex("E@root", k=2, h=2)}
        assert child.exceptional == (v,)
        # pull back by hand: scaling the other two variables by v recovers
        # the total transform v^2 * strict
        others = {w: P(w) * P(v) for w in ("x", "y", "z") if w != v}
        assert f.substitute(others) == P(v) ** 2 * child.strict


# -- classification -----------------------------------------------------------


def test_classify_unit_and_smooth_and_open():
    root = make_root_chart(P("x^2 + y^2 + z^3"))
    ux, uy, uz = blowup_origin(root, ("x", "y", "z"))
    assert ux.status is ChartStatus.UNIT_STRICT
    assert uy.status is ChartStatus.UNIT_STRICT
    # gradient points along the exceptional direction z; still a smooth point
    assert uz.status is ChartStatus.SMOOTH_STRICT
    assert make_root_chart(P("x^2 + y^2")).status is ChartStatus.OPEN
    assert make_root_chart(P("z + x^2")).status is ChartStatus.SMOOTH_STRICT


@settings(max_examples=200, deadline=None, derandomize=True)
@given(field_and(lambda field: ring_terms(field, max_exp=2)))
def test_classify_matches_gradient_definition(case):
    # Exponents up to 2 make constant, linear and higher terms all common.
    field, terms = case
    f = as_poly(field, terms)
    if f.constant_term:
        expected = ChartStatus.UNIT_STRICT
    elif any(f.partial(v).constant_term for v in f.variables):
        expected = ChartStatus.SMOOTH_STRICT
    else:
        expected = ChartStatus.OPEN
    assert _classify(f) is expected


# -- chains of origin blow-ups --------------------------------------------------


def test_chain_exponents_double_depth():
    # k-fold z-chart chain on x^2 + y^2 + z^21: total transform z^(2k),
    # Jacobian z^(2k)
    chart = make_root_chart(P("x^2 + y^2 + z^21"))
    for k in range(1, 11):
        chart = z_chart(chart)
        assert chart.divisors["z"].k == 2 * k
        assert chart.divisors["z"].h == 2 * k
        assert chart.strict == P(f"x^2 + y^2 + z^{21 - 2 * k}")
        assert jacobian_verdicts(chart) == (True, True)
    assert chart.status is ChartStatus.SMOOTH_STRICT


def with_h(chart, var, h):
    """The chart with the h of one divisor record replaced."""
    record = replace(chart.divisors[var], h=h)
    return replace(chart, divisors={**chart.divisors, var: record})


def test_jacobian_audit_rejects_a_tampered_h_on_a_chain():
    chart = make_root_chart(P("x^2 + y^2 + z^21"))
    for _ in range(3):
        chart = z_chart(chart)
    assert jacobian_verdicts(chart) == (True, True) and _verify_stepwise(chart)
    for h in (5, 7):
        tampered = with_h(chart, "z", h)
        # the replay alone catches it, not only the composed determinant
        assert not _verify_stepwise(tampered)
        assert jacobian_verdicts(tampered) == (False, False)


def test_jacobian_audit_rejects_a_tampered_h_after_a_triangular_rewrite():
    root = make_root_chart(generator("D", 5))
    uy = blowup_origin(root, ("x", "y", "z"))[1]
    fixed = apply_affine(uy, "z", P("z + y*z^4"))
    # no polynomial chart map: only the stepwise replay runs
    assert fixed.map_from_root is None
    assert fixed.divisors["y"].h == 2
    assert jacobian_verdicts(fixed) == (True, True)
    for h in (1, 3):
        assert jacobian_verdicts(with_h(fixed, "y", h)) == (False, False)


def test_resolve_catches_a_raised_h_on_a_deep_chart(monkeypatch):
    # No total transform sees h: the run-matrix check in blowup_origin is
    # what stands behind every recorded h, deep in the tree as at its top.
    child = blowup_module._child

    def deep_raised(*args, **kw):
        made = child(*args, **kw)
        return raised_h(made) if made.depth >= 3 else made

    monkeypatch.setattr(blowup_module, "_child", deep_raised)
    with pytest.raises(
        InternalInconsistencyError, match=r"^Jacobian check failed at U_z/U_z/U_x:"
    ):
        resolve(P("x^2 + y^2 + z^7"), Auto(max_depth=10))


def doubled_coefficient(chart):
    """The chart with the coefficient of its lowest strict term doubled."""
    exps, coeff = next(chart.strict.sorted_terms())
    terms = {**chart.strict.terms, exps: coeff * 2}
    return replace(chart, strict=Polynomial(chart.field, chart.variables, terms))


@pytest.mark.parametrize("corrupt", [doubled_coefficient, raised_k])
@pytest.mark.parametrize(
    "step",
    [lambda c: blowup_origin(c, ("x", "y", "z")), lambda c: translate(c, "x", 1)],
    ids=["blowup", "translate"],
)
def test_step_identity_catches_a_corrupted_child(monkeypatch, step, corrupt):
    # The exact per-step check f(map) = monomial * strict is what stands
    # behind every pulled-back strict transform and divisor record.
    chart = z_chart(make_root_chart(P("x^2 + y^2 + z^5")))
    assert step(chart)
    child = blowup_module._child
    monkeypatch.setattr(
        blowup_module, "_child", lambda *args, **kw: corrupt(child(*args, **kw))
    )
    with pytest.raises(InternalInconsistencyError, match="identity failed at U_z/"):
        step(chart)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (doubled_coefficient, "total transform identity failed at"),
        (raised_h, "Jacobian check failed at"),
    ],
    ids=["identity", "jacobian"],
)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_every_sibling_of_a_blowup_is_checked(monkeypatch, k, corrupt, message):
    # Both checks run on every child, not once per blow-up: corrupting only
    # the k-th sibling must stop the blow-up at that sibling's path, after
    # the siblings before it passed.
    chart = z_chart(make_root_chart(P("x^2 + y^2 + z^5")))
    child = blowup_module._child
    made = []

    def kth_corrupted(*args):
        made.append(child(*args))
        return corrupt(made[-1]) if len(made) == k + 1 else made[-1]

    monkeypatch.setattr(blowup_module, "_child", kth_corrupted)
    path = f"U_z/U_{'xyz'[k]}"
    with pytest.raises(
        InternalInconsistencyError, match=rf"^{message} {re.escape(path)}(:|$)"
    ):
        blowup_origin(chart, ("x", "y", "z"))
    assert len(made) == k + 1


def made_by_a_checked_step(tree):
    """The path of every chart a blow-up or a translation made."""
    kinds = (BlowupStep, TranslateStep)
    return [
        node.chart.path
        for node in tree.nodes()
        if node.chart.steps and isinstance(node.chart.steps[-1], kinds)
    ]


@pytest.mark.parametrize(
    "f, script, depth",
    [
        (P("x^2 + y^3 + z^5"), None, 5),
        (generator("D", 4), scripted_resolution("D", 4), 12),
        (generator("D", 6), scripted_resolution("D", 6), 12),
    ],
    ids=["E8-auto", "D4-scripted", "D6-scripted"],
)
def test_step_identity_runs_once_per_child(monkeypatch, f, script, depth):
    # The pulled-back total becomes the child's total only through the
    # check, which every blow-up and translation child passes exactly once.
    checked = []
    check = blowup_module._assert_step_identity

    def counted(parent_total, child, substitution):
        checked.append(child.path)
        return check(parent_total, child, substitution)

    monkeypatch.setattr(blowup_module, "_assert_step_identity", counted)
    tree = resolve(f, Auto(depth)) if script is None else replay(f, script, depth)
    made = made_by_a_checked_step(tree)
    assert sorted(checked) == sorted(made)
    if script is None:
        assert len(made) == sum(1 for node in tree.nodes()) - 1 > 10
    else:
        assert any(path[-1].startswith("T_") for path in made)
    for chart in (node.chart for node in tree.nodes()):
        exponents = {v: r.k for v, r in chart.divisors.items()}
        monomial = Polynomial.monomial(f.field, f.variables, exponents)
        assert chart.total == chart.strict * monomial
        assert chart.depth == sum(isinstance(s, BlowupStep) for s in chart.steps)


def test_root_chart_total_is_anchored_at_f(monkeypatch):
    # Every identity check reads the root's total as the start of its chain,
    # so a wrong content split must fail at the root itself.
    f = P("x^2*y^2 + x^3*y^2")
    assert make_root_chart(f).total == f
    split = Polynomial.coordinate_content

    def corrupted(self):
        content, strict = split(self)
        return {**content, "x": content["x"] + 1}, strict

    monkeypatch.setattr(Polynomial, "coordinate_content", corrupted)
    with pytest.raises(InternalInconsistencyError, match="root chart"):
        make_root_chart(f)


def reference_children(chart, center):
    """blowup_origin by the schoolbook route: substitute w*v for every other
    center variable w, then split off the largest power of v."""
    field, variables = chart.field, chart.variables
    var = lambda name: Polynomial.variable(field, variables, name)
    below = [chart.divisors[w] for w in center if w in chart.divisors]
    out = []
    for v in center:
        pulled = chart.strict.substitute({w: var(w) * var(v) for w in center if w != v})
        # pulled has content in v only: the chart's strict transform has none.
        content, strict = pulled.coordinate_content()
        c = content.get(v, 0)
        k = sum(r.k for r in below) + c
        h = sum(r.h for r in below) + len(center) - 1
        record = PoleIndex(f"E@{chart.path_text()}", k, h)
        if strict.constant_term:
            status = ChartStatus.UNIT_STRICT
        elif any(strict.partial(w).constant_term for w in variables):
            status = ChartStatus.SMOOTH_STRICT
        else:
            status = ChartStatus.OPEN
        out.append((strict, {**chart.divisors, v: record}, status))
    return out


def blowable(chart, center):
    """The chart is Open and every strict term meets the center."""
    columns = [chart.variables.index(w) for w in center]
    return chart.status is ChartStatus.OPEN and all(
        any(exps[k] for k in columns) for exps in chart.strict.terms
    )


@st.composite
def gauss_polys(draw):
    """A GAUSS polynomial in 2-4 variables with every term of degree >= 2,
    so coordinate content and Open roots are both common."""
    variables = ("x", "y", "z", "w")[: draw(st.integers(2, 4))]
    exps = st.tuples(*[st.integers(0, 3)] * len(variables)).filter(
        lambda e: sum(e) >= 2
    )
    keys = draw(st.lists(exps, min_size=1, max_size=5, unique=True))
    terms = {e: GAUSS.element(draw(field_coeffs(GAUSS))) for e in keys}
    return Polynomial(GAUSS, variables, terms)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gauss_polys())
def test_blowup_children_match_the_schoolbook_pullback(f):
    # The children are built by an exponent map; the reference goes through
    # substitute and coordinate_content. Each Open child of the full center is
    # blown up once more, so records below the center are summed too.
    charts = [make_root_chart(f)]
    full = f.variables
    for child in blowup_origin(charts[0], full) if blowable(charts[0], full) else ():
        charts.append(child)
    for chart in charts:
        for size in range(2, len(full) + 1):
            for center in combinations(full, size):
                if not blowable(chart, center):
                    continue
                children = blowup_origin(chart, center)
                got = [(c.strict, dict(c.divisors), c.status) for c in children]
                assert got == reference_children(chart, center)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gauss_polys(), st.integers(1, 4))
def test_auto_charts_involve_two_variables(f, depth):
    # Auto blows up every Open chart along the variables its strict
    # transform involves, which needs two of them: an Open strict transform
    # has no constant term and no content, so it cannot live in one
    # variable. A DepthLimit leaf is only ever the depth budget running out.
    tree = resolve(f, Auto(depth))
    for node in tree.nodes():
        chart = node.chart
        if node.children or chart.status is ChartStatus.DEPTH_LIMIT:
            assert len(chart.strict.variables_present()) >= 2, chart.path_text()
        if chart.status is ChartStatus.DEPTH_LIMIT:
            assert chart.depth == depth, chart.path_text()


def test_sibling_charts_share_divisor_id():
    root = make_root_chart(P("x^2 + y^2 + z^5"))
    children = blowup_origin(root, ("x", "y", "z"))
    ids = {c.divisors[c.exceptional[0]].divisor for c in children}
    assert ids == {"E@root"}
    deeper = blowup_origin(children[2], ("x", "y", "z"))
    assert {c.divisors[c.exceptional[0]].divisor for c in deeper} == {"E@U_z"}


def test_blowup_requires_open_chart():
    chart = z_chart(make_root_chart(P("x^2 + y^2 + z^3")))
    assert chart.status is ChartStatus.SMOOTH_STRICT
    with pytest.raises(ChartError):
        blowup_origin(chart, ("x", "y", "z"))


def test_two_variable_center():
    # blowing up the line x = y = 0 leaves z untouched and adds one to h only
    root = make_root_chart(P("x^2 + y^3"))
    ux, uy = blowup_origin(root, ("x", "y"))
    assert ux.strict == P("1 + x*y^3")
    assert uy.strict == P("x^2 + y")
    assert ux.divisors == {"x": PoleIndex("E@root", k=2, h=1)}
    assert uy.divisors == {"y": PoleIndex("E@root", k=2, h=1)}
    assert jacobian_verdicts(ux) == jacobian_verdicts(uy) == (True, True)


def test_center_validation():
    root = make_root_chart(P("x^2 + y^2 + z^3"))
    with pytest.raises(ChartError):
        blowup_origin(root, ("x",))
    with pytest.raises(ChartError):
        blowup_origin(root, ("x", "x"))
    with pytest.raises(ChartError):
        blowup_origin(root, ("x", "w"))


def test_center_must_lie_on_the_strict_transform():
    root = make_root_chart(P("x^2 + y^2 + z^3"))
    with pytest.raises(ChartError, match=r"center \{x = y = 0\} at root .* term z\^3"):
        blowup_origin(root, ("x", "y"))
    # deeper down, the chart's own strict transform decides
    uz = blowup_origin(make_root_chart(P("x^2 + y^2 + z^6")), ("x", "y", "z"))[2]
    assert uz.strict == P("x^2 + y^2 + z^4")
    with pytest.raises(ChartError, match=r"center \{x = z = 0\} at U_z .* term y\^2"):
        blowup_origin(uz, ("x", "z"))
    assert len(blowup_origin(uz, ("x", "y", "z"))) == 3


# -- affine substitutions -------------------------------------------------------


def test_linear_substitution_keeps_exact_inverse():
    # y := y + 2*x declares the NEW y; the old y is recovered as y - 2*x
    root = make_root_chart(P("x^2 + y^2 + z^3"))
    moved = apply_affine(root, "y", P("y + 2*x"))
    assert moved.strict == P("x^2 + (y - 2*x)^2 + z^3")
    assert moved.strict.substitute({"y": P("y + 2*x")}) == root.strict
    expected = {"x": P("x"), "y": P("y - 2*x"), "z": P("z")}
    assert composed_map_from_root(moved) == expected
    # map_from_root reads the run of blow-ups only; a rewrite ends it
    assert moved.map_from_root is None
    assert jacobian_verdicts(moved) == (True, True)
    assert moved.steps[-1].exact_inverse


def test_triangular_substitution_straightens_d5():
    # the y-chart of x^2 + y^2*z + z^4 becomes x^2 + y*z after the coordinate
    # change z := z + y*z^4
    root = make_root_chart(generator("D", 5))
    uy = blowup_origin(root, ("x", "y", "z"))[1]
    assert uy.strict == P("x^2 + y*z + y^2*z^4")
    fixed = apply_affine(uy, "z", P("z + y*z^4"))
    assert fixed.strict == P("x^2 + y*z")
    assert fixed.divisors == uy.divisors
    # the inverse rewrite is only a power series, so the path has no
    # polynomial chart map; the stepwise Jacobian replay still runs
    assert uy.map_from_root is not None
    assert fixed.map_from_root is None
    assert jacobian_verdicts(fixed) == (True, True)


def test_chart_map_is_composed_from_the_path():
    # blow-up, then translation, then affine rewrite: the reference chart map
    # is the three step maps composed, and the global identity holds exactly;
    # map_from_root gives the map on a path of blow-ups only
    f = P("x^2 + y^2 + z^4")
    script = parse_script(
        "blowup x y z\nchart z\ntranslate y := y + 1\nsubst x := 2*x + 3*y"
    )
    tree = replay(f, script)
    (chart,) = [
        node.chart for node in tree.nodes() if node.chart.path == ("U_z", "T_y", "S_x")
    ]
    assert chart.map_from_root is None
    assert composed_map_from_root(chart) == {
        "x": (P("x") - P("3*y")) / 2 * P("z"),
        "y": (P("y") + P("1")) * P("z"),
        "z": P("z"),
    }
    assert chart.strict == P("1/4*(x - 3*y)^2 + (y + 1)^2 + z^2")
    assert total_transform_identity(tree, chart)
    assert jacobian_verdicts(chart) == (True, True)


def test_substitution_must_stay_polynomial():
    root = make_root_chart(generator("D", 5))
    uz = blowup_origin(root, ("x", "y", "z"))[2]
    with pytest.raises(ChartError):
        apply_affine(uz, "z", P("z + y*z^4"))


def test_substitution_must_involve_the_variable():
    root = make_root_chart(P("x^2 + y^2 + z^3"))
    with pytest.raises(ChartError):
        apply_affine(root, "z", P("1"))
    with pytest.raises(ChartError):
        apply_affine(root, "z", P("x + y"))


def test_exceptional_shift_rejected():
    # z = 0 is the exceptional divisor; an affine change may not move it
    chart = z_chart(make_root_chart(P("x^2 + y^2 + z^3")))
    with pytest.raises(ChartError):
        apply_affine(chart, "z", P("z + 1"))
    moved = apply_affine(chart, "x", P("x + z"))
    assert jacobian_verdicts(moved) == (True, True)


# -- translations ---------------------------------------------------------------


def test_translate_plain_variable():
    root = make_root_chart(P("x^2 + y^2 + z^3"))
    moved = translate(root, "z", 1)
    assert moved.strict == P("x^2 + y^2 + (z + 1)^3")
    assert not moved.steps[-1].localized
    assert jacobian_verdicts(moved) == (True, True)


def test_translate_exceptional_localizes():
    chart = z_chart(make_root_chart(P("x^2 + y^2 + z^3")))
    moved = translate(chart, "z", 1)
    # the old divisor z^2 is a unit near the new origin and joins the strict part
    assert moved.steps[-1].localized
    assert "z" not in moved.divisors
    assert moved.exceptional == ()
    assert moved.strict == P("(z + 1)^2 * (x^2 + y^2 + z + 1)")
    assert jacobian_verdicts(moved) == (True, True)


@pytest.mark.parametrize(
    "var,image,strict",
    [
        ("x", "x + 1", "(x + 1)^2 + y^2 + z^3"),
        ("z", "z + 1", "x^2*(z + 1)^2 + y^2*(z + 1)^2 + (z + 1)^5"),
    ],
    ids=["plain", "localized"],
)
def test_translate_pulls_back_through_its_wide_image(var, image, strict):
    # The strict transform and the identity check's left side fold one
    # compiled map. A localized divisor's monomial joins the strict
    # transform before the fold.
    chart = z_chart(make_root_chart(P("x^2 + y^2 + z^5")))
    moved = translate(chart, var, 1)
    assert moved.strict == P(strict)
    assert moved.total == chart.total.substitute({var: P(image)})


def test_translate_exceptional_by_zero_rejected():
    chart = z_chart(make_root_chart(P("x^2 + y^2 + z^3")))
    with pytest.raises(ChartError):
        translate(chart, "z", 0)


def test_every_chart_is_free_of_content():
    # Every chart's strict transform has content 0 in every variable, as
    # _scan requires; the 32 scripted members and a pole-auto pass resolve
    # without meeting its refusal, DepthLimit copies of charts included.
    trees = [
        replay(generator(family, n), scripted_resolution(family, n), 12)
        for family, n in MEMBERS
    ]
    for op in workload_pass("pole", 1009):
        f = parse_poly(op["text"], GAUSS, tuple(op["vars"].split(",")))
        trees.append(resolve(f, Auto(op["depth"])))
    charts = [node.chart for tree in trees for node in tree.nodes()]
    assert len(trees) == 72 and len(charts) > 1000
    for chart in charts:
        assert not any(_lowest_exponents(chart.strict)), chart.path_text()


# -- resolution drivers -----------------------------------------------------------


def test_auto_terminates_and_logs():
    tree = resolve(P("x^2 + y^2 + z^6"), Auto(max_depth=10))
    assert not tree.has_depth_limit()
    statuses = {node.chart.status for node in tree.nodes() if node.is_leaf}
    assert statuses <= {ChartStatus.UNIT_STRICT, ChartStatus.SMOOTH_STRICT}
    assert all(jacobian_verdicts(node.chart) == (True, True) for node in tree.nodes())
    assert all(total_transform_identity(tree, node.chart) for node in tree.nodes())


def test_auto_is_deterministic():
    first = resolve(P("x^2 + y^2*z + z^4"), Auto(max_depth=8))
    second = resolve(P("x^2 + y^2*z + z^4"), Auto(max_depth=8))
    a = [(n.chart.path_text(), n.chart.status, n.chart.strict) for n in first.nodes()]
    b = [(n.chart.path_text(), n.chart.status, n.chart.strict) for n in second.nodes()]
    assert a == b


def test_depth_limit_marks_leaves():
    tree = resolve(P("x^2 + y^2 + z^9"), Auto(max_depth=2))
    assert tree.has_depth_limit()
    limited = [n for n in tree.nodes() if n.chart.status is ChartStatus.DEPTH_LIMIT]
    assert limited and all(n.is_leaf for n in limited)


def test_resolve_refuses_a_strategy_other_than_auto():
    strategy = object()
    with pytest.raises(ChartError) as info:
        resolve(P("x^2 + y^2 + z^3"), strategy)
    assert str(info.value) == f"unknown strategy {strategy!r}"


def test_scripted_follows_script_then_auto():
    script = parse_script("blowup x y z\nchart z")
    tree = replay(P("x^2 + y^2 + z^9"), script, max_depth=10)
    # the script stops after one chart; the driver finishes the rest
    assert not tree.has_depth_limit()
    assert all(jacobian_verdicts(node.chart) == (True, True) for node in tree.nodes())


def test_scripted_stop_leaves_depth_limit():
    tree = replay(P("x^2 + y^2 + z^3"), parse_script("stop"), max_depth=10)
    assert tree.has_depth_limit()
    assert tree.root.is_leaf


def test_scripted_orbit_and_translate_shape():
    tree = replay(generator("D", 4), scripted_resolution("D", 4), max_depth=12)
    by_path = {node.chart.path_text(): node for node in tree.nodes()}
    moved = by_path["U_y/T_z"]
    parent = by_path["U_y"]
    # translated chart is appended after the origin charts of the same parent
    assert parent.children[-1] is moved
    assert len(parent.children) == 4
    assert all(jacobian_verdicts(node.chart) == (True, True) for node in tree.nodes())
    assert all(total_transform_identity(tree, node.chart) for node in tree.nodes())


def test_scripted_rejects_blowup_on_finished_chart():
    from lctkit import ScriptError

    script = parse_script("blowup x y z\nchart x\nblowup x y z\nchart x")
    with pytest.raises(ScriptError):
        replay(P("x^2 + y^2 + z^3"), script, max_depth=10)


def test_script_steps_past_a_bare_blowup_are_refused():
    # parse_script never builds this shape; a hand-built script must not
    # lose the subst silently.
    at = SourceSpan(1, 1, 6)
    steps = (
        BlowupDirective(("x", "y", "z"), at),
        SubstDirective("z", P("z + y*z^4"), at),
    )
    with pytest.raises(ScriptError, match="must be followed by chart") as info:
        replay(P("x^2 + y^2*z + z^4"), ResolutionScript(steps))
    assert info.value.span == at
    # With the chart named, the same steps reach U_y/S_z.
    named = (replace(steps[0], chart="y"), steps[1])
    tree = replay(P("x^2 + y^2*z + z^4"), ResolutionScript(named))
    assert "U_y/S_z" in {node.chart.path_text() for node in tree.nodes()}


def test_script_steps_past_stop_are_refused():
    at, later = SourceSpan(1, 1, 4), SourceSpan(2, 1, 6)
    steps = (StopDirective(at), BlowupDirective(("x", "y", "z"), later))
    with pytest.raises(ScriptError, match="after stop") as info:
        replay(P("x^2 + y^2 + z^3"), ResolutionScript(steps))
    assert info.value.span == at


# -- full-tree invariants ----------------------------------------------------------


def assert_jacobian_checks_agree(chart):
    """The run-matrix check and the polynomial reference both accept the
    chart, and both reject it once any one record's h is one off."""
    assert jacobian_verdicts(chart) == (True, True)
    for var, record in chart.divisors.items():
        for h in (record.h - 1, record.h + 1):
            assert jacobian_verdicts(with_h(chart, var, h)) == (False, False)


@st.composite
def resolvable_gauss_polys(draw):
    """gauss_polys, most of the time plus a pure power of every variable:
    that leaves no coordinate content, so Auto blows the root chart up."""
    f = draw(gauss_polys())
    if draw(st.integers(0, 3)) < 3:
        for v in f.variables:
            f = f + Polynomial.monomial(GAUSS, f.variables, {v: draw(st.integers(2, 5))})
    return f


@settings(max_examples=40, deadline=None, derandomize=True)
@given(resolvable_gauss_polys(), st.integers(1, 4))
def test_jacobian_checks_agree_on_auto_trees(f, depth):
    for node in resolve(f, Auto(max_depth=depth)).nodes():
        assert_jacobian_checks_agree(node.chart)


@pytest.mark.parametrize(
    "family,n",
    [("A", 5), ("D", 4), ("D", 5), ("D", 6), ("D", 7), ("E6", None), ("E7", None), ("E8", None)],
)
def test_catalogue_trees_verify(family, n):
    tree = replay(generator(family, n), scripted_resolution(family, n), max_depth=12)
    for node in tree.nodes():
        assert_jacobian_checks_agree(node.chart)
        assert total_transform_identity(tree, node.chart)
    # sibling charts of one blow-up agree on the new divisor's exponents
    for node in tree.nodes():
        born = {}
        for child in node.children:
            chart = child.chart
            if not chart.steps or not chart.steps[-1].label.startswith("U_"):
                continue
            v = chart.steps[-1].chart_variable
            record = chart.divisors[v]
            assert born.setdefault(record.divisor, record) == record


def kept_record_raised(kind):
    """A _child that raises the h of one record kept across a step of the
    given kind, and builds every other child unchanged."""
    child = blowup_module._child

    def corrupted(chart, step, *args):
        made = child(chart, step, *args)
        if isinstance(step, kind) and made.divisors:
            var = next(iter(made.divisors))
            return with_h(made, var, made.divisors[var].h + 1)
        return made

    return corrupted


@pytest.mark.parametrize(
    "kind,script,path",
    [
        (TranslateStep, "blowup x y z\nchart z\ntranslate x := x + 1", "U_z/T_x"),
        (RewriteStep, "blowup x y z\nchart z\nsubst x := x + y", "U_z/S_x"),
    ],
    ids=["translate", "rewrite"],
)
def test_records_kept_across_a_coordinate_change_are_checked(monkeypatch, kind, script, path):
    # A translation or a rewrite has a unit Jacobian: the child keeps every
    # record of its parent, which resolve checks even when no later blow-up
    # goes through the corrupted coordinate.
    f, steps = P("x^2 + y^2 + z^3"), parse_script(script)
    assert replay(f, steps)
    monkeypatch.setattr(blowup_module, "_child", kept_record_raised(kind))
    with pytest.raises(InternalInconsistencyError, match=f"at {path}: recorded"):
        replay(f, steps)


def assert_map_from_root_is_composed(tree):
    # On a path of blow-ups only, map_from_root reads the run matrix; once a
    # translation or a rewrite is on the path it gives no map.
    for node in tree.nodes():
        chart = node.chart
        if all(isinstance(step, BlowupStep) for step in chart.steps):
            assert chart.map_from_root == composed_map_from_root(chart)
        else:
            assert chart.map_from_root is None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(resolvable_gauss_polys(), st.integers(1, 4))
def test_map_from_root_matches_the_composed_path_on_auto_trees(f, depth):
    assert_map_from_root_is_composed(resolve(f, Auto(max_depth=depth)))


def test_map_from_root_matches_the_composed_path_on_catalogue_trees():
    for family, n in MEMBERS:
        tree = replay(generator(family, n), scripted_resolution(family, n), max_depth=12)
        assert_map_from_root_is_composed(tree)


def tree_shape(tree):
    """Everything each chart of a tree carries, as plain comparable data."""
    return [
        (c.path, c.strict, dict(c.divisors), c.status, c.run, c.run_start, c.total)
        for c in (node.chart for node in tree.nodes())
    ]


@pytest.mark.parametrize("field", [GAUSS, EISENSTEIN], ids=["gauss", "eisenstein"])
@pytest.mark.parametrize("names", ["x,y,z", "u,v,w"])
def test_cached_step_maps_match_a_cold_cache(field, names):
    # The step-map cache is keyed by field object, variables and geometry: a
    # warm cache filled by the other rings gives the trees of a cold one.
    variables = tuple(names.split(","))
    text = "{0}^2 + {1}^3 + {2}^5 + {0}*{1}*{2}".format(*variables)
    for other_field in (GAUSS, EISENSTEIN):
        for other in (("x", "y", "z"), ("u", "v", "w")):
            g = parse_poly("{0}^2 + {1}^2 + {2}^4".format(*other), other_field, other)
            resolve(g, Auto(max_depth=4))
    f = parse_poly(text, field, variables)
    warm = tree_shape(resolve(f, Auto(max_depth=5)))
    blowup_module._STEP_MAPS.clear()
    assert tree_shape(resolve(f, Auto(max_depth=5))) == warm
    for key, compiled in blowup_module._STEP_MAPS.items():
        assert key[:2] == (id(compiled.field), compiled.variables)


def test_step_map_cache_is_bounded():
    variables = ("a", "b", "c", "d", "e", "f")
    for size in range(2, len(variables) + 1):
        for center in combinations(variables, size):
            for v in center:
                step = BlowupStep(center, v, "E")
                compiled = _step_substitution(GAUSS, variables, step)
                assert len(blowup_module._STEP_MAPS) <= 64
                assert compiled.field is GAUSS and compiled.variables == variables
                assert set(compiled) == set(center) - {v}
                for w in compiled:
                    assert compiled[w] == Polynomial.monomial(GAUSS, variables, {w: 1, v: 1})
