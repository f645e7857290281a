"""Newton-polyhedron oracle: exact LP values, facets, and weight bounds."""

import dataclasses
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import facet_reference

from lctkit import (
    GAUSS,
    InternalInconsistencyError,
    Polynomial,
    UnitInputError,
    ZeroPolynomialError,
    generator,
    lambda_newton,
    newton,
    parse_poly,
    support,
)
from lctkit.catalogue import MEMBERS


def brieskorn(a, b, c):
    return parse_poly(f"x^{a} + y^{b} + z^{c}")


# -- closed-form values ------------------------------------------------------


def test_brieskorn_grid():
    for a, b, c in itertools.product(range(2, 10), repeat=3):
        nd = lambda_newton(brieskorn(a, b, c))
        expected = Fraction(1, a) + Fraction(1, b) + Fraction(1, c)
        assert nd.lambda_np == expected
        assert nd.t0 == 1 / expected


@pytest.mark.parametrize("n", range(1, 21))
def test_a_family_value(n):
    assert lambda_newton(generator("A", n)).lambda_np == Fraction(n + 2, n + 1)


@pytest.mark.parametrize("n", range(4, 13))
def test_d_family_value(n):
    assert lambda_newton(generator("D", n)).lambda_np == Fraction(2 * n - 1, 2 * n - 2)


@pytest.mark.parametrize(
    "family,value",
    [("E6", Fraction(13, 12)), ("E7", Fraction(19, 18)), ("E8", Fraction(31, 30))],
)
def test_e_family_value(family, value):
    assert lambda_newton(generator(family)).lambda_np == value


def test_single_monomials():
    # for a monomial the diagonal exits the polyhedron at the largest exponent
    assert lambda_newton(parse_poly("x^2")).lambda_np == Fraction(1, 2)
    assert lambda_newton(parse_poly("x*y")).lambda_np == 1
    assert lambda_newton(parse_poly("x^2*y^3")).lambda_np == Fraction(1, 3)


def test_rejects_units_and_zero():
    with pytest.raises(UnitInputError):
        lambda_newton(parse_poly("1 + x"))
    with pytest.raises(ZeroPolynomialError):
        lambda_newton(parse_poly("0"))


# -- structure of the polyhedron data ----------------------------------------


def test_e7_interior_facet():
    nd = lambda_newton(generator("E7"))
    assert ((9, 6, 4), 18) in nd.facet_normals
    assert nd.lambda_np == Fraction(9 + 6 + 4, 18)


def test_support_matches_terms():
    f = parse_poly("x^2 + y^2*z + z^4")
    assert set(support(f)) == {(2, 0, 0), (0, 2, 1), (0, 0, 4)}


def test_value_ignores_coefficients():
    f = parse_poly("x^2 + y^3 + z^5")
    g = parse_poly("7*x^2 + (1+i)*y^3 + (1/3)*z^5")
    assert lambda_newton(f).lambda_np == lambda_newton(g).lambda_np
    assert lambda_newton(f).facet_normals == lambda_newton(g).facet_normals


def test_permutation_invariance():
    rng = random.Random(7)
    for _ in range(25):
        exps = [
            tuple(rng.randint(0, 5) for _ in range(3))
            for _ in range(rng.randint(1, 4))
        ]
        if all(sum(e) == 0 for e in exps):
            continue
        texts = []
        for perm in itertools.permutations(range(3)):
            terms = []
            for e in exps:
                parts = [
                    f"{v}^{e[perm[k]]}"
                    for k, v in enumerate(("x", "y", "z"))
                    if e[perm[k]]
                ]
                terms.append("*".join(parts) if parts else "1")
            texts.append(" + ".join(terms))
        try:
            values = {lambda_newton(parse_poly(t)).lambda_np for t in texts}
        except UnitInputError:
            continue
        assert len(values) == 1


# -- weighted candidates bound the optimum -----------------------------------

weight_lists = st.lists(
    st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6),
    min_size=3,
    max_size=3,
)


def w_order(f, weights):
    """N(w) = min over the support of w . a."""
    return min(sum(c * e for c, e in zip(weights, a)) for a in support(f))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(weight_lists)
def test_weighted_candidate_upper_bounds_optimum(weights):
    # every positive weight vector gives (sum w)/(w-order) >= the LP minimum
    f = generator("D", 6)
    nd = lambda_newton(f)
    assert sum(weights) / w_order(f, weights) >= nd.lambda_np


def test_w_order_examples():
    f = generator("E7")
    assert w_order(f, [9, 6, 4]) == 18
    assert w_order(f, [1, 1, 1]) == 2
    assert Fraction(sum([9, 6, 4]), w_order(f, [9, 6, 4])) == Fraction(19, 18)


def test_optimum_attained_at_some_facet():
    for text in ("x^2+y^2+z^6", "x^3+y^4+z^5", "x^2+y^2*z+z^4"):
        f = parse_poly(text)
        nd = lambda_newton(f)
        attained = [
            Fraction(sum(w), order)
            for w, order in nd.facet_normals
            if order and all(c > 0 for c in w)
        ]
        assert nd.lambda_np in attained


# -- the simplex and its duality certificate ---------------------------------


def support_poly(points):
    """The polynomial with unit coefficients on the given exponent vectors."""
    variables = tuple(f"x{k}" for k in range(len(points[0])))
    total = Polynomial.zero(GAUSS, variables)
    for a in points:
        total = total + Polynomial.monomial(GAUSS, variables, dict(zip(variables, a)))
    return total


def random_support(rng, d, n, max_exp=6):
    points = set()
    while len(points) < n:
        a = tuple(rng.randint(0, max_exp) for _ in range(d))
        if any(a):
            points.add(a)
    return sorted(points)


def test_certified_t0_matches_facet_enumeration():
    # the facet enumeration is an independent computation of the same t0
    rng = random.Random(2024)
    for _ in range(60):
        d = rng.randint(3, 5)
        n = rng.randint(4, 10)
        points = random_support(rng, d, n)
        nd = lambda_newton(support_poly(points))
        facets = newton._facet_normals(points, d)
        assert nd.t0 == max(Fraction(order, sum(w)) for w, order in facets)


# -- facets by double description against the brute-force reference ---------

# The brute-force reference is exponential in d; these caps keep it fast.
MAX_POINTS = {1: 14, 2: 14, 3: 14, 4: 14, 5: 10, 6: 8}


@st.composite
def facet_supports(draw):
    """(d, points): distinct nonzero points with exponents 0-6, in drawn
    order. Some have a_c >= 1 at every point, so that (e_c, 0) is a ray of
    the cone with no tight point; some have points dominated by others."""
    d = draw(st.integers(1, 6))
    lifted = draw(st.sampled_from([None, *range(d)]))
    point = st.tuples(*(st.integers(int(c == lifted), 6) for c in range(d)))
    cap = MAX_POINTS[d]
    points = draw(st.lists(point.filter(any), min_size=1, max_size=cap, unique=True))
    for a in draw(st.lists(st.sampled_from(points), max_size=cap - len(points))):
        bump = draw(st.tuples(*[st.integers(0, 2)] * d))
        b = tuple(min(6, x + y) for x, y in zip(a, bump))
        if b not in points:
            points.append(b)
    return d, points


@settings(max_examples=250, deadline=None, derandomize=True)
@given(facet_supports())
def test_double_description_matches_brute_force(case):
    d, points = case
    assert newton._facet_normals(points, d) == facet_reference._facet_normals(
        points, d
    )


def test_double_description_matches_brute_force_on_members():
    for family, n in MEMBERS:
        points = list(support(generator(family, n)))
        d = len(points[0])
        expected = facet_reference._facet_normals(points, d)
        assert newton._facet_normals(points, d) == expected, (family, n)


def fraction_t0_primal(pts, d):
    """Reference: the same Bland simplex as newton._simplex, pivoted over
    Fraction row by row, as the oracle computed it before it went
    fraction-free."""
    n = len(pts)
    t_col = n + d
    rows = [
        [Fraction(a[c]) for a in pts]
        + [Fraction(int(k == c)) for k in range(d)]
        + [Fraction(-1), Fraction(0)]
        for c in range(d)
    ]
    rows.append([Fraction(1)] * n + [Fraction(0)] * (d + 1) + [Fraction(1)])
    rows.append([Fraction(0)] * (n + d) + [Fraction(1), Fraction(0)])
    basis = [n + c for c in range(d)] + [None]

    def pivot(r, j):
        inv = 1 / rows[r][j]
        rows[r] = [v * inv for v in rows[r]]
        for i, row in enumerate(rows):
            factor = row[j]
            if i != r and factor != 0:
                rows[i] = [a - factor * b for a, b in zip(row, rows[r])]
        basis[r] = j

    start = min(range(n), key=lambda i: max(pts[i]))
    top = max(range(d), key=lambda c: pts[start][c])
    pivot(d, start)
    pivot(top, t_col)
    while True:
        objective = rows[-1]
        entering = next((j for j in range(t_col + 1) if objective[j] < 0), None)
        if entering is None:
            break
        leaving = min(
            (rows[r][-1] / rows[r][entering], basis[r], r)
            for r in range(d + 1)
            if rows[r][entering] > 0
        )
        pivot(leaving[2], entering)
    values = [Fraction(0)] * (t_col + 1)
    for r, j in enumerate(basis):
        values[j] = rows[r][-1]
    return values[t_col], values[:n], objective[n:t_col]


def reference_supports():
    rng = random.Random(1968)
    # three points tie for the start vertex, and the optimum is degenerate
    yield [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    yield [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
    for k in range(600):
        d = 1 + k % 5
        # small exponent boxes give many ties and degenerate optima
        max_exp = (1, 2, 3, 6, 9)[k // 5 % 5]
        n = rng.randint(1, min(10, (max_exp + 1) ** d - 1))
        yield random_support(rng, d, n, max_exp)


SOLVE = newton._t0_primal


def as_fractions(t, lam, w, den):
    """The solver's numerators over den as the Fractions they stand for."""
    return (
        Fraction(t, den),
        [Fraction(v, den) for v in lam],
        [Fraction(v, den) for v in w],
    )


def test_integer_simplex_matches_fraction_reference():
    # _simplex itself, so that the supports that _t0_primal reads off their
    # pure powers (the hand-written tie and one random support) still pin
    # Bland's degenerate pivots
    checked = 0
    for points in reference_supports():
        d = len(points[0])
        t, lam, w, den = newton._simplex(points, d)
        assert all(type(v) is int for v in [t, *lam, *w, den])
        assert den >= 1
        assert as_fractions(t, lam, w, den) == fraction_t0_primal(points, d)
        checked += 1
    assert checked >= 500


# -- the pure-power vertex ---------------------------------------------------


def pure_power_hyperplane(points, d):
    """The index of each axis' least pure power A_c * e_c, and each point's
    sum_c a_c / A_c, which is 1 on their hyperplane; None when an axis has
    no pure power."""
    at = {}  # axis c -> index of its least pure power
    for i, a in enumerate(points):
        axes = [c for c in range(d) if a[c]]
        if len(axes) == 1:
            c = axes[0]
            if c not in at or a[c] < points[at[c]][c]:
                at[c] = i
    if len(at) < d:
        return None
    least = [points[at[c]][c] for c in range(d)]
    sums = [sum(Fraction(e, A) for e, A in zip(a, least)) for a in points]
    return [at[c] for c in range(d)], sums


def nothing_below(points, d):
    """Every axis has a pure power, and no point lies below the hyperplane
    of the least ones; points on it are allowed."""
    plane = pure_power_hyperplane(points, d)
    return plane is not None and min(plane[1]) >= 1


def pure_power_vertex(points, d):
    """(t, lam, w, den) in closed form: t = L = lcm(A_c), w_c = L / A_c,
    lam = w_c on axis c's least pure power and 0 elsewhere, den = sum(w)."""
    at, _ = pure_power_hyperplane(points, d)
    least = [points[i][c] for c, i in enumerate(at)]
    t = lcm(*least)
    w = [t // e for e in least]
    lam = [0] * len(points)
    for i, v in zip(at, w):
        lam[i] = v
    return t, lam, w, sum(w)


def assert_matches_reference(points, d, result, pivots):
    """No pivot and the closed form when nothing lies below. On a tie, a
    point besides the d least pure powers on their hyperplane, only the
    Fraction reference's t, since Bland's simplex may stop at another
    optimal basis; the reference's whole answer otherwise."""
    expected = fraction_t0_primal(points, d)
    if nothing_below(points, d):
        assert pivots == 0
        assert result == pure_power_vertex(points, d)
        if pure_power_hyperplane(points, d)[1].count(1) > d:
            assert as_fractions(*result)[0] == expected[0]
            return
    assert as_fractions(*result) == expected


def solve_counting_pivots(points, d):
    """The solver's answer, certified, and the number of pivots it took."""
    calls = []
    pivot = newton._pivot

    def counting(*args):
        calls.append(args[1:3])
        return pivot(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(newton, "_pivot", counting)
        result = SOLVE(points, d)
    newton._check_certificate(points, *result)
    return result, len(calls)


@pytest.mark.parametrize(
    "text, variables, vertex",
    [
        ("x^2 + y^3 + z^5", "xyz", True),
        # a second pure power on x; lam sits on x^2
        ("x^2 + x^3 + y^2 + z^2", "xyz", True),
        ("x^3 + x^5", "x", True),
        *[(str(generator("A", n)), "xyz", True) for n in range(1, 21)],
        (str(generator("E6")), "xyz", True),
        (str(generator("E8")), "xyz", True),
        # x*y lies on the hyperplane of x^2, y^2 and z^2
        ("x^2 + y^2 + z^2 + x*y", "xyz", True),
        # a disguised A1: x*y on the hyperplane, x^5 above it
        ("2*z^2+(y+2*x)^2+3*x^5", "xyz", True),
        # x*y, y*z and x*z all on the hyperplane
        ("(x+y+z)^2", "xyz", True),
        # x*y*z lies below the hyperplane of x^4, y^4 and z^4
        ("x^4 + y^4 + z^4 + x*y*z", "xyz", False),
        # E7 has no pure power of z, D6 none of y
        (str(generator("E7")), "xyz", False),
        (str(generator("D", 6)), "xyz", False),
    ],
)
def test_pure_power_vertex_needs_no_pivot(text, variables, vertex):
    points = list(support(parse_poly(text, GAUSS, tuple(variables))))
    d = len(variables)
    assert nothing_below(points, d) is vertex
    result, pivots = solve_counting_pivots(points, d)
    assert (pivots == 0) is vertex
    assert_matches_reference(points, d, result, pivots)


@st.composite
def pure_power_supports(draw):
    """(d, points): the least pure powers A_c * e_c, A_c in 1-9, with extra
    points drawn strictly above, on or below their hyperplane
    sum_c a_c / A_c = 1, in drawn order. A point drawn below may be a pure
    power with a smaller exponent, which then becomes its axis' least."""
    d = draw(st.integers(1, 5))
    least = draw(st.lists(st.integers(1, 9), min_size=d, max_size=d))
    points = {tuple(e * (k == c) for k in range(d)) for c, e in enumerate(least)}
    # every nonzero point on or below the hyperplane w . a = L, w_c = L / A_c
    order = lcm(*least)
    w = [order // e for e in least]
    side = {"below": [], "on": []}

    def walk(prefix, total):
        if len(prefix) == d:
            if 0 < total < order:
                side["below"].append(prefix)
            elif total == order and prefix not in points:
                side["on"].append(prefix)
            return
        weight = w[len(prefix)]
        for x in range((order - total) // weight + 1):
            walk(prefix + (x,), total + x * weight)

    walk((), 0)
    for kind in draw(st.lists(st.sampled_from(["above", "on", "below"]), max_size=6)):
        if kind == "above":
            # adding A_c to a_c of a nonzero point lifts it past the hyperplane
            a = list(draw(st.tuples(*[st.integers(0, 9)] * d).filter(any)))
            c = draw(st.integers(0, d - 1))
            a[c] += least[c]
            points.add(tuple(a))
        elif side[kind]:
            points.add(draw(st.sampled_from(side[kind])))
    return d, draw(st.permutations(sorted(points)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pure_power_supports())
def test_pure_power_vertex_matches_fraction_reference(case):
    d, points = case
    assert_matches_reference(points, d, *solve_counting_pivots(points, d))


def _tampered(change):
    """The solver with `change` applied to its Fraction values, the forged
    values put back on one common denominator."""

    def solve(pts, d):
        t, lam, w = as_fractions(*SOLVE(pts, d))
        t, lam, w = change(t, list(lam), list(w))
        den = lcm(*(v.denominator for v in [t, *lam, *w]))
        return int(t * den), [int(v * den) for v in lam], [int(v * den) for v in w], den

    return solve


@pytest.mark.parametrize(
    "change",
    [
        # a claimed t0 below the optimum: no feasible lam reaches it
        lambda t, lam, w: (t - Fraction(1, 1000), lam, w),
        # a claimed t0 above the optimum: lam is feasible, but w does not reach it
        lambda t, lam, w: (t + Fraction(1, 1000), lam, w),
        # lam moved off the simplex
        lambda t, lam, w: (t, [lam[0] + 1, lam[1] - 1] + lam[2:], w),
        # lam moved along the simplex, to a vertex beyond t
        lambda t, lam, w: (t, [Fraction(1)] + [Fraction(0)] * (len(lam) - 1), w),
        # w scaled off the simplex
        lambda t, lam, w: (t, lam, [2 * c for c in w]),
        # w moved along the simplex, to a weaker bound
        lambda t, lam, w: (t, lam, [Fraction(1)] + [Fraction(0)] * (len(w) - 1)),
    ],
    ids=["t-low", "t-high", "lam-negative", "lam-vertex", "w-scaled", "w-vertex"],
)
def test_tampered_certificate_is_rejected(monkeypatch, change):
    monkeypatch.setattr(newton, "_t0_primal", _tampered(change))
    with pytest.raises(InternalInconsistencyError):
        lambda_newton(parse_poly("x^2 + y^3 + z^5"))


@pytest.mark.parametrize(
    "change",
    [
        # every value over 0: no denominator at all
        lambda t, lam, w, den: (t, lam, w, 0),
        # every numerator and den negated: the same rationals, den < 1
        lambda t, lam, w, den: (-t, [-c for c in lam], [-c for c in w], -den),
    ],
    ids=["den-zero", "den-negated"],
)
def test_forged_denominator_is_rejected(monkeypatch, change):
    monkeypatch.setattr(newton, "_t0_primal", lambda pts, d: change(*SOLVE(pts, d)))
    with pytest.raises(InternalInconsistencyError, match="denominator"):
        lambda_newton(parse_poly("x^2 + y^3 + z^5"))


QUARTER = Fraction(1, 4)


@pytest.mark.parametrize(
    "text, variables, change",
    [
        # lam scaled off the simplex: its point stays below t0
        ("x^2 + y^3 + z^5", "xyz", lambda t, lam, w: (t, [c / 2 for c in lam], w)),
        # t0 and w scaled together: min_i w . a_i still equals the claimed t0
        ("x^2 + y^3 + z^5", "xyz", lambda t, lam, w: (2 * t, lam, [2 * c for c in w])),
        # a negative weight on x^3 keeps the point (3/4, 1) below t0 = 1
        (
            "x^2 + y^2 + x^3",
            "xy",
            lambda t, lam, w: (t, [lam[0] + QUARTER, lam[1], lam[2] - QUARTER], w),
        ),
        # a negative weight on the absent z keeps min_i w . a_i = t0 = 1
        (
            "x^2 + y^2",
            "xyz",
            lambda t, lam, w: (t, lam, [w[0], w[1] + QUARTER, w[2] - QUARTER]),
        ),
    ],
    ids=["lam-halved", "t-and-w-doubled", "lam-negative-inside", "w-negative-inside"],
)
def test_each_simplex_condition_of_the_certificate_is_needed(
    monkeypatch, text, variables, change
):
    # each forgery passes every other check, so only sum = 1 or >= 0 of
    # lam or w can reject it
    monkeypatch.setattr(newton, "_t0_primal", _tampered(change))
    with pytest.raises(InternalInconsistencyError, match="convex|dual-feasible"):
        lambda_newton(parse_poly(text, GAUSS, tuple(variables)))


@pytest.mark.parametrize(
    "family, n", [("A", 1), ("A", 4), ("D", 5), ("E6", None), ("E7", None), ("E8", None)]
)
def test_primal_point_one_unit_above_t0_is_rejected(family, n):
    # The solver's own certificate passes; lowering t by one numerator unit
    # leaves the primal point exactly one unit above it, which the primal
    # bound alone must catch before the duality gap does.
    pts = list(support(generator(family, n)))
    t, lam, w, den = SOLVE(pts, len(pts[0]))
    newton._check_certificate(pts, t, lam, w, den)
    with pytest.raises(InternalInconsistencyError, match="exceeds t0"):
        newton._check_certificate(pts, t - 1, lam, w, den)


def test_tampered_t0_is_caught_by_facets():
    nd = lambda_newton(generator("E6"))
    forged = dataclasses.replace(nd, t0=nd.t0 + 1)
    with pytest.raises(InternalInconsistencyError):
        forged.facet_normals


@pytest.mark.parametrize(
    "text, variables, value",
    [
        ("x^3", ("x",), Fraction(1, 3)),
        # y and z are absent: the diagonal meets {x >= 2} at t = 2
        ("x^2", ("x", "y", "z"), Fraction(1, 2)),
        # D6 has no pure power of y, E7 none of z
        ("x^2 + y^2*z + z^5", ("x", "y", "z"), Fraction(11, 10)),
        ("x^2 + y^3 + y*z^3", ("x", "y", "z"), Fraction(19, 18)),
        # three points tie for the start vertex, and the optimum is degenerate
        ("x^2 + y^2 + z^2 + x*y + y*z + x*z", ("x", "y", "z"), Fraction(3, 2)),
        ("x*y + y*z + x*z", ("x", "y", "z"), Fraction(3, 2)),
    ],
)
def test_edge_supports(text, variables, value):
    nd = lambda_newton(parse_poly(text, GAUSS, variables))
    assert nd.lambda_np == value
    # reading the facets cross-checks them against the certified t0
    assert max(Fraction(order, sum(w)) for w, order in nd.facet_normals) == nd.t0


def test_five_variables_thirty_two_terms_match_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    points = random_support(random.Random(32), 5, 32, max_exp=9)
    nd = lambda_newton(support_poly(points))
    n, d = len(points), 5
    res = linprog(
        [0.0] * n + [1.0],
        A_ub=[[float(a[c]) for a in points] + [-1.0] for c in range(d)],
        b_ub=[0.0] * d,
        A_eq=[[1.0] * n + [0.0]],
        b_eq=[1.0],
        bounds=[(0, None)] * (n + 1),
        method="highs",
    )
    assert res.status == 0
    assert abs(float(nd.t0) - res.fun) < 1e-9
