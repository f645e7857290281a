"""Exact arithmetic over small number fields and sparse polynomial rings."""

from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_element, random_poly
from lctkit import (
    EISENSTEIN,
    FieldError,
    FieldMismatchError,
    GAUSS,
    NumberField,
    Polynomial,
    RATIONALS,
    VariableMismatchError,
    ZeroDivisorError,
    generator,
    lambda_newton,
    parse_poly,
)

VARS = ("x", "y", "z")


def el(field, *coeffs):
    return field.element([Fraction(c) for c in coeffs])


# -- number fields -----------------------------------------------------------


def test_gauss_norm():
    one_plus_i = el(GAUSS, 1, 1)
    one_minus_i = el(GAUSS, 1, -1)
    assert one_plus_i * one_minus_i == GAUSS.rational(2)
    assert GAUSS.generator() ** 2 == GAUSS.rational(-1)


def test_eisenstein_relation():
    j = EISENSTEIN.generator()
    assert j * j == -1 - j
    assert j**3 == EISENSTEIN.one()


def test_inverse_round_trip():
    a = el(GAUSS, 3, 4)
    assert a * a.inverse() == GAUSS.one()
    assert (GAUSS.one() / a) * a == GAUSS.one()


def test_zero_divisor_detected():
    # (t^2 + 1)(t^2 + 2) is squarefree with no rational root, so make()
    # accepts it, yet Q[t]/(t^4 + 3t^2 + 2) has zero divisors.
    ring = NumberField.make([2, 0, 3, 0, 1], "a")
    a = ring.generator()
    with pytest.raises(ZeroDivisorError):
        (ring.one() + a * a).inverse()


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisorError):
        GAUSS.zero().inverse()


def test_make_rejects_bad_minpoly():
    with pytest.raises(FieldError):
        NumberField.make([1], "a")
    with pytest.raises(FieldError):
        NumberField.make([1, 0, 2], "a")
    with pytest.raises(FieldError):
        NumberField.make([1, 0, 1], "not an identifier!")


@pytest.mark.parametrize(
    "minpoly",
    [
        [-1, 0, 1],  # t^2 - 1 = (t - 1)(t + 1)
        [1, 0, 2, 0, 1],  # (t^2 + 1)^2
        [0, -1, 0, 1],  # t^3 - t
        [Fraction(-1, 4), 0, 1],  # t^2 - 1/4
    ],
)
def test_make_rejects_reducible_minpoly(minpoly):
    with pytest.raises(FieldError):
        NumberField.make(minpoly, "a")


def test_make_accepts_irrational_roots():
    # t^2 - 2 has the candidates +-1, +-2 of the rational-root test, none a root
    assert NumberField.make([-2, 0, 1], "a").degree == 2


def trial_division_root(coeffs):
    """Reference rational-root test: try every p/q with p | a_0 and q | a_n."""
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    if ints[0] == 0:
        return True

    def divisors(n):
        small = [k for k in range(1, isqrt(abs(n)) + 1) if n % k == 0]
        return small + [abs(n) // k for k in small]

    return any(
        sum(c * Fraction(s * p, q) ** k for k, c in enumerate(ints)) == 0
        for p in divisors(ints[0])
        for q in divisors(ints[-1])
        for s in (1, -1)
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(
        st.lists(st.fractions(-6, 6, max_denominator=3), min_size=1, max_size=3),
        min_size=1,
        max_size=3,
    )
)
def test_rational_root_test_matches_trial_division(tails):
    # A product of monic factors of degree 1-3, so rational roots are common;
    # from degree 3 on, make() decides them by Sturm bisection.
    poly = [Fraction(1)]
    for tail in tails:
        factor = tail + [Fraction(1)]
        out = [Fraction(0)] * (len(poly) + len(tail))
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        poly = out
    assume(len(poly) > 2)
    try:
        NumberField.make(poly, "a")
    except FieldError as err:
        assume("squarefree" not in str(err))
        assert "rational root" in str(err)
        assert trial_division_root(poly)
    else:
        assert not trial_division_root(poly)


def test_rationals_degree_one():
    assert RATIONALS.degree == 1
    assert RATIONALS.rational(Fraction(2, 3)).as_fraction() == Fraction(2, 3)


def test_as_fraction_requires_rational():
    with pytest.raises(FieldError):
        GAUSS.generator().as_fraction()


# -- polynomial ring basics --------------------------------------------------


def test_ring_mismatch_rejected():
    p = Polynomial.variable(GAUSS, VARS, "x")
    q = Polynomial.variable(RATIONALS, VARS, "x")
    with pytest.raises(FieldMismatchError):
        p + q
    r = Polynomial.variable(GAUSS, ("x", "y"), "x")
    with pytest.raises(VariableMismatchError):
        p * r


def test_power_matches_repeated_product():
    f = parse_poly("x + y + 1")
    g = f
    for k in range(1, 6):
        assert f**k == g
        g = g * f
    assert f**0 == Polynomial.one(GAUSS, VARS)


def test_scalar_division():
    assert parse_poly("3*x + 6*y") / 3 == parse_poly("x + 2*y")
    with pytest.raises(ZeroDivisorError):
        parse_poly("x") / 0


def test_unit_and_constant_term():
    assert parse_poly("1 + x").is_unit_at_origin()
    assert not parse_poly("x + y^2").is_unit_at_origin()
    assert parse_poly("2 + x").constant_term == GAUSS.rational(2)


def test_degree_order_coefficient():
    f = parse_poly("x^2*y + x*y^3 + y")
    assert f.degree_in("x") == 2
    assert f.order_in("x") == 0
    assert f.order_in("y") == 1
    assert f.coefficient_of("x", 1) == parse_poly("y^3")
    assert f.coefficient_of("x", 2) == parse_poly("y")


def test_partial_derivative():
    f = parse_poly("x^3 + x*y^2 + 5")
    assert f.partial("x") == parse_poly("3*x^2 + y^2")
    assert f.partial("z") == Polynomial.zero(GAUSS, VARS)


def test_monomial_and_coordinate_content():
    f = parse_poly("x^3*y^2 + x^2*y^2 + x^2*y^4")
    k, g = f.monomial_content("x")
    assert k == 2 and g == parse_poly("x*y^2 + y^2 + y^4")
    exps, strict = f.coordinate_content()
    assert exps == {"x": 2, "y": 2}
    assert strict == parse_poly("1 + x + y^2")
    assert strict.coordinate_content()[0] == {}


def test_evaluate_exact():
    f = parse_poly("x^2 + (1+i)*y")
    val = f.evaluate([GAUSS.rational(2), GAUSS.generator(), GAUSS.zero()])
    assert val == el(GAUSS, 3, 1)


# -- ring axioms and substitution, randomized --------------------------------

elements = st.builds(
    lambda cs: GAUSS.element(cs),
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=4),
        min_size=2,
        max_size=2,
    ),
)


@st.composite
def polys(draw, max_terms=4, max_exp=3):
    total = Polynomial.zero(GAUSS, VARS)
    for _ in range(draw(st.integers(0, max_terms))):
        exps = {v: draw(st.integers(0, max_exp)) for v in VARS}
        total = total + Polynomial.monomial(GAUSS, VARS, exps, draw(elements))
    return total


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys())
def test_neutral_elements(f):
    zero = Polynomial.zero(GAUSS, VARS)
    one = Polynomial.one(GAUSS, VARS)
    assert f + zero == f
    assert f * one == f
    assert f - f == zero
    assert f * zero == zero


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=2), polys(max_terms=2, max_exp=2))
def test_substitution_is_a_ring_map(f, g, s):
    subs = {"x": s}
    assert (f + g).substitute(subs) == f.substitute(subs) + g.substitute(subs)
    assert (f * g).substitute(subs) == f.substitute(subs) * g.substitute(subs)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(polys(max_terms=3, max_exp=2))
def test_substitution_identity_and_composition(f):
    x = Polynomial.variable(GAUSS, VARS, "x")
    assert f.substitute({"x": x}) == f
    # substituting a constant then evaluating equals evaluating directly
    two = Polynomial.constant(GAUSS, VARS, 2)
    point = [GAUSS.rational(2), GAUSS.rational(1), GAUSS.rational(-1)]
    assert f.substitute({"x": two}).evaluate(point) == f.evaluate(point)


# -- fast paths against a schoolbook reference -------------------------------
#
# The reference works on plain data: an element is a tuple of Fractions in the
# power basis, a polynomial a dict from exponent tuples to such tuples. It
# never calls FieldElement or Polynomial arithmetic, so it shares no fast path.

CUBIC = NumberField.make([-2, 0, 0, 1], "c")  # t^3 - 2
FIELDS = (GAUSS, EISENSTEIN, CUBIC)


def convolve(field, a, b):
    """Full convolution of two coordinate tuples, reduced by t^m = -tail."""
    m = field.degree
    prod = [Fraction(0)] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * m - 2, m - 1, -1):
        for j, tc in enumerate(field.minpoly_tail):
            prod[k - m + j] -= prod[k] * tc
    return tuple(prod[:m])


def schoolbook(field, f, g):
    """Product of two term dicts, dropping coefficients that cancel to 0."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            prev = out.get(exps, (Fraction(0),) * field.degree)
            out[exps] = tuple(p + q for p, q in zip(prev, convolve(field, c1, c2)))
    return {e: c for e, c in out.items() if any(c)}


def plain(poly):
    return {e: c.coeffs for e, c in poly.terms.items()}


coords = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def field_coeffs(draw, field):
    """Coordinates of a nonzero element; rational or 1 about half the time."""
    kind = draw(st.sampled_from(["one", "rational", "any", "any"]))
    if kind == "one":
        return (Fraction(1),) + (Fraction(0),) * (field.degree - 1)
    head = draw(coords.filter(bool))
    if kind == "rational":
        return (head,) + (Fraction(0),) * (field.degree - 1)
    return (head,) + tuple(draw(coords) for _ in range(field.degree - 1))


@st.composite
def ring_terms(draw, field, max_terms=5, max_exp=4):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(VARS))
    keys = draw(st.lists(exps, max_size=max_terms, unique=True))
    return {e: draw(field_coeffs(field)) for e in keys}


@st.composite
def field_and(draw, *parts):
    field = draw(st.sampled_from(FIELDS))
    return (field,) + tuple(draw(part(field)) for part in parts)


def as_poly(field, terms):
    return Polynomial(field, VARS, {e: field.element(c) for e, c in terms.items()})


def one_term(field):
    return ring_terms(field, max_terms=1).filter(bool)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(field_and(one_term, ring_terms))
def test_one_term_factor_matches_schoolbook(case):
    field, mono, other = case
    expected = schoolbook(field, mono, other)
    m, f = as_poly(field, mono), as_poly(field, other)
    assert plain(m * f) == expected
    assert plain(f * m) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(field_and(one_term))
def test_one_term_powers_match_repeated_products(case):
    field, mono = case
    m = as_poly(field, mono)
    expected = {(0,) * len(VARS): field.one().coeffs}
    for n in range(8):
        assert plain(m**n) == expected
        expected = schoolbook(field, expected, mono)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(field_and(field_coeffs), coords)
def test_rational_element_product_is_full_convolution(case, r):
    field, coeffs = case
    rational = (r,) + (Fraction(0),) * (field.degree - 1)
    a, q = field.element(coeffs), field.element(rational)
    expected = convolve(field, rational, coeffs)
    assert (q * a).coeffs == expected
    assert (a * q).coeffs == expected
    power = field.one().coeffs
    for n in range(5):
        assert (q**n).coeffs == power
        power = convolve(field, power, rational)


def test_zero_product_of_one_term_factors_is_dropped():
    # (1 + a^2)(2 + a^2) = a^4 + 3a^2 + 2 = 0 in Q[t]/(t^4 + 3t^2 + 2), which
    # make() accepts, so the product of the two nonzero terms is the zero
    # polynomial and must store no term at all.
    ring = NumberField.make([2, 0, 3, 0, 1], "a")
    a = Polynomial.constant(ring, VARS, ring.generator())
    x, y = (Polynomial.variable(ring, VARS, v) for v in ("x", "y"))
    left, right = (1 + a * a) * x, (2 + a * a) * y
    assert len(left.terms) == len(right.terms) == 1
    product = left * right
    assert product.terms == {}
    assert product.is_zero()
    assert (right * left).terms == {}


def test_seeded_generator_shapes():
    import random

    rng = random.Random(0)
    f = random_poly(rng)
    g = random_element(rng, zero_ok=False)
    assert f.field is GAUSS
    assert g


# -- quasihomogeneity of the catalogue generators ----------------------------


def positive_facet(f):
    """The unique facet normal with all-positive weights."""
    data = lambda_newton(f)
    hits = [(w, n) for w, n in data.facet_normals if all(c > 0 for c in w)]
    assert len(hits) == 1
    return hits[0]


@pytest.mark.parametrize(
    "family,n",
    [("A", n) for n in range(1, 21)]
    + [("D", n) for n in range(4, 13)]
    + [("E6", None), ("E7", None), ("E8", None)],
)
def test_euler_identity_on_catalogue(family, n):
    # weighted Euler identity: sum_i w_i x_i df/dx_i = N f for the facet weights
    f = generator(family, n)
    weights, order = positive_facet(f)
    total = Polynomial.zero(f.field, f.variables)
    for w, v in zip(weights, f.variables):
        total = total + Polynomial.variable(f.field, f.variables, v) * f.partial(v) * w
    assert total == f * order
