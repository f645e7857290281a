"""Exact arithmetic over small number fields and sparse polynomial rings."""

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add

import pytest
from hypothesis import assume, given, settings, strategies as st

import field_reference
from conftest import EISENSTEIN, RATIONALS, random_element, random_poly
from lctkit import (
    FieldError,
    FieldMismatchError,
    GAUSS,
    NumberField,
    Polynomial,
    VariableMismatchError,
    ZeroDivisorError,
    generator,
    lambda_newton,
    parse_poly,
)
from lctkit.algebra import _Substitution, _add_into, _mul_terms, _pow_terms
from lctkit.catalogue import MEMBERS

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


@pytest.mark.parametrize(
    "build",
    [
        lambda: NumberField.make([2, 0, 3, 0, 1], "a"),  # (t^2 + 1)(t^2 + 2)
        lambda: NumberField.make([1, 0, 0, 0, 1], "a"),  # t^4 + 1, irreducible
        lambda: NumberField("a", (2, 0, 3, 0)),  # make() is not the only door
    ],
    ids=["t^4+3t^2+2", "t^4+1", "direct"],
)
def test_degree_four_is_refused(build):
    # No rational root does not prove a quartic irreducible, so the field
    # refuses every modulus above degree 3, whichever way it is built.
    with pytest.raises(FieldError, match="^minimal polynomial must have degree"):
        build()


def test_direct_construction_runs_the_checks():
    assert NumberField("i", (1, 0)) == GAUSS
    with pytest.raises(FieldError, match="rational root"):
        NumberField("a", (-1, 0))
    with pytest.raises(FieldError, match="squarefree"):
        NumberField("a", (1, 2))
    with pytest.raises(FieldError, match="generator name"):
        NumberField("not a name", (1, 0))


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


# Every ordered split of degree 2 or 3 into factors of degree 1-3: the
# factor lists whose product make() can accept.
SPLITS = ((2,), (1, 1), (3,), (1, 2), (2, 1), (1, 1, 1))
TAIL_COEFFS = st.fractions(-6, 6, max_denominator=3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(SPLITS).flatmap(
        lambda split: st.tuples(
            *(st.lists(TAIL_COEFFS, min_size=d, max_size=d) for d in split)
        )
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
    assert 2 < len(poly) <= 4
    try:
        NumberField.make(poly, "a")
    except FieldError as err:
        assume("squarefree" not in str(err))
        assert "rational root" in str(err)
        assert trial_division_root(poly)
    else:
        assert not trial_division_root(poly)


def monic_product(tails):
    """The coefficients, low degree first, of the product of the monic
    factors with these tails."""
    poly = [Fraction(1)]
    for tail in tails:
        factor = list(tail) + [Fraction(1)]
        out = [Fraction(0)] * (len(poly) + len(tail))
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        poly = out
    return poly


def squarefree_verdict(poly):
    """False iff make() refuses the modulus as not squarefree."""
    try:
        NumberField.make(poly, "a")
    except FieldError as err:
        return "squarefree" not in str(err)
    return True


# Products of degree 2 or 3 that repeat a monic factor: f^2 and f^3 with f
# linear, f^2 * g with f and g linear, in either order.
LINEAR = st.lists(TAIL_COEFFS, min_size=1, max_size=1)
REPEATS = st.one_of(
    LINEAR.map(lambda f: (f, f)),
    LINEAR.map(lambda f: (f, f, f)),
    st.tuples(LINEAR, LINEAR).map(lambda fg: (fg[0], fg[1], fg[0])),
    st.tuples(LINEAR, LINEAR).map(lambda fg: (fg[0], fg[0], fg[1])),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(
        REPEATS,
        st.sampled_from(SPLITS).flatmap(
            lambda split: st.tuples(
                *(st.lists(TAIL_COEFFS, min_size=d, max_size=d) for d in split)
            )
        ),
    )
)
def test_squarefree_verdict_matches_extended_gcd(tails):
    # The field reads the verdict off the end of the Sturm chain; the
    # reference takes the gcd of the modulus and its derivative.
    poly = monic_product(tails)
    assert squarefree_verdict(poly) == field_reference.squarefree(poly)


@pytest.mark.parametrize(
    "poly",
    [
        monic_product([[-1], [-1], [2]]),  # (t - 1)^2 (t + 2)
        [0, 0, 0, 1],  # t^3
        monic_product([[Fraction(1, 2)]] * 3),  # (t + 1/2)^3
        [1, 2, 1],  # t^2 + 2t + 1
    ],
    ids=["(t-1)^2(t+2)", "t^3", "(t+1/2)^3", "t^2+2t+1"],
)
def test_repeated_factor_is_not_squarefree(poly):
    # Every such modulus also has a rational root; squarefreeness is
    # checked first, so the error names it.
    assert not field_reference.squarefree(poly)
    with pytest.raises(FieldError, match="^minimal polynomial must be squarefree$"):
        NumberField.make(poly, "a")


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


@pytest.mark.parametrize("bad", [-1, 1.0, "1", None, True, False])
def test_constructor_rejects_non_integer_exponents(bad):
    with pytest.raises(ValueError):
        Polynomial(GAUSS, VARS, {(1, bad, 0): GAUSS.one()})


def test_constructor_checks_outside_terms():
    with pytest.raises(VariableMismatchError):
        Polynomial(GAUSS, VARS, {(1, 0): GAUSS.one()})
    with pytest.raises(FieldMismatchError):
        Polynomial(GAUSS, VARS, {(1, 0, 0): EISENSTEIN.one()})
    f = Polynomial(GAUSS, VARS, {(1, 0, 0): 0, (0, 2, 0): Fraction(1, 2)})
    assert f.terms == {(0, 2, 0): GAUSS.rational(Fraction(1, 2))}
    assert Polynomial(GAUSS, VARS, {(0, 0, 1): GAUSS.zero()}).is_zero()


@pytest.mark.parametrize("bad", [-1, 1.0, "1", None, True, False])
def test_monomial_rejects_non_integer_exponents(bad):
    with pytest.raises(ValueError, match="non-negative integers"):
        Polynomial.monomial(GAUSS, VARS, {"x": 1, "y": bad})


def test_monomial_checks_variables_and_coefficients():
    with pytest.raises(VariableMismatchError, match="unknown variables"):
        Polynomial.monomial(GAUSS, VARS, {"x": 1, "w": 2})
    # variable and constant build through monomial, with its checks
    with pytest.raises(VariableMismatchError, match=r"unknown variables \['w'\]"):
        Polynomial.variable(GAUSS, VARS, "w")
    with pytest.raises(FieldMismatchError):
        Polynomial.constant(GAUSS, VARS, EISENSTEIN.one())
    with pytest.raises(FieldMismatchError):
        Polynomial.monomial(GAUSS, VARS, {"x": 1}, EISENSTEIN.one())
    with pytest.raises(TypeError):
        Polynomial.monomial(GAUSS, VARS, {"x": 1}, 1.0)
    assert Polynomial.monomial(GAUSS, VARS, {"y": 2}, 0).is_zero()
    for coeff in (1, Fraction(1, 2), GAUSS.element([0, 1])):
        f = Polynomial.monomial(GAUSS, VARS, {"x": 1, "z": 3}, coeff)
        assert f == Polynomial(GAUSS, VARS, {(1, 0, 3): coeff})


def test_power_matches_repeated_product():
    f = parse_poly("x + y + 1")
    g = f
    for k in range(1, 6):
        assert f**k == g
        g = g * f
    assert f**0 == Polynomial.constant(GAUSS, VARS, 1)


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
    exps, strict = f.coordinate_content()
    assert exps == {"x": 2, "y": 2}
    # the content in x alone: f = x^2 * (x*y^2 + y^2 + y^4)
    assert strict * parse_poly("y^2") == parse_poly("x*y^2 + y^2 + y^4")
    assert strict == parse_poly("1 + x + y^2")
    assert strict.coordinate_content()[0] == {}


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
    one = Polynomial.constant(GAUSS, VARS, 1)
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
    # substituting x := 2 and then the rest of the point equals
    # substituting the whole point at once
    c = lambda value: Polynomial.constant(GAUSS, VARS, value)
    rest = {"y": c(1), "z": c(-1)}
    stepwise = f.substitute({"x": c(2)}).substitute(rest)
    assert stepwise == f.substitute({"x": c(2), **rest})


# -- fast paths against a schoolbook reference -------------------------------
#
# The reference works on plain data: an element is a tuple of Fractions in the
# power basis, a polynomial a dict from exponent tuples to such tuples. It
# never calls FieldElement or Polynomial arithmetic, so it shares no fast path.

CUBIC = NumberField.make([-2, 0, 0, 1], "c")  # t^3 - 2
# t^2 + 1/3: the modulus tail is not integral, so the element product folds
# over the tail's denominator.
THIRD = NumberField.make([Fraction(1, 3), 0, 1], "s")
# t^3 - t/3 + 1/2: a cubic whose tail is not integral, so the product folds
# twice over the tail's denominator and the inverse has a denominator per
# column.
HALF_THIRD = NumberField.make([Fraction(1, 2), Fraction(-1, 3), 0, 1], "u")
FIELDS = (GAUSS, EISENSTEIN, CUBIC, THIRD, HALF_THIRD)


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


# With t^3 - t - 1, reducing t^3 = t + 1 mixes integral coordinates, which
# the pure cubic t^3 - 2 of FIELDS does not.
ACCEPTED = FIELDS + (RATIONALS, NumberField.make([-1, -1, 0, 1], "r"))


@st.composite
def nonzero_pair(draw):
    """An accepted field and two nonzero elements of it, any coordinate of
    which may be zero."""
    field = draw(st.sampled_from(ACCEPTED))
    vector = st.lists(coords, min_size=field.degree, max_size=field.degree)
    a, b = (draw(vector.filter(any)) for _ in range(2))
    return field, field.element(a), field.element(b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nonzero_pair())
def test_accepted_rings_have_no_zero_divisors(case):
    # Every modulus that make() accepts is irreducible, so the ring is a
    # field: the kernel stores a product of nonzero terms without a zero test.
    field, a, b = case
    assert a * b and b * a
    assert a * a.inverse() == field.one()
    assert (a * b) * b.inverse() == a


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nonzero_pair())
def test_inverse_matches_extended_gcd_reference(case):
    # Elimination on the multiplication matrix against the extended gcd.
    _, a, b = case
    for x in (a, b, a * b, a + b):
        if x:
            assert x.inverse() == field_reference.inverse(x)


# -- the field kernel against Fraction tuples ----------------------------------
#
# A FieldElement computes on integer numerators over one denominator. The
# reference is coordinate-wise Fraction arithmetic and `convolve`.


def assert_canonical(x):
    """Integer numerators over a positive denominator, in lowest terms."""
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.num) == 1


@st.composite
def coordinate_pair(draw):
    """A field of FIELDS and two coordinate tuples, either of which may be
    zero, rational or anything else."""
    field = draw(st.sampled_from(FIELDS))
    vector = st.one_of(
        st.lists(coords, min_size=field.degree, max_size=field.degree).map(tuple),
        field_coeffs(field),
    )
    return field, draw(vector), draw(vector)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(coordinate_pair(), st.integers(0, 5))
def test_field_kernel_matches_fraction_tuples(case, n):
    field, u, v = case
    a, b = field.element(u), field.element(v)
    results = [a + b, a - b, a * b, a**n]
    assert results[0].coeffs == tuple(x + y for x, y in zip(u, v))
    assert results[1].coeffs == tuple(x - y for x, y in zip(u, v))
    assert results[2].coeffs == convolve(field, u, v)
    power = field.one().coeffs
    for _ in range(n):
        power = convolve(field, power, u)
    assert results[3].coeffs == power
    if any(v):
        inverse, quotient = b.inverse(), a / b
        assert convolve(field, v, inverse.coeffs) == field.one().coeffs
        assert convolve(field, quotient.coeffs, v) == tuple(u)
        results += [inverse, quotient]
    for x in results:
        assert_canonical(x)


@pytest.mark.parametrize("field", FIELDS + (RATIONALS,), ids=lambda f: f.generator_name)
def test_one_value_has_one_form(field):
    # Equal values have equal numerators and denominator, so they compare
    # and hash equal however they were built.
    pad = [0] * (field.degree - 1)
    ways = {
        "half": [
            field.element([Fraction(2, 4)]),
            field.rational(Fraction(1, 2)),
            field.rational(1) / 2,
            field.one() - field.element([Fraction(3, 6)] + pad),
            field.rational(Fraction(3, 2)) * field.rational(Fraction(1, 3)),
        ],
        "zero": [
            field.zero(),
            field.element([Fraction(0, 5)]),
            field.rational(Fraction(1, 3)) - field.rational(Fraction(2, 6)),
            field.generator() - field.generator(),
        ],
        "generator": [
            field.generator(),
            field.generator() * 2 / 2,
            field.generator() * field.rational(Fraction(3, 7)) / Fraction(3, 7),
        ],
    }
    for values in ways.values():
        for x in values:
            assert_canonical(x)
            assert x == values[0] and hash(x) == hash(values[0])
            assert (x.num, x.den) == (values[0].num, values[0].den)
    assert ways["half"][0].den == 2 and ways["zero"][0].den == 1


def count_fractions(monkeypatch):
    """A list that gains one entry per Fraction constructed from here on."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return made


def test_integer_coefficients_build_no_fraction(monkeypatch):
    made = count_fractions(monkeypatch)
    text = "2*x^2 - 3*y^3*z + (x - y + z)^2 + i*z^5 - 7*x*y*z^2 + 5"
    f = parse_poly(text)
    assert GAUSS.rational(3) == GAUSS.element([3, 0])
    assert made == []
    # The counter sees the Fraction of a rational literal.
    assert parse_poly("1/2*x") * 2 == parse_poly("x")
    assert made
    monkeypatch.undo()
    assert str(f) == str(parse_poly(text))


def expand(field, f, images):
    """f with variable i replaced by images[i], by repeated schoolbook
    products; the other variables keep their exponents."""
    out = {}
    for exps, c in f.items():
        term = {tuple(0 if i in images else e for i, e in enumerate(exps)): c}
        for i, image in images.items():
            for _ in range(exps[i]):
                term = schoolbook(field, term, image)
        for e, v in term.items():
            prev = out.get(e, (Fraction(0),) * field.degree)
            out[e] = tuple(p + q for p, q in zip(prev, v))
    return {e: v for e, v in out.items() if any(v)}


@st.composite
def substitution_cases(draw):
    """A ring, f and images for at most all but one of VARS. Half the images
    have one term, with a coefficient that may be 1, rational or
    non-rational. Half the time a mapped variable p takes the image of
    another variable q, or q itself if q is unmapped, and f pairs terms with
    their negatives under the swap of p and q, so that image terms collide
    and cancel."""
    field = draw(st.sampled_from(FIELDS))
    f = draw(ring_terms(field, 4, 3))
    indices = st.integers(0, len(VARS) - 1)
    mapped = draw(st.lists(indices, max_size=len(VARS) - 1, unique=True))
    images = {}
    for i in mapped:
        wide = draw(st.booleans())
        images[i] = draw(ring_terms(field, 3, 2) if wide else one_term(field))
    if mapped and draw(st.booleans()):
        p = mapped[0]
        q = draw(indices.filter(lambda q: q != p))
        unit = tuple(int(k == q) for k in range(len(VARS)))
        images[p] = images.get(q, {unit: field.one().coeffs})
        for e, c in list(f.items()):
            swapped = list(e)
            swapped[p], swapped[q] = e[q], e[p]
            if draw(st.booleans()):
                f[tuple(swapped)] = tuple(-v for v in c)
    return field, f, images


@settings(max_examples=200, deadline=None, derandomize=True)
@given(substitution_cases(), st.data())
def test_substitute_matches_expansion(case, data):
    # One compiled map serves several polynomials of its ring, f again last,
    # so a wide image's memoized powers are both built and reused.
    field, f, images = case
    mapping = {VARS[i]: as_poly(field, image) for i, image in images.items()}
    assert plain(as_poly(field, f).substitute(mapping)) == expand(field, f, images)
    compiled = _Substitution(field, VARS, mapping)
    assert dict(compiled) == mapping
    others = data.draw(st.lists(ring_terms(field, 4, 3), min_size=1, max_size=3))
    for g in others + [f]:
        got = as_poly(field, g).substitute(compiled)
        assert got == as_poly(field, g).substitute(mapping)
        assert plain(got) == expand(field, g, images)


def raised(call):
    """The (type, message) of the error a call raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_compiled_map_of_another_ring_gets_the_full_checks():
    # A compiled map is folded as it is only on its own field object and
    # variable tuple; any other ring raises exactly what a plain dict does.
    mapping = {"x": parse_poly("x*z"), "y": parse_poly("y + i*z")}
    compiled = _Substitution(GAUSS, VARS, mapping)
    for field, variables, text in [
        (EISENSTEIN, VARS, "x^2 + y*z"),
        (RATIONALS, VARS, "x*y + z"),
        (GAUSS, ("u", "v", "w"), "u^2 + v"),
        (GAUSS, ("x", "y"), "x^2 + y^3"),
        (GAUSS, ("x", "y", "z", "w"), "x*w + y^2"),
    ]:
        f = parse_poly(text, field, variables)
        error = raised(lambda: f.substitute(compiled))
        assert error == raised(lambda: f.substitute(dict(mapping)))
        assert error[0] in (FieldMismatchError, VariableMismatchError)
    # An equal field that is another object takes the checked path and agrees.
    twin = NumberField.make((1, 0, 1), "i")
    assert twin == GAUSS and twin is not GAUSS
    f = parse_poly("x^2*y + i*y^3 + z", twin, VARS)
    expected = f.substitute({v: Polynomial(twin, VARS, p.terms) for v, p in mapping.items()})
    assert f.substitute(compiled) == expected


def power_expansion(f, name, image):
    """f with `name` replaced by image, one term at a time: the term's other
    exponents times image**e, each power taken by Polynomial.__pow__."""
    k = f.variables.index(name)
    out = Polynomial.zero(f.field, f.variables)
    for exps, c in f.terms.items():
        rest = Polynomial(f.field, f.variables, {exps[:k] + (0,) + exps[k + 1 :]: c})
        out = out + rest * image ** exps[k]
    return out


@pytest.mark.parametrize(
    "text",
    ["x^2*z^2 + (1+i)*y*z^7", "z^7 + x*z^2", "x^3 + z^2*y + i*z^3 + z^5*x", "x*y"],
)
def test_wide_image_powers_match_binary_powering(text):
    # Powers of a wide image are built incrementally, each from the next
    # lower exponent that f needs; here the z exponents are sparse.
    f = parse_poly(text)
    for image in ("z + i", "z + y - 2", "x*z + i*y + z^2"):
        img = parse_poly(image)
        assert f.substitute({"z": img}) == power_expansion(f, "z", img)


@st.composite
def sparse_z_cases(draw):
    """f with one term per z exponent from a sparse set up to 7, and a wide
    image for z."""
    field = draw(st.sampled_from(FIELDS))
    z_exponents = draw(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True))
    low = st.integers(0, 2)
    f = {(draw(low), draw(low), e): draw(field_coeffs(field)) for e in z_exponents}
    image = draw(ring_terms(field, 3, 1).filter(lambda t: len(t) > 1))
    return as_poly(field, f), as_poly(field, image)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sparse_z_cases())
def test_sparse_exponents_of_a_wide_image(case):
    f, img = case
    assert f.substitute({"z": img}) == power_expansion(f, "z", img)


def test_seeded_generator_shapes():
    import random

    rng = random.Random(0)
    f = random_poly(rng)
    g = random_element(rng, zero_ok=False)
    assert f.field is GAUSS
    assert g


# -- the term-dict kernel against the element-by-element product ---------------
#
# The reference is the element-by-element product and binary power that the
# kernel replaced for integral rational coefficients: every pair of terms
# multiplied as FieldElements and summed into the output with `_add_into`.
# It is kept here verbatim, so the kernel must match it term for term and in
# the order of the terms; other inputs still take this route inside it.


def _mul_terms_by_elements(f, g):
    if len(f) == 1:
        f, g = g, f
    if len(g) == 1:
        (shift, c), = g.items()
        if c.den == 1 and c.num[0] == 1 and c.is_rational:
            return {tuple(map(add, e, shift)): a for e, a in f.items()}
        return {tuple(map(add, e, shift)): a * c for e, a in f.items()}
    out = {}
    for e1, c1 in f.items():
        _add_into(out, {tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in g.items()})
    return out


def _pow_terms_by_elements(f, n, one):
    out, base = one, f
    while n:
        if n & 1:
            out = _mul_terms_by_elements(out, base)
        n >>= 1
        if n:
            base = _mul_terms_by_elements(base, base)
    return out


integers = st.integers(-9, 9)


@st.composite
def kernel_terms(draw, field, max_terms=4, max_exp=3):
    """A term dict whose coefficients are integral about two times in three
    (rational or not), else anything field_coeffs draws."""
    exps = st.tuples(*[st.integers(0, max_exp)] * len(VARS))
    keys = draw(st.lists(exps, max_size=max_terms, unique=True))
    integral = draw(st.integers(0, 2))
    terms = {}
    for e in keys:
        if integral:
            head = draw(integers.filter(bool))
            tail = [draw(integers) if integral == 2 else 0 for _ in range(field.degree - 1)]
            coeffs = [head] + tail
        else:
            coeffs = draw(field_coeffs(field))
        terms[e] = field.element(coeffs)
    return terms


def assert_same_terms(got, expected):
    assert list(got.items()) == list(expected.items())
    for c in got.values():
        assert c and c.field is next(iter(expected.values())).field
        assert_canonical(c)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(field_and(kernel_terms, kernel_terms))
def test_kernel_products_match_the_element_by_element_product(case):
    field, f, g = case
    assert_same_terms(_mul_terms(f, g), _mul_terms_by_elements(f, g))
    assert_same_terms(_mul_terms(g, f), _mul_terms_by_elements(g, f))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(field_and(lambda field: kernel_terms(field, max_terms=3, max_exp=2)))
def test_kernel_powers_match_the_element_by_element_power(case):
    field, f = case
    origin = (0,) * len(VARS)
    for n in range(7):
        got = _pow_terms(f, n, {origin: field.one()})
        expected = _pow_terms_by_elements(f, n, {origin: field.one()})
        assert_same_terms(got, expected)
        assert (n > 0 and not f) == (not got)


@pytest.mark.parametrize("field", FIELDS + (RATIONALS,), ids=lambda f: f.generator_name)
def test_kernel_products_that_cancel(field):
    def terms(*pairs):
        return {e: field.element(c) for e, c in pairs}

    one, x, x2, x3, x4 = ((k, 0, 0) for k in range(5))
    y, y2 = (0, 1, 0), (0, 2, 0)
    # (1 + x - x^2)^2: the sum at x^2 cancels to zero, and a later pair
    # puts it back behind x^3, as the element product does.
    f = terms((one, [1]), (x, [1]), (x2, [-1]))
    got = _mul_terms(f, f)
    assert list(got) == [one, x, x3, x2, x4]
    assert_same_terms(got, _mul_terms_by_elements(f, f))
    # (x + g y)(x - g y) = x^2 - g^2 y^2 for the generator g (2 over Q):
    # the cross terms cancel, in a coordinate that is not the first.
    gen = [0, 1] if field.degree > 1 else [2]
    neg = [-c for c in gen]
    f, g = terms((x, [1]), (y, gen)), terms((x, [1]), (y, neg))
    got = _mul_terms(f, g)
    assert list(got) == [x2, y2]
    assert_same_terms(got, _mul_terms_by_elements(f, g))
    assert _mul_terms(f, {}) == _mul_terms({}, g) == {}


@pytest.mark.parametrize("field", FIELDS + (RATIONALS,), ids=lambda f: f.generator_name)
def test_kernel_powers_multiply_out_times_base(field):
    # The cube of f = x - x^2 + 1/2 cancels a sum and puts it back later, so
    # out * base and base * out list its terms in two orders; the power must
    # keep the reference's order of operands. 2f runs on the int numerators,
    # f and g*f (g the generator) on the elements.
    x, x2, one = (1, 0, 0), (2, 0, 0), (0, 0, 0)
    scales = [field.rational(2), field.one()]
    if field.degree > 1:
        scales.append(field.generator())
    for c in scales:
        f = {x: c, x2: -c, one: c * Fraction(1, 2)}
        got = _pow_terms(f, 3, {one: field.one()})
        assert_same_terms(got, _pow_terms_by_elements(f, 3, {one: field.one()}))


@pytest.mark.parametrize("field", FIELDS + (RATIONALS,), ids=lambda f: f.generator_name)
def test_one_term_powers_agree_on_every_path(field):
    # One term c * m to the n-th power is c^n * m^n, by one rule that
    # Polynomial.__pow__ and the parser's '^' share; the element-by-element
    # power is the reference. Integral, fractional and (where the field has
    # them) non-rational c.
    kinds = [[3], [-1], [Fraction(-2, 3)]]
    if field.degree > 1:
        kinds += [[0, 1], [Fraction(1, 2), -1]]
    origin, exps = (0,) * len(VARS), (1, 2, 0)
    for coeffs in kinds:
        c = field.element(coeffs)
        f = {exps: c}
        for n in range(7):
            expected = _pow_terms_by_elements(f, n, {origin: field.one()})
            assert_same_terms((Polynomial(field, VARS, f) ** n).terms, expected)
            parsed = parse_poly(f"(({c})*x*y^2)^{n}", field, VARS)
            assert_same_terms(parsed.terms, expected)


# -- quasihomogeneity of the catalogue generators ----------------------------


def positive_facet(f):
    """The unique facet normal with all-positive weights."""
    data = lambda_newton(f)
    hits = [(w, n) for w, n in data.facet_normals if all(c > 0 for c in w)]
    assert len(hits) == 1
    return hits[0]


@pytest.mark.parametrize("family,n", MEMBERS)
def test_euler_identity_on_catalogue(family, n):
    # weighted Euler identity: sum_i w_i x_i df/dx_i = N f for the facet weights
    f = generator(family, n)
    weights, order = positive_facet(f)
    total = Polynomial.zero(f.field, f.variables)
    for w, v in zip(weights, f.variables):
        total = total + Polynomial.variable(f.field, f.variables, v) * f.partial(v) * w
    assert total == f * order
