"""Expression and script parsing: grammar, spans, and print round-trips."""

import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lctkit.parser as parser_module
import parse_corpus
from conftest import EISENSTEIN, RATIONALS, random_poly, run_cli, workload_pass
from lctkit import (
    DEFAULT_VARIABLES,
    GAUSS,
    FieldError,
    NumberField,
    ParseError,
    Polynomial,
    ScriptError,
    SourceSpan,
    format_poly,
    parse_poly,
)
from lctkit.parser import (
    _OPERATORS,
    _PLAIN,
    _TOKEN,
    BlowupDirective,
    OrbitDirective,
    StopDirective,
    SubstDirective,
    TranslateDirective,
    _Tokens,
    _read_sum,
    _session,
    parse_script,
)
from test_algebra import FIELDS, THIRD, VARS, as_poly, coords, polys


def test_default_variables():
    assert DEFAULT_VARIABLES == ("x", "y", "z")


# -- expression grammar ------------------------------------------------------


def test_basic_forms():
    assert parse_poly("x^2 + y^2 + z^3") == parse_poly("z^3+y^2+x^2")
    assert parse_poly("-x") == -parse_poly("x")
    assert parse_poly("x - - y") == parse_poly("x + y")
    assert parse_poly("(x + y)^2") == parse_poly("x^2 + 2*x*y + y^2")
    assert parse_poly("(1+i)*(1-i)") == parse_poly("2")
    assert parse_poly("1/2 * x") == parse_poly("x") / 2
    assert parse_poly("x^0") == parse_poly("1")


def test_multiplication_must_be_explicit():
    with pytest.raises(ParseError) as info:
        parse_poly("2x")
    assert "'*'" in info.value.message


def test_generator_literal_follows_field():
    assert parse_poly("j^2", EISENSTEIN) == parse_poly("-1 - j", EISENSTEIN)
    with pytest.raises(ParseError):
        parse_poly("i", RATIONALS)


def test_custom_variables():
    f = parse_poly("u^2 + v^3", variables=("u", "v"))
    assert f.variables == ("u", "v")
    with pytest.raises(ParseError):
        parse_poly("x", variables=("u", "v"))


def test_one_session_per_ring_and_bad_rings_always_raise():
    # A session is built once per (field, variables) and reused; a variable
    # list that fails validation is never cached, so it raises every time.
    from lctkit.parser import _session

    assert _session(GAUSS, ("x", "y")) is _session(GAUSS, ["x", "y"])
    assert _session(GAUSS, ("x", "y")) is not _session(GAUSS, ("y", "x"))
    for _ in range(2):
        with pytest.raises(ParseError, match="duplicate variables"):
            parse_poly("x", variables=("x", "x"))
        with pytest.raises(ParseError, match="collides"):
            parse_script("stop", variables=("x", "i"))
    # An equal field that is another object keeps its own identity.
    twin = NumberField.make((1, 0, 1), "i")
    assert twin == GAUSS and twin is not GAUSS
    assert parse_poly("x + i", twin).field is twin
    assert parse_poly("x + i").field is GAUSS


@pytest.mark.parametrize(
    "name,accepted",
    [
        ("Ⅻ", False),  # an identifier, but a letter number, not a letter
        ("a·b", False),  # an identifier that reads as 'a', '·', 'b'
        ("x²", False),  # one word, but not an identifier
        ("_y1", True),
        ("é", True),
        ("xⅫ", True),
        ("x١", True),
    ],
)
def test_variable_names_read_back(name, accepted):
    # A variable name is accepted only when the tokenizer reads it back as
    # one NAME, so every accepted ring can print and reparse its elements.
    variables = ("x", name)
    if not accepted:
        with pytest.raises(ParseError, match="bad variable name"):
            parse_poly("x^2", variables=variables)
        code, _, err = run_cli(["newton", "x^2", "--vars", f"x,{name}"])
        assert code == 1 and err.startswith("error: bad variable name")
        return
    f = parse_poly(f"x^2 + {name}^3 - (1 + i)*x*{name}", variables=variables)
    assert len(f.terms) == 3
    assert parse_poly(format_poly(f), variables=variables) == f


@pytest.mark.parametrize("name,accepted", [("Ⅻ", False), ("a·b", False), ("α", True)])
def test_generator_names_read_back(name, accepted):
    # The field generator obeys the variable-name rule, so the elements of
    # every accepted field print and reparse too.
    if not accepted:
        with pytest.raises(FieldError, match="bad generator name"):
            NumberField.make((1, 0, 1), name)
        code, out, err = run_cli(["newton", "x^2+y^3", "--field", f"{name}:t^2+1"])
        assert (code, out, err) == (1, "", f"error: bad generator name {name!r}\n")
        return
    field = NumberField.make((1, 0, 1), name)
    f = parse_poly(f"x^2*{name} + y", field)
    assert format_poly(f) == f"y + ({name})*x^2"
    assert parse_poly(format_poly(f), field) == f


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("x^", 1, 3),
        ("x + ", 1, 5),
        ("(1+i", 1, 5),
        ("w^2", 1, 1),
        ("x^-2", 1, 3),
        ("", 1, 1),
        ("x**2", 1, 3),
        ("x^y", 1, 3),
        ("2/0", 1, 3),
        ("2/x", 1, 3),
    ],
)
def test_error_spans(text, line, column):
    with pytest.raises(ParseError) as info:
        parse_poly(text)
    assert info.value.span is not None
    assert (info.value.span.line, info.value.span.column) == (line, column)


def test_division_only_inside_rational_literals():
    assert parse_poly("3/4") == parse_poly("3") / 4
    with pytest.raises(ParseError):
        parse_poly("x/2")
    with pytest.raises(ParseError):
        parse_poly("x/y")
    with pytest.raises(ParseError):
        parse_poly("1/0")


_X, _Y = (Polynomial.variable(GAUSS, DEFAULT_VARIABLES, v) for v in "xy")
_I = Polynomial.constant(GAUSS, DEFAULT_VARIABLES, GAUSS.generator())


def _q(*value):
    return Polynomial.constant(GAUSS, DEFAULT_VARIABLES, Fraction(*value))


# A term folds its variables into one exponent list and its literals into one
# rational scale; each entry is the same product built by the ring operators.
@pytest.mark.parametrize(
    "text,expected",
    [
        ("0*x", lambda: _q(0) * _X),
        ("x*0", lambda: _X * _q(0)),
        ("0^0*x", lambda: _q(0) ** 0 * _X),
        ("2/4^2*x", lambda: _q(2, 4) ** 2 * _X),
        ("-2^2*x", lambda: -(_q(2) ** 2) * _X),
        ("x^0*y", lambda: _X**0 * _Y),
        ("3*x*2*y*x", lambda: _q(3) * _X * _q(2) * _Y * _X),
        ("i*2*x*i", lambda: _I * _q(2) * _X * _I),
        ("1/2*x - 1/2*x", lambda: _q(1, 2) * _X - _q(1, 2) * _X),
    ],
)
def test_term_fold_edge_cases(text, expected):
    f = parse_poly(text)
    assert f == expected()
    assert all(f.terms.values())


def test_non_decimal_digits_are_unexpected_characters():
    # str.isdigit() holds for '²', but int() rejects it.
    for text, column in [("x^²", 3), ("²", 1), ("x + 2*y^1²", 10)]:
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.message == "unexpected character '²'"
        assert info.value.span == SourceSpan(1, column, 1)


def test_bad_character_after_many_good_tokens():
    # Only a text that cannot hold a bad character skips the token scan, so
    # one far into a long text is still found, with its span.
    good = "x*y^2 + 3/4*z - (x + y)^3 + " * 60
    for text, line, column, char in [
        (good + "z + $x", 1, len(good) + 5, "$"),
        ("x + y\n" * 40 + "z ! 2", 41, 3, "!"),
        (good + "y^2²", 1, len(good) + 4, "²"),
        (good + "x := y", 1, len(good) + 3, ":="),
    ]:
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        if char == ":=":  # a good token, in the wrong place
            assert info.value.message == "unexpected ':='"
            assert info.value.span == SourceSpan(line, column, 2)
            continue
        assert info.value.message == f"unexpected character {char!r}"
        assert info.value.span == SourceSpan(line, column, 1)
    # Good text outside ASCII takes the token scan and parses.
    assert parse_poly("α^2 + " * 30 + "β", GAUSS, ("α", "β"))


def _bad_tokens(text):
    """The tokens that start with none of a letter, '_' or a decimal digit
    and are not operators: what the token scan looks for."""
    return [
        tok
        for tok in _TOKEN.findall(text)
        if tok not in _OPERATORS
        and not (tok[0].isalpha() or tok[0].isdecimal() or tok[0] == "_")
    ]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.text(alphabet="xy_09+-*/^():= \t\n\x0c²α!.", max_size=24))
def test_tokens_raise_exactly_on_a_bad_token(text):
    bad = _bad_tokens(text)
    if _PLAIN.fullmatch(text):
        assert not bad
    if not bad:
        _Tokens(text)
        return
    with pytest.raises(ParseError) as info:
        _Tokens(text)
    assert info.value.message == f"unexpected character {bad[0][0]!r}"


@pytest.mark.parametrize(
    "prefix,suffix",
    [("x^", ""), ("", "/2*x"), ("x + 1/", ""), ("\n  (", ")*y")],
)
def test_oversized_integer_literal_has_a_span(prefix, suffix):
    # Longer than Python's default int conversion limit of 4300 digits.
    text = prefix + "1" * 5000 + suffix
    with pytest.raises(ParseError) as info:
        parse_poly(text)
    assert info.value.message == "integer literal of 5000 digits is too long"
    start = text.index("1" * 5000)
    line = 1 + text.count("\n", 0, start)
    column = start - text.rfind("\n", 0, start)
    assert info.value.span == SourceSpan(line, column, 5000)


# -- the plain-sum reader ------------------------------------------------------


def _outcome(text, variables=DEFAULT_VARIABLES, reader=True):
    """parse_poly's terms in order, or its error's type, message and span;
    with reader=False, those of the descent alone, the reference."""
    with pytest.MonkeyPatch.context() as patch:
        if not reader:
            patch.setattr(parser_module, "_read_sum", lambda text, session: None)
        try:
            return list(parse_poly(text, GAUSS, variables).terms.items())
        except ParseError as err:
            return type(err), err.message, err.span


_NAMES = ("x", "y", "z", "u", "ab", "x1", "_t", "Long_name")
_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n "])


def _signed_sum(draw, monomials):
    """The sum of (negate, monomial) pairs, with whitespace around its signs
    and a leading '-' for a first negated monomial."""
    text = ""
    for k, (negate, mono) in enumerate(monomials):
        if k:
            text += f"{draw(_SPACE)}{'-' if negate else '+'}{draw(_SPACE)}"
        elif negate:
            text += f"-{draw(_SPACE)}"
        text += mono
    return text


@st.composite
def plain_sums(draw):
    """(text, variables): a plain sum with repeated factors, x^0, pairs
    of monomials that cancel, whitespace around operators and maybe a
    leading '-'. A monomial may hold up to two groups: a parenthesised plain
    sum with signs inside, maybe raised to a power 0-6 with whitespace
    around '^', times the monomial's other factors."""
    variables = tuple(draw(st.lists(st.sampled_from(_NAMES), min_size=1,
                                    max_size=6, unique=True)))
    factor = st.one_of(
        st.integers(0, 10**30).map(str),
        st.sampled_from(variables),
        st.tuples(st.sampled_from(variables), _SPACE, _SPACE,
                  st.integers(0, 12)).map(lambda t: f"{t[0]}{t[1]}^{t[2]}{t[3]}"),
    )
    power = st.one_of(
        st.just(""),
        st.tuples(_SPACE, _SPACE, st.integers(0, 6)).map(lambda t: f"{t[0]}^{t[1]}{t[2]}"),
    )

    def monomial(max_groups):
        factors = draw(st.lists(factor, min_size=1, max_size=4))
        for _ in range(draw(st.integers(0, max_groups))):
            inner = _signed_sum(draw, [
                (draw(st.booleans()), monomial(0))
                for _ in range(draw(st.integers(1, 3)))
            ])
            # A group whose terms all cancel goes to the descent: not drawn.
            assume(_outcome(inner, variables, reader=False))
            group = f"({draw(_SPACE)}{inner}{draw(_SPACE)}){draw(power)}"
            factors.insert(draw(st.integers(0, len(factors))), group)
        return "".join(
            f if k == 0 else f"{draw(_SPACE)}*{draw(_SPACE)}{f}"
            for k, f in enumerate(factors)
        )

    monomials = [
        (draw(st.booleans()), monomial(draw(st.sampled_from((0, 0, 1, 2)))))
        for _ in range(draw(st.integers(1, 6)))
    ]
    for negate, mono in list(monomials):
        if draw(st.booleans()):  # the same monomial with the other sign
            monomials.insert(draw(st.integers(0, len(monomials))), (not negate, mono))
    return draw(_SPACE) + _signed_sum(draw, monomials) + draw(_SPACE), variables


@settings(max_examples=400, deadline=None, derandomize=True)
@given(plain_sums())
@example(("2*x - 2*x + 0*y", ("x", "y")))
@example(("x*x^0*3 - 3*x + y", ("x", "y")))
@example(("3*y^2+2*(z+3*x)^4-(x-2*y)^2", ("x", "y", "z")))
@example(("-(x - y) ^ 3*2*(x+y)*x - (y-x)^0 + (2*y)^2*(-x)", ("x", "y")))
@example(("(x+y)^2*(x-y)^0 - 0*(x+y) + (y)*(x)^3", ("x", "y")))
def test_plain_sum_reader_gives_the_descents_terms(case):
    text, variables = case
    assert _read_sum(text, _session(GAUSS, variables)) is not None
    assert _outcome(text, variables) == _outcome(text, variables, reader=False)


@pytest.mark.parametrize(
    "text",
    [
        "", " ", "-", "+x", "x+", "x*", "*x", "x++y", "x+-y", "x--y", "- -x",
        "2 3*x", "3x", "x y", "x^", "x^2^3", "x^²", "٣*x", "x^1_0", "2^3",
        "i*x", "w+x", "x/2", "(x)", "1" * 5000 + "*x", "x^" + "1" * 5000,
        "(x+y)^0", "(x-x)^2", "((x))", "(x+y)(z)", "2(x+y)", "(i*x+y)^2",
        "(x/2+y)^2", "(x+y)^2^3", "(x+y)^", "-(x+y)^2", "()", "(x+y", "x+y)",
        ")x+y(", "(x*-y)^2", "(x+y)^" + "1" * 5000,
    ],
)
def test_plain_sum_near_misses_read_as_the_descent_reads_them(text):
    # Either the reader gives the descent's terms, or it declines and
    # parse_poly raises the descent's error (or gives its terms).
    expected = _outcome(text, reader=False)
    terms = _read_sum(text, _session(GAUSS, DEFAULT_VARIABLES))
    if terms is not None:
        assert list(terms.items()) == expected
    assert _outcome(text) == expected


@pytest.mark.parametrize("seed", [1, 2, 1009])
def test_newton_grid_texts_are_plain_sums(seed):
    for op in workload_pass("newton", seed):
        variables = tuple(op["vars"].split(","))
        terms = _read_sum(op["text"], _session(GAUSS, variables))
        assert terms is not None
        assert list(terms.items()) == _outcome(op["text"], variables, reader=False)


@pytest.mark.parametrize("seed", [1, 2, 1009])
def test_pole_auto_texts_are_read_in_one_pass(seed):
    # Brieskorn-Pham forms plain and under shears, tree doublers and
    # squared linear forms: powers of parenthesised sums among them.
    ops = workload_pass("pole", seed)
    assert any("(" in op["text"] for op in ops)
    for op in ops:
        variables = tuple(op["vars"].split(","))
        terms = _read_sum(op["text"], _session(GAUSS, variables))
        assert terms is not None
        assert list(terms.items()) == _outcome(op["text"], variables, reader=False)


def test_deep_nesting_is_a_parse_error():
    depth = 2 * sys.getrecursionlimit()
    with pytest.raises(ParseError) as info:
        parse_poly("(" * depth + "x" + ")" * depth)
    assert info.value.message == "expression nested too deeply"
    assert info.value.span.line == 1
    assert parse_poly("(" * 100 + "x" + ")" * 100) == parse_poly("x")


# -- the parse corpus ----------------------------------------------------------

# Where the reference parser raised a bare ValueError, or (for "x ²") read
# '²' as an integer literal: (message, line, column, length) now.
FIXED = {
    "x^²": ("unexpected character '²'", 1, 3, 1),
    "²": ("unexpected character '²'", 1, 1, 1),
    "x ²": ("unexpected character '²'", 1, 3, 1),
    "x^" + "1" * 5000: ("integer literal of 5000 digits is too long", 1, 3, 5000),
    "1" * 5000 + "/2*x": ("integer literal of 5000 digits is too long", 1, 1, 5000),
    "x + 1/" + "1" * 5000: ("integer literal of 5000 digits is too long", 1, 7, 5000),
}


def test_parse_corpus_matches_reference_parser():
    entries = json.loads(parse_corpus.PATH.read_text())
    assert len(entries) > 2000
    assert set(FIXED) == set(parse_corpus.FIXED_CASES)
    for entry in entries:
        got = parse_corpus.record(entry["text"])
        if entry["text"] in FIXED:
            message, line, column, length = FIXED[entry["text"]]
            assert got != entry
            assert got["error"] == {
                "type": "ParseError",
                "message": message,
                "line": line,
                "column": column,
                "length": length,
            }
        else:
            assert got == entry


# -- an independent oracle -------------------------------------------------------

# Precedence levels: expr < term < factor < power < atom.
_LEVEL = {"+": 0, "-": 0, "*": 1, "neg": 2, "^": 3}


@st.composite
def _trees(draw, depth=4):
    """A random expression tree: a name, (numerator, denominator), or an
    operator with its operands; sums come up most often."""
    if depth == 0 or draw(st.integers(0, 5)) == 0:
        if draw(st.booleans()):
            return draw(st.sampled_from(["x", "y", "z", "i"]))
        return draw(st.tuples(st.integers(0, 30), st.integers(1, 4)))
    op = draw(st.sampled_from(["+", "-", "+", "-", "*", "*", "neg", "^"]))
    if op == "neg":
        return (op, draw(_trees(depth - 1)))
    if op == "^":
        return (op, draw(_trees(depth - 1)), draw(st.integers(0, 3)))
    return (op, draw(_trees(depth - 1)), draw(_trees(depth - 1)))


def _render(tree, level, sep):
    """Text for `tree` where the grammar expects `level`, in parentheses
    only where the grammar needs them."""
    if isinstance(tree, str):
        return tree
    if isinstance(tree[0], int):
        num, den = tree
        return str(num) if den == 1 else f"{num}/{den}"
    op = tree[0]
    if op == "neg":
        text = "-" + _render(tree[1], 2, sep)
    elif op == "^":
        text = f"{_render(tree[1], 4, sep)}^{tree[2]}"
    else:
        left = _render(tree[1], _LEVEL[op], sep)
        right = _render(tree[2], _LEVEL[op] + 1, sep)
        text = f"{left}{sep}{op}{sep}{right}"
    return f"({text})" if _LEVEL[op] < level else text


def _evaluate(tree):
    """The same tree through Polynomial's ring operators."""
    if isinstance(tree, str):
        if tree == "i":
            return Polynomial.constant(GAUSS, DEFAULT_VARIABLES, GAUSS.generator())
        return Polynomial.variable(GAUSS, DEFAULT_VARIABLES, tree)
    if isinstance(tree[0], int):
        return Polynomial.constant(GAUSS, DEFAULT_VARIABLES, Fraction(*tree))
    op = tree[0]
    if op == "neg":
        return -_evaluate(tree[1])
    if op == "^":
        return _evaluate(tree[1]) ** tree[2]
    left, right = _evaluate(tree[1]), _evaluate(tree[2])
    return left + right if op == "+" else left - right if op == "-" else left * right


def _degree(tree):
    """A bound on the degree (constants count 1) that keeps expansions small."""
    if isinstance(tree, str) or isinstance(tree[0], int):
        return 1
    if tree[0] == "neg":
        return _degree(tree[1])
    if tree[0] == "^":
        return _degree(tree[1]) * tree[2]
    return _degree(tree[1]) + _degree(tree[2])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trees(), st.sampled_from(["", " ", " \n "]))
def test_parser_agrees_with_ring_operators(tree, sep):
    assume(_degree(tree) <= 12)
    assert parse_poly(_render(tree, 0, sep)) == _evaluate(tree)


# -- printing round-trips ----------------------------------------------------


def test_format_examples():
    cases = [
        "x^2 + y^2 + z^3",
        "0",
        "1",
        "-x",
        "x^2 + (1+i)*y",
        "(1/2)*x*y^3",
        "x^2 + y^2*z + z^4",
    ]
    for text in cases:
        f = parse_poly(text)
        assert parse_poly(format_poly(f)) == f


def test_round_trip_seeded_batch():
    rng = random.Random(2024)
    for _ in range(200):
        f = random_poly(rng)
        assert parse_poly(format_poly(f)) == f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys())
def test_round_trip_property(f):
    assert parse_poly(format_poly(f)) == f


# The Fraction-based formatters that printed every coefficient until the
# printers read FieldElement.num and .den directly, kept verbatim as the
# reference for them.


def _format_element_by_fractions(el):
    """Render an element as '3', '-1 - i', '1/2 + 3*i^2', etc."""
    name = el.field.generator_name
    parts: list[str] = []
    for k, c in enumerate(el.coeffs):
        if c == 0:
            continue
        if k == 0:
            base = str(abs(c))
        else:
            gen = name if k == 1 else f"{name}^{k}"
            base = gen if abs(c) == 1 else f"{abs(c)}*{gen}"
        if not parts:
            parts.append(base if c > 0 else f"-{base}")
        else:
            parts.append(f"+ {base}" if c > 0 else f"- {base}")
    if not parts:
        return "0"
    return " ".join(parts)


def _format_poly_by_fractions(poly):
    """Canonical textual form: terms in ascending total degree, ties broken
    by reverse-lexicographic exponent order; parse_poly round-trips it."""
    if poly.is_zero():
        return "0"
    rendered: list[tuple[str, str]] = []  # (sign, body) with sign '+' or '-'
    for exps, coeff in poly.sorted_terms():
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(poly.variables, exps)
            if e > 0
        )
        if coeff.is_rational:
            q = coeff.as_fraction()
            sign = "-" if q < 0 else "+"
            mag = abs(q)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
        else:
            # Non-rational coefficients keep their own signs inside parens.
            sign = "+"
            body = f"({_format_element_by_fractions(coeff)})"
            if mono:
                body = f"{body}*{mono}"
        rendered.append((sign, body))
    first_sign, first_body = rendered[0]
    parts = [first_body if first_sign == "+" else f"-{first_body}"]
    for sign, body in rendered[1:]:
        parts.append(f"{sign} {body}")
    return " ".join(parts)


@st.composite
def printed_polys(draw):
    """A polynomial over one of FIELDS (THIRD's modulus has a denominator)
    with up to four terms, the constant term among the exponents and zero
    terms allowed. A coefficient is 1, -1, a rational or any element:
    coordinates over denominators up to 4, negative ones and zero heads."""
    field = draw(st.sampled_from(FIELDS))
    zeros = (Fraction(0),) * (field.degree - 1)
    coeff = st.one_of(
        st.sampled_from([1, -1]).map(lambda u: (Fraction(u),) + zeros),
        coords.filter(bool).map(lambda q: (q,) + zeros),
        st.lists(coords, min_size=field.degree, max_size=field.degree).filter(any),
    )
    exps = st.tuples(*[st.integers(0, 3)] * len(VARS))
    keys = draw(st.lists(exps, max_size=4, unique=True))
    return as_poly(field, {e: tuple(draw(coeff)) for e in keys})


@settings(max_examples=400, deadline=None, derandomize=True)
@given(printed_polys())
@example(as_poly(THIRD, {}))
@example(as_poly(THIRD, {(0, 0, 0): (Fraction(1, 2), Fraction(-1, 4)), (1, 0, 0): (-1, 0)}))
def test_printers_match_the_fraction_reference(f):
    text = format_poly(f)
    assert text == _format_poly_by_fractions(f)
    for coeff in f.terms.values():
        assert str(coeff) == _format_element_by_fractions(coeff)
    assert parse_poly(text, f.field, f.variables) == f


# -- resolution scripts ------------------------------------------------------


def test_script_directives():
    script = parse_script(
        "# resolve one chart\n"
        "blowup x y z\n"
        "chart z\n"
        "subst z := z + y*z^4\n"
        "translate z := z + i\n"
        "orbit 2\n"
        "stop\n"
    )
    kinds = [type(s) for s in script.steps]
    assert kinds == [
        BlowupDirective,
        SubstDirective,
        TranslateDirective,
        OrbitDirective,
        StopDirective,
    ]
    blow, subst, trans, orbit, _ = script.steps
    assert blow.center == ("x", "y", "z")
    assert blow.chart == "z"
    assert subst.expression == parse_poly("z + y*z^4")
    assert trans.value == parse_poly("i").constant_term
    assert orbit.count == 2


@pytest.mark.parametrize(
    "text,message_part",
    [
        ("chart z", "chart must immediately follow blowup"),
        ("blowup x", "at least 2 variables"),
        ("blowup x y z\nchart w", "not in the blowup center"),
        ("orbit 0", "at least 1"),
        ("orbit", "usage"),
        ("frobnicate x", "unknown command"),
        ("blowup x y y", "duplicate"),
        ("blowup x y z\nsubst z := z", "must be followed by chart"),
    ],
)
def test_script_errors(text, message_part):
    with pytest.raises(ScriptError) as info:
        parse_script(text)
    assert message_part in info.value.message
    assert info.value.span is not None


def test_missing_chart_is_reported_after_the_line_errors():
    with pytest.raises(ScriptError, match="must be followed by chart") as info:
        parse_script("blowup x y z\nsubst z := z")
    assert info.value.span == SourceSpan(2, 1, 5)
    # An error inside the line after the blowup wins over the missing chart.
    with pytest.raises(ParseError) as info:
        parse_script("blowup x y z\nsubst z := (")
    assert not isinstance(info.value, ScriptError)
    assert info.value.message == "unexpected end of expression"
    assert info.value.span == SourceSpan(2, 13, 1)


def test_script_spans_use_line_numbers():
    with pytest.raises(ScriptError) as info:
        parse_script("blowup x y z\nchart z\nchart y")
    assert info.value.span.line == 3


def test_empty_polynomial_rejected_in_scripts():
    with pytest.raises(ParseError):
        parse_script("subst z :=")


def test_script_corpus_matches_the_reference_parser():
    # Every bundled script and its seeded edits: the steps with their spans,
    # or the error, exactly as the reference script parser gave them.
    texts = parse_corpus.script_inputs()
    assert len(texts) == len(parse_corpus.scripts()) * 41
    entries = [parse_corpus.record_script(text) for text in texts]
    assert parse_corpus.render(entries) == parse_corpus.SCRIPT_PATH.read_text()


@pytest.mark.parametrize("space", ["\f", "\v", "\u2028", "\x1c", "\x85"])
def test_script_line_breaks_other_than_newlines_are_whitespace(space):
    # str.splitlines breaks at these; a script line does not.
    script = parse_script(f"blowup x y z{space}\n{space}chart z\norbit{space}2")
    blow, orbit = script.steps
    assert blow.chart == "z" and orbit.count == 2
    assert blow.span == SourceSpan(1, 1, 6)
    assert orbit.span == SourceSpan(3, 1, 5)
    with pytest.raises(ScriptError) as info:
        parse_script(f"blowup x y z{space}\nchart q")
    assert info.value.span == SourceSpan(2, 7, 1)
    with pytest.raises(ParseError) as info:
        parse_script(f"{space}subst z := z +{space}(")
    assert info.value.span == SourceSpan(1, 18, 1)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_script_lines_end_at_universal_newlines(newline):
    script = parse_script(newline.join(["# head", "blowup x y z", "  chart y", ""]))
    (blow,) = script.steps
    assert blow.span == SourceSpan(2, 1, 6) and blow.chart == "y"
    with pytest.raises(ScriptError) as info:
        parse_script(newline.join(["blowup x y z", "", "chart q"]))
    assert info.value.span == SourceSpan(3, 7, 1)


def test_cli_script_line_numbers_ignore_form_feeds():
    with pytest.raises(ScriptError) as info:
        parse_script("blowup x y z\f\nchart q\n")
    assert (info.value.span.line, info.value.span.column) == (2, 7)
    assert info.value.message == "chart variable 'q' not in the blowup center"


def test_script_orbit_count_errors_have_spans():
    with pytest.raises(ParseError) as info:
        parse_script("orbit " + "9" * 5000)
    assert info.value.span == SourceSpan(1, 7, 5000)
    with pytest.raises(ParseError) as info:
        parse_script("blowup x y\norbit ²")
    assert info.value.span == SourceSpan(2, 7, 1)
