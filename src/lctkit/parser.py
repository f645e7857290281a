"""Expression grammar, canonical formatter, and the resolution script DSL.

Grammar (whitespace insensitive, multiplication always explicit):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ['^' INT]
    atom   := INT ['/' INT] | NAME | '(' expr ')'

'^' binds tighter than unary minus, so -x^2 is -(x^2). '/' occurs only
inside rational literals. NAME resolves to a session variable or to the
field generator; anything else is an error with a source span.

parse_poly tries a plain-sum reader first, with whitespace only around
operators:

    sum    := ['-'] mono (('+' | '-') mono)*
    mono   := factor ('*' factor)*
    factor := INT | NAME ['^' INT] | '(' sum ')' ['^' INT]

where NAME is a session variable and a group's sum holds no group. Every
newton-grid input is a plain sum, and so is every pole-auto input: the
Brieskorn-Pham forms, their shear disguises such as 3*(y+3*z)^3, and the
squared forms such as (-x-2*y-2*z)^2. The reader splits the text with str
methods and sums integer coefficients per exponent tuple, inserting a tuple
when its first nonzero summand arrives and deleting it when its sum
cancels, as _add_into does for each term of the descent below. A group's
power and the product of a monomial's groups run algebra._power and
algebra._product on int term dicts, in the descent's order of operands, and
the monomial's coefficient and exponents then scale and shift the product,
as the descent's last _mul_terms does. A one-term factor of a product keeps
the order of the other factor, so multiplying a one-term group in orders
the terms as the descent's fold of it into the monomial does. So the two
give the same term dict in the same order. Any other text makes the reader
return None and goes to the descent: a nested group, a rational literal,
the field generator, a group that is empty or cancels, a '-' after '*', and
every text with an error. The descent raises each error with its span and
stays the reference in the tests.

In the descent, one regular expression splits a text into tokens; a
token's line and column are worked out from its offset only when an error
reports them. The parser builds term dicts (exponent tuple -> nonzero
coefficient, as in algebra.py) and makes one Polynomial at the end. A term
folds its variables into one exponent list and its literals into one
rational scale, made a field element once; only factors with several terms
are multiplied as term dicts.

The script DSL is no CLI input: it states the paper's hand-derived
resolution chains, which the tests replay through blowup_origin, translate
and apply_affine. A script line ends at '\n', '\r\n' or '\r', as universal
newlines read a file; '\f', '\v', U+2028 and the other breaks of
str.splitlines are whitespace in it, so its line numbers count what
parse_poly's spans do.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from operator import add
from typing import Optional, Sequence, Union

from .algebra import (
    GAUSS,
    FieldElement,
    NumberField,
    Polynomial,
    Terms,
    _add_into,
    _mul_terms,
    _pow_terms,
    _power,
    _product,
    _signed_join,
    format_element,
    reads_as_name,
)
from .errors import ParseError, ScriptError

DEFAULT_VARIABLES = ("x", "y", "z")

# Whitespace, then one token: a run of decimal digits (INT), a word, ':=' or
# any other single character. `\s` is str.isspace and `\w` is str.isalnum
# plus '_', so a word is a NAME exactly when it starts with a letter or '_'.
_TOKEN = re.compile(r"\s*(\d+|\w+|:=|\S)")
_OPERATORS = frozenset(("+", "-", "*", "/", "^", "(", ")", ":="))
# A text whose every token is an operator or starts with a letter, '_' or a
# decimal digit: ASCII letters and digits, '_', whitespace and operators.
_PLAIN = re.compile(r"(?:[A-Za-z0-9_\s+\-*/^()]|:=)*")
# A script line ends where universal newlines end one, as open() reads it.
_LINE_BREAK = re.compile(r"\r\n?|\n")


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a token inside the input text."""

    line: int
    column: int
    length: int


def _is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


class _Tokens:
    """The tokens of one text, ending in the empty EOF token. The text may
    be one line of a script, whose number is `line`."""

    __slots__ = ("text", "line", "tokens")

    def __init__(self, text: str, line: int = 1):
        self.text = text
        self.line = line
        self.tokens = tokens = _TOKEN.findall(text)
        tokens.append("")
        if _PLAIN.fullmatch(text):
            return
        # A character outside the grammar, or a word that starts with none
        # of a letter, '_' or a decimal digit (such as '²', a digit for
        # str.isdigit but not for int).
        bad = [
            tok
            for tok in set(tokens) - _OPERATORS
            if tok and not (tok[0].isalpha() or tok[0].isdecimal() or tok[0] == "_")
        ]
        if bad:
            index = min(map(tokens.index, bad))
            span = replace(self.span(index), length=1)
            raise ParseError(f"unexpected character {tokens[index][0]!r}", span)

    def span(self, index: int) -> SourceSpan:
        text = self.text
        if index < len(self.tokens) - 1:
            match = next(islice(_TOKEN.finditer(text), index, None))
            start, length = match.start(1), len(match.group(1))
        else:
            start, length = len(text), 1
        line = self.line + text.count("\n", 0, start)
        return SourceSpan(line, start - text.rfind("\n", 0, start), length)

    def integer(self, index: int) -> int:
        tok = self.tokens[index]
        try:
            return int(tok)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError(
                f"integer literal of {len(tok)} digits is too long", self.span(index)
            ) from None


class _Session:
    """The ring of one parse, with the position of each variable."""

    def __init__(self, field: NumberField, variables: Sequence[str]):
        variables = tuple(variables)
        if len(variables) < 1:
            raise ParseError("at least one variable is required")
        if len(set(variables)) != len(variables):
            raise ParseError(f"duplicate variables in {variables}")
        for v in variables:
            if not reads_as_name(v):
                raise ParseError(f"bad variable name {v!r}")
        if field.generator_name in variables:
            raise ParseError(
                f"field generator {field.generator_name!r} collides with a variable"
            )
        self.field = field
        self.variables = variables
        self.one = field.one()
        self.origin = (0,) * len(variables)
        self.index = {v: k for k, v in enumerate(variables)}


_SESSIONS: dict[tuple[int, tuple[str, ...]], _Session] = {}


def _session(field: NumberField, variables: Sequence[str]) -> _Session:
    """The session of one ring, built and validated once. Sessions are never
    changed, so sharing one between calls shares no state. The key is the
    field's identity: the cached session holds the field, so the id cannot
    be reused while the entry lives. Only a session that validated is
    cached, so a bad variable list raises its ParseError on every call."""
    key = (id(field), tuple(variables))
    session = _SESSIONS.get(key)
    if session is None:
        if len(_SESSIONS) >= 64:
            _SESSIONS.clear()
        session = _SESSIONS[key] = _Session(field, key[1])
    return session


class _ExprParser:
    def __init__(self, source: _Tokens, pos: int, session: _Session):
        self.source = source
        self.tokens = source.tokens
        self.pos = pos
        self.session = session

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.source.span(self.pos))

    def parse_polynomial(self) -> Polynomial:
        """An expr that ends the tokens, as a Polynomial of the session."""
        try:
            terms = self.parse_expr()
        except RecursionError:  # too many parentheses in one another
            raise self.error("expression nested too deeply") from None
        tok = self.tokens[self.pos]
        if tok:  # after an expr, a NAME or INT means a missing '*'
            hint = " (multiplication must be written with '*')"
            raise self.error(f"unexpected {tok!r}{'' if tok in _OPERATORS else hint}")
        session = self.session
        return Polynomial._trusted(session.field, session.variables, terms)

    def parse_expr(self) -> Terms:
        out = self.parse_term(False)
        while True:
            op = self.tokens[self.pos]
            if op != "+" and op != "-":
                return out
            self.pos += 1
            _add_into(out, self.parse_term(op == "-"))

    def parse_term(self, negate: bool) -> Terms:
        """The product of one term's factors, negated if asked. Variables add
        to `exps`, literals multiply the rational `scale`, other one-term
        factors fold into `exps` and `coeff`, the rest into `product`."""
        tokens, session = self.tokens, self.session
        index, one = session.index, session.one
        exps, scale, coeff, product = [0] * len(session.origin), 1, one, None
        while True:
            while tokens[self.pos] == "-":
                negate = not negate
                self.pos += 1
            k = index.get(tokens[self.pos])
            if k is not None:
                self.pos += 1
                exps[k] += self.exponent() if tokens[self.pos] == "^" else 1
            elif tokens[self.pos][:1].isdecimal():
                scale *= self.literal()
            else:
                factor = self.parse_atom()
                if tokens[self.pos] == "^":
                    factor = _pow_terms(factor, self.exponent(), {session.origin: one})
                if len(factor) == 1:
                    (e, c), = factor.items()
                    exps = [a + b for a, b in zip(exps, e)]
                    coeff = c if coeff is one else coeff * c
                else:
                    product = factor if product is None else _mul_terms(product, factor)
            if tokens[self.pos] != "*":
                break
            self.pos += 1
        if not scale:
            return {}
        if scale != 1 or negate:
            c = session.field.rational(-scale if negate else scale)
            coeff = c if coeff is one else coeff * c
        term = {tuple(exps): coeff}
        return term if product is None else _mul_terms(product, term)

    def exponent(self) -> int:
        """The INT after the '^' at the current token."""
        self.pos += 1
        if not self.tokens[self.pos][:1].isdecimal():
            raise self.error("exponent must be a non-negative integer literal")
        self.pos += 1
        return self.source.integer(self.pos - 1)

    def literal(self) -> Union[int, Fraction]:
        """An INT ['/' INT] literal with its '^' INT power, if any: an int, or
        a Fraction with '/'."""
        tokens, value = self.tokens, self.source.integer(self.pos)
        self.pos += 1
        if tokens[self.pos] == "/":
            self.pos += 1
            if not tokens[self.pos][:1].isdecimal():
                raise self.error("expected an integer denominator")
            den = self.source.integer(self.pos)
            if den == 0:
                raise self.error("zero denominator")
            self.pos += 1
            value = Fraction(value, den)
        return value ** self.exponent() if tokens[self.pos] == "^" else value

    def parse_atom(self) -> Terms:
        """The term dict of a parenthesised expr or of the field generator."""
        tokens, session = self.tokens, self.session
        tok = tokens[self.pos]
        self.pos += 1
        if tok == "(":
            inner = self.parse_expr()
            if tokens[self.pos] != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return inner
        if tok == session.field.generator_name:
            gen = session.field.generator()
            return {session.origin: gen} if gen else {}
        self.pos -= 1
        if not tok:
            raise self.error("unexpected end of expression")
        raise self.error(
            f"unexpected {tok!r}" if tok in _OPERATORS else f"unknown symbol {tok!r}"
        )


def _read_sum(text: str, session: _Session) -> Optional[Terms]:
    """The term dict of a plain sum (see the module docstring), in the
    descent's order, or None for any other text."""
    body = text.strip()
    index, width = session.index, len(session.origin)
    groups = None
    try:
        if "(" in body:
            # Each group becomes the factor '()' of the outer sum.
            first, *segments = body.split("(")
            groups, outer = [], [first]
            for segment in segments:
                inner, close, rest = segment.partition(")")
                group = _int_sum(inner.strip(), index, width, None) if close else None
                if not group:  # nested, unclosed, empty, cancelling or not plain
                    return None
                groups.append(group)
                outer.append("()" + rest)
            body, groups = "".join(outer), iter(groups)
        sums = _int_sum(body, index, width, groups)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return None
    if sums is None:
        return None
    rational, one = session.field.rational, session.one
    return {e: one if c == 1 else rational(c) for e, c in sums.items()}


def _int_sum(body: str, index: dict, width: int, groups) -> Optional[dict]:
    """The int coefficient sums of the stripped sum `body`, whose factors
    '()' take the int term dicts of `groups` in turn; None if not plain."""
    # Each '-' now starts a piece: a monomial, negated, or an empty operand.
    pieces = body.replace("-", "+-").split("+")
    if body[:1] == "-":
        del pieces[0]  # the '' before the leading '-'
    sums: dict[tuple[int, ...], int] = {}
    product = None
    for piece in pieces:
        negate = piece[:1] == "-"
        exps, coeff = [0] * width, -1 if negate else 1
        for factor in (piece[1:] if negate else piece).split("*"):
            factor = factor.strip()
            k = index.get(factor)
            if k is not None:
                exps[k] += 1
                continue
            name, caret, power = factor.partition("^")
            if caret:
                name, power = name.rstrip(), power.lstrip()
                k = index.get(name)
                if k is not None and power.isascii() and power.isdigit():
                    exps[k] += int(power)
                    continue
            elif factor.isascii() and factor.isdigit():
                coeff *= int(factor)
                continue
            if name != "()" or (caret and not (power.isascii() and power.isdigit())):
                return None
            # The 0th power is 1. A one-term factor keeps the order of the
            # other, as the descent's fold into the monomial does.
            group, n = next(groups), int(power) if caret else 1
            if n:
                group = _power(group, n, _product, None)
                product = group if product is None else _product(product, group)
        if product is not None:
            if coeff:
                shift = {tuple(map(add, e, exps)): c * coeff for e, c in product.items()}
                _add_into(sums, shift)
            product = None
            continue
        key = tuple(exps)
        cur = sums.get(key)
        new = coeff if cur is None else cur + coeff
        if new:
            sums[key] = new
        elif cur is not None:
            del sums[key]
    return sums


def parse_poly(
    text: str,
    field: NumberField = GAUSS,
    variables: Sequence[str] = DEFAULT_VARIABLES,
) -> Polynomial:
    """Parse an expression into an exact Polynomial over the session ring:
    a plain sum by _read_sum, any other text by the descent."""
    session = _session(field, variables)
    terms = _read_sum(text, session)
    if terms is not None:
        return Polynomial._trusted(session.field, session.variables, terms)
    source = _Tokens(text)
    if not source.tokens[0]:
        raise ParseError("empty expression", source.span(0))
    return _ExprParser(source, 0, session).parse_polynomial()


def format_poly(poly: Polynomial) -> str:
    """Canonical textual form: terms in ascending total degree, ties broken
    by reverse-lexicographic exponent order; parse_poly round-trips it."""
    parts: list[str] = []
    for exps, coeff in poly.sorted_terms():
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(poly.variables, exps)
            if e > 0
        )
        if coeff.is_rational:
            # num[0] / den is in lowest terms, den > 0, and never zero.
            n, den = coeff.num[0], coeff.den
            mag = str(abs(n)) if den == 1 else f"{abs(n)}/{den}"
            body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
            parts.append(f"{'-' if n < 0 else '+'} {body}")
        else:
            # Non-rational coefficients keep their own signs inside parens.
            body = f"({format_element(coeff)})"
            parts.append(f"+ {body}*{mono}" if mono else f"+ {body}")
    return _signed_join(parts)


# ---------------------------------------------------------------------------
# Resolution script DSL.


@dataclass(frozen=True)
class BlowupDirective:
    """Blow up the origin along `center` and follow the script into the chart
    U_`chart` that the next line names; the other charts resolve on their own.
    Only the last step of a script may have no chart: then all of them do."""

    center: tuple[str, ...]
    span: SourceSpan
    chart: Optional[str] = None


@dataclass(frozen=True)
class SubstDirective:
    """Introduce a new coordinate for `variable`.

    The right-hand side states what the NEW coordinate equals in terms of
    the current ones (e.g. `subst z := z + y*z^4` introduces Z = z + y*z^4);
    the engine rewrites the strict transform in the new coordinate.
    """

    variable: str
    expression: Polynomial
    span: SourceSpan


@dataclass(frozen=True)
class TranslateDirective:
    """Recenter on the point `variable = value`.

    `translate z := z - 1` replaces z by z - 1 in the strict transform, so
    the new origin is the old point z = -1. Note the direction is the
    opposite of subst: here the right-hand side is what gets substituted
    for the variable.
    """

    variable: str
    value: FieldElement
    span: SourceSpan


@dataclass(frozen=True)
class OrbitDirective:
    """Annotate that the analysis below this point holds at `count` conjugate
    points. Nothing replicates the candidates: the tests' replay reads past
    the line, and the grammar keeps it because the recorded script corpus
    (tests/golden/script_corpus.json) draws from scripts that carry it."""

    count: int
    span: SourceSpan


@dataclass(frozen=True)
class StopDirective:
    span: SourceSpan


ScriptStep = Union[
    BlowupDirective,
    SubstDirective,
    TranslateDirective,
    OrbitDirective,
    StopDirective,
]


@dataclass(frozen=True)
class ResolutionScript:
    steps: tuple[ScriptStep, ...]


def parse_script(
    text: str,
    field: NumberField = GAUSS,
    variables: Sequence[str] = DEFAULT_VARIABLES,
) -> ResolutionScript:
    """Parse the line-oriented script DSL.

    One directive per line: `blowup x y z` (a `chart z` line after it names
    the chart to follow), `subst z := z + y*z^4`, `translate z := z - 1`,
    `orbit 2`, `stop`. Blank lines and text after '#' are ignored; a line
    ends at '\n', '\r\n' or '\r' only.
    """
    session = _session(field, variables)
    steps: list[ScriptStep] = []
    stopped = False
    for line_no, raw in enumerate(_LINE_BREAK.split(text), start=1):
        line = raw.split("#", 1)[0]
        head = line.lstrip()
        if not head:
            continue
        source = _Tokens(line, line_no)
        # tokens[0] is the command, after the line's leading whitespace, and
        # tokens[-1] the EOF token ''.
        tokens, span = source.tokens, source.span
        command = tokens[0]
        head_span = SourceSpan(line_no, len(line) - len(head) + 1, len(command))
        if not _is_name(command):
            raise ScriptError(f"expected a script command", head_span)
        if stopped:
            raise ScriptError("no steps allowed after stop", head_span)

        if command == "blowup":
            names = []
            for k, tok in enumerate(tokens[1:-1], start=1):
                if tok not in session.variables:
                    raise ScriptError(
                        f"blowup center must list session variables", span(k)
                    )
                names.append(tok)
            if len(set(names)) != len(names):
                raise ScriptError("duplicate variable in blowup center", head_span)
            if len(names) < 2:
                raise ScriptError(
                    "blowup center needs at least 2 variables", head_span
                )
            steps.append(BlowupDirective(tuple(names), head_span))
            continue

        if command == "chart":
            blowup = steps[-1] if steps else None
            if not isinstance(blowup, BlowupDirective) or blowup.chart is not None:
                raise ScriptError("chart must immediately follow blowup", head_span)
            if len(tokens) != 3 or not _is_name(tokens[1]):
                raise ScriptError("usage: chart VARIABLE", head_span)
            var = tokens[1]
            if var not in blowup.center:
                raise ScriptError(
                    f"chart variable {var!r} not in the blowup center", span(1)
                )
            steps[-1] = BlowupDirective(blowup.center, blowup.span, var)
            continue

        if command in ("subst", "translate"):
            if len(tokens) < 4 or not _is_name(tokens[1]):
                raise ScriptError(f"usage: {command} VARIABLE := EXPRESSION", head_span)
            var = tokens[1]
            if var not in session.variables:
                raise ScriptError(f"unknown variable {var!r}", span(1))
            if tokens[2] != ":=":
                raise ScriptError("expected ':='", span(2))
            expression = _ExprParser(source, 3, session).parse_polynomial()
            if command == "subst":
                steps.append(SubstDirective(var, expression, head_span))
            else:
                var_poly = Polynomial.variable(session.field, session.variables, var)
                shift = expression - var_poly
                if shift.variables_present():
                    raise ScriptError(
                        "translate right-hand side must be the variable "
                        "plus a field constant",
                        head_span,
                    )
                steps.append(TranslateDirective(var, shift.constant_term, head_span))
            continue

        if command == "orbit":
            if len(tokens) != 3 or not tokens[1][0].isdecimal():
                raise ScriptError("usage: orbit COUNT", head_span)
            count = source.integer(1)
            if count < 1:
                raise ScriptError("orbit count must be at least 1", span(1))
            steps.append(OrbitDirective(count, head_span))
            continue

        if command == "stop":
            if tokens[1]:
                raise ScriptError("stop takes no arguments", span(1))
            steps.append(StopDirective(head_span))
            stopped = True
            continue

        raise ScriptError(f"unknown command {command!r}", head_span)

    # A blowup without a chart is allowed only as the final step (all
    # children then resolve automatically). Checked after the loop, so an
    # error inside the next line is reported first.
    for step, after in zip(steps, steps[1:]):
        if isinstance(step, BlowupDirective) and step.chart is None:
            raise ScriptError(
                "blowup must be followed by chart (or end the script)", after.span
            )
    return ResolutionScript(tuple(steps))
