"""Exact arithmetic: a rational number field with one generator, and sparse
multivariate polynomials over it.

A NumberField is Q[t] modulo a monic rational polynomial that is proved
irreducible when the field is built: it has degree 1, or degree 2 or 3 and
no rational root, since a factorization of such a polynomial needs a linear
factor. Degree 4 and up is refused, since (t^2+1)(t^2+2) has no rational
root either. Every ring is therefore a field, where a product of nonzero
elements is nonzero. FieldElement and Polynomial are immutable values; every
operation returns a new object and nothing here mutates shared state.

A FieldElement is integer numerators of its power-basis coordinates over
one positive denominator, in lowest terms, so values compare and hash as
tuples. With both denominators 1, +, - and * use Python ints only; a
general product folds by the modulus tail, kept as integers over one
denominator, and one gcd reduces it. `coeffs` (Fractions) is derived.

Each ring result is built once. The public `Polynomial(...)` constructor
guards outside input: it checks every exponent vector and coerces every
coefficient into the field. A ring operation (+, -, *, **, partial,
substitute, coordinate_content, coefficient_of) combines terms that are
already valid in one ring, so it builds its result with `_with_terms`, which
skips those checks. That is sound only under the invariant every such path
keeps: the exponent tuples have one entry per variable, and no stored
coefficient is zero. A product of stored coefficients is then nonzero, so
only sums can cancel, and is_zero() stays exact.

One routine does each job. One loop over pairs of terms, `_product`,
serves every product of term dicts, and one square-and-multiply, `_power`,
every power: of term dicts, of int numerator dicts and of FieldElements,
rational ones included (** has no shortcut of its own). A sum that cancels
is deleted where it happens, so a result lists its terms in the order in
which the pair loop first reaches them, whatever the coefficients.
`_pow_terms` is the only term-dict power, behind `**`, the parser's '^' and
each power of a wide image that substitute folds; nothing memoizes them.
Its int lift runs a power whose coefficients are all rational with den 1 on
the int numerators and builds one FieldElement per result term at the end,
so the parser's (v + m*w)^e builds no element per partial sum; a product of
two polynomials has no such lift, since no caller multiplies two integral
polynomials of several terms each. FieldElement * with a rational operand
scales the numerators by one integer ratio instead of reducing mod the
modulus. `_pivot` is the one elimination, fraction-free: the field inverse
and the Newton oracle's simplex both pivot with it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterator, Optional, Sequence, Union

from .errors import (
    FieldError,
    FieldMismatchError,
    VariableMismatchError,
    ZeroDivisorError,
    ZeroPolynomialError,
)

Rational = Union[Fraction, int]
Terms = dict[tuple[int, ...], "FieldElement"]


def _parts(value: Rational) -> tuple[int, int]:
    """The numerator and denominator of an int or a Fraction, unbuilt."""
    if isinstance(value, (int, Fraction)):
        return int(value.numerator), value.denominator
    raise TypeError(f"expected an integer or Fraction, got {value!r}")


# ---------------------------------------------------------------------------
# Univariate helpers over Q[t], used only for modulus arithmetic.
# Polynomials are tuples of Fractions, low degree first, no trailing zeros.


def _uni_trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _uni_rem(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """The remainder of a by b, for b nonzero."""
    rem = list(a)
    lead = b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        factor = rem[shift + len(b) - 1] / lead
        if factor:
            for i, bc in enumerate(b):
                rem[shift + i] -= factor * bc
    return _uni_trim(rem)


def _uni_derivative(a: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return _uni_trim([k * c for k, c in enumerate(a)][1:])


def _uni_eval(coeffs: Sequence, x):
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _integer_root(q: Sequence[int], chain: Sequence[tuple[Fraction, ...]]):
    """An integer root of the monic squarefree integer polynomial q, or None.

    Sturm's theorem counts the distinct real roots in (lo, hi] as the drop
    in sign changes of q's Sturm chain q, q', -rem, ...; integer bisection
    of the Cauchy interval then isolates each root to a unit interval, whose
    right end is tested exactly. The cost is polynomial in the bit size of q.
    """

    def sign_changes(x: int) -> int:
        signs = [v > 0 for v in (_uni_eval(p, x) for p in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in q[:-1])
    pending = [(-bound - 1, bound)]
    while pending:
        lo, hi = pending.pop()
        if sign_changes(lo) == sign_changes(hi):
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            pending += [(lo, mid), (mid, hi)]
        elif _uni_eval(q, hi) == 0:
            return hi
    return None


def reads_as_name(text: str) -> bool:
    """True iff text reads back as one NAME token of parser.py, as variable and
    generator names must: an identifier of str.isalnum or '_' characters that
    starts with a letter or '_'. Not so 'Ⅻ' (a letter number) or 'a·b'."""
    if text.isascii():  # every ASCII identifier does
        return text.isidentifier()
    word = text.replace("_", "a")  # '_' counts as a letter
    return text.isidentifier() and word[:1].isalpha() and word.isalnum()


# ---------------------------------------------------------------------------
# Fraction-free elimination. A tableau is a list of integer rows standing for
# rows / den, with den > 0 their common denominator. Every entry is then
# +-adj(B) M for the current basis B of the starting integer matrix M, so a
# pivot's division by the old den is exact (Edmonds 1967; Bareiss, Math.
# Comp. 22, 1968) and no Fraction is built while pivoting.


def _pivot(rows: list[list[int]], r: int, j: int, den: int) -> int:
    """Pivot on rows[r][j] in place; returns the new common denominator."""
    p = rows[r][j]
    pivot_row = rows[r] if p > 0 else [-a for a in rows[r]]
    p = abs(p)
    for i, row in enumerate(rows):
        factor = row[j]
        if i != r and (factor or p != den):
            rows[i] = [(p * a - factor * b) // den for a, b in zip(row, pivot_row)]
    rows[r] = pivot_row
    return p


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumberField:
    """Q(g) for g a root of a monic rational polynomial.

    minpoly_tail holds the coefficients of t^0 .. t^(m-1); the leading 1 is
    implicit. Every instance, however built, passes the modulus checks of
    __post_init__: one Sturm chain of the modulus scaled to integers, whose
    end decides squarefreeness and whose sign changes find a rational root.
    The tail is kept as integers over one denominator (`_tail`) for the
    element product.
    """

    generator_name: str
    minpoly_tail: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        tail = tuple(Fraction(*_parts(c)) for c in self.minpoly_tail)
        object.__setattr__(self, "minpoly_tail", tail)
        if not 1 <= len(tail) <= 3:
            raise FieldError(
                f"minimal polynomial must have degree 1, 2 or 3, where having "
                f"no rational root proves it irreducible, not {len(tail)}"
            )
        if not reads_as_name(self.generator_name):
            raise FieldError(f"bad generator name {self.generator_name!r}")
        # With D the lcm of the denominators, q(s) = D^m P(s/D) is monic with
        # integer coefficients, so the rational roots of P are s/D for the
        # integer roots s of q, and P is squarefree iff q is. Euclid's
        # remainder sequence of q and q', each remainder negated, is q's
        # Sturm chain; it ends in a nonzero constant exactly when q is
        # squarefree, and in the zero polynomial () otherwise.
        den, m = lcm(*(c.denominator for c in tail)), len(tail)
        q = [int(c * den ** (m - k)) for k, c in enumerate(tail)] + [1]
        chain = [tuple(map(Fraction, q))]
        chain.append(_uni_derivative(chain[0]))
        while len(chain[-1]) > 1:
            chain.append(tuple(-c for c in _uni_rem(chain[-2], chain[-1])))
        if len(chain[-1]) != 1:
            raise FieldError("minimal polynomial must be squarefree")
        root = _integer_root(q, chain) if m > 1 else None
        if root is not None:
            raise FieldError(
                f"minimal polynomial has the rational root {Fraction(root, den)}, "
                "so it is reducible"
            )
        zeros = (0,) * (self.degree - 1)
        object.__setattr__(self, "_tail", (tuple(int(c * den) for c in tail), den))
        object.__setattr__(self, "_zeros", zeros)
        object.__setattr__(self, "_zero", _element(self, (0,) + zeros, 1))
        object.__setattr__(self, "_one", _element(self, (1,) + zeros, 1))

    @staticmethod
    def make(minpoly: Sequence[Rational], generator_name: str = "i") -> "NumberField":
        """Build a field from the full coefficient list, low degree first, e.g.
        (1, 0, 1) for t^2 + 1. The list must describe a monic polynomial."""
        coeffs = [Fraction(*_parts(c)) for c in minpoly]
        if not coeffs or coeffs[-1] != 1:
            raise FieldError("minimal polynomial must be monic")
        return NumberField(generator_name, tuple(coeffs[:-1]))

    @property
    def degree(self) -> int:
        return len(self.minpoly_tail)

    def element(self, coeffs: Sequence[Rational]) -> "FieldElement":
        parts = [_parts(c) for c in coeffs]
        if len(parts) > self.degree:
            raise FieldError(
                f"coefficient vector longer than field degree {self.degree}"
            )
        # Over the lcm of the denominators, the numerators have no common
        # factor with it: each prime power of it divides one denominator.
        den = lcm(*(d for _, d in parts))
        num = tuple(n * (den // d) for n, d in parts)
        return _element(self, num + (0,) * (self.degree - len(num)), den)

    def rational(self, value: Rational) -> "FieldElement":
        n, d = (value, 1) if value.__class__ is int else _parts(value)
        return _element(self, (n,) + self._zeros, d)

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            # t + c0 = 0, so the generator is the rational -c0.
            return self.rational(-self.minpoly_tail[0])
        return self.element([0, 1])

    def coerce(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise FieldMismatchError(
                    f"element of Q({value.field.generator_name}) used in "
                    f"Q({self.generator_name})"
                )
            return value
        return self.rational(value)


class FieldElement:
    """An element of a NumberField, immutable: its power-basis coordinates
    are num[k] / den, with den > 0 and gcd(den, *num) == 1 (zero is 0/1), so
    equal elements have equal num and den. NumberField builds them."""

    __slots__ = ("field", "num", "den")

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions, low degree first."""
        return tuple(Fraction(n, self.den) for n in self.num)

    def __eq__(self, other) -> bool:
        if other.__class__ is not FieldElement:
            return NotImplemented
        return self.num == other.num and self.den == other.den and (
            self.field is other.field or self.field == other.field
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise FieldError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def _combine(self, other: "FieldElement", op) -> "FieldElement":
        """self + other or self - other, for op add or sub."""
        d, e = self.den, other.den
        if d == e:
            return _reduced(self.field, tuple(map(op, self.num, other.num)), d)
        num = tuple(op(a * e, b * d) for a, b in zip(self.num, other.num))
        return _reduced(self.field, num, d * e)

    def __add__(self, other) -> "FieldElement":
        return self._combine(self.field.coerce(other), add)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return _element(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other) -> "FieldElement":
        return self._combine(self.field.coerce(other), sub)

    def __rsub__(self, other) -> "FieldElement":
        return self.field.coerce(other)._combine(self, sub)

    def __mul__(self, other) -> "FieldElement":
        other = self.field.coerce(other)
        a, b = self.num, other.num
        if not any(b[1:]):
            return self._scale(b[0], other.den)
        if not any(a[1:]):
            return other._scale(a[0], self.den)
        m = len(a)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        # Fold t^k for k >= m down using t^m = -tail / tden, first scaling
        # every coordinate and the denominator by tden when it is not 1.
        tail, tden = self.field._tail
        den = self.den * other.den
        for k in range(len(prod) - 1, m - 1, -1):
            c = prod[k]
            if c:
                if tden != 1:
                    prod = [p * tden for p in prod]
                    den *= tden
                for j, tc in enumerate(tail):
                    prod[k - m + j] -= c * tc
        return _reduced(self.field, tuple(prod[:m]), den)

    def _scale(self, n: int, d: int = 1) -> "FieldElement":
        """self * (n / d), for d > 0."""
        return _reduced(self.field, tuple([c * n for c in self.num]), self.den * d)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """The b with self * b = 1, by one fraction-free elimination (_pivot).
        Column k of an integer matrix holds the numerators of self * t^k over
        its den_k, from the field's own product, and e_0 is appended. The ring
        is a field, so that matrix is invertible and each column pivots on an
        unpivoted row with a nonzero entry; that row then reads det * y_k =
        rhs, and coordinate k of b is den_k * y_k."""
        if self.is_zero():
            raise ZeroDivisorError("division by zero")
        field, m = self.field, len(self.num)
        columns = [self]
        while len(columns) < m:
            columns.append(columns[-1] * _element(field, (0, 1) + field._zeros[1:], 1))
        rows = [[c.num[i] for c in columns] + [int(not i)] for i in range(m)]
        pivots, det = [], 1
        for k in range(m):
            r = next(i for i in range(m) if i not in pivots and rows[i][k])
            det = _pivot(rows, r, k, det)
            pivots.append(r)
        return _reduced(field, tuple(c.den * rows[r][-1] for c, r in zip(columns, pivots)), det)

    def __truediv__(self, other) -> "FieldElement":
        return self * self.field.coerce(other).inverse()

    def __rtruediv__(self, other) -> "FieldElement":
        return self.field.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if not isinstance(n, int) or n < 0:
            raise ValueError("field exponent must be a non-negative integer")
        return _power(self, n, mul, self.field.one())

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"FieldElement({format_element(self)})"


_new = object.__new__
_set_element_field = FieldElement.field.__set__
_set_element_num = FieldElement.num.__set__
_set_element_den = FieldElement.den.__set__


def _element(field: NumberField, num: tuple[int, ...], den: int) -> FieldElement:
    """The element num / den, given in lowest terms with den > 0."""
    el = _new(FieldElement)
    _set_element_field(el, field)
    _set_element_num(el, num)
    _set_element_den(el, den)
    return el


def _reduced(field: NumberField, num: tuple[int, ...], den: int) -> FieldElement:
    """The element num / den for any den > 0, put in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num, den = tuple(c // g for c in num), den // g
    return _element(field, num, den)


def format_element(el: FieldElement) -> str:
    """Render an element as '3', '-1 - i', '1/2 + 3*i^2', etc."""
    name, den = el.field.generator_name, el.den
    parts: list[str] = []
    for k, n in enumerate(el.num):
        if n:
            # |n| / den in lowest terms, as str(Fraction) prints it.
            g = gcd(n, den)
            mag = str(abs(n) // g) if den == g else f"{abs(n) // g}/{den // g}"
            if k:
                gen = name if k == 1 else f"{name}^{k}"
                mag = gen if mag == "1" else f"{mag}*{gen}"
            parts.append(f"{'-' if n < 0 else '+'} {mag}")
    return _signed_join(parts)


def _signed_join(parts: list[str]) -> str:
    """The terms '+ body' or '- body' as one sum, the first as 'body' or
    '-body'; no terms is '0'. format_poly shares it."""
    text = " ".join(parts)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else f"-{text[2:]}"


# The default field of the CLI and the catalogue.
GAUSS = NumberField.make((1, 0, 1), "i")


class Polynomial:
    """Sparse polynomial over a NumberField with a fixed ordered variable tuple.

    Terms map exponent tuples to nonzero FieldElements. Instances are
    immutable by convention: no method mutates self.
    """

    __slots__ = ("field", "variables", "terms")

    def __init__(
        self,
        field: NumberField,
        variables: tuple[str, ...],
        terms: Mapping[tuple[int, ...], FieldElement],
    ):
        variables = tuple(variables)
        clean: Terms = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise VariableMismatchError(
                    f"exponent vector {exps} does not match variables {variables}"
                )
            if not all(
                isinstance(e, int) and not isinstance(e, bool) and e >= 0
                for e in exps
            ):
                raise ValueError(f"exponents must be non-negative integers: {exps}")
            coeff = field.coerce(coeff)
            if coeff:
                clean[exps] = coeff
        _set_field(self, field)
        _set_variables(self, variables)
        _set_terms(self, clean)

    @staticmethod
    def _trusted(
        field: NumberField, variables: tuple[str, ...], terms: Terms
    ) -> "Polynomial":
        """A polynomial with the given terms, unchecked. The caller guarantees
        one exponent per variable and no zero coefficient, as every ring
        operation on valid polynomials of one ring can."""
        poly = _new(Polynomial)
        _set_field(poly, field)
        _set_variables(poly, variables)
        _set_terms(poly, terms)
        return poly

    def _with_terms(self, terms: Terms) -> "Polynomial":
        """A polynomial of this ring with the given terms, unchecked."""
        return Polynomial._trusted(self.field, self.variables, terms)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(field: NumberField, variables: Sequence[str]) -> "Polynomial":
        return Polynomial(field, tuple(variables), {})

    @staticmethod
    def constant(field: NumberField, variables: Sequence[str], value) -> "Polynomial":
        return Polynomial.monomial(field, variables, {}, value)

    @staticmethod
    def variable(field: NumberField, variables: Sequence[str], name: str) -> "Polynomial":
        return Polynomial.monomial(field, variables, {name: 1})

    @staticmethod
    def monomial(
        field: NumberField,
        variables: Sequence[str],
        exponents: Mapping[str, int],
        coeff=1,
    ) -> "Polynomial":
        """coeff * prod v**e over exponents; the constructor checks the
        exponents and the coefficient."""
        variables = tuple(variables)
        if any(v not in variables for v in exponents):
            unknown = set(exponents) - set(variables)
            raise VariableMismatchError(f"unknown variables {sorted(unknown)}")
        exps = tuple(exponents.get(v, 0) for v in variables)
        return Polynomial(field, variables, {exps: coeff})

    # -- ring structure ------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            _check_ring(self.field, self.variables, other)
            return other
        return Polynomial.constant(self.field, self.variables, other)

    def __add__(self, other) -> "Polynomial":
        terms = dict(self.terms)
        _add_into(terms, self._coerce(other).terms)
        return self._with_terms(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self._with_terms({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        return self._with_terms(_mul_terms(self.terms, self._coerce(other).terms))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        scalar = self.field.coerce(other)
        return self * scalar.inverse()

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        one = {(0,) * len(self.variables): self.field.one()}
        return self._with_terms(_pow_terms(self.terms, n, one))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            (self.field is other.field or self.field == other.field)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.variables, frozenset(self.terms.items())))

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def constant_term(self) -> FieldElement:
        zero_exps = (0,) * len(self.variables)
        return self.terms.get(zero_exps, self.field.zero())

    def is_unit_at_origin(self) -> bool:
        """True iff the constant term is nonzero, i.e. the polynomial is
        invertible as a power series at the origin."""
        return bool(self.constant_term)

    def support(self) -> tuple[tuple[int, ...], ...]:
        """The exponent vectors in canonical term order: ascending total
        degree, ties in descending lexicographic order (x^2 before y^2)."""
        return tuple(sorted(sorted(self.terms, reverse=True), key=sum))

    def sorted_terms(self) -> Iterator[tuple[tuple[int, ...], FieldElement]]:
        for exps in self.support():
            yield exps, self.terms[exps]

    def variables_present(self) -> tuple[str, ...]:
        return tuple(compress(self.variables, map(any, zip(*self.terms))))

    def total_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomialError("total degree of the zero polynomial")
        return max(sum(e) for e in self.terms)

    def _var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise VariableMismatchError(
                f"unknown variable {name!r} in {self.variables}"
            ) from None

    def degree_in(self, name: str) -> int:
        if not self.terms:
            raise ZeroPolynomialError("degree of the zero polynomial")
        idx = self._var_index(name)
        return max(e[idx] for e in self.terms)

    def order_in(self, name: str) -> int:
        if not self.terms:
            raise ZeroPolynomialError("order of the zero polynomial")
        idx = self._var_index(name)
        return min(e[idx] for e in self.terms)

    def coefficient_of(self, name: str, power: int) -> "Polynomial":
        """The coefficient of name**power, as a polynomial with that
        variable's exponent stripped to zero."""
        idx = self._var_index(name)
        # Terms with one exponent of `name` stay distinct once it is stripped.
        return self._with_terms(
            {
                exps[:idx] + (0,) + exps[idx + 1 :]: coeff
                for exps, coeff in self.terms.items()
                if exps[idx] == power
            }
        )

    # -- calculus and rewriting ----------------------------------------------

    def partial(self, name: str) -> "Polynomial":
        idx = self._var_index(name)
        # Lowering one positive exponent is injective on the terms, and a
        # nonzero coefficient times a positive integer is nonzero.
        return self._with_terms(
            {
                exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]: coeff._scale(exps[idx])
                for exps, coeff in self.terms.items()
                if exps[idx]
            }
        )

    def substitute(self, assignments: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Simultaneously replace variables by polynomials from the same ring.

        Variables absent from the mapping map to themselves. A map compiled
        for this ring (its field object and variable tuple) is folded as it
        is; any other mapping is compiled first, with the checks.
        """
        sub = assignments
        if not (
            sub.__class__ is _Substitution
            and sub.field is self.field
            and sub.variables == self.variables
        ):
            sub = _Substitution(self.field, self.variables, assignments)
        powers = []
        for i, img in sub._wide:
            needed = {exps[i] for exps in self.terms}
            needed.discard(0)
            # No needed exponent is 0, so no power returns a unit.
            powers.append((i, {e: _pow_terms(img.terms, e, None) for e in needed}))
        keep, monomials = sub._keep, sub._monomials
        terms: Terms = {}
        for exps, coeff in self.terms.items():
            # Unmapped variables keep their exponents; each one-term image
            # adds e * a to them and multiplies the coefficient by c^e.
            out = list(map(mul, exps, keep))
            for i, shift, c in monomials:
                e = exps[i]
                if e:
                    for k, n in shift:
                        out[k] += e * n
                    if c is not None:
                        coeff = coeff * c**e
            key = tuple(out)
            if powers:
                term = {key: coeff}
                for i, pw in powers:
                    e = exps[i]
                    if e:
                        term = _mul_terms(term, pw[e])
                _add_into(terms, term)
                continue
            # _add_into for the one term, whose folded coefficient is nonzero
            # in a field: a sum that cancels is deleted.
            cur = terms.get(key)
            if cur is None:
                terms[key] = coeff
                continue
            new = cur + coeff
            if new:
                terms[key] = new
            else:
                del terms[key]
        return self._with_terms(terms)

    def coordinate_content(self) -> tuple[dict[str, int], "Polynomial"]:
        """Extract the full monomial factor: f = (prod v**k_v) * g, with each
        k_v read from one scan of the exponent vectors."""
        if not self.terms:
            raise ZeroPolynomialError("content of the zero polynomial")
        lows = _lowest_exponents(self)
        exponents = {v: k for v, k in zip(self.variables, lows) if k}
        if not exponents:
            return exponents, self
        # Lowering every exponent vector by one vector is injective.
        return exponents, self._with_terms(
            {tuple(map(sub, e, lows)): c for e, c in self.terms.items()}
        )

    def __str__(self) -> str:
        from .parser import format_poly

        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({self!s})"


_set_field = Polynomial.field.__set__
_set_variables = Polynomial.variables.__set__
_set_terms = Polynomial.terms.__set__


def _lowest_exponents(poly: Polynomial) -> list[int]:
    """Each variable's order in poly, from one scan of its terms; empty for
    the zero polynomial."""
    return list(map(min, zip(*poly.terms)))


def _check_ring(field: NumberField, variables: tuple[str, ...], other: Polynomial) -> None:
    if field is not other.field and field != other.field:
        raise FieldMismatchError("polynomials over different fields")
    if variables != other.variables:
        raise VariableMismatchError(
            f"variable tuples differ: {variables} vs {other.variables}"
        )


class _Substitution(Mapping):
    """A substitution compiled for one ring, the field object and variable
    tuple it was checked against, and read as the mapping of its images.

    Compiling runs the checks (unknown variables, each image's ring) and
    splits each image: a one-term image c * x^a into the nonzero entries of
    a and c (None for c = 1), an image with several terms into itself, whose
    powers each fold builds. `keep` is 1 for an unmapped variable, 0 for a
    mapped one. Polynomial.substitute folds it.
    """

    __slots__ = ("field", "variables", "_images", "_keep", "_monomials", "_wide")

    def __init__(
        self,
        field: NumberField,
        variables: tuple[str, ...],
        assignments: Mapping[str, Polynomial],
    ):
        unknown = set(assignments) - set(variables)
        if unknown:
            raise VariableMismatchError(f"unknown variables {sorted(unknown)}")
        images: dict[str, Polynomial] = {}
        monomials: list[tuple[int, list, Optional[FieldElement]]] = []
        wide: list[tuple[int, Polynomial]] = []
        keep = [1] * len(variables)
        for i, name in enumerate(variables):
            img = assignments.get(name)
            if img is None:
                continue
            _check_ring(field, variables, img)
            images[name] = img
            keep[i] = 0
            if len(img.terms) == 1:
                (a, c), = img.terms.items()
                shift = [(k, n) for k, n in enumerate(a) if n]
                monomials.append((i, shift, None if c == field.one() else c))
            else:
                wide.append((i, img))
        self.field, self.variables, self._images = field, variables, images
        self._keep, self._monomials, self._wide = tuple(keep), monomials, wide

    def __getitem__(self, name: str) -> Polynomial:
        return self._images[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._images)

    def __len__(self) -> int:
        return len(self._images)


def _add_into(out: Terms, terms: Terms) -> None:
    """Add the term dict `terms` into `out` in place, storing no zero
    coefficient: zero summands are skipped and cancelled sums deleted."""
    for exps, coeff in terms.items():
        cur = out.get(exps)
        new = coeff if cur is None else cur + coeff
        if new:
            out[exps] = new
        elif cur is not None:
            del out[exps]


def _mul_terms(f: Terms, g: Terms) -> Terms:
    """The product of two term dicts of one ring, with no zero coefficient:
    a shift for a one-term rational factor (scaling unless it is 1), else
    `_product`."""
    if len(f) == 1:
        f, g = g, f
    if len(g) == 1:
        (shift, c), = g.items()
        if c.is_rational:
            n, d = c.num[0], c.den
            if n != d:
                return {tuple(map(add, e, shift)): a._scale(n, d) for e, a in f.items()}
            if any(shift):
                return {tuple(map(add, e, shift)): a for e, a in f.items()}
            return dict(f)
    return _product(f, g)


def _product(f: dict, g: dict) -> dict:
    """The product of two term dicts whose coefficients are FieldElements of
    one field or ints: the one loop over pairs of terms. A product of nonzero
    coefficients is nonzero, so only a sum can cancel, and it is deleted."""
    out: dict = {}
    get = out.get
    for e1, a in f.items():
        for e2, b in g.items():
            e = tuple(map(add, e1, e2))
            cur = get(e)
            s = a * b if cur is None else cur + a * b
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _pow_terms(f: Terms, n: int, one: Terms) -> Terms:
    """The n-th power (n >= 0) of a term dict, the one term-dict power. One
    term c * x^e gives c^n * x^(n e); otherwise the power runs on the int
    numerators when every coefficient is rational with den 1, else on the
    elements. `one` is a fresh unit term dict of the ring, returned for n = 0
    unless f has one term."""
    if len(f) == 1:
        (exps, c), = f.items()
        return {tuple(n * e for e in exps): c**n}
    fi = _integral(f) if f and n else None
    if fi is None:
        return _power(f, n, _product, one)
    return _from_integral(next(iter(f.values())).field, _power(fi, n, _product, None))


def _power(base, n: int, product, one):
    """base**n (n >= 0) by square-and-multiply, the one such loop: for term
    dicts, int numerator dicts and FieldElements. `one` is the power for
    n = 0; every other product is product(out, base) or product(base, base),
    in that order of operands."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else product(out, base)
        n >>= 1
        if n:
            base = product(base, base)
    return one if out is None else out


def _integral(terms: Terms) -> Optional[dict]:
    """The int numerators of a nonempty term dict whose coefficients are all
    rational with den 1, else None."""
    nums = [c.num for c in terms.values() if c.den == 1]
    if len(nums) != len(terms):
        return None
    head, *rest = zip(*nums)
    return None if any(map(any, rest)) else dict(zip(terms, head))


def _from_integral(field: NumberField, nums: dict) -> Terms:
    """The term dict of int numerators, one FieldElement per term."""
    zeros = field._zeros
    return {e: _element(field, (n,) + zeros, 1) for e, n in nums.items()}
