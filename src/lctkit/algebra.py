"""Exact arithmetic: a rational number field with one generator, and sparse
multivariate polynomials over it.

A NumberField is Q[t] modulo a monic rational polynomial. A modulus that is
not squarefree or has a rational root is rejected up front; any other
reducible modulus, such as (t^2+1)(t^2+2), is taken on faith: some inversion
will eventually hit a zero divisor and raise, which is the designed failure
mode. FieldElement and Polynomial are immutable values; every operation
returns a new object and nothing here mutates shared state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterator, Mapping, Sequence, Union

from .errors import (
    FieldError,
    FieldMismatchError,
    VariableMismatchError,
    ZeroDivisorError,
    ZeroPolynomialError,
)

Rational = Union[Fraction, int]


def _fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {value!r}")


# ---------------------------------------------------------------------------
# Univariate helpers over Q[t], used only for modulus arithmetic.
# Polynomials are tuples of Fractions, low degree first, no trailing zeros.


def _uni_trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _uni_divmod(a: tuple[Fraction, ...], b: tuple[Fraction, ...]):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        factor = rem[shift + len(b) - 1] / lead
        if factor == 0:
            continue
        quo[shift] = factor
        for i, bc in enumerate(b):
            rem[shift + i] -= factor * bc
    return _uni_trim(quo), _uni_trim(rem)


def _uni_ext_gcd(a: tuple[Fraction, ...], b: tuple[Fraction, ...]):
    """Extended Euclid in Q[t]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = a, b
    s0, s1 = (Fraction(1),), ()
    t0, t1 = (), (Fraction(1),)
    while r1:
        q, r = _uni_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _uni_sub(s0, _uni_mul(q, s1))
        t0, t1 = t1, _uni_sub(t0, _uni_mul(q, t1))
    return r0, s0, t0


def _uni_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ac in enumerate(a):
        if ac == 0:
            continue
        for j, bc in enumerate(b):
            out[i + j] += ac * bc
    return _uni_trim(out)


def _uni_sub(a, b):
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for i, bc in enumerate(b):
        out[i] -= bc
    return _uni_trim(out)


def _divisors(n: int) -> list[int]:
    """Positive divisors of n > 0, by trial division."""
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return small + [n // k for k in reversed(small) if k * k != n]


def _rational_root(coeffs: Sequence[Fraction]):
    """A rational root of the polynomial, or None (the rational-root test)."""
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    if ints[0] == 0:
        return Fraction(0)
    for p in _divisors(abs(ints[0])):
        for q in _divisors(abs(ints[-1])):
            for root in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * root**k for k, c in enumerate(ints)) == 0:
                    return root
    return None


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumberField:
    """Q(g) for g a root of a monic rational polynomial.

    minpoly_tail holds the coefficients of t^0 .. t^(m-1); the leading 1 is
    implicit. Construct through NumberField.make, which validates the shape.
    """

    generator_name: str
    minpoly_tail: tuple[Fraction, ...]

    @staticmethod
    def make(minpoly: Sequence[Rational], generator_name: str = "i") -> "NumberField":
        """Build a field from the full coefficient list, low degree first.

        The list must describe a monic polynomial of degree at least 1,
        e.g. (1, 0, 1) for t^2 + 1. It must also be squarefree and, from
        degree 2 on, have no rational root; irreducibility beyond that is not
        checked.
        """
        coeffs = [_fraction(c) for c in minpoly]
        if len(coeffs) < 2:
            raise FieldError("minimal polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise FieldError("minimal polynomial must be monic")
        if not generator_name.isidentifier():
            raise FieldError(f"bad generator name {generator_name!r}")
        derivative = _uni_trim([k * c for k, c in enumerate(coeffs)][1:])
        if len(_uni_ext_gcd(tuple(coeffs), derivative)[0]) != 1:
            raise FieldError("minimal polynomial must be squarefree")
        root = _rational_root(coeffs) if len(coeffs) > 2 else None
        if root is not None:
            raise FieldError(
                f"minimal polynomial has the rational root {root}, so it is reducible"
            )
        return NumberField(generator_name, tuple(coeffs[:-1]))

    @property
    def degree(self) -> int:
        return len(self.minpoly_tail)

    def element(self, coeffs: Sequence[Rational]) -> "FieldElement":
        vals = [_fraction(c) for c in coeffs]
        if len(vals) > self.degree:
            raise FieldError(
                f"coefficient vector longer than field degree {self.degree}"
            )
        vals += [Fraction(0)] * (self.degree - len(vals))
        return FieldElement(self, tuple(vals))

    def rational(self, value: Rational) -> "FieldElement":
        return self.element([_fraction(value)])

    def zero(self) -> "FieldElement":
        return self.rational(0)

    def one(self) -> "FieldElement":
        return self.rational(1)

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            # t + c0 = 0, so the generator is the rational -c0.
            return self.rational(-self.minpoly_tail[0])
        return self.element([0, 1])

    def coerce(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(
                    f"element of Q({value.field.generator_name}) used in "
                    f"Q({self.generator_name})"
                )
            return value
        return self.rational(value)


@dataclass(frozen=True)
class FieldElement:
    """An element of a NumberField, stored as coordinates in the power basis."""

    field: NumberField
    coeffs: tuple[Fraction, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise FieldError(f"{self} is not rational")
        return self.coeffs[0]

    def _coerce(self, other) -> "FieldElement":
        return self.field.coerce(other)

    def __add__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> "FieldElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "FieldElement":
        return self._coerce(other) - self

    def __mul__(self, other) -> "FieldElement":
        other = self._coerce(other)
        m = self.field.degree
        prod = [Fraction(0)] * (2 * m - 1) if m > 1 else [Fraction(0)]
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        tail = self.field.minpoly_tail
        # Fold t^k for k >= m down using t^m = -tail.
        for k in range(len(prod) - 1, m - 1, -1):
            c = prod[k]
            if c == 0:
                continue
            prod[k] = Fraction(0)
            for j, tc in enumerate(tail):
                prod[k - m + j] -= c * tc
        return FieldElement(self.field, tuple(prod[:m]))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisorError("division by zero")
        modulus = tuple(self.field.minpoly_tail) + (Fraction(1),)
        g, s, _ = _uni_ext_gcd(_uni_trim(self.coeffs), modulus)
        if len(g) != 1:
            raise ZeroDivisorError(
                f"{self} is a zero divisor: the minimal polynomial of "
                f"{self.field.generator_name} is reducible"
            )
        inv = _uni_mul(s, (Fraction(1) / g[0],))
        _, inv = _uni_divmod(inv, modulus)
        vals = list(inv) + [Fraction(0)] * (self.field.degree - len(inv))
        return FieldElement(self.field, tuple(vals))

    def __truediv__(self, other) -> "FieldElement":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "FieldElement":
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if not isinstance(n, int) or n < 0:
            raise ValueError("field exponent must be a non-negative integer")
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"FieldElement({format_element(self)})"


def format_element(el: FieldElement) -> str:
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


# Fields used throughout the tests and as CLI defaults.
GAUSS = NumberField.make((1, 0, 1), "i")
EISENSTEIN = NumberField.make((1, 1, 1), "j")
RATIONALS = NumberField.make((0, 1), "q")


def term_sort_key(exponents: tuple[int, ...]):
    """Canonical term order: ascending total degree, then reverse
    lexicographic on the exponent vector, so x^2 sorts before y^2."""
    return (sum(exponents), tuple(-e for e in exponents))


class Polynomial:
    """Sparse polynomial over a NumberField with a fixed ordered variable tuple.

    Terms map exponent tuples to nonzero FieldElements. Instances are
    immutable by convention: no method mutates self.
    """

    __slots__ = ("field", "variables", "terms", "_hash")

    def __init__(
        self,
        field: NumberField,
        variables: tuple[str, ...],
        terms: Mapping[tuple[int, ...], FieldElement],
    ):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "variables", tuple(variables))
        clean: dict[tuple[int, ...], FieldElement] = {}
        nvars = len(self.variables)
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise VariableMismatchError(
                    f"exponent vector {exps} does not match variables "
                    f"{self.variables}"
                )
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"exponents must be non-negative integers: {exps}")
            coeff = field.coerce(coeff)
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(field: NumberField, variables: Sequence[str]) -> "Polynomial":
        return Polynomial(field, tuple(variables), {})

    @staticmethod
    def constant(field: NumberField, variables: Sequence[str], value) -> "Polynomial":
        variables = tuple(variables)
        return Polynomial(field, variables, {(0,) * len(variables): field.coerce(value)})

    @staticmethod
    def one(field: NumberField, variables: Sequence[str]) -> "Polynomial":
        return Polynomial.constant(field, variables, 1)

    @staticmethod
    def variable(field: NumberField, variables: Sequence[str], name: str) -> "Polynomial":
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatchError(f"unknown variable {name!r} in {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return Polynomial(field, variables, {exps: field.one()})

    @staticmethod
    def monomial(
        field: NumberField,
        variables: Sequence[str],
        exponents: Mapping[str, int],
        coeff=1,
    ) -> "Polynomial":
        variables = tuple(variables)
        unknown = set(exponents) - set(variables)
        if unknown:
            raise VariableMismatchError(f"unknown variables {sorted(unknown)}")
        exps = tuple(exponents.get(v, 0) for v in variables)
        return Polynomial(field, variables, {exps: field.coerce(coeff)})

    # -- ring structure ------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.field != other.field:
            raise FieldMismatchError("polynomials over different fields")
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"variable tuples differ: {self.variables} vs {other.variables}"
            )

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_ring(other)
            return other
        return Polynomial.constant(self.field, self.variables, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            cur = terms.get(exps)
            new = coeff if cur is None else cur + coeff
            if new:
                terms[exps] = new
            elif cur is not None:
                del terms[exps]
        return Polynomial(self.field, self.variables, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(
            self.field, self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            scalar = self.field.coerce(other)
            return Polynomial(
                self.field,
                self.variables,
                {e: c * scalar for e, c in self.terms.items()},
            )
        self._check_ring(other)
        terms: dict[tuple[int, ...], FieldElement] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                cur = terms.get(exps)
                new = prod if cur is None else cur + prod
                if new:
                    terms[exps] = new
                elif cur is not None:
                    del terms[exps]
        return Polynomial(self.field, self.variables, terms)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        scalar = self.field.coerce(other)
        return self * scalar.inverse()

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        out = Polynomial.one(self.field, self.variables)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.field == other.field
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            items = tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))
            object.__setattr__(
                self, "_hash", hash((self.field, self.variables, items))
            )
        return self._hash

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
        return tuple(sorted(self.terms.keys(), key=term_sort_key))

    def sorted_terms(self) -> Iterator[tuple[tuple[int, ...], FieldElement]]:
        for exps in self.support():
            yield exps, self.terms[exps]

    def variables_present(self) -> tuple[str, ...]:
        present = [False] * len(self.variables)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    present[i] = True
        return tuple(v for v, p in zip(self.variables, present) if p)

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
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[idx] == power:
                stripped = exps[:idx] + (0,) + exps[idx + 1 :]
                terms[stripped] = terms.get(stripped, self.field.zero()) + coeff
        return Polynomial(self.field, self.variables, terms)

    # -- calculus and rewriting ----------------------------------------------

    def partial(self, name: str) -> "Polynomial":
        idx = self._var_index(name)
        terms: dict[tuple[int, ...], FieldElement] = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            new_exps = exps[:idx] + (e - 1,) + exps[idx + 1 :]
            add = coeff * e
            cur = terms.get(new_exps)
            new = add if cur is None else cur + add
            if new:
                terms[new_exps] = new
            elif cur is not None:
                del terms[new_exps]
        return Polynomial(self.field, self.variables, terms)

    def substitute(self, assignments: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Simultaneously replace variables by polynomials from the same ring.

        Variables absent from the mapping map to themselves.
        """
        unknown = set(assignments) - set(self.variables)
        if unknown:
            raise VariableMismatchError(f"unknown variables {sorted(unknown)}")
        images: list[Polynomial] = []
        for name in self.variables:
            img = assignments.get(name)
            if img is None:
                img = Polynomial.variable(self.field, self.variables, name)
            else:
                self._check_ring(img)
            images.append(img)
        result = Polynomial.zero(self.field, self.variables)
        power_cache: dict[tuple[int, int], Polynomial] = {}
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(self.field, self.variables, coeff)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                key = (i, e)
                pw = power_cache.get(key)
                if pw is None:
                    pw = images[i] ** e
                    power_cache[key] = pw
                term = term * pw
            result = result + term
        return result

    def monomial_content(self, name: str) -> tuple[int, "Polynomial"]:
        """Split off the largest power of one variable: f = name**k * g with
        g having content 0 in name. Returns (k, g)."""
        if not self.terms:
            raise ZeroPolynomialError("content of the zero polynomial")
        idx = self._var_index(name)
        k = min(e[idx] for e in self.terms)
        if k == 0:
            return 0, self
        terms = {
            exps[:idx] + (exps[idx] - k,) + exps[idx + 1 :]: coeff
            for exps, coeff in self.terms.items()
        }
        return k, Polynomial(self.field, self.variables, terms)

    def coordinate_content(self) -> tuple[dict[str, int], "Polynomial"]:
        """Extract the full monomial factor: f = (prod v**k_v) * g."""
        exponents: dict[str, int] = {}
        g = self
        for name in self.variables:
            k, g = g.monomial_content(name)
            if k:
                exponents[name] = k
        return exponents, g

    def evaluate(self, values: Sequence) -> FieldElement:
        if len(values) != len(self.variables):
            raise VariableMismatchError(
                f"expected {len(self.variables)} values, got {len(values)}"
            )
        points = [self.field.coerce(v) for v in values]
        total = self.field.zero()
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(points, exps):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def __str__(self) -> str:
        from .parser import format_poly

        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({self!s})"
