"""The extended-gcd field inverse: an independent reference for
FieldElement.inverse, which solves a * b = 1 by fraction-free elimination
on the matrix of multiplication by a, and for NumberField's squarefree
verdict, which reads the end of the modulus's Sturm chain.

Extended Euclid runs in Q[t] on tuples of Fractions, low degree first, with
no trailing zeros. `_uni_trim` and `_uni_derivative` come from
lctkit.algebra, where the Sturm chain still uses them; the Sturm chain needs
only remainders, so the division with quotient lives here.
"""

from fractions import Fraction

from lctkit.algebra import _uni_derivative, _uni_trim
from lctkit.errors import ZeroDivisorError


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


def inverse(self):
    """The inverse of the FieldElement self, by extended Euclid against the
    modulus."""
    if self.is_zero():
        raise ZeroDivisorError("division by zero")
    modulus = tuple(self.field.minpoly_tail) + (Fraction(1),)
    # The modulus is irreducible, so the gcd is a nonzero constant.
    g, s, _ = _uni_ext_gcd(_uni_trim(self.coeffs), modulus)
    inv = _uni_mul(s, (Fraction(1) / g[0],))
    return self.field.element(_uni_divmod(inv, modulus)[1])


def squarefree(coeffs) -> bool:
    """True iff the polynomial with these coefficients, low degree first, is
    squarefree: its gcd with its derivative is a nonzero constant."""
    coeffs = tuple(map(Fraction, coeffs))
    return len(_uni_ext_gcd(coeffs, _uni_derivative(coeffs))[0]) == 1
