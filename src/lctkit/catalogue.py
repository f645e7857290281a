"""The two-variable-quadratic surface family catalogue: generators, the
classically claimed minimal pole values, and an audit that compares claim,
engine, and polyhedron oracle by exact rational arithmetic. The engine value
of a member is what `lctkit pole` reports for its generator: the `Auto`
resolution read by `lambda_uncapped`.

The claimed values are stored verbatim as the by-hand derivations state
them, including the A-family's parity split and the D-family's two branch
values; the audit never adjusts a claim to match an oracle. Disagreement is
a reportable finding, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import GAUSS, Polynomial
from .blowup import Auto, resolve
from .newton import lambda_newton
from .parser import DEFAULT_VARIABLES, format_poly
from .zeta import lambda_uncapped

FAMILIES = ("A", "D", "E6", "E7", "E8")

# The audited members, in the order of the audit table.
MEMBERS = (
    tuple(("A", n) for n in range(1, 21))
    + tuple(("D", n) for n in range(4, 13))
    + tuple((family, None) for family in ("E6", "E7", "E8"))
)


def _check_family(family: str, n: Optional[int]) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    low = {"A": 1, "D": 4}.get(family)
    if low is None:
        if n is not None:
            raise ValueError(f"family {family} takes no index")
    elif n is None or n < low:
        raise ValueError(f"family {family} needs an index n >= {low}")


def generator(family: str, n: Optional[int] = None) -> Polynomial:
    """The defining polynomial of the family member over GAUSS in x, y, z: one
    term dict of x^2 and two more monomials, all with coefficient 1."""
    _check_family(family, n)
    if family == "A":
        rest = ((0, 2, 0), (0, 0, n + 1))  # y^2 + z^(n+1)
    elif family == "D":
        rest = ((0, 2, 1), (0, 0, n - 1))  # y^2*z + z^(n-1)
    elif family == "E6":
        rest = ((0, 3, 0), (0, 0, 4))  # y^3 + z^4
    elif family == "E7":
        rest = ((0, 3, 0), (0, 1, 3))  # y^3 + y*z^3
    else:
        rest = ((0, 3, 0), (0, 0, 5))  # y^3 + z^5
    terms = dict.fromkeys(((2, 0, 0),) + rest, GAUSS.one())
    return Polynomial._trusted(GAUSS, DEFAULT_VARIABLES, terms)


def paper_claim(family: str, n: Optional[int] = None) -> tuple[Fraction, ...]:
    """The claimed minimal pole value(s), stored exactly as derived by hand.
    The A family is split by parity; the D family above 5 carries the values
    of both of its derivation branches."""
    _check_family(family, n)
    if family == "A":
        if n % 2 == 1:
            return (Fraction(n + 2, n + 1),)
        return (Fraction(n + 1, n),)
    if family == "D":
        if n == 4:
            return (Fraction(4, 3),)
        if n == 5:
            return (Fraction(6, 5),)
        return (Fraction(n + 1, n), Fraction(n - 1, n - 2))
    if family == "E6":
        return (Fraction(12, 13),)
    if family == "E7":
        return (Fraction(5, 6),)
    return (Fraction(9, 8),)


@dataclass(frozen=True)
class VerifyReport:
    family: str
    n: Optional[int]
    polynomial: str
    claimed_values: tuple[Fraction, ...]
    newton_value: Fraction
    engine_value: Optional[Fraction]
    engine_certified: bool
    depth_limited: bool
    claim_vs_newton: str
    engine_vs_newton: str

    @property
    def label(self) -> str:
        return self.family if self.n is None else f"{self.family}{self.n}"


def verify(family: str, n: Optional[int] = None, max_depth: int = 12) -> VerifyReport:
    """Run the `Auto` resolution and the polyhedron oracle on one family
    member and compare everything by exact equality. A claim matches when
    any of its stored branch values equals the oracle value."""
    f = generator(family, n)
    claimed = paper_claim(family, n)
    tree = resolve(f, Auto(max_depth))
    report = lambda_uncapped(tree, lambda_newton(f))
    newton_value = report.newton_value
    assert newton_value is not None
    claim_match = any(v == newton_value for v in claimed)
    engine_match = report.lambda_uncapped == newton_value
    return VerifyReport(
        family=family,
        n=n,
        polynomial=format_poly(f),
        claimed_values=claimed,
        newton_value=newton_value,
        engine_value=report.lambda_uncapped,
        engine_certified=report.certified,
        depth_limited=tree.has_depth_limit(),
        claim_vs_newton="match" if claim_match else "mismatch",
        engine_vs_newton="match" if engine_match else "mismatch",
    )


def verify_all(max_depth: int = 12) -> tuple[VerifyReport, ...]:
    """The full audit table: A1..A20, D4..D12, and the three E members."""
    return tuple(verify(family, n, max_depth) for family, n in MEMBERS)
