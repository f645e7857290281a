"""Candidate pole collection and the minimal pole index of a resolution tree.

Every exceptional divisor seen in a leaf chart contributes the candidate
(h + 1)/k. Divisors are identified by the blow-up event that created them
(or by the root coordinate hyperplane they came from), so a divisor visible
in several sibling charts is counted once; its record (id, k, h) is
asserted equal across sightings. lambda_uncapped reads the candidates,
their multiplicity and the certificate off the leaves of the tree, in
pre-order.

The candidates sort by the integer key ((h + 1) * (L // k), id), L the lcm
of their k, as their values (h + 1)/k do. A report builds one Fraction, the
minimum p/q; a record attains it when (h + 1) * q == k * p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .blowup import _OPEN, _UNIT_STRICT, Chart, PoleIndex, ResolutionTree
from .errors import ChartError, InternalInconsistencyError
from .newton import NewtonData


_ONE = Fraction(1)


@dataclass(frozen=True)
class PoleReport:
    lambda_uncapped: Optional[Fraction]
    lambda_capped: Fraction
    multiplicity: int
    candidates: tuple[PoleIndex, ...]
    certified: bool
    newton_value: Optional[Fraction] = None
    newton_agrees: Optional[bool] = None


def _candidates(leaves: list[Chart]) -> tuple[PoleIndex, ...]:
    if any(leaf.status is _OPEN for leaf in leaves):
        raise ChartError("tree has unresolved Open leaves")
    seen: dict[str, PoleIndex] = {}
    for leaf in leaves:
        for record in leaf.divisors.values():
            prior = seen.setdefault(record.divisor, record)
            if prior is not record and prior != record:
                raise InternalInconsistencyError(
                    f"divisor {record.divisor} has (k, h) = "
                    f"{(record.k, record.h)} in one chart and "
                    f"{(prior.k, prior.h)} in another"
                )
    scale = lcm(*(c.k for c in seen.values()))
    return tuple(
        sorted(seen.values(), key=lambda c: ((c.h + 1) * (scale // c.k), c.divisor))
    )


def lambda_uncapped(
    tree: ResolutionTree, newton: Optional[NewtonData] = None
) -> PoleReport:
    """Assemble the report: minimum candidate, its multiplicity, and the
    certificate flag (true only when every leaf is UnitStrict, so the tree is
    a complete monomialization and the minimum is exact rather than an upper
    bound). A smooth input with no content yields no candidates; the capped
    value is then 1.
    """
    leaves = [node.chart for node in tree.leaves()]
    candidates = _candidates(leaves)
    if candidates:
        lam: Optional[Fraction] = candidates[0].value
        p, q = lam.numerator, lam.denominator
        # The most divisors attaining lam that meet in one leaf chart.
        mult = max(
            sum((r.h + 1) * q == r.k * p for r in leaf.divisors.values())
            for leaf in leaves
        )
        capped = lam if p < q else _ONE
    else:
        lam = None
        mult = 1
        capped = _ONE
    certified = all(leaf.status is _UNIT_STRICT for leaf in leaves)
    newton_value = newton.lambda_np if newton is not None else None
    newton_agrees = None if newton is None else (lam == newton_value)
    return PoleReport(
        lambda_uncapped=lam,
        lambda_capped=capped,
        multiplicity=mult,
        candidates=candidates,
        certified=certified,
        newton_value=newton_value,
        newton_agrees=newton_agrees,
    )
