"""Metamorphic relations on certified values: relations that hold for any f,
whatever its value, so they need no reference answer.

Power relation: lct(f^m) = lct(f) / m for the capped value (the lct over C),
straight from the definition. A pair breaks the relation only if both sides
are certified and the certified values disagree with it.
"""

from fractions import Fraction

import pytest

from lctkit import GAUSS, Auto, lambda_newton, lambda_uncapped, parse_poly, resolve

BASES = [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4), (2, 3, 5), (3, 3, 3)]

# Certified on both sides and wrong today: the certificate looks only at
# chart origins, and the Newton oracle agrees on degenerate input such as
# (x^2+y^2+z^2)^2. ROADMAP item 1 stage A withdraws these certificates;
# the markers go then, when the cases start to pass.
BROKEN = {((2, 2, 2), 2), ((2, 2, 2), 3), ((2, 2, 4), 2), ((2, 2, 4), 3)}


def _capped(text):
    f = parse_poly(text, GAUSS, ("x", "y", "z"))
    report = lambda_uncapped(resolve(f, Auto(max_depth=4)), lambda_newton(f))
    return report.lambda_capped, report.certified


CASES = [
    pytest.param(
        exps, m,
        id=f"x^{exps[0]}+y^{exps[1]}+z^{exps[2]}-m{m}",
        marks=[pytest.mark.xfail(strict=True, reason="false certificate")]
        if (exps, m) in BROKEN else [],
    )
    for exps in BASES for m in (2, 3)
]


@pytest.mark.parametrize("exps, m", CASES)
def test_power_relation(exps, m):
    base = "x^%d+y^%d+z^%d" % exps
    value, certified = _capped(base)
    power, power_certified = _capped(f"({base})^{m}")
    assert not (certified and power_certified and power != value / Fraction(m)), (
        value, power)
