"""The paper's hand-derived resolution chains for the 32 du Val members, as
scripts in the script DSL: the reference that the tests, the goldens,
`tests/parse_corpus.py` and `tools/output_digest.py` replay against `Auto`.

`lctkit.catalogue.verify` resolves every member with `Auto`; these chains
are not part of the package.
"""

from __future__ import annotations

from typing import Optional

from lctkit.algebra import GAUSS
from lctkit.catalogue import _check_family
from lctkit.parser import DEFAULT_VARIABLES, ResolutionScript, parse_script


def script_text(family: str, n: Optional[int] = None) -> str:
    """The resolution script for the family member, in the script DSL over GAUSS.

    A members chain through the z-chart. D members peel two z-chart steps at
    a time until the index-4 or index-5 shape remains, then split cases in
    the y-chart: the even tail recentres at the two off-origin singular
    points z = +-i (conjugate, hence orbit 2) and the odd tail straightens the
    residual curve with a triangular substitution. E members enter the
    z-chart once (E6 continues through y-charts) and finish automatically.
    """
    _check_family(family, n)
    if family == "A":
        return "\n".join(["blowup x y z", "chart z"] * ((n + 1) // 2))
    if family == "D":
        lines = ["blowup x y z", "chart z"] * ((n - 4) // 2)
        lines += ["blowup x y z", "chart y"]
        if n % 2 == 0:
            lines += ["translate z := z + i", "orbit 2"]
        else:
            lines += ["subst z := z + y*z^4"]
        return "\n".join(lines)
    if family == "E6":
        return "\n".join(
            ["blowup x y z", "chart z"] + ["blowup x y z", "chart y"] * 3
        )
    return "\n".join(["blowup x y z", "chart z"])


def scripted_resolution(family: str, n: Optional[int] = None) -> ResolutionScript:
    return parse_script(script_text(family, n), GAUSS, DEFAULT_VARIABLES)
