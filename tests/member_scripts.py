"""The paper's hand-derived resolution chains for the 32 du Val members, as
scripts in the script DSL, and `replay`, the walk that runs a script: the
reference that the tests, the goldens, `tests/parse_corpus.py` and
`tools/output_digest.py` compare against `Auto`.

`lctkit.resolve` takes the `Auto` strategy only, and `lctkit.catalogue.verify`
resolves every member with it; neither the chains nor the walk are part of
the package. The package keeps `parse_script` and its directives, and the
steps the walk takes (`blowup_origin`, `translate`, `apply_affine`), in
their modules. The walk reads past an `orbit N` line, so a tree it builds
lists each divisor once, as an `Auto` tree does.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from lctkit.algebra import GAUSS, Polynomial
from lctkit.blowup import (
    ChartStatus,
    ResolutionTree,
    TreeNode,
    _expand,
    apply_affine,
    blowup_origin,
    make_root_chart,
    translate,
)
from lctkit.catalogue import _check_family
from lctkit.errors import ScriptError
from lctkit.parser import (
    DEFAULT_VARIABLES,
    BlowupDirective,
    OrbitDirective,
    ResolutionScript,
    ScriptStep,
    StopDirective,
    SubstDirective,
    TranslateDirective,
    parse_script,
)


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


def _depth_limited(chart) -> TreeNode:
    return TreeNode(replace(chart, status=ChartStatus.DEPTH_LIMIT), ())


def _walk(chart, steps: tuple[ScriptStep, ...], max_depth: int) -> TreeNode:
    """Resolve the chart: follow the script steps along one path, and with
    no steps left blow up the origin of every Open chart automatically."""
    if not steps:
        return _expand(chart, max_depth)
    step, rest = steps[0], steps[1:]

    if isinstance(step, OrbitDirective):
        # An annotation only: the two conjugate points z = +-i of the even D
        # tails have the same local analysis, and each divisor is listed once.
        return _walk(chart, rest, max_depth)

    if isinstance(step, StopDirective):
        if chart.status is ChartStatus.OPEN:
            return _depth_limited(chart)
        return TreeNode(chart, ())

    if isinstance(step, SubstDirective):
        rewritten = apply_affine(chart, step.variable, step.expression)
        return TreeNode(chart, (_walk(rewritten, rest, max_depth),))

    if isinstance(step, TranslateDirective):
        moved = translate(chart, step.variable, step.value)
        moved_node = _walk(moved, rest, max_depth)
        # The untranslated origin still needs its own analysis: it resolves
        # automatically, its charts (or its DepthLimit leaf) as siblings.
        origin = _expand(chart, max_depth)
        if origin.chart.status is ChartStatus.DEPTH_LIMIT:
            origin_children: tuple[TreeNode, ...] = (origin,)
        else:
            origin_children = origin.children
        return TreeNode(chart, origin_children + (moved_node,))

    if not isinstance(step, BlowupDirective):
        span = getattr(step, "span", None)
        raise ScriptError(f"unsupported script step {step!r}", span)

    if chart.status is not ChartStatus.OPEN:
        raise ScriptError(
            f"blowup requested on a {chart.status.value} chart at "
            f"{chart.path_text()}",
            step.span,
        )
    if chart.depth >= max_depth:
        return _depth_limited(chart)
    # The script goes on in the chart the step names; every other child
    # resolves automatically.
    nodes = []
    for child in blowup_origin(chart, step.center):
        below = rest if child.steps[-1].chart_variable == step.chart else ()
        nodes.append(_walk(child, below, max_depth))
    return TreeNode(chart, tuple(nodes))


def _check_script_shape(steps: tuple[ScriptStep, ...]) -> None:
    """Refuse a script whose later steps the walk could not reach: a step
    after a `stop`, or after a blowup with no chart to follow. parse_script
    never builds one; a script assembled by hand can."""
    for step in steps[:-1]:
        if isinstance(step, StopDirective):
            raise ScriptError("no steps allowed after stop", step.span)
        if isinstance(step, BlowupDirective) and step.chart is None:
            raise ScriptError(
                "blowup must be followed by chart (or end the script)", step.span
            )


def replay(
    f: Polynomial, script: ResolutionScript, max_depth: int = 24
) -> ResolutionTree:
    """Build the resolution tree for f along the script: follow it along one
    path while every sibling resolves as `Auto(max_depth)` does. Charts still
    Open when the depth budget runs out are flagged DepthLimit, never
    dropped."""
    if max_depth < 0:
        raise ValueError(f"max_depth must be at least 0, got {max_depth}")
    root = make_root_chart(f)
    _check_script_shape(script.steps)
    return ResolutionTree(f, _walk(root, script.steps, max_depth))
