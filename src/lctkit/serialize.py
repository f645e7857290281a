"""Canonical JSON, DOT, and CSV renderings of the result objects.

All JSON goes through dump_json (sorted keys, fixed separators, trailing
newline) and rationals are rendered as {"num", "den"} pairs, so identical
inputs produce byte-identical output. Nothing here injects timestamps,
hostnames, or other run-dependent noise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

from .blowup import ChartStatus, ResolutionTree
from .catalogue import VerifyReport
from .estimator import Estimate
from .newton import NewtonData
from .parser import format_poly
from .zeta import PoleReport


def fraction_json(value: Optional[Fraction]) -> Optional[dict]:
    if value is None:
        return None
    return {"num": value.numerator, "den": value.denominator}


def dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def leaf_counts(tree: ResolutionTree) -> dict[str, int]:
    counts = {status.value: 0 for status in ChartStatus if status is not ChartStatus.OPEN}
    for leaf in tree.leaves():
        counts[leaf.chart.status.value] += 1
    return counts


def parse_json(source: str, poly) -> dict:
    """The zero polynomial has no total degree (null) and an empty support."""
    return {
        "input": source,
        "canonical": format_poly(poly),
        "variables": list(poly.variables),
        "field": {
            "generator": poly.field.generator_name,
            "degree": poly.field.degree,
        },
        "total_degree": poly.total_degree() if poly.terms else None,
        "support": [list(e) for e in poly.support()],
    }


def newton_json(source: str, data: NewtonData) -> dict:
    return {
        "input": source,
        "lambda": fraction_json(data.lambda_np),
        "t0": fraction_json(data.t0),
        "facets": [
            {"weights": list(w), "order": n} for w, n in data.facet_normals
        ],
        "support": [list(p) for p in data.support],
    }


def tree_json(tree: ResolutionTree, max_depth: int) -> dict:
    nodes = []
    for node in tree.nodes():
        chart = node.chart
        nodes.append(
            {
                "path": chart.path_text(),
                "status": chart.status.value,
                "strict": format_poly(chart.strict),
                "k": {v: r.k for v, r in chart.divisors.items()},
                "h": {v: r.h for v, r in chart.divisors.items()},
                "divisors": {v: r.divisor for v, r in chart.divisors.items()},
                "children": len(node.children),
            }
        )
    return {
        "input": format_poly(tree.root_polynomial),
        "max_depth": max_depth,
        "depth_limited": tree.has_depth_limit(),
        "node_count": len(nodes),
        "leaf_counts": leaf_counts(tree),
        "nodes": nodes,
    }


def pole_json(tree: ResolutionTree, report: PoleReport) -> dict:
    return {
        "input": format_poly(tree.root_polynomial),
        "lambda_uncapped": fraction_json(report.lambda_uncapped),
        "lambda_capped": fraction_json(report.lambda_capped),
        "multiplicity": report.multiplicity,
        "certified": report.certified,
        "depth_limited": tree.has_depth_limit(),
        "newton": fraction_json(report.newton_value),
        "newton_agrees": report.newton_agrees,
        "candidates": [
            {
                "divisor": c.divisor,
                "k": c.k,
                "h": c.h,
                "value": fraction_json(c.value),
            }
            for c in report.candidates
        ],
        "leaf_counts": leaf_counts(tree),
    }


def verify_row_json(row: VerifyReport) -> dict:
    return {
        "label": row.label,
        "family": row.family,
        "n": row.n,
        "polynomial": row.polynomial,
        "claimed": [fraction_json(v) for v in row.claimed_values],
        "newton": fraction_json(row.newton_value),
        "engine": fraction_json(row.engine_value),
        "certified": row.engine_certified,
        "depth_limited": row.depth_limited,
        "claim_vs_newton": row.claim_vs_newton,
        "engine_vs_newton": row.engine_vs_newton,
    }


def verify_json(rows) -> dict:
    return {"rows": [verify_row_json(r) for r in rows]}


def _finite_or_none(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def estimate_json(source: str, est: Estimate) -> dict:
    return {
        "input": source,
        "mode": est.mode,
        "seed": est.seed,
        "samples_per_level": est.samples,
        "lambda_hat": _finite_or_none(est.lambda_hat),
        "stderr": _finite_or_none(est.stderr),
        "slope": _finite_or_none(est.slope),
        "levels_used": est.levels_used,
        "t_grid": list(est.t_grid),
        "hit_counts": list(est.hit_counts),
        "volumes": list(est.volumes),
        "effective_hits": list(est.effective_hits),
    }


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def tree_dot(tree: ResolutionTree) -> str:
    """Graphviz rendering of the chart tree; node identity is the path."""
    lines = ["digraph resolution {", "  node [shape=box, fontname=monospace];"]
    index: dict[int, int] = {}
    for i, node in enumerate(tree.nodes()):
        index[id(node)] = i
        chart = node.chart
        exps = ", ".join(
            f"{v}:{chart.divisors[v].k}/{chart.divisors[v].h}"
            for v in chart.exceptional
        )
        label = "\\n".join(
            [
                chart.path_text(),
                chart.status.value,
                f"k/h {exps}" if exps else "no divisors",
                _dot_escape(format_poly(chart.strict)),
            ]
        )
        lines.append(f'  n{i} [label="{label}"];')
    for node in tree.nodes():
        for child in node.children:
            lines.append(f"  n{index[id(node)]} -> n{index[id(child)]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def estimate_csv(est: Estimate) -> str:
    rows = ["t,hits"]
    for t, hits in zip(est.t_grid, est.hit_counts):
        rows.append(f"{t!r},{hits}")
    return "\n".join(rows) + "\n"
