"""Command line interface.

Exit codes: 0 success (including reportable findings such as claim/oracle
mismatches), 1 bad input (syntax, domain preconditions),
2 resolution stopped by the depth budget (the report is still printed),
3 internal inconsistency detected by a cross-check (division by zero,
destroyed factorization, bookkeeping identity failure),
4 unreliable Monte Carlo estimate.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional

from .algebra import GAUSS, NumberField, Polynomial
from .blowup import Auto, resolve
from .catalogue import FAMILIES, verify, verify_all
from .errors import (
    FactorizationDestroyedError,
    FieldError,
    InternalInconsistencyError,
    LctkitError,
    ParseError,
    UnreliableEstimateError,
    ZeroDivisorError,
)
from .estimator import MODES, EstimatorConfig, estimate
from .newton import lambda_newton
from .parser import DEFAULT_VARIABLES, format_poly, parse_poly
from .serialize import (
    dump_json,
    estimate_csv,
    estimate_json,
    leaf_counts,
    newton_json,
    parse_json,
    pole_json,
    tree_dot,
    tree_json,
    verify_json,
)
from .zeta import lambda_uncapped

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEPTH = 2
EXIT_INTERNAL = 3
EXIT_UNRELIABLE = 4


def _parse_field(text: str) -> NumberField:
    name, sep, minpoly = text.partition(":")
    if not sep or not name or not minpoly:
        raise ParseError(
            f"field must look like 'i:t^2+1' (generator name, colon, minimal "
            f"polynomial in t), got {text!r}"
        )
    poly = parse_poly(minpoly, GAUSS, ("t",))
    degree = poly.degree_in("t") if poly else -1  # make() refuses 0: not monic
    coeffs = []
    for power in range(degree + 1):
        c = poly.coefficient_of("t", power).constant_term
        if not c.is_rational:
            raise ParseError("minimal polynomial must have rational coefficients")
        coeffs.append(c.as_fraction())
    try:
        return NumberField.make(coeffs, name)
    except FieldError as err:
        raise ParseError(str(err)) from None


def _parse_vars(text: str) -> tuple[str, ...]:
    names = tuple(v.strip() for v in text.split(","))
    if not all(names):
        raise ParseError(f"bad variable list {text!r}")
    return names


def _add_ring_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--field",
        default="i:t^2+1",
        help="session field as NAME:MINPOLY, e.g. i:t^2+1 (default)",
    )
    sub.add_argument(
        "--vars",
        default=",".join(DEFAULT_VARIABLES),
        help="comma-separated variable names (default x,y,z)",
    )
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _add_tree_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("poly")
    sub.add_argument("--max-depth", type=int, default=24)
    sub.add_argument("--dot", help="write a Graphviz rendering to this path")
    _add_ring_flags(sub)


class _ArgumentParser(argparse.ArgumentParser):
    # usage mistakes are input errors (exit 1); argparse's built-in
    # SystemExit(2) would collide with the depth-limit exit code
    def error(self, message):
        raise ParseError(message)


def _build_argparser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="lctkit",
        description=(
            "Exact pole-index computation for polynomial singularities via "
            "chart-by-chart blow-up, with a Newton-polyhedron oracle and a "
            "Monte Carlo volume estimator as cross-checks."
        ),
    )
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="parse and canonically reprint a polynomial")
    p.add_argument("poly")
    _add_ring_flags(p)

    p = subs.add_parser("newton", help="Newton-polyhedron candidate pole value")
    p.add_argument("poly")
    _add_ring_flags(p)

    _add_tree_args(subs.add_parser("resolve", help="build the blow-up chart tree"))
    _add_tree_args(
        subs.add_parser("pole", help="minimal pole index from a resolution tree")
    )

    p = subs.add_parser("verify", help="audit catalogue families against the oracle")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="the full audit table")
    group.add_argument("--family", choices=FAMILIES)
    p.add_argument("--n", type=int, help="family index (A and D only)")
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("estimate", help="Monte Carlo volume-scaling estimate")
    p.add_argument("poly")
    p.add_argument("--mode", choices=MODES, default="complex")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tmin", type=float, default=1e-5)
    p.add_argument("--tmax", type=float, default=1e-2)
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--min-hits", type=int, default=100)
    p.add_argument("--csv", help="write the (t, hits) table to this path")
    _add_ring_flags(p)
    return top


def _frac_text(value: Optional[Fraction]) -> str:
    return "none" if value is None else str(value)


def _poly(args) -> Polynomial:
    """The input polynomial, read in the ring of --field and --vars."""
    return parse_poly(args.poly, _parse_field(args.field), _parse_vars(args.vars))


def _cmd_parse(args) -> int:
    poly = _poly(args)
    if args.json:
        sys.stdout.write(dump_json(parse_json(args.poly, poly)))
    else:
        print(format_poly(poly))
    return EXIT_OK


def _cmd_newton(args) -> int:
    poly = _poly(args)
    data = lambda_newton(poly)
    if args.json:
        sys.stdout.write(dump_json(newton_json(args.poly, data)))
        return EXIT_OK
    print(f"input: {format_poly(poly)}")
    print(f"lambda: {data.lambda_np}")
    print(f"t0: {data.t0}")
    for weights, order in data.facet_normals:
        print(f"facet: weights {list(weights)} order {order}")
    return EXIT_OK


def _resolve_tree(args):
    """Parse the input and resolve it: the shared start of `resolve` and
    `pole`."""
    poly = _poly(args)
    return poly, resolve(poly, Auto(args.max_depth))


def _write_dot(args, tree) -> None:
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(tree_dot(tree))


def _cmd_resolve(args) -> int:
    poly, tree = _resolve_tree(args)
    _write_dot(args, tree)
    if args.json:
        sys.stdout.write(dump_json(tree_json(tree, args.max_depth)))
    else:
        counts = leaf_counts(tree)
        print(f"input: {format_poly(poly)}")
        print(f"nodes: {sum(1 for _ in tree.nodes())}")
        print(
            "leaves: "
            + " ".join(f"{name}={count}" for name, count in sorted(counts.items()))
        )
    return EXIT_DEPTH if tree.has_depth_limit() else EXIT_OK


def _cmd_pole(args) -> int:
    poly, tree = _resolve_tree(args)
    report = lambda_uncapped(tree, lambda_newton(poly))
    _write_dot(args, tree)
    if args.json:
        sys.stdout.write(dump_json(pole_json(tree, report)))
    else:
        print(f"input: {format_poly(poly)}")
        print(f"lambda_uncapped: {_frac_text(report.lambda_uncapped)}")
        print(f"lambda_capped: {report.lambda_capped}")
        print(f"multiplicity: {report.multiplicity}")
        print(f"certified: {'yes' if report.certified else 'no'}")
        agrees = "yes" if report.newton_agrees else "no"
        print(f"newton: {_frac_text(report.newton_value)} (agrees: {agrees})")
        for c in report.candidates:
            print(f"candidate: {c.divisor} k={c.k} h={c.h} value={c.value}")
    return EXIT_DEPTH if tree.has_depth_limit() else EXIT_OK


def _cmd_verify(args) -> int:
    if args.all and args.n is not None:
        raise ParseError("argument --n: not allowed with argument --all")
    if args.all:
        rows = verify_all(args.max_depth)
    else:
        rows = (verify(args.family, args.n, args.max_depth),)
    if args.json:
        sys.stdout.write(dump_json(verify_json(rows)))
        return EXIT_OK
    print(
        f"{'member':<8} {'claimed':<12} {'newton':<8} {'engine':<8} "
        f"{'cert':<5} {'claim/newton':<13} engine/newton"
    )
    for row in rows:
        claimed = ",".join(str(v) for v in row.claimed_values)
        print(
            f"{row.label:<8} {claimed:<12} {str(row.newton_value):<8} "
            f"{_frac_text(row.engine_value):<8} "
            f"{'yes' if row.engine_certified else 'no':<5} "
            f"{row.claim_vs_newton:<13} {row.engine_vs_newton}"
        )
    return EXIT_OK


def _cmd_estimate(args) -> int:
    poly = _poly(args)
    config = EstimatorConfig(
        mode=args.mode,
        samples_per_level=args.samples,
        t_min=args.tmin,
        t_max=args.tmax,
        levels=args.levels,
        seed=args.seed,
        min_hits=args.min_hits,
    )
    unreliable = None
    try:
        result = estimate(poly, config)
    except UnreliableEstimateError as err:
        # The partial result, if any, is written like a reliable one.
        result, unreliable = err.partial, err
    if result is not None and args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(estimate_csv(result))
    if result is not None and args.json:
        payload = estimate_json(args.poly, result)
        if unreliable is not None:
            payload["unreliable"] = str(unreliable)
        sys.stdout.write(dump_json(payload))
    elif unreliable is None:
        print(f"input: {format_poly(poly)}")
        print(f"mode: {result.mode}")
        print(f"lambda_hat: {result.lambda_hat:.6f}")
        print(f"stderr: {result.stderr:.6f}")
        print(f"levels_used: {result.levels_used}")
    if unreliable is not None:
        print(f"unreliable estimate: {unreliable}", file=sys.stderr)
        return EXIT_UNRELIABLE
    return EXIT_OK


_COMMANDS = {
    "parse": _cmd_parse,
    "newton": _cmd_newton,
    "resolve": _cmd_resolve,
    "pole": _cmd_pole,
    "verify": _cmd_verify,
    "estimate": _cmd_estimate,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_argparser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ParseError as err:
        where = ""
        if err.span is not None:
            where = f" at line {err.span.line} col {err.span.column}"
        print(f"error{where}: {err.message}", file=sys.stderr)
        return EXIT_INPUT
    except (
        InternalInconsistencyError,
        FactorizationDestroyedError,
        ZeroDivisorError,
    ) as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except (LctkitError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
