"""Acceptance gate: one check per published criterion, at the stated budgets.

Each criterion prints exactly one PASS/FAIL line on the real stdout so the
result sheet survives pytest's output capture.
"""

import contextlib
import itertools
import random
import sys
import time
from fractions import Fraction

from conftest import random_poly
from jacobian_reference import jacobian_verdicts
from member_scripts import replay, scripted_resolution
from lctkit import (
    Auto,
    ChartStatus,
    EstimatorConfig,
    Polynomial,
    UnreliableEstimateError,
    blowup_origin,
    estimate,
    generator,
    lambda_newton,
    lambda_uncapped,
    make_root_chart,
    parse_poly,
    resolve,
    verify_all,
)
from lctkit.algebra import GAUSS
from lctkit.blowup import apply_affine
from lctkit.parser import parse_script
from lctkit.serialize import verify_json

P = parse_poly
F = Fraction


@contextlib.contextmanager
def criterion(number, title, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException as err:
        detail = str(err).strip().splitlines()[0][:120] if str(err).strip() else type(err).__name__
        sys.__stdout__.write(f"criterion {number}: FAIL - {title}: {detail}\n")
        sys.__stdout__.flush()
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        sys.__stdout__.write(
            f"criterion {number}: FAIL - {title}: took {elapsed:.2f}s, budget {budget:.0f}s\n"
        )
        sys.__stdout__.flush()
        raise AssertionError(f"criterion {number} exceeded its {budget:.0f}s budget")
    sys.__stdout__.write(f"criterion {number}: PASS - {title} ({elapsed:.2f}s)\n")
    sys.__stdout__.flush()


def test_criterion_1_depth_one_charts():
    with criterion(1, "depth-1 charts of A_n for n = 2..8, exact", budget=1.0):
        for n in range(2, 9):
            root = make_root_chart(generator("A", n))
            ux, uy, uz = blowup_origin(root, ("x", "y", "z"))
            assert ux.strict == P(f"1 + y^2 + x^{n - 1}*z^{n + 1}")
            assert uy.strict == P(f"x^2 + 1 + y^{n - 1}*z^{n + 1}")
            assert uz.strict == P(f"x^2 + y^2 + z^{n - 1}")
            for child, v in ((ux, "x"), (uy, "y"), (uz, "z")):
                assert {w: r.k for w, r in child.divisors.items()} == {v: 2}
                assert {w: r.h for w, r in child.divisors.items()} == {v: 2}


def test_criterion_2_jacobian_bookkeeping():
    with criterion(2, "h = 2k along chains; Jacobians verify on every node", budget=5.0):
        chart = make_root_chart(P("x^2 + y^2 + z^21"))
        for k in range(1, 11):
            chart = blowup_origin(chart, ("x", "y", "z"))[2]
            assert chart.divisors["z"].h == 2 * k
            assert chart.divisors["z"].k == 2 * k
            assert jacobian_verdicts(chart) == (True, True)
        trees = [
            resolve(P("x^2 + y^2 + z^21"), Auto(max_depth=12)),
            resolve(generator("A", 5), Auto(max_depth=12)),
        ]
        for family, n in (("D", 4), ("D", 5), ("D", 6), ("D", 7)):
            trees.append(
                replay(generator(family, n), scripted_resolution(family, n), max_depth=12)
            )
        # a linear change of coordinates with an exact inverse
        trees.append(
            replay(
                P("x^2 + y^2 + z^4"),
                parse_script("blowup x y z\nchart z\nsubst x := x + z"),
                max_depth=12,
            )
        )
        for tree in trees:
            for node in tree.nodes():
                assert jacobian_verdicts(node.chart) == (True, True)


def test_criterion_3_newton_oracle_identity():
    with criterion(3, "Newton value of x^a+y^b+z^c is 1/a+1/b+1/c on 2..9", budget=5.0):
        for a, b, c in itertools.product(range(2, 10), repeat=3):
            nd = lambda_newton(P(f"x^{a} + y^{b} + z^{c}"))
            assert nd.lambda_np == F(1, a) + F(1, b) + F(1, c)


def test_criterion_4_a_family_odd():
    with criterion(4, "odd A_n certified at (n+2)/(n+1), n = 1..19", budget=10.0):
        for n in range(1, 20, 2):
            f = generator("A", n)
            newton = lambda_newton(f)
            for tree in (
                replay(f, scripted_resolution("A", n), max_depth=24),
                resolve(f, Auto(max_depth=24)),
            ):
                assert not tree.has_depth_limit()
                leaves = [node.chart.status for node in tree.nodes() if node.is_leaf]
                assert set(leaves) == {ChartStatus.UNIT_STRICT}
                rep = lambda_uncapped(tree, newton)
                assert rep.certified
                assert rep.lambda_uncapped == F(n + 2, n + 1)
                assert rep.newton_agrees


def test_criterion_5_a_family_even_uncertified():
    with criterion(5, "even A_n uncertified at (n+1)/n with smaller Newton value", budget=10.0):
        for n in range(2, 21, 2):
            f = generator("A", n)
            newton = lambda_newton(f)
            tree = resolve(f, Auto(max_depth=24))
            rep = lambda_uncapped(tree, newton)
            assert rep.lambda_uncapped == F(n + 1, n)
            assert not rep.certified
            assert newton.lambda_np == F(n + 2, n + 1)
            assert newton.lambda_np < rep.lambda_uncapped
        # refinement monotonicity: deeper trees never raise the running minimum
        for n in (2, 8, 14):
            f = generator("A", n)
            values = []
            for depth in range(1, 6):
                rep = lambda_uncapped(resolve(f, Auto(max_depth=depth)))
                values.append(rep.lambda_uncapped)
            assert values == sorted(values, reverse=True)


def test_criterion_6_d5_substitution():
    with criterion(6, "D_5 y-chart then z := z + y*z^4 leaves x^2 + y*z", budget=1.0):
        root = make_root_chart(generator("D", 5))
        uy = blowup_origin(root, ("x", "y", "z"))[1]
        fixed = apply_affine(uy, "z", P("z + y*z^4"))
        assert fixed.strict == P("x^2 + y*z")


def test_criterion_7_catalogue_audit():
    with criterion(7, "catalogue audit: oracle values exact, claims flagged", budget=30.0):
        rows = verify_all()
        by_key = {(row.family, row.n): row for row in rows}
        assert len(rows) == 32
        for n in range(1, 21):
            assert by_key[("A", n)].newton_value == F(n + 2, n + 1)
        for n in range(4, 13):
            assert by_key[("D", n)].newton_value == F(2 * n - 1, 2 * n - 2)
        assert by_key[("E6", None)].newton_value == F(13, 12)
        assert by_key[("E7", None)].newton_value == F(19, 18)
        assert by_key[("E8", None)].newton_value == F(31, 30)
        # each disagreeing published value is flagged
        flagged = [("D", 4), ("D", 5), ("E6", None), ("E7", None), ("E8", None)]
        for key in flagged:
            assert by_key[key].claim_vs_newton == "mismatch"
        for n in range(1, 20, 2):
            assert by_key[("A", n)].claim_vs_newton == "match"
        assert verify_json(rows) == verify_json(verify_all())


def test_criterion_8_monte_carlo_cross_checks():
    with criterion(8, "Monte Carlo: z^2, x^2 near 1/2; A_1 cap near 1", budget=360.0):
        outcomes = []
        failures = []
        for text, mode, low, high in (
            ("z^2", "complex", 0.45, 0.55),
            ("x^2", "real", 0.45, 0.55),
            ("x^2 + y^2 + z^2", "complex", 0.9, 1.1),
        ):
            config = EstimatorConfig(mode, seed=42)
            start = time.perf_counter()
            try:
                result = estimate(P(text), config)
            except UnreliableEstimateError as err:
                elapsed = time.perf_counter() - start
                assert elapsed < 120.0
                usable = err.partial.levels_used if err.partial else 0
                failures.append(f"{text} ({mode}): unreliable, {usable} usable levels")
                continue
            elapsed = time.perf_counter() - start
            assert elapsed < 120.0
            outcomes.append(f"{text} ({mode}): {result.lambda_hat:.3f}")
            if not low <= result.lambda_hat <= high:
                failures.append(
                    f"{text} ({mode}): {result.lambda_hat:.3f} outside [{low}, {high}]"
                )
        assert not failures, "; ".join(failures + outcomes)


def test_criterion_9_property_suites():
    with criterion(9, "parser, ring, Euler, and report-scaling properties", budget=60.0):
        from lctkit import format_poly

        rng = random.Random(0)
        for _ in range(1000):
            f = random_poly(rng)
            assert parse_poly(format_poly(f)) == f
        for _ in range(500):
            f = random_poly(rng, max_terms=3, max_exp=2)
            g = random_poly(rng, max_terms=3, max_exp=2)
            h = random_poly(rng, max_terms=2, max_exp=2)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            subs = {"x": h}
            assert (f + g).substitute(subs) == f.substitute(subs) + g.substitute(subs)
            assert (f * g).substitute(subs) == f.substitute(subs) * g.substitute(subs)
        # weighted Euler identity for every catalogue generator
        members = (
            [("A", n) for n in range(1, 21)]
            + [("D", n) for n in range(4, 13)]
            + [("E6", None), ("E7", None), ("E8", None)]
        )
        for family, n in members:
            f = generator(family, n)
            data = lambda_newton(f)
            weights, order = next(
                (w, o) for w, o in data.facet_normals if all(c > 0 for c in w)
            )
            total = Polynomial.zero(f.field, f.variables)
            for w, v in zip(weights, f.variables):
                total = total + Polynomial.variable(f.field, f.variables, v) * f.partial(v) * w
            assert total == f * order
        # pole reports ignore unit rescalings of the input
        for text in ("x^2 + y^2 + z^6", "x^2 + y^2*z + z^4"):
            base = lambda_uncapped(resolve(P(text), Auto(max_depth=12)), lambda_newton(P(text)))
            for c in ("3", "1/2", "(1+i)"):
                scaled_f = P(f"{c}*({text})")
                scaled = lambda_uncapped(
                    resolve(scaled_f, Auto(max_depth=12)), lambda_newton(scaled_f)
                )
                assert scaled == base
