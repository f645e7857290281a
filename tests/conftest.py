"""Shared test helpers: two more fields, seeded random generators, an
in-process CLI runner and the benchmark's workload passes."""

import contextlib
import importlib.util
import io
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from lctkit import GAUSS, NumberField, Polynomial
from lctkit.cli import main

# Two more fields of the tests: Q(j) with j^2 + j + 1 = 0, and Q itself.
EISENSTEIN = NumberField.make((1, 1, 1), "j")
RATIONALS = NumberField.make((0, 1), "q")


def raised_k(chart):
    """The chart with the k of one divisor record raised by 1."""
    var = next(iter(chart.divisors))
    record = replace(chart.divisors[var], k=chart.divisors[var].k + 1)
    return replace(chart, divisors={**chart.divisors, var: record})


def raised_h(chart):
    """The chart with the h of its new divisor's record raised by 1: the
    record of the variable whose chart the last blow-up opened."""
    var = chart.steps[-1].chart_variable
    record = replace(chart.divisors[var], h=chart.divisors[var].h + 1)
    return replace(chart, divisors={**chart.divisors, var: record})


def workload_pass(family, seed):
    """Pass 0 of a benchmark family ("pole", "newton", ...) for the seed,
    read from perfbench/workloads.py, which imports only the standard
    library."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.phase_ops(family, "primary", seed, 0)


def run_cli(argv):
    """Run the CLI in-process and capture (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def random_element(rng, field=GAUSS, zero_ok=True):
    while True:
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(field.degree)
        ]
        el = field.element(coeffs)
        if zero_ok or el:
            return el


def random_poly(rng, field=GAUSS, variables=("x", "y", "z"), max_terms=5, max_exp=4):
    total = Polynomial.zero(field, variables)
    for _ in range(rng.randint(0, max_terms)):
        exps = {v: rng.randint(0, max_exp) for v in variables}
        total = total + Polynomial.monomial(field, variables, exps, random_element(rng, field))
    return total
