"""Blow-up charts with exact bookkeeping of the exceptional divisors and
strict transforms, plus the resolution walk of the `Auto` strategy.

A chart keeps one divisor record per variable that carries an exceptional
divisor: `divisors[v]` is the PoleIndex (id, k, h) of {v = 0}, where the id
names the blow-up (or root hyperplane) that created the divisor, k is the
order of the total transform and h the order of the Jacobian determinant
along it. The variables with a record are the chart's `exceptional` ones.
The root chart's total must equal f (and the product by `*`), and the
defining identity

    (parent total)(step map) = child total

is asserted exactly across every blow-up and translation, so the chain of
checks is anchored at f. The rewrite of apply_affine is checked to
reproduce the strict transform. A chart stores its path (`steps`), not
its map from the root: map_from_root reads the run matrix on demand, and
gives a map on a path of origin blow-ups only.

Two independent codes pull a strict transform back through an origin
blow-up. blowup_origin builds each child's strict transform directly as an
integer exponent map: in chart U_v, v's exponent becomes the order of the
term along the center, and the chart's order c of the strict transform is
divided out, all in one pass over the parent's terms with the coefficients
reused. The identity check instead substitutes the step map of
_step_substitution into the parent's total with Polynomial.substitute,
which does not use that code. Translations and rewrites build their strict
transforms with Polynomial.substitute from the same step maps.

The h records have a builder and a checker too. blowup_origin sums the new
divisor's h from the records through the center, and checks it in every
child against the chart's run of blow-ups, one integer exponent matrix (see
Chart).

What one child costs. blowup_origin reads once what the siblings share:
the center's columns, each term with its order along the center less c,
the new record, the run column and its h, and the parent's total. A child
is then one exponent dict, one BlowupStep and one chart written by _chart,
the one chart builder (translate, apply_affine and make_root_chart use it
too), plus three checks that run once for every child, siblings included:
_scan's content scan, the identity check (one Polynomial.substitute and
one dict equality) and the record's h against the run matrix. On a 3-term
strict transform in 3 variables a child takes about 14 µs in CPython 3.11
on a shared 2-core x86-64 VM: 2.6 µs in substitute, about 4 µs in the
checks' other work, and the rest builds the child
(BENCH_chart_overhead.json).

_step_substitution is the one source of step maps: the identity check,
translate and apply_affine read it. Each map comes compiled for the
chart's ring (algebra._Substitution), so substitute folds it without
checking or splitting the images again. A translation's strict
transform and its identity check fold one compiled map.

One walk, `_expand`, builds every resolution tree: it blows up
the origin of every Open chart along every variable its strict transform
involves. `translate` and `apply_affine` are not part of it; they serve
callers that build charts by hand, such as the tests' replay of the paper's
hand-derived chains (`tests/member_scripts.py`).

`translate` and `subst` (apply_affine) run in opposite directions: the one
substitutes an expression for the variable, the other declares a new
coordinate equal to one. Each docstring states its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cache, cached_property
from operator import add, itemgetter, mul
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

from .algebra import (
    FieldElement,
    NumberField,
    Polynomial,
    _Substitution,
    _check_ring,
    _lowest_exponents,
)
from .errors import (
    ChartError,
    FactorizationDestroyedError,
    InternalInconsistencyError,
    UnitInputError,
    ZeroPolynomialError,
)
from .parser import format_poly


@dataclass(frozen=True)
class PoleIndex:
    """The record of one exceptional divisor: its id, the order k of the
    total transform and the order h of the Jacobian along it."""

    divisor: str
    k: int
    h: int

    @cached_property
    def value(self) -> Fraction:
        return Fraction(self.h + 1, self.k)


class ChartStatus(enum.Enum):
    OPEN = "Open"
    UNIT_STRICT = "UnitStrict"
    SMOOTH_STRICT = "SmoothStrict"
    DEPTH_LIMIT = "DepthLimit"


# The chart path reads the members from module constants: a global load is
# cheaper than an enum member's attribute lookup on its class.
_OPEN, _UNIT_STRICT, _SMOOTH_STRICT, _DEPTH_LIMIT = ChartStatus


@dataclass(frozen=True)
class BlowupStep:
    """One origin blow-up: this chart covers the direction of chart_variable.
    divisor identifies the new exceptional divisor; siblings share it."""

    center: tuple[str, ...]
    chart_variable: str
    divisor: str

    @property
    def label(self) -> str:
        return f"U_{self.chart_variable}"


@dataclass(frozen=True)
class TranslateStep:
    """Recentring: variable was replaced by variable + value. When localized
    is set, the variable carried an exceptional divisor that the move pushed
    away from the origin; its monomial factor was absorbed into strict as a
    unit and its k/h entries dropped."""

    variable: str
    value: FieldElement
    localized: bool
    noun = "translation"

    @property
    def label(self) -> str:
        return f"T_{self.variable}"


@dataclass(frozen=True)
class RewriteStep:
    """Coordinate rewrite: the new coordinate equals `expression` in the old
    ones; exact_inverse marks the affine case, whose inverse is polynomial."""

    variable: str
    expression: Polynomial
    exact_inverse: bool
    noun = "rewrite"

    @property
    def label(self) -> str:
        return f"S_{self.variable}"


PathStep = Union[BlowupStep, TranslateStep, RewriteStep]
_new = object.__new__


def _columns(variables: tuple[str, ...], names: Sequence[str]) -> tuple[int, ...]:
    """The positions of the named variables in the chart's variable tuple."""
    return tuple(variables.index(name) for name in names)


# Compiled origin blow-up maps, keyed by (id(field), variables, center,
# chart variable). Each entry holds its field, so the id cannot be reused
# while the entry lives; the maps are never changed, and the cache is
# cleared when full.
_STEP_MAPS: dict[tuple, _Substitution] = {}


def _step_substitution(
    field: NumberField, variables: tuple[str, ...], step: PathStep
) -> Optional[_Substitution]:
    """The coordinate map of one step, compiled for the chart's ring: each
    old coordinate it moves, as a polynomial in the new ones. None for a
    triangular rewrite, whose inverse is only a power series. This is the
    only code that gives a step kind's map as polynomials; the tests'
    polynomial Jacobian reference reads it too. An origin blow-up's map is
    compiled once per ring and geometry."""
    if isinstance(step, BlowupStep):
        key = (id(field), variables, step.center, step.chart_variable)
        compiled = _STEP_MAPS.get(key)
        if compiled is None:
            v = step.chart_variable
            images = {
                w: Polynomial.monomial(field, variables, {w: 1, v: 1})
                for w in step.center
                if w != v
            }
            if len(_STEP_MAPS) >= 64:
                _STEP_MAPS.clear()
            compiled = _STEP_MAPS[key] = _Substitution(field, variables, images)
        return compiled
    moved = Polynomial.monomial(field, variables, {step.variable: 1})
    if isinstance(step, TranslateStep):
        images = {step.variable: moved + step.value}
    elif not step.exact_inverse:
        return None
    else:
        offset = step.expression.coefficient_of(step.variable, 0)
        c1 = step.expression.coefficient_of(step.variable, 1).constant_term
        images = {step.variable: (moved - offset) / c1}
    return _Substitution(field, variables, images)


@dataclass(frozen=True)
class Chart:
    """One chart of a resolution. `run` is the exponent matrix A of the
    origin blow-ups since the root or since the last translation or rewrite,
    stored by columns: run[j][i] is the exponent of coordinate j in the
    run-start coordinate i, so x_i = prod_j y_j**run[j][i]. `run_start` holds
    h + 1 of each coordinate's record where the run starts (1 without one)."""

    field: NumberField
    variables: tuple[str, ...]
    steps: tuple[PathStep, ...]
    strict: Polynomial
    status: ChartStatus
    divisors: Mapping[str, PoleIndex]
    run: tuple[tuple[int, ...], ...]
    run_start: tuple[int, ...]
    depth: int = 0  # the number of origin blow-ups on the path

    @property
    def k_shift(self) -> tuple[int, ...]:
        """Each coordinate's k (0 without a record)."""
        divisors = self.divisors
        return tuple([divisors[v].k if v in divisors else 0 for v in self.variables])

    @cached_property
    def total(self) -> Polynomial:
        """The total transform strict * (prod e**k_e): the strict transform's
        exponents shifted by the k vector, unless the identity check that
        made the chart stored it. The parent side of its children's checks."""
        shift = self.k_shift
        if not any(shift):
            return self.strict
        # A shift is injective on the terms, so the coefficients carry over.
        return self.strict._with_terms(
            {tuple(map(add, e, shift)): c for e, c in self.strict.terms.items()}
        )

    @property
    def exceptional(self) -> tuple[str, ...]:
        return tuple(v for v in self.variables if v in self.divisors)

    @property
    def path(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.steps)

    @cached_property
    def _path_text(self) -> str:  # `_chart` sets it; `replace` drops it
        return "/".join(self.path) or "root"

    def path_text(self) -> str:
        return self._path_text

    @cached_property
    def map_from_root(self) -> Optional[Mapping[str, Polynomial]]:
        """The root coordinates as polynomials in this chart's, on a path of
        origin blow-ups only: the run is then the whole path, so the map is
        x_i = prod_j y_j**run[j][i]. None once a translation or a rewrite is
        on the path (the tests' jacobian_reference composes those maps)."""
        if not all(isinstance(s, BlowupStep) for s in self.steps):
            return None
        one = self.field.one()
        return {
            x: Polynomial._trusted(
                self.field, self.variables, {tuple(col[i] for col in self.run): one}
            )
            for i, x in enumerate(self.variables)
        }


@cache
def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    """The n unit exponent vectors in n variables: the identity matrix."""
    return tuple(tuple(int(i == k) for i in range(n)) for k in range(n))


def _classify(strict: Polynomial) -> ChartStatus:
    """UnitStrict for a nonzero constant term, SmoothStrict for a nonzero
    gradient at the origin (df/dv there is the coefficient of v), else Open.
    SmoothStrict accepts any nonzero gradient at the origin, including one
    pointing along an exceptional divisor. That is a deliberately weak
    termination certificate (the strict transform may still be tangent to
    the divisor), which is why smooth leaves leave the result uncertified.
    """
    n = len(strict.variables)
    if (0,) * n in strict.terms:
        return _UNIT_STRICT
    if not strict.terms.keys().isdisjoint(_identity(n)):
        return _SMOOTH_STRICT
    return _OPEN


def _scan(chart: Chart) -> ChartStatus:
    """The chart's status, after one scan of the strict transform's exponent
    vectors checks it free of content in every variable. Content in an
    exceptional variable destroys the factorization. Content in another
    variable v puts the origin on a component {v = 0} that no divisor record
    covers, and a resolution through it would report a minimum without it,
    so the translation or rewrite that made the chart is refused. No other
    chart gets there: the root factors its content out, and a blow-up child
    keeps its parent's exponents outside v, whose least exponent is 0."""
    # The zero polynomial has content in every variable.
    lows = _lowest_exponents(chart.strict) or [1] * len(chart.variables)
    if not any(lows):
        return _classify(chart.strict)
    v = next(v for v, low in zip(chart.variables, lows) if low)
    if v in chart.divisors:
        raise FactorizationDestroyedError(
            f"strict transform has content in exceptional variable {v!r} "
            f"at {chart.path_text()}"
        )
    raise ChartError(
        f"{chart.steps[-1].noun} of {v!r} puts the origin on the "
        f"component {{{v} = 0}} of the strict transform, whose divisor "
        "and h the chart does not record"
    )


def _assert_step_identity(
    parent_total: Polynomial, child: Chart, substitution: Mapping[str, Polynomial]
) -> None:
    """The parent's total transform must pull back exactly across one step
    to the child's strict transform shifted by its k vector, and then is the
    child's total. The left side goes through Polynomial.substitute, not
    through the exponent map that built an origin blow-up's child."""
    pulled = parent_total.substitute(substitution)
    shift = child.k_shift
    if pulled.terms != {
        tuple(map(add, e, shift)): c for e, c in child.strict.terms.items()
    }:
        raise InternalInconsistencyError(
            f"total transform identity failed at {child.path_text()}"
        )
    vars(child)["total"] = pulled


def _assert_records_kept(chart: Chart, child: Chart, dropped: Optional[str]) -> None:
    """A translation or a rewrite has a unit Jacobian, so the child keeps
    every record of the parent unchanged; only a localized divisor (the
    record of `dropped`) leaves."""
    kept = {v: r for v, r in chart.divisors.items() if v != dropped}
    if child.divisors != kept:
        raise InternalInconsistencyError(
            f"divisor records changed across a coordinate change at "
            f"{child.path_text()}: recorded {dict(child.divisors)}, kept {kept}"
        )


def _run_h(column: Sequence[int], run_start: Sequence[int]) -> int:
    """The h of a coordinate whose run column is `column`. The run's chart map
    x = y**A has Jacobian det(A) * prod_j y_j**(sum_i A_ij - 1), and det A = 1;
    pulled back through it, the records' prod x_i**h_i at the run start turn
    the exponent of y_j into (sum_i A_ij (h_i + 1)) - 1."""
    return sum(map(mul, column, run_start)) - 1


def _restart_run(variables: tuple[str, ...], divisors: Mapping) -> tuple:
    """A new run and its run_start: A = I, and h + 1 read from the records. A
    translation or rewrite has a unit Jacobian, as has a dropped divisor."""
    run_start = tuple(divisors[v].h + 1 if v in divisors else 1 for v in variables)
    return _identity(len(variables)), run_start


def _child(
    chart: Chart, step: PathStep, strict: Polynomial,
    divisors: Mapping[str, PoleIndex], run: tuple[tuple[int, ...], ...],
    run_start: tuple[int, ...],
) -> Chart:
    """The chart one step below `chart`: the step appended to the path, and
    the path text the parent's with the step's label added."""
    label = step.label
    return _chart(
        chart.field, chart.variables, chart.steps + (step,), strict, divisors,
        run, run_start, chart.depth + (step.__class__ is BlowupStep),
        f"{chart._path_text}/{label}" if chart.steps else label,
    )


def _chart(
    field: NumberField, variables: tuple[str, ...], steps: tuple[PathStep, ...],
    strict: Polynomial, divisors: Mapping[str, PoleIndex],
    run: tuple[tuple[int, ...], ...], run_start: tuple[int, ...], depth: int,
    path_text: str,
) -> Chart:
    """The one chart builder: the fields written straight into the instance
    dict, not through the frozen __setattr__, the status from _scan (which
    checks the strict transform free of content)."""
    chart = _new(Chart)
    fields = vars(chart)
    fields["field"] = field
    fields["variables"] = variables
    fields["steps"] = steps
    fields["strict"] = strict
    fields["divisors"] = divisors
    fields["run"] = run
    fields["run_start"] = run_start
    fields["depth"] = depth
    fields["_path_text"] = path_text
    fields["status"] = _scan(chart)
    return chart


def make_root_chart(f: Polynomial) -> Chart:
    """Start a resolution: extract any monomial factor of f itself (those
    coordinate divisors count as candidates with h = 0) and classify."""
    if f.is_zero():
        raise ZeroPolynomialError("cannot resolve the zero polynomial")
    if f.is_unit_at_origin():
        raise UnitInputError("resolution requires f(0) = 0")
    content, strict = f.coordinate_content()
    variables = f.variables
    divisors = {
        v: PoleIndex(f"root/{v}", content[v], 0)
        for v in variables
        if content.get(v, 0) > 0
    }
    run, run_start = _restart_run(variables, divisors)  # root records have h = 0
    chart = _chart(f.field, variables, (), strict, divisors, run, run_start, 0, "root")
    # Every later identity check reads this total as its parent side. The
    # ring product also checks the content split against f, and so the
    # exponent shift that builds every chart's total against `*`.
    exps = tuple([content.get(v, 0) for v in variables])
    monomial = Polynomial._trusted(f.field, variables, {exps: f.field.one()})
    if chart.total != f or strict * monomial != f:
        raise InternalInconsistencyError(
            "the root chart's total transform differs from f"
        )
    return chart


def blowup_origin(chart: Chart, center: Sequence[str]) -> tuple[Chart, ...]:
    """Blow up the origin of the chart along the given center variables.

    Returns one child chart per center variable v; in that child every other
    center variable w is replaced by w*v and {v = 0} is the new exceptional
    divisor, shared (same divisor id) across the siblings. Every chart is
    built free of monomial content (see _scan), so the origin lies on no
    component {var = 0} that a divisor record does not cover.
    """
    if chart.status is not _OPEN:
        raise ChartError(
            f"blow-up of a chart with status {chart.status.value} at "
            f"{chart.path_text()}"
        )
    variables, center = chart.variables, tuple(center)
    given = set(center)
    unknown = given.difference(variables)
    if unknown:
        raise ChartError(f"center contains unknown variables {sorted(unknown)}")
    if len(given) != len(center):
        raise ChartError("center variables must be distinct")
    if len(center) < 2:
        raise ChartError("center must contain at least 2 variables")
    center = tuple(v for v in variables if v in given)
    columns = _columns(variables, center)
    # In every chart U_v, v's exponent in a term becomes the term's order
    # along the center, and v**c divides out, c the least such order.
    terms, pick = chart.strict.terms, itemgetter(*columns)
    orders = list(map(sum, map(pick, terms)))
    c = min(orders)
    if c < 1:
        # A term of order 0 along the center does not vanish on it: the
        # caller's center misses the hypersurface. Auto's centers hold every
        # variable the strict transform involves, so only a caller's own can.
        exps = next(t for t, order in zip(terms, orders) if order < 1)
        raise ChartError(
            f"blow-up center {{{' = '.join(center)} = 0}} at "
            f"{chart.path_text()} does not lie on the strict transform: its "
            f"term {format_poly(chart.strict._with_terms({exps: terms[exps]}))} "
            "does not vanish there"
        )
    # The new divisor collects the orders of every divisor through the
    # center, plus c for f and s - 1 for the Jacobian of the blow-up.
    divisor = f"E@{chart.path_text()}"
    below = [chart.divisors[w] for w in center if w in chart.divisors]
    record = PoleIndex(
        divisor,
        sum(r.k for r in below) + c,
        sum(r.h for r in below) + (len(center) - 1),
    )
    # In every chart U_v, v's column of the run becomes the sum of the
    # center's columns, and the h it gives must be the one built above.
    run, run_start = chart.run, chart.run_start
    column = tuple(map(sum, zip(*pick(run))))
    h = _run_h(column, run_start)
    # What the siblings share: each term with its order less c, read once.
    reduced = [
        (exps, order - c, coeff)
        for (exps, coeff), order in zip(terms.items(), orders)
    ]
    field, divisors, total, children = chart.field, chart.divisors, chart.total, []
    for v, j in zip(center, columns):
        # The exponent map is injective, so the coefficients carry over.
        strict = Polynomial._trusted(
            field,
            variables,
            {exps[:j] + (r,) + exps[j + 1 :]: coeff for exps, r, coeff in reduced},
        )
        step = BlowupStep(center, v, divisor)
        child = _child(
            chart, step, strict, {**divisors, v: record},
            run[:j] + (column,) + run[j + 1 :], run_start,
        )
        _assert_step_identity(total, child, _step_substitution(field, variables, step))
        # Comparing the whole record also keeps the siblings in agreement.
        found = child.divisors[v]
        if found.h != h or (found is not record and found != record):
            raise InternalInconsistencyError(
                f"Jacobian check failed at {child.path_text()}: recorded "
                f"{found}, built {record}, the run matrix gives h = {h}"
            )
        children.append(child)
    return tuple(children)


def translate(chart: Chart, var: str, value) -> Chart:
    """Recentre the chart on the point var = value.

    The variable is replaced by var + value in the strict transform, so the
    new origin is the old point var = value. Translating a variable that
    carries an exceptional divisor is allowed only for value != 0: the
    divisor then misses the new origin, its monomial factor (var + value)^k
    is absorbed into the strict transform as a unit, and its divisor record
    is dropped from the chart. A translation that leaves the strict transform
    divisible by var is refused (see _scan).
    """
    value = chart.field.coerce(value)
    if var not in chart.variables:
        raise ChartError(f"unknown variable {var!r}")
    localized = var in chart.exceptional
    if localized and value.is_zero():
        raise ChartError(
            f"translation of exceptional variable {var!r} by 0 would keep the "
            "divisor through the origin; the monomial factorization cannot "
            "survive a translation along it"
        )
    step = TranslateStep(var, value, localized)
    substitution = _step_substitution(chart.field, chart.variables, step)
    divisors = dict(chart.divisors)
    strict = chart.strict
    if localized:
        # The pullback of var**k is a unit at the new origin, so it joins
        # the strict transform; the lowest power of var stays the same.
        k = divisors.pop(var).k
        strict = strict * Polynomial.monomial(chart.field, chart.variables, {var: k})
    run = _restart_run(chart.variables, divisors)
    child = _child(chart, step, strict.substitute(substitution), divisors, *run)
    _assert_step_identity(chart.total, child, substitution)
    _assert_records_kept(chart, child, var if localized else None)
    return child


def _rewrite_in_new_coordinate(
    f: Polynomial, var: str, expression: Polynomial, c1: FieldElement
) -> Polynomial:
    """Find F with F(var := expression) = f, treating `var` in F as the new
    coordinate. Exists iff f is polynomial in the new coordinate; the greedy
    triangular solve below is exact and its failure is a correct negative."""
    if f.is_zero():
        return f
    var_poly = Polynomial.variable(f.field, f.variables, var)
    bound = f.degree_in(var)
    result = Polynomial.zero(f.field, f.variables)
    residual = f
    last_order = -1
    while not residual.is_zero():
        m = residual.order_in(var)
        if m > bound or m <= last_order:
            raise ChartError(
                f"the strict transform is not polynomial in the new "
                f"coordinate {var!r} = {format_poly(expression)}"
            )
        last_order = m
        coeff = residual.coefficient_of(var, m) / c1**m
        result = result + coeff * var_poly**m
        residual = residual - coeff * expression**m
    return result


def apply_affine(chart: Chart, var: str, expression: Polynomial) -> Chart:
    """Rewrite the chart in a new coordinate for `var`.

    The expression states what the NEW coordinate equals in terms of the
    current ones and must fix the origin and be invertible there. Two shapes
    are supported exactly:

    - affine in var (c*var + q with c a nonzero constant, q free of var):
      inverted by the polynomial map var := (var - q)/c;
    - triangular (every term contains var, unit coefficient on var^1):
      the strict transform is rewritten by exact decomposition (the inverse
      is only a power series).

    Either way k and h are unchanged, the Jacobian d(expression)/d(var) of
    the rewrite is a unit (c1 != 0), so the chart starts a new run (and has
    no map_from_root), and the monomial factorization is re-checked
    (FactorizationDestroyedError). A rewrite that leaves the strict
    transform divisible by var is refused (see _scan).
    """
    if var not in chart.variables:
        raise ChartError(f"unknown variable {var!r}")
    _check_ring(chart.strict.field, chart.strict.variables, expression)
    if expression.is_zero():
        raise ChartError("substitution expression must be nonzero")
    if expression.constant_term:
        raise ChartError("substitution must fix the origin")
    linear_coeff = expression.coefficient_of(var, 1)
    c1 = linear_coeff.constant_term
    if not c1:
        raise ChartError(
            f"substitution for {var!r} has no unit linear part; it is not "
            "invertible near the origin"
        )
    affine = (
        expression.degree_in(var) == 1 and not linear_coeff.variables_present()
    )
    if affine:
        if var in chart.exceptional and expression.coefficient_of(var, 0):
            raise ChartError(
                f"substitution moves the exceptional divisor {{{var} = 0}} "
                "off the coordinate hyperplane"
            )
        step = RewriteStep(var, expression, True)
        strict_new = chart.strict.substitute(
            _step_substitution(chart.field, chart.variables, step)
        )
    else:
        if expression.order_in(var) < 1:
            raise ChartError(
                f"substitution for {var!r} mixes in terms free of it and is "
                "not affine; it cannot be inverted exactly"
            )
        strict_new = _rewrite_in_new_coordinate(chart.strict, var, expression, c1)
        step = RewriteStep(var, expression, False)
    run = _restart_run(chart.variables, chart.divisors)
    child = _child(chart, step, strict_new, chart.divisors, *run)
    # The defining property of the rewrite, checked exactly either way.
    if strict_new.substitute({var: expression}) != chart.strict:
        raise InternalInconsistencyError(
            f"coordinate rewrite of {var!r} failed to reproduce the strict "
            "transform"
        )
    _assert_records_kept(chart, child, None)
    return child


def verify_jacobian(chart: Chart) -> bool:
    """True iff every coordinate's recorded h (0 without a record) is the one
    its column of the run gives: the check blowup_origin makes on each new
    divisor, applied to every coordinate of the chart."""
    return all(
        (chart.divisors[v].h if v in chart.divisors else 0)
        == _run_h(column, chart.run_start)
        for v, column in zip(chart.variables, chart.run)
    )


# ---------------------------------------------------------------------------
# Resolution driver.


@dataclass(frozen=True)
class Auto:
    max_depth: int = 24

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be at least 0, got {self.max_depth}")


@dataclass(frozen=True)
class TreeNode:
    chart: Chart
    children: tuple["TreeNode", ...]

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class ResolutionTree:
    root_polynomial: Polynomial
    root: TreeNode

    def nodes(self) -> Iterator[TreeNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> list[TreeNode]:
        """The leaf nodes in pre-order, from one stack walk."""
        leaves, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                leaves.append(node)
        return leaves

    def has_depth_limit(self) -> bool:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(node.children)
            elif node.chart.status is _DEPTH_LIMIT:
                return True
        return False


def _node(chart: Chart, children: tuple[TreeNode, ...]) -> TreeNode:
    """A tree node, its fields written straight into the instance dict, not
    through the frozen dataclass __init__."""
    node = _new(TreeNode)
    fields = vars(node)
    fields["chart"] = chart
    fields["children"] = children
    return node


def _expand(root: Chart, max_depth: int) -> TreeNode:
    """Resolve the root chart: blow up the origin of every Open chart until
    the depth budget runs out. One explicit stack walks the charts in
    pre-order, so no chain is too deep for it; each node is then built, in
    reverse pre-order, from the last `count` nodes built, its children."""
    order: list[tuple[Chart, int]] = []
    stack = [root]
    while stack:
        chart = stack.pop()
        if chart.status is not _OPEN:
            order.append((chart, 0))
        elif chart.depth >= max_depth:
            order.append((replace(chart, status=_DEPTH_LIMIT), 0))
        else:
            # An Open chart's strict transform involves two variables or
            # more: it has no constant term, and (see _scan) no content.
            children = blowup_origin(chart, chart.strict.variables_present())
            order.append((chart, len(children)))
            stack.extend(reversed(children))
    nodes: list[TreeNode] = []
    for chart, count in reversed(order):
        children = ()
        if count:
            children = tuple(nodes[: -count - 1 : -1])
            del nodes[-count:]
        nodes.append(_node(chart, children))
    return nodes[0]


def resolve(f: Polynomial, strategy: Auto) -> ResolutionTree:
    """Build the resolution tree for f (which must vanish at the origin):
    repeatedly blow up the origin of every Open chart. Charts still Open
    when the depth budget runs out are flagged DepthLimit, never dropped.
    """
    root = make_root_chart(f)
    if not isinstance(strategy, Auto):
        raise ChartError(f"unknown strategy {strategy!r}")
    return ResolutionTree(f, _expand(root, strategy.max_depth))
