"""The polynomial Jacobian audit: an independent reference for the h records.

resolve checks every new divisor's h against the chart's integer run matrix,
and lctkit.blowup.verify_jacobian applies that rule to every coordinate.
This module checks the same records the long way, with polynomials only: it
composes the step maps of _step_substitution, cofactor-expands the Jacobian
matrix, and factors the recorded monomial out of the determinant. It also
holds the global identity f(chart map) = total transform, and the chart map
composed from the path: the reference for Chart.map_from_root, which reads
the run matrix and gives a map on a path of blow-ups only, and the only map
of a chart below a translation or a rewrite.
"""

from typing import Mapping, Optional

from lctkit import Polynomial
from lctkit.blowup import Chart, ResolutionTree, _step_substitution, verify_jacobian


def composed_map_from_root(chart: Chart) -> Optional[dict[str, Polynomial]]:
    """The root coordinates as polynomials in the chart's, composed from the
    step maps of the path; None once a triangular rewrite is on it."""
    images = {
        v: Polynomial.variable(chart.field, chart.variables, v)
        for v in chart.variables
    }
    for step in chart.steps:
        substitution = _step_substitution(chart.field, chart.variables, step)
        if substitution is None:
            return None
        images = {x: p.substitute(substitution) for x, p in images.items()}
    return images


def _poly_determinant(rows: list[list[Polynomial]]) -> Polynomial:
    """Cofactor expansion along the first row; exact and independent of the
    additive bookkeeping it is used to audit."""
    if len(rows) == 1:
        return rows[0][0]
    total = Polynomial.zero(rows[0][0].field, rows[0][0].variables)
    for j, entry in enumerate(rows[0]):
        if entry:
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            term = entry * _poly_determinant(minor)
            total = total - term if j % 2 else total + term
    return total


def _map_determinant(chart: Chart, images: Mapping[str, Polynomial]) -> Polynomial:
    """det(d old / d new) of a coordinate map given by the images of the old
    coordinates it moves; every other coordinate maps to itself."""
    field, variables = chart.field, chart.variables
    images = {
        v: images[v] if v in images else Polynomial.monomial(field, variables, {v: 1})
        for v in variables
    }
    return _poly_determinant(
        [[images[old].partial(new) for new in variables] for old in variables]
    )


def _is_recorded_jacobian(chart: Chart, det: Polynomial) -> bool:
    """True iff det is a unit at the origin times prod e**h_e over the
    chart's divisor records."""
    if det.is_zero():
        return False
    content, residual = det.coordinate_content()
    recorded = {e: r.h for e, r in chart.divisors.items() if r.h}
    return content == recorded and residual.is_unit_at_origin()


def _verify_stepwise(chart: Chart) -> bool:
    """Replay the path with one Jacobian polynomial: at each step pull it
    back through the step's own map and multiply by that map's determinant.
    A triangular rewrite has no polynomial inverse; its Jacobian
    d(expression)/d(variable) must be a unit at the origin, the carried
    polynomial must be a monomial times a unit, and only the monomial goes
    on (the rewrite maps each coordinate to itself times a unit)."""
    jacobian = Polynomial.constant(chart.field, chart.variables, 1)
    for step in chart.steps:
        substitution = _step_substitution(chart.field, chart.variables, step)
        if substitution is not None:
            jacobian = jacobian.substitute(substitution) * _map_determinant(
                chart, substitution
            )
            continue
        unit = step.expression.partial(step.variable)
        if not unit.is_unit_at_origin() or not jacobian:
            return False
        content, rest = jacobian.coordinate_content()
        if not rest.is_unit_at_origin():
            return False
        jacobian = Polynomial.monomial(chart.field, chart.variables, content)
    return _is_recorded_jacobian(chart, jacobian)


def _verify_composed(chart: Chart, images: Mapping[str, Polynomial]) -> bool:
    """Cofactor-expand the Jacobian matrix of the composed chart map and
    check it is a unit times the recorded exceptional monomial."""
    return _is_recorded_jacobian(chart, _map_determinant(chart, images))


def reference_jacobian(chart: Chart) -> bool:
    """True iff the Jacobian determinant of the chart map is a unit times
    the recorded h monomial: checked on the composed map when the polynomial
    chart map exists, and by the stepwise replay always. Both read only the
    step maps, never the h rule of blowup_origin or the chart's run matrix."""
    images = composed_map_from_root(chart)
    if images is not None and not _verify_composed(chart, images):
        return False
    return _verify_stepwise(chart)


def jacobian_verdicts(chart: Chart) -> tuple[bool, bool]:
    """(run-matrix check, polynomial reference) on one chart, both always run."""
    return verify_jacobian(chart), reference_jacobian(chart)


def total_transform_identity(tree: ResolutionTree, chart: Chart) -> bool:
    """Exact global check f(map) = monomial * strict for charts that kept a
    polynomial map; tolerates one overall constant factor, which is what a
    constant-Jacobian rescaling legitimately introduces."""
    images = composed_map_from_root(chart)
    if images is None:
        return True
    lhs = tree.root_polynomial.substitute(images)
    rhs = chart.total
    if lhs == rhs:
        return True
    if lhs.is_zero() or rhs.is_zero():
        return False
    lead = next(iter(sorted(rhs.terms)))
    if lead not in lhs.terms:
        return False
    ratio = lhs.terms[lead] / rhs.terms[lead]
    return lhs == rhs * ratio
