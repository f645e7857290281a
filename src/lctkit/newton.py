"""Newton-polyhedron oracle: the candidate pole index computed combinatorially,
independent of any blow-up.

For f vanishing at the origin, t0 is the parameter where the diagonal
(t, ..., t) first meets the polyhedron conv(support + positive orthant);
the reported value is 1/t0. One exact simplex over Fraction solves the
min-max program and returns its primal convex weights lam and its dual
weights w. The value is accepted only if they prove each other by LP
duality: lam is feasible at t0, w >= 0 sums to 1, and min_i w . a_i = t0.
Facet normals are enumerated only when they are displayed, and there the
largest N/sum(w) over the facets must equal the certified t0. The value is
what the polyhedron alone determines; for degenerate boundaries it is only
a candidate, and no nondegeneracy check is attempted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd
from typing import Sequence

from .algebra import Polynomial, Rational, _fraction
from .errors import (
    InternalInconsistencyError,
    UnitInputError,
    ZeroPolynomialError,
)


# ---------------------------------------------------------------------------
# Small exact linear algebra over Fraction.


def _null_space(matrix: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Basis of the null space of a (possibly non-square) matrix with n columns."""
    rows = [row[:] for row in matrix]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(vec)
    return basis


def _rank(matrix: list[list[Fraction]], n: int) -> int:
    if not matrix:
        return 0
    return n - len(_null_space(matrix, n))


def _primitive(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, preserving direction."""
    denoms = [v.denominator for v in vec]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(v * lcm) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewtonData:
    """Support, the certified diagonal parameter t0, and lambda_np = 1/t0.

    The facet normals (primitive integers, paired with the weighted order N)
    are enumerated only when read, and then cross-checked against t0.
    """

    support: tuple[tuple[int, ...], ...]
    t0: Fraction
    lambda_np: Fraction

    @cached_property
    def facet_normals(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        normals = tuple(_facet_normals(list(self.support), len(self.support[0])))
        # The diagonal meets the facet (w, N) at t = N / sum(w).
        t0 = max(Fraction(n, sum(w)) for w, n in normals)
        if t0 != self.t0:
            raise InternalInconsistencyError(
                f"facet enumeration gives t0 = {t0}, "
                f"the certified simplex gives {self.t0}"
            )
        return normals


def support(f: Polynomial) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors with nonzero coefficients, canonically sorted."""
    if f.is_zero():
        raise ZeroPolynomialError("support of the zero polynomial")
    return f.support()


def w_order(f: Polynomial, weights: Sequence[Rational]) -> Fraction:
    """N(w) = min over the support of w . a, for nonnegative rational w."""
    pts = support(f)
    w = [_fraction(c) for c in weights]
    if len(w) != len(f.variables):
        raise ValueError(f"expected {len(f.variables)} weights, got {len(w)}")
    if any(c < 0 for c in w):
        raise ValueError("weights must be non-negative")
    if all(c == 0 for c in w):
        raise ValueError("weights must not all be zero")
    return min(sum(c * e for c, e in zip(w, a)) for a in pts)


def weighted_candidate(f: Polynomial, weights: Sequence[Rational]) -> Fraction:
    """The pole candidate (sum of w) / N(w) of the weight-w divisor."""
    w = [_fraction(c) for c in weights]
    if any(c <= 0 for c in w):
        raise ValueError("weights must be strictly positive")
    n = w_order(f, w)
    if n == 0:
        raise UnitInputError("N(w) = 0: the polynomial is a unit in this filtration")
    return sum(w) / n


def _dot(w: Sequence[Fraction], a: Sequence[int]) -> Fraction:
    return sum(c * e for c, e in zip(w, a))


def _facet_normals(pts: list[tuple[int, ...]], d: int):
    """Enumerate facet normals of conv(points + positive orthant).

    Every facet is the affine span of some affinely independent subset of
    support points together with some coordinate recession directions, so
    brute force over (point subset, coordinate subset) pairs finds them all;
    each candidate normal is validated globally before being kept.
    """
    found: dict[tuple[int, ...], Fraction] = {}
    indices = range(len(pts))
    for s in range(1, d + 1):
        for subset in itertools.combinations(indices, s):
            base = pts[subset[0]]
            rows = [
                [Fraction(pts[i][c] - base[c]) for c in range(d)]
                for i in subset[1:]
            ]
            for coords in itertools.combinations(range(d), d - s):
                matrix = rows + [
                    [Fraction(1 if c == zc else 0) for c in range(d)]
                    for zc in coords
                ]
                basis = _null_space(matrix, d)
                if len(basis) != 1:
                    continue
                w = basis[0]
                if all(c <= 0 for c in w):
                    w = [-c for c in w]
                if any(c < 0 for c in w):
                    continue
                n_val = _dot(w, base)
                if any(_dot(w, a) < n_val for a in pts):
                    continue
                # Keep genuine facets only: the touching face must have
                # affine dimension d-1.
                touching = [a for a in pts if _dot(w, a) == n_val]
                span_rows = [
                    [Fraction(a[c] - touching[0][c]) for c in range(d)]
                    for a in touching[1:]
                ]
                span_rows += [
                    [Fraction(1 if c == zc else 0) for c in range(d)]
                    for zc in range(d)
                    if w[zc] == 0
                ]
                if _rank(span_rows, d) != d - 1:
                    continue
                key = _primitive(w)
                found.setdefault(key, Fraction(int(_dot([Fraction(k) for k in key], base))))
    return sorted(
        ((w, int(n)) for w, n in found.items()),
        key=lambda item: item[0],
    )


def _t0_primal(pts: list[tuple[int, ...]], d: int):
    """min t such that (t, ..., t) dominates a convex combination of support
    points, by an exact simplex; returns (t, lam, w).

    The program is min t subject to sum_i lam_i a_i + s = t * 1,
    sum_i lam_i = 1 and lam, s, t >= 0. Columns are ordered lam, s, t, and
    Bland's rule (lowest entering index, ties in the ratio test to the
    lowest basic index) keeps degenerate supports from cycling. The start
    basis is closed-form: lam = 1 at the point whose largest coordinate M is
    smallest, t = M, and slacks M - a_c on every other row. At the optimum
    the reduced cost of slack c is -y_c for the dual y of B^T y = c_B, so
    w = -y is read off the objective row.
    """
    n = len(pts)
    t_col = n + d
    # Rows 0..d-1: sum_i lam_i a_ic + s_c - t = 0; row d: sum_i lam_i = 1;
    # last row: the objective t, kept reduced against the basis.
    rows = [
        [Fraction(a[c]) for a in pts]
        + [Fraction(int(k == c)) for k in range(d)]
        + [Fraction(-1), Fraction(0)]
        for c in range(d)
    ]
    rows.append([Fraction(1)] * n + [Fraction(0)] * (d + 1) + [Fraction(1)])
    rows.append([Fraction(0)] * (n + d) + [Fraction(1), Fraction(0)])
    basis = [n + c for c in range(d)] + [None]

    def pivot(r: int, j: int) -> None:
        inv = 1 / rows[r][j]
        rows[r] = [v * inv for v in rows[r]]
        for i, row in enumerate(rows):
            factor = row[j]
            if i != r and factor != 0:
                rows[i] = [a - factor * b for a, b in zip(row, rows[r])]
        basis[r] = j

    start = min(range(n), key=lambda i: max(pts[i]))
    top = max(range(d), key=lambda c: pts[start][c])
    pivot(d, start)
    pivot(top, t_col)
    while True:
        objective = rows[-1]
        entering = next((j for j in range(t_col + 1) if objective[j] < 0), None)
        if entering is None:
            break
        # t >= 0 bounds the objective, so some row always limits the step
        leaving = min(
            (rows[r][-1] / rows[r][entering], basis[r], r)
            for r in range(d + 1)
            if rows[r][entering] > 0
        )
        pivot(leaving[2], entering)
    values = [Fraction(0)] * (t_col + 1)
    for r, j in enumerate(basis):
        values[j] = rows[r][-1]
    return values[t_col], values[:n], objective[n:t_col]


def _check_certificate(pts, t: Fraction, lam, w) -> None:
    """Prove t = min t by LP duality, trusting nothing from the solver.

    If lam is a feasible convex combination with every coordinate <= t, and
    w >= 0 with sum w = 1 has w . a_i >= t for every support point, then
    any feasible (lam', t') has t' >= w . (sum lam'_i a_i) >= t.
    """
    if any(c < 0 for c in lam) or sum(lam) != 1:
        raise InternalInconsistencyError(
            f"primal weights {lam} are not a convex combination"
        )
    point = [sum(c * a[k] for c, a in zip(lam, pts)) for k in range(len(w))]
    if any(coord > t for coord in point):
        raise InternalInconsistencyError(f"primal point {point} exceeds t0 = {t}")
    if any(c < 0 for c in w) or sum(w) != 1:
        raise InternalInconsistencyError(f"dual weights {w} are not dual-feasible")
    bound = min(_dot(w, a) for a in pts)
    if bound != t:
        raise InternalInconsistencyError(
            f"duality gap: primal t0 = {t}, dual bound {bound}"
        )


def lambda_newton(f: Polynomial) -> NewtonData:
    """Exact 1/t0 for f with f(0) = 0, proved by an LP-duality certificate."""
    pts = list(support(f))
    d = len(f.variables)
    if (0,) * d in f.terms:
        raise UnitInputError("the polynomial does not vanish at the origin")
    t0, lam, w = _t0_primal(pts, d)
    _check_certificate(pts, t0, lam, w)
    return NewtonData(support=tuple(pts), t0=t0, lambda_np=Fraction(1) / t0)
