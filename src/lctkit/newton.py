"""Newton-polyhedron oracle: the candidate pole index computed combinatorially,
independent of any blow-up.

For f vanishing at the origin, t0 is the parameter where the diagonal
(t, ..., t) first meets the polyhedron conv(support + positive orthant);
the reported value is 1/t0. When the least pure powers A_c * e_c of the
axes give the unique optimum, as on Brieskorn-Pham sums such as the A_n, E6
and E8 normal forms (where 1/t0 = sum_c 1/A_c; Varchenko 1976), it is read
off them with no pivot. Otherwise one exact fraction-free simplex solves
the min-max program, on a tableau whose columns are only lam and the slacks
s. Either way the value is accepted only if its primal weights lam and dual
weights w prove each other by LP duality over the whole support. That
certificate is the same whatever path the solver took. The simplex pivots
with `_pivot`, the one fraction-free elimination, in algebra.py; Fractions
are built only for t0 and 1/t0. The largest N/sum(w) over the facet
normals (w, N), when they are enumerated, must equal the certified t0. The
value is what the polyhedron alone determines; for degenerate boundaries it
is only a candidate, and no nondegeneracy check is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .algebra import Polynomial, _pivot
from .errors import (
    InternalInconsistencyError,
    UnitInputError,
    ZeroPolynomialError,
)


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


def _facet_normals(pts: list[tuple[int, ...]], d: int):
    """Facet normals (w, N) of conv(points + positive orthant), by double
    description (Motzkin et al. 1953; Fukuda and Prodon 1996).

    They are the extreme rays of the cone w >= 0, N >= 0, a . w >= N over the
    support points a that make some point tight. The cone starts as the
    orthant, spanned by the d+1 unit rays, and one point is added at a time.
    Each ray carries the bitmask of its tight constraints: bit c for w_c >= 0
    (c < d), bit d for N >= 0, bit d+1+i for point i. A ray on the wrong side
    is dropped; each pair of a ray on the right side with one on the wrong
    side gives a new ray on the new hyperplane when they are adjacent, that
    is when they share at least d-1 tight constraints and no third ray is
    tight on all of them. Rays stay nonnegative, so dividing by gcd(w) makes
    each primitive. A ray (e_c, 0) with no tight point only cuts the orthant:
    every point has a_c >= 1, and the facet is (e_c, min a_c).
    """
    orthant = (1 << (d + 1)) - 1
    rays = [
        ([int(k == c) for k in range(d + 1)], orthant ^ (1 << c))
        for c in range(d + 1)
    ]
    for i, a in enumerate(pts):
        bit = 1 << (d + 1 + i)
        slack = [sum(map(mul, a, r)) - r[d] for r, _ in rays]  # a . w - N
        kept = [
            (r, z | bit if s == 0 else z) for (r, z), s in zip(rays, slack) if s >= 0
        ]
        above = [(r, z, s) for (r, z), s in zip(rays, slack) if s > 0]
        below = [(r, z, s) for (r, z), s in zip(rays, slack) if s < 0]
        for p, zp, sp in above:
            for q, zq, sq in below:
                common = zp & zq
                if common.bit_count() < d - 1:
                    continue
                if sum(common & z == common for _, z in rays) > 2:
                    continue
                ray = [sp * y - sq * x for x, y in zip(p, q)]
                g = gcd(*ray[:d])
                kept.append(([c // g for c in ray], common | bit))
        rays = kept
    return sorted((tuple(r[:d]), r[d]) for r, z in rays if z & ~orthant)


def _t0_primal(pts: list[tuple[int, ...]], d: int):
    """min t such that (t, ..., t) dominates a convex combination of support
    points; returns (t, lam, w, den), integer numerators over one
    denominator den >= 1.

    The program is min t subject to sum_i lam_i a_i + s = t * 1,
    sum_i lam_i = 1 and lam, s, t >= 0; its dual weights w >= 0 sum to 1.

    The pure-power vertex. Let A_c be the least exponent among the pure
    powers of axis c (points whose only nonzero coordinate is c), L the lcm
    of the A_c and w_c = L / A_c, so w . a = L on those d points. When every
    axis has one and every other point has w . a > L, the answer is read off
    with no pivot: t = L, lam_c = w_c at axis c's least pure power, and
    den = sum(w). w is dual-feasible with min_i w . a_i = t, so both are
    optimal. Complementary slackness then leaves lam no other point (each
    has w . a > L) and s no coordinate (each w_c > 0), so lam_c * A_c = t
    fixes the primal optimum, and every lam_c > 0 fixes the dual one. The
    basis of those pure powers and t is nondegenerate and the only optimal
    one, so Bland's simplex below would end there too.

    Otherwise an exact simplex. Columns are ordered lam, s, and Bland's
    rule (lowest entering index, ties in the ratio test to the lowest basic
    index) keeps degenerate supports from cycling. The start basis is
    closed-form: lam = 1 at the point s whose largest coordinate
    M = a_s[top] is smallest, t = M, and slacks M - a_sc on every other row;
    its tableau is written down directly with den = 1. t is basic in row
    top and never leaves: every feasible point has t >= its largest
    coordinate, which is positive, so no basic solution has t = 0 and the
    ratio test never picks row top. While t is basic the objective row is
    minus row top outside t's column, so the tableau keeps neither the
    objective row nor t's column, and row top holds minus the reduced
    costs. At the optimum the reduced cost of slack c is -y_c for the dual
    y of B^T y = c_B, so w = -y is minus row top's slack entries. Pivots
    divide exactly (see _pivot).
    """
    n = len(pts)
    least = [0] * d
    for a in pts:
        if a.count(0) == d - 1:
            e = max(a)
            c = a.index(e)
            if not least[c] or e < least[c]:
                least[c] = e
    if all(least):
        order = lcm(*least)
        w = [order // e for e in least]
        dots = [sum(map(mul, w, a)) for a in pts]
        # The d least pure powers reach w . a = order; nothing else may.
        if min(dots) == order and dots.count(order) == d:
            lam = [order // max(a) if v == order else 0 for a, v in zip(pts, dots)]
            return order, lam, w, sum(w)
    a_s = min(pts, key=max)
    m = max(a_s)
    start, top = pts.index(a_s), a_s.index(m)
    gap = [m - a[top] for a in pts]  # M - T_i
    # Rows 0..d-1: row top holds t, row c the slack of coordinate c; row d:
    # sum_i lam_i = 1. The last column is the right-hand side.
    rows = []
    for c, column in enumerate(zip(*pts)):
        if c == top:
            row = gap + [0] * (d + 1)
            row[-1] = m
        else:
            q = a_s[c]
            row = [e - q + g for e, g in zip(column, gap)] + [0] * (d + 1)
            row[n + c], row[-1] = 1, m - q
        row[n + top] -= 1
        rows.append(row)
    rows.append([1] * n + [0] * d + [1])
    # t keeps its index n + d, past the kept columns, in the basis.
    basis = [n + d if c == top else n + c for c in range(d)] + [start]
    others = [r for r in range(d + 1) if r != top]
    den = 1
    while True:
        t_row = rows[top]  # minus the reduced costs, t's column dropped
        for entering in range(n + d):
            if t_row[entering] > 0:
                break
        else:
            break
        # t >= 0 bounds the objective, so some row other than top always
        # limits the step; rhs_r / a_r < rhs / a is compared as
        # rhs_r * a < rhs * a_r, and a tie goes to the lower basic index.
        leaving, rhs, a = -1, 0, 1
        for r in others:
            row = rows[r]
            a_r = row[entering]
            if a_r > 0 and (
                leaving < 0 or (row[-1] * a, basis[r]) < (rhs * a_r, basis[leaving])
            ):
                leaving, rhs, a = r, row[-1], a_r
        den = _pivot(rows, leaving, entering, den)
        basis[leaving] = entering
    values = [0] * (n + d + 1)  # the basic variables' values, 0 elsewhere
    for b, row in zip(basis, rows):
        values[b] = row[-1]
    return values[n + d], values[:n], [-v for v in t_row[n:-1]], den


def _check_certificate(pts, t: int, lam: list[int], w: list[int], den: int) -> None:
    """Prove t0 = t / den = min t by LP duality, trusting nothing from the
    solver; lam and w are numerators over the same den >= 1 as t.

    If lam is a feasible convex combination with every coordinate <= t0, and
    w >= 0 with sum w = 1 has w . a_i >= t0 for every support point, then
    any feasible (lam', t') has t' >= w . (sum lam'_i a_i) >= t0.
    """
    if den < 1:
        raise InternalInconsistencyError(f"common denominator {den} is not positive")

    def over(values):
        return [Fraction(v, den) for v in values]

    if min(lam) < 0 or sum(lam) != den:
        raise InternalInconsistencyError(
            f"primal weights {over(lam)} are not a convex combination"
        )
    point = [sum(map(mul, lam, column)) for column in zip(*pts)]
    if max(point) > t:
        raise InternalInconsistencyError(
            f"primal point {over(point)} exceeds t0 = {Fraction(t, den)}"
        )
    if min(w) < 0 or sum(w) != den:
        raise InternalInconsistencyError(
            f"dual weights {over(w)} are not dual-feasible"
        )
    bound = min([sum(map(mul, w, a)) for a in pts])
    if bound != t:
        raise InternalInconsistencyError(
            f"duality gap: primal t0 = {Fraction(t, den)}, "
            f"dual bound {Fraction(bound, den)}"
        )


def lambda_newton(f: Polynomial) -> NewtonData:
    """Exact 1/t0 for f with f(0) = 0, proved by an LP-duality certificate."""
    pts = list(support(f))
    d = len(f.variables)
    if (0,) * d in f.terms:
        raise UnitInputError("the polynomial does not vanish at the origin")
    t, lam, w, den = _t0_primal(pts, d)
    _check_certificate(pts, t, lam, w, den)
    return NewtonData(tuple(pts), Fraction(t, den), Fraction(den, t))
