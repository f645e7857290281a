"""The brute-force facet search: an independent reference for the facet
normals of lctkit.newton, which double description now enumerates.

Every facet of conv(support + positive orthant) is the affine span of some
affinely independent support points together with some coordinate
recession directions. _facet_normals tries every (point subset, coordinate
subset) pair, solves for the normal by _null_space and keeps it only if it
is valid for every point and its touching face has dimension d-1. It is
exponential in d, so tests feed it at most ten points in five variables and
eight in six.
"""

import itertools
from math import gcd
from operator import mul

from lctkit.algebra import _pivot


def _null_space(matrix: list[list[int]], n: int) -> list[list[int]]:
    """Primitive integer basis of the null space of a matrix with n columns."""
    rows = [row[:] for row in matrix]
    pivots: list[int] = []
    den = 1
    for col in range(n):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        den = _pivot(rows, r, col, den)
        pivots.append(col)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        # pivot row i reads den * x_pc + rows[i][fc] * x_fc = 0
        vec = [0] * n
        vec[fc] = den
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        g = gcd(*vec)
        basis.append([v // g for v in vec])
    return basis


def _unit_rows(d: int, coords) -> list[list[int]]:
    return [[int(c == zc) for c in range(d)] for zc in coords]


def _facet_normals(pts: list[tuple[int, ...]], d: int):
    """Enumerate facet normals of conv(points + positive orthant).

    Every facet is the affine span of some affinely independent subset of
    support points together with some coordinate recession directions, so
    brute force over (point subset, coordinate subset) pairs finds them all;
    each candidate normal is validated globally before being kept.
    """
    found: dict[tuple[int, ...], int] = {}
    indices = range(len(pts))
    for s in range(1, d + 1):
        for subset in itertools.combinations(indices, s):
            base = pts[subset[0]]
            rows = [[pts[i][c] - base[c] for c in range(d)] for i in subset[1:]]
            for coords in itertools.combinations(range(d), d - s):
                basis = _null_space(rows + _unit_rows(d, coords), d)
                if len(basis) != 1:
                    continue
                w = basis[0]
                if all(c <= 0 for c in w):
                    w = [-c for c in w]
                if any(c < 0 for c in w):
                    continue
                n_val = sum(map(mul, w, base))
                if any(sum(map(mul, w, a)) < n_val for a in pts):
                    continue
                # Keep genuine facets only: the touching face must have
                # affine dimension d-1, a null space of dimension 1.
                touching = [a for a in pts if sum(map(mul, w, a)) == n_val]
                span_rows = [
                    [a[c] - touching[0][c] for c in range(d)] for a in touching[1:]
                ]
                span_rows += _unit_rows(d, (c for c in range(d) if w[c] == 0))
                if len(_null_space(span_rows, d)) == 1:
                    found.setdefault(tuple(w), n_val)
    return sorted(found.items())
