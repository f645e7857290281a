"""The directed-root kernel in real arithmetic against its complex-arithmetic
reference (tests/directed_reference.py), and its square root against
np.sqrt."""

import numpy as np
import pytest
from directed_reference import directed_chunk

from lctkit import EstimatorConfig, parse_poly
from lctkit.estimator import (
    _BLOCK,
    _compiled_terms,
    _directed_chunk,
    _direction,
    _sample_chunk,
    _sqrt,
    t_grid,
)


def _direction_of(text):
    """The directed variable and its coefficients, as _measure finds them in
    complex mode: only the coordinates that f involves are drawn."""
    terms = _compiled_terms(parse_poly(text))
    used = [axis for axis in range(3) if any(exps[axis] for _, exps in terms)]
    terms = [(c, tuple(exps[axis] for axis in used)) for c, exps in terms]
    direction = _direction(terms, len(used))
    assert direction is not None
    return direction, len(used)


def _binned(values, weights, grid):
    """Per level (not cumulative): the hits and the sum of their weights."""
    near = values <= grid[-1]
    level = np.searchsorted(grid, values[near])  # first threshold >= |f|
    return (np.bincount(level, minlength=len(grid)),
            np.bincount(level, weights=weights[near], minlength=len(grid)))


@pytest.mark.parametrize("text, degree, b_zero", [
    ("x*y + z^3", 1, False),  # degree 1, a varying coefficient of v
    ("x^2 + y^2 + z^2", 2, True),  # constant leading coefficient
    ("-i*x^2 + y^3", 2, True),
    ("(y^2 + 1)*x^2 + y^2 + z^3", 2, True),  # varying leading coefficient
    ("(z - 1/2)^2", 2, False),
    ("x^2 - x + y^3", 2, False),
])
@pytest.mark.parametrize("seed", [1, 7])
def test_kernel_matches_the_complex_reference(text, degree, b_zero, seed):
    direction, dims = _direction_of(text)
    assert len(direction.coeffs) - 1 == degree
    assert (direction.coeffs[1] == ()) == b_zero
    config = EstimatorConfig("complex", seed=seed)
    grid = t_grid(config)
    for chunk, first in ((0, _BLOCK // 2), (1, 0), (2, 1000)):
        points = np.empty((dims, _BLOCK), dtype=np.complex128)
        _sample_chunk(config, chunk, points)
        got, want = [], []
        for kernel, out in ((_directed_chunk, got), (directed_chunk, want)):
            values, weights = np.empty(_BLOCK), np.empty(_BLOCK)
            kernel(direction, config, points.copy(), first, 0.5, values, weights)
            out.extend(_binned(values, weights, grid))
        assert np.array_equal(got[0], want[0]), (chunk, got[0], want[0])
        assert want[0].min() > 0  # the directed draws reach every level
        np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0)


def test_sqrt_is_within_four_ulp_of_numpy():
    # moduli log-uniform in 1e-300..1e300, phases uniform
    rng = np.random.default_rng(29)
    w = 10.0 ** rng.uniform(-300, 300, 1 << 20) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, 1 << 20))
    re, im = _sqrt(w)
    want = np.sqrt(w)
    for got, part in ((re, want.real), (im, want.imag)):
        ulps = np.abs(got - part) / np.spacing(np.abs(part))
        assert ulps.max() <= 4, ulps.max()


@pytest.mark.parametrize("w", [
    complex(-4, 0.0), complex(-4, -0.0),
    complex(0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
    complex(-1, 1e-20), complex(-1, -1e-20),
], ids=repr)
def test_sqrt_equals_numpy_on_the_branch_cut(w):
    re, im = _sqrt(np.array([w]))
    want = np.sqrt(np.array([w]))
    got = (re[0], im[0])
    assert got == (want.real[0], want.imag[0])
    assert tuple(np.signbit(got)) == (np.signbit(want.real[0]), np.signbit(want.imag[0]))
