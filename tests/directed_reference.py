"""The directed-root kernel as it was in complex arithmetic: complex sqrt
and division, and masked selects. Kept as the reference that
tests/test_directed.py compares lctkit.estimator._directed_chunk against:
the same binned hits, and weight sums within 1e-12 relative."""

import math

import numpy as np

from lctkit.estimator import EstimatorConfig, _coefficient, _Directed, _power_table


def directed_chunk(direction: _Directed, config: EstimatorConfig,
                   points: np.ndarray, first: int, plain_share: float,
                   values: np.ndarray, weights: np.ndarray) -> None:
    """Move v in the samples first.. onto a root of f(x', v) = u, and write
    |f| and the weight p/q of every sample into `values` and `weights`.

    The target u has density h(u) = 1 / (2 pi K max(|u|, t_min)^2) on
    |u| <= t_max, with K = 1/2 + log(t_max / t_min) (`mass`): uniform on
    the disk |u| <= t_min, log-uniform in |u| above it. A directed sample
    draws u from its own uniform draw z of v: s = |z|^2 is uniform on
    [0, 1] and independent of z/|z|, so s sets |u| and (z/|z|)^d its phase,
    and for d = 2 the half-plane of z picks one of the two roots.
    """
    d = len(direction.coeffs) - 1
    t_min, t_max = config.t_min, config.t_max
    mass = 0.5 + math.log(t_max / t_min)
    table = _power_table(direction.coeffs, points)
    coeffs = [_coefficient(terms, table, points.shape[1])
              for terms in direction.coeffs]
    del table  # free the powers before the root arithmetic below
    c, b = [k if np.ndim(k) == 0 else k[first:] for k in coeffs[:2]]
    v = points[direction.axis]
    z = v[first:]
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.abs(z)
        # depth in [0, K] is K times the radial CDF of h at |u|
        depth = mass * (radius * radius)
        modulus = (t_min * np.sqrt(np.minimum(2 * depth, 1))
                   * np.exp(np.maximum(depth - 0.5, 0)))
        unit = z / radius
        if d == 1:
            v[first:] = (modulus * unit - c) / b
        else:
            u = modulus * (unit * unit)
            a = coeffs[2] if np.ndim(coeffs[2]) == 0 else coeffs[2][first:]
            sign = np.where(z.imag < 0, -1.0, 1.0)
            if np.ndim(b) == 0 and b == 0:
                v[first:] = sign * np.sqrt((u - c) / a)
            else:
                # Roots q/a and (c - u)/q with q = -(b + w)/2, the sign of w
                # chosen so that b + w does not cancel.
                w = np.sqrt(b * b - 4 * a * (c - u))
                w *= np.where((np.conj(b) * w).real < 0, -1.0, 1.0)
                q = -0.5 * (b + w)
                v[first:] = np.where(sign > 0, q / a, (c - u) / q)
            del u, sign
        del radius, depth, modulus, unit  # free them before |f| and weights
        # f and f' in v by Horner, from the same coefficients.
        if d == 1:
            c, b = coeffs
            value, slope = b * v + c, b
        else:
            c, b, a = coeffs
            value = (a * v + b) * v + c
            slope = 2 * a * v + b
        np.abs(value, out=values)
        # q/p = plain + (1 - plain) h(f) |f'|^2 / (d p), with p = 1/pi
        # and plain the share of uniform draws
        floor = np.maximum(values, t_min)
        floor *= floor
        steep = np.abs(slope)
        steep *= steep
        weights.fill(0)
        np.divide(steep, floor, out=weights, where=values <= t_max)
        weights *= (1 - plain_share) / (2 * d * mass)
        weights += plain_share
        np.divide(1, weights, out=weights)
    # p is 0 off the disk, which only directed samples can leave.
    weights[first:][~(np.abs(v[first:]) <= 1)] = 0.0
