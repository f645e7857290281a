"""Monte Carlo cross-check: recover the pole index from how the volume of
{|f| <= t} scales as t -> 0.

Samples are drawn once per seed and shared across every threshold level,
so hit counts are monotone in t by construction. They are drawn in chunks
of 2^17, each from its own SFC64 stream seeded by (seed, chunk index): the
chunk size fixes the draws, the same however the two lanes (_abs_values)
share out the chunks. No per-sample array outlives its chunk, so memory is
a few chunks' worth whatever the sample count.

Each sample carries a likelihood weight w = p/q, where p is the uniform
density on the box and q the density it was drawn from, and a level's volume
fraction is the sum of its hits' weights over the number of samples. In real
mode the samples are uniform, so every weight is 1 and the volume is the hit
fraction. In complex mode the volume of {|f| <= t} lies mostly along the
smooth part of the zero set, away from the origin, where uniform samples
rarely land. So when f has a variable v of degree d <= 2, the first half of
each chunk is drawn uniformly and the second half is directed at the zero
set: the other coordinates x' stay uniform, and v is one of the d roots of
f(x', v) = u for a small target u. The uniform half bounds every weight by
2 (a defensive mixture). Complex mode draws only the coordinates
that f involves; the others cannot change |f|. With no term linear in v,
v = +-sqrt((u - c) / a) is taken in real arithmetic (_sqrt): numpy's
complex sqrt and division cost many times its real loops.

f is evaluated a block at a time from one power table per block
(_power_table), not by libm pow. Against libm pow and complex-arithmetic
roots, real-mode counts and fits are the same bit for bit, complex-mode
counts the same and its floats within 1e-12 relative.

The log-log slope of the volumes is fitted by weighted least squares, each
level weighted by volume^2 / variance, and converted to the index estimate:
slope for real samples, slope/2 for complex ones, matching how the ambient
measure scales in each case. The slope's stderr accounts for the hits that
the cumulative levels share, and with more than two levels it is widened by
the Birge ratio sqrt(max(1, chi^2 / (k - 2))), so that curvature of the
log-log curve at finite t shows in the error. Levels with fewer than
min_hits effective hits ((sum w)^2 / sum w^2, the hit count when every
weight is 1) carry no usable information and are dropped.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Polynomial
from .errors import UnitInputError, UnreliableEstimateError, ZeroPolynomialError

_CHUNK = 1 << 17
_BLOCK = 1 << 15

MODES = ("real", "complex")


@dataclass(frozen=True)
class EstimatorConfig:
    mode: str
    samples_per_level: int = 1_000_000
    t_min: float = 1e-5
    t_max: float = 1e-2
    levels: int = 8
    seed: int = 0
    min_hits: int = 100

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (0 < self.t_min < self.t_max <= 1):
            raise ValueError(
                f"need 0 < t_min < t_max <= 1, got [{self.t_min}, {self.t_max}]"
            )
        if self.levels < 2:
            raise ValueError("need at least 2 threshold levels")
        if self.samples_per_level < 1:
            raise ValueError("need at least one sample")
        if self.min_hits < 1:
            raise ValueError("min_hits must be at least 1")
        if not 0 <= self.seed < 2**63:
            raise ValueError("seed must fit in 63 bits")


@dataclass(frozen=True)
class Estimate:
    lambda_hat: float
    stderr: float
    slope: float
    levels_used: int
    t_grid: tuple[float, ...]
    hit_counts: tuple[int, ...]
    samples: int
    mode: str
    seed: int
    # Per level: the volume fraction (sum of the hits' weights over the
    # samples) and the effective hits (sum w)^2 / sum w^2. With unit weights
    # these are hits/samples and the hit count.
    volumes: tuple[float, ...]
    effective_hits: tuple[float, ...]


def t_grid(config: EstimatorConfig) -> tuple[float, ...]:
    """Geometric threshold grid from t_min to t_max."""
    return tuple(
        float(t) for t in np.geomspace(config.t_min, config.t_max, config.levels)
    )


def _embedding(field) -> complex:
    """Deterministic complex value for the field generator: the root of the
    modulus with the largest imaginary part, ties broken by real part."""
    if field.degree == 1:
        return complex(-field.minpoly_tail[0])
    coeffs = [1.0] + [float(c) for c in reversed(field.minpoly_tail)]
    roots = sorted(np.roots(coeffs), key=lambda r: (r.imag, r.real))
    return complex(roots[-1])


def _compiled_terms(f: Polynomial) -> list[tuple[complex, tuple[int, ...]]]:
    g = _embedding(f.field)
    out = []
    for exps, coeff in f.sorted_terms():
        value = 0j
        for power, c in enumerate(coeff.coeffs):
            value += complex(c) * g**power
        out.append((value, exps))
    return out


def _power_table(term_lists, points: np.ndarray) -> dict:
    """x_axis^e at every sample, keyed (axis, e), for each e >= 1 that a
    term of `term_lists` raises row `axis` of `points` to. x^1 is the row
    itself; each higher power is the next lower one in the table times
    powers already built, the largest that fits first (x^5 = x^3 * x^2 when
    3 and 2 are in the table, else x^3 * x * x)."""
    table = {}
    for axis, x in enumerate(points):
        table[axis, 1] = x
        built = [1]
        needed = {exps[axis] for terms in term_lists for _, exps in terms}
        for e in sorted(needed - {0, 1}):
            power = None
            rest = e - built[-1]
            while rest:
                step = max(b for b in built if b <= rest)
                if power is None:
                    power = table[axis, built[-1]] * table[axis, step]
                else:
                    power *= table[axis, step]
                rest -= step
            table[axis, e] = power
            built.append(e)
    return table


def _evaluate(terms, table: dict, out: np.ndarray) -> np.ndarray:
    """The compiled terms summed at every sample, in place into `out`, from
    the powers in `table`. A term of several factors is built as
    ((coeff * x_a^e_a) * x_b^e_b) * ... in one scratch buffer (a coefficient
    of 1 skipped), then added to `out`."""
    out.fill(0)
    scratch = None
    for coeff, exps in terms:
        factors = [table[axis, e] for axis, e in enumerate(exps) if e]
        if coeff != 1 or not factors:
            factors.insert(0, coeff)
        if len(factors) == 1:
            out += factors[0]
            continue
        if scratch is None:
            scratch = np.empty_like(out)
        np.multiply(factors[0], factors[1], out=scratch)
        for factor in factors[2:]:
            scratch *= factor
        out += scratch
    return out


@dataclass(frozen=True)
class _Directed:
    """f = sum_j coeffs[j](x') * v^j in the directed variable v (row `axis`
    of the points); each coeffs[j] is a compiled term list with v's exponent
    zeroed, so the degree d is len(coeffs) - 1."""

    axis: int
    coeffs: tuple[tuple[tuple[complex, tuple[int, ...]], ...], ...]


def _direction(terms, dims: int) -> Optional[_Directed]:
    """The variable of least positive degree, if that degree is 1 or 2."""
    degrees = [max((exps[axis] for _, exps in terms), default=0)
               for axis in range(dims)]
    options = [(d, axis) for axis, d in enumerate(degrees) if d > 0]
    if not options or min(options)[0] > 2:
        return None
    d, axis = min(options)
    coeffs = [[] for _ in range(d + 1)]
    for coeff, exps in terms:
        coeffs[exps[axis]].append((coeff, exps[:axis] + (0,) + exps[axis + 1:]))
    return _Directed(axis, tuple(tuple(c) for c in coeffs))


def _unit_disk(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill `out` with complex points uniform on the closed unit disk, by
    rejection from the square (acceptance pi/4), drawn in blocks of _BLOCK
    points into one reused buffer."""
    square = np.empty(2 * min(len(out) + len(out) // 3 + 16, _BLOCK))
    filled = 0
    while filled < len(out):
        need = len(out) - filled
        draws = need + need // 3 + 16
        for lo in range(0, draws, _BLOCK):
            part = rng.random(out=square[: 2 * min(_BLOCK, draws - lo)])
            part *= 2
            part -= 1
            part = part.view(np.complex128)
            kept = np.compress(np.abs(part) <= 1, part)[: len(out) - filled]
            out[filled : filled + len(kept)] = kept
            filled += len(kept)


def _sample_chunk(config: EstimatorConfig, chunk: int, points: np.ndarray) -> None:
    """Fill `points`, one coordinate per row, with uniform samples from the
    (seed, chunk) stream: on the box [-1, 1]^n in real mode (as
    rng.uniform(-1, 1) draws them), on the unit polydisk in complex mode."""
    rng = np.random.Generator(np.random.SFC64((config.seed, chunk)))
    if config.mode == "real":
        rng.random(out=points.T)
        points *= 2
        points -= 1
    else:
        for row in points:
            _unit_disk(rng, row)


def _plain_chunk(terms, points: np.ndarray, dtype, values: np.ndarray) -> None:
    """Write |f| at every sample into `values`, from the points' power table.
    The table and sums are freed on return."""
    total = np.empty(points.shape[1], dtype=dtype)
    np.abs(_evaluate(terms, _power_table([terms], points), total), out=values)


def _coefficient(terms, table: dict, count: int):
    """A coefficient of the directed variable: a constant when no term
    involves the other coordinates, else its value at every sample."""
    if all(not any(exps) for _, exps in terms):
        return sum((coeff for coeff, _ in terms), 0j)
    return _evaluate(terms, table, np.empty(count, dtype=np.complex128))


def _sqrt(w: np.ndarray):
    """np.sqrt(w) for |w| < 8e307 in real arithmetic, as real and imaginary
    parts: equal to a few ulp, exactly on the branch cut and at signed zeros.
    Larger part sqrt((|Re w| + |w|) / 2), smaller |Im w| / (2 larger); exact
    0/1 masks put the larger on the real axis where Re w >= 0."""
    larger = np.abs(w)
    smaller = np.abs(w.real)
    larger += smaller
    larger *= 0.5
    np.sqrt(larger, out=larger)
    # the floor only turns 0/0 at w = 0 into 0: else larger >= 1e-162
    np.maximum(np.add(larger, larger, out=smaller), 1e-300, out=smaller)
    np.abs(np.divide(w.imag, smaller, out=smaller), out=smaller)
    right = np.greater_equal(w.real, 0, out=np.empty(len(w)))
    re = right * larger
    np.maximum(re, smaller, out=re)  # larger >= smaller
    larger *= np.subtract(1, right, out=right)
    np.maximum(larger, smaller, out=larger)
    return re, np.copysign(larger, w.imag, out=larger)


def _directed_chunk(direction: _Directed, config: EstimatorConfig,
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
    c, b, a = [k if np.ndim(k) == 0 else k[first:]  # a leads: b when d = 1
               for k in (coeffs[0], coeffs[1], coeffs[-1])]
    v = points[direction.axis]
    z = v[first:]
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.abs(z)
        # depth in [0, K] is K times the radial CDF of h at |u|
        depth = mass * (radius * radius)
        modulus = (t_min * np.sqrt(np.minimum(2 * depth, 1))
                   * np.exp(np.maximum(depth - 0.5, 0)))
        u = z * np.divide(1, radius, out=radius)  # z / |z|
        if d == 2:
            u *= u
        u *= modulus
        del radius, depth, modulus  # free them before the roots
        if d == 2 and not (np.ndim(b) == 0 and b == 0):
            # Roots q/a and (c - u)/q with q = -(b + w)/2, the sign of w
            # chosen so that b + w does not cancel.
            w = np.sqrt(b * b - 4 * a * (c - u))
            w *= np.where((np.conj(b) * w).real < 0, -1.0, 1.0)
            q = -0.5 * (b + w)
            z[:] = np.where(z.imag >= 0, q / a, (c - u) / q)
        else:
            u -= c
            u *= 1 / a  # v^d = (u - c) / a: one division when a is constant
            if d == 1:
                z[:] = u
            else:
                # +1 where Im z >= 0, else -1 (the draws never give -0)
                sign = np.copysign(1.0, z.imag)
                re, im = _sqrt(u)
                np.multiply(re, sign, out=z.real)
                np.multiply(im, sign, out=z.imag)
        del u
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
    # p is 0 off the disk, which only directed samples can leave. A v that
    # is not finite keeps a nan weight, but no level counts its |f| either.
    weights[first:] *= np.abs(z) <= 1


def _measure(f: Polynomial, config: EstimatorConfig):
    """The number of coordinates drawn per sample, and measure(points),
    which returns |f| at a chunk's samples and their weights (None when
    every weight is 1) in new arrays. It works elementwise, in column blocks
    of _BLOCK samples, so the temporaries are a block's worth."""
    terms = _compiled_terms(f)
    n = config.samples_per_level
    direction = None
    if config.mode == "real":
        dims = len(f.variables)
        # Real coefficients on real points: float arithmetic gives the same
        # |f| as complex arithmetic, at a fraction of the cost.
        real = all(c.imag == 0 for c, _ in terms)
        if real:
            terms = [(c.real, exps) for c, exps in terms]
        dtype = np.float64 if real else np.complex128
    else:
        # |f| does not depend on the coordinates f does not involve, so only
        # the others are drawn.
        used = [axis for axis in range(len(f.variables))
                if any(exps[axis] for _, exps in terms)]
        terms = [(c, tuple(exps[axis] for axis in used)) for c, exps in terms]
        dims = len(used)
        direction = _direction(terms, dims)
        dtype = np.complex128
    chunks = (n + _CHUNK - 1) // _CHUNK
    # The first half of every chunk is uniform, the rest directed.
    plain_share = sum(min(_CHUNK, n - k * _CHUNK) // 2 for k in range(chunks)) / n

    def measure(points):
        count = points.shape[1]
        values = np.empty(count)
        weights = None if direction is None else np.empty(count)
        for lo in range(0, count, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            if direction is None:
                _plain_chunk(terms, points[:, block], dtype, values[block])
            else:
                _directed_chunk(direction, config, points[:, block],
                                max(count // 2 - lo, 0), plain_share,
                                values[block], weights[block])
        return values, weights

    return dims, measure


def _abs_values(f: Polynomial, config: EstimatorConfig):
    """Per level of t_grid(config), cumulative: the hits, and the sums of
    their weights and of their squared weights (the hits at unit weights).
    Two lanes, this thread and one helper, each draw, measure and bin
    alternate chunks into their own buffers: the even chunks here, the odd
    ones in the helper. The chunks' bincounts are added in chunk order."""
    from concurrent.futures import ThreadPoolExecutor

    dims, measure = _measure(f, config)
    grid = t_grid(config)
    n = config.samples_per_level
    chunks = (n + _CHUNK - 1) // _CHUNK
    failed = threading.Event()  # set by a lane that raised: the other stops

    def binned(points):
        values, weights = measure(points)
        near = values <= grid[-1]
        below = values[near]
        # the first level whose threshold is >= |f|
        level = np.zeros(len(below), dtype=np.intp)
        for t in grid[:-1]:
            level += below > t
        hits = np.bincount(level, minlength=len(grid))
        if weights is None:
            return hits, hits, hits
        w = weights[near]
        return (hits, np.bincount(level, weights=w, minlength=len(grid)),
                np.bincount(level, weights=w * w, minlength=len(grid)))

    def lane(first):
        buffer = (np.empty((min(n, _CHUNK), dims)).T if config.mode == "real"
                  else np.empty((dims, min(n, _CHUNK)), dtype=np.complex128))
        parts = []
        try:
            for chunk in range(first, chunks, 2):
                if failed.is_set():
                    break
                points = buffer[:, : min(_CHUNK, n - chunk * _CHUNK)]
                _sample_chunk(config, chunk, points)
                parts.append(binned(points))
        except BaseException:
            failed.set()
            raise
        return parts

    with ThreadPoolExecutor(1) as helper:
        odd = helper.submit(lane, 1) if chunks > 1 else None
        lanes = (lane(0), odd.result() if odd else [])
    sums = (0, 0.0, 0.0)  # the weight sums are floats at unit weights too
    for chunk in range(chunks):
        sums = [a + b for a, b in zip(sums, lanes[chunk % 2][chunk // 2])]
    return tuple(np.cumsum(total) for total in sums)


def hit_counts(f: Polynomial, config: EstimatorConfig) -> tuple[int, ...]:
    """Hits per threshold level over the shared sample set."""
    return tuple(_abs_values(f, config)[0].tolist())


def estimate(f: Polynomial, config: EstimatorConfig) -> Estimate:
    """Fit the scaling exponent and return the index estimate.

    Raises ZeroPolynomialError for f = 0 and UnitInputError for a nonzero
    constant (no zero set to measure), and UnreliableEstimateError (carrying
    the partial Estimate) when the grid has fewer than 4 levels or fewer
    than 2 levels have at least min_hits effective hits without being
    saturated. A nonconstant f need not vanish at the origin: the volumes
    are taken over the whole box.
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot estimate the zero polynomial")
    if not f.variables_present():
        raise UnitInputError("a nonzero constant has no zero set to estimate")
    grid = t_grid(config)
    hits, s1, s2 = (a.tolist() for a in _abs_values(f, config))
    n = config.samples_per_level
    volumes = [s / n for s in s1]
    # s1 * (s1 / s2) rather than s1^2 / s2: exactly the count at unit weights
    effective = [a * (a / b) if b > 0 else 0.0 for a, b in zip(s1, s2)]

    def partial(slope: float = float("nan"), stderr: float = float("nan"),
                used: int = 0) -> Estimate:
        lam = slope if config.mode == "real" else slope / 2
        err = stderr if config.mode == "real" else stderr / 2
        return Estimate(
            lambda_hat=lam,
            stderr=err,
            slope=slope,
            levels_used=used,
            t_grid=grid,
            hit_counts=tuple(hits),
            samples=n,
            mode=config.mode,
            seed=config.seed,
            volumes=tuple(volumes),
            effective_hits=tuple(effective),
        )

    if config.levels < 4:
        raise UnreliableEstimateError(
            f"threshold grid with {config.levels} levels is too coarse to "
            "fit a slope",
            partial(),
        )
    usable = [
        i for i in range(config.levels)
        if effective[i] >= config.min_hits and hits[i] < n
    ]
    if len(usable) < 2:
        raise UnreliableEstimateError(
            f"only {len(usable)} of {config.levels} levels have at least "
            f"{config.min_hits} effective hits; the thresholds probe volumes "
            "this sample budget cannot see",
            partial(used=len(usable)),
        )
    xs = [math.log(grid[i]) for i in usable]
    ys = [math.log(volumes[i]) for i in usable]
    # Weight each level by volume^2 / Var(volume), Var estimated from the
    # weights as (s2/n - volume^2)/n; at unit weights this is the delta-method
    # weight c/(1 - c/n) of a hit count c.
    ws = [effective[i] / (1 - volumes[i] * (s1[i] / s2[i])) for i in usable]
    s_w = sum(ws)
    s_x = sum(w * x for w, x in zip(ws, xs))
    s_y = sum(w * y for w, y in zip(ws, ys))
    s_xx = sum(w * x * x for w, x in zip(ws, xs))
    s_xy = sum(w * x * y for w, x, y in zip(ws, xs, ys))
    denom = s_w * s_xx - s_x * s_x
    if denom <= 0:
        raise UnreliableEstimateError(
            "threshold levels are numerically indistinguishable", partial()
        )
    slope = (s_w * s_xy - s_x * s_y) / denom
    # The levels are cumulative, so they share hits: with slope = sum c_i y_i,
    # Cov(y_i, y_m) = s2_min(i,m) / (s1_i s1_m) - 1/n. The weights' variance
    # s_w/denom treats the levels as independent, which along a trend is too
    # narrow and for two levels too wide; the error is the larger of the two.
    cs = [w * (s_w * x - s_x) / denom for w, x in zip(ws, xs)]
    shared = sum(
        cs[a] * cs[b] * (s2[min(i, m)] / (s1[i] * s1[m]) - 1 / n)
        for a, i in enumerate(usable) for b, m in enumerate(usable)
    )
    stderr = math.sqrt(max(s_w / denom, shared))
    if len(usable) > 2:
        intercept = (s_y - slope * s_x) / s_w
        chi2 = sum(w * (y - intercept - slope * x) ** 2
                   for w, x, y in zip(ws, xs, ys))
        stderr *= math.sqrt(max(1.0, chi2 / (len(usable) - 2)))
    return partial(slope, stderr, len(usable))
