"""Monte Carlo level-set estimator: determinism, slopes, and failure modes."""

import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import random_element

from lctkit import (
    EISENSTEIN,
    GAUSS,
    EstimatorConfig,
    Polynomial,
    UnreliableEstimateError,
    estimate,
    estimator,
    hit_counts,
    parse_poly,
)
from lctkit.estimator import (
    _CHUNK,
    _compiled_terms,
    _evaluate,
    _measure,
    _power_table,
    _sample_chunk,
    t_grid,
)

P = parse_poly

# coarser grid than the default so modest sample counts keep every level usable
FAST = dict(samples_per_level=150_000, t_min=1e-4, t_max=1e-1)


def cfg(mode, **kw):
    merged = {**FAST, **kw}
    return EstimatorConfig(mode, **merged)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig("imaginary")
    with pytest.raises(ValueError):
        EstimatorConfig("real", samples_per_level=0)
    with pytest.raises(ValueError):
        EstimatorConfig("real", t_min=1e-2, t_max=1e-3)
    with pytest.raises(ValueError):
        EstimatorConfig("real", levels=1)
    with pytest.raises(ValueError):
        EstimatorConfig("real", min_hits=0)
    with pytest.raises(ValueError):
        EstimatorConfig("real", seed=1 << 63)


def test_grid_is_geometric():
    grid = t_grid(EstimatorConfig("real", **FAST))
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert grid[0] == pytest.approx(1e-4) and grid[-1] == pytest.approx(1e-1)
    assert np.allclose(ratios, ratios[0])


# -- analytic slope checks ----------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_monomial_power_complex(k):
    e = estimate(P(f"z^{k}"), cfg("complex", seed=11))
    assert abs(e.lambda_hat - 1 / k) < 0.1 / k
    assert e.mode == "complex"


@pytest.mark.parametrize("k", [1, 2, 3])
def test_monomial_power_real(k):
    e = estimate(P(f"x^{k}"), cfg("real", seed=11))
    assert abs(e.lambda_hat - 1 / k) < 0.1 / k


def test_coefficients_embed_in_complex_mode():
    # |j| = 1 for the Eisenstein generator, so j*z^2 scales like z^2
    f = parse_poly("j*z^2", EISENSTEIN)
    e = estimate(f, cfg("complex", seed=5))
    assert abs(e.lambda_hat - 0.5) < 0.05


# -- determinism and sampling structure ----------------------------------------


def test_determinism_across_runs():
    # 150000 is not a multiple of the internal chunk, so chunk joins are covered
    a = estimate(P("x*y"), cfg("real", seed=3))
    b = estimate(P("x*y"), cfg("real", seed=3))
    assert a.hit_counts == b.hit_counts
    assert a.lambda_hat == b.lambda_hat
    assert a.t_grid == b.t_grid


def test_seed_changes_counts():
    a = estimate(P("x*y"), cfg("real", seed=3))
    b = estimate(P("x*y"), cfg("real", seed=4))
    assert a.hit_counts != b.hit_counts


def test_hit_counts_monotone_in_t():
    counts = hit_counts(P("x^2 + y^3"), cfg("real", seed=9))
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_scale_robustness():
    config = cfg("complex", seed=5)
    base = estimate(P("z^2"), config)
    for c in ("2", "1/2"):
        scaled = estimate(P(f"{c}*z^2"), config)
        diff = abs(scaled.lambda_hat - base.lambda_hat)
        assert diff < 2 * max(base.stderr, scaled.stderr)


# -- chunk pipeline ------------------------------------------------------------


def _level_sums(values, weights, grid):
    """Serial reference binning of whole arrays. Per level, cumulative over
    the grid: the hits, and the sums of their weights and of their squared
    weights (both the hits when weights is None). Binned a chunk at a time,
    which keeps the temporaries small."""
    size = len(grid)
    hits = np.zeros(size, dtype=np.int64)
    s1 = np.zeros(size)
    s2 = np.zeros(size)
    for lo in range(0, len(values), _CHUNK):
        part = values[lo : lo + _CHUNK]
        near = part <= grid[-1]
        below = part[near]
        # the first level whose threshold is >= |f|
        level = np.zeros(len(below), dtype=np.intp)
        for t in grid[:-1]:
            level += below > t
        hits += np.bincount(level, minlength=size)
        if weights is not None:
            w = weights[lo : lo + _CHUNK][near]
            s1 += np.bincount(level, weights=w, minlength=size)
            s2 += np.bincount(level, weights=w * w, minlength=size)
    hits = np.cumsum(hits)
    if weights is None:
        return hits, hits.astype(np.float64), hits.astype(np.float64)
    return hits, np.cumsum(s1), np.cumsum(s2)


def _serial_sums(f, config):
    """Serial reference for the pipeline: every chunk drawn and measured in
    turn on this thread into arrays of all the samples, then binned whole."""
    dims, measure = _measure(f, config)
    n = config.samples_per_level
    values, weights, directed = np.empty(n), np.empty(n), False
    for chunk, lo in enumerate(range(0, n, _CHUNK)):
        count = min(_CHUNK, n - lo)
        if config.mode == "real":
            points = np.empty((count, dims)).T
        else:
            points = np.empty((dims, count), dtype=np.complex128)
        _sample_chunk(config, chunk, points)
        part, part_weights = measure(points)
        values[lo : lo + count] = part
        if part_weights is not None:
            weights[lo : lo + count] = part_weights
            directed = True
    return _level_sums(values, weights if directed else None, t_grid(config))


@pytest.mark.parametrize("text, mode", [
    ("x^2 + y^3", "real"),
    ("z^3", "complex"),  # no variable of degree 1 or 2: plain draws
    ("x^2 + y^2 + z^2", "complex"),  # directed draws
])
def test_pipeline_matches_the_serial_reference(text, mode, monkeypatch):
    # 3 full chunks and a partial one, so the last chunk is shorter.
    config = cfg(mode, samples_per_level=3 * _CHUNK + 12345, seed=13)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        piped = estimate(P(text), config)
    finally:
        sys.setswitchinterval(interval)
    reference = _serial_sums(P(text), config)
    monkeypatch.setattr(estimator, "_abs_values", lambda f, config: reference)
    serial = estimate(P(text), config)
    assert serial.levels_used >= 2
    assert piped.hit_counts == serial.hit_counts
    assert piped.volumes == serial.volumes
    assert piped.effective_hits == serial.effective_hits
    assert (piped.lambda_hat, piped.stderr) == (serial.lambda_hat, serial.stderr)
    assert hit_counts(P(text), config) == serial.hit_counts


class _Broken(Exception):
    pass


@pytest.mark.parametrize("text, mode", [
    ("x^2 + y^3", "real"),
    ("x^2 + y^2 + z^2", "complex"),
])
def test_helper_failure_reaches_the_caller(text, mode, monkeypatch):
    def broken(term_lists, points):
        raise _Broken("power table")

    monkeypatch.setattr(estimator, "_power_table", broken)
    before = threading.active_count()
    with pytest.raises(_Broken):
        estimate(P(text), cfg(mode, seed=1))
    # the helper thread has been joined, not left running
    assert threading.active_count() == before


@pytest.mark.parametrize("text, mode, sample_bytes", [
    ("x^2+y^2+z^2", "complex", 3 * 16 + 8 + 8),  # 3 coordinates, |f|, weight
    ("x^2+y^3", "real", 2 * 8 + 8),  # 2 coordinates and |f|
])
def test_memory_does_not_grow_with_samples(text, mode, sample_bytes):
    # numpy reports its buffers to tracemalloc. Keeping |f| of every sample,
    # and its weight when the draws are directed, would add 8-16 B a sample:
    # 24-48 MB between these budgets.
    f = P(text)
    hit_counts(f, EstimatorConfig(mode, samples_per_level=1000))  # warm up
    peaks = []
    for n in (10**6, 4 * 10**6):
        tracemalloc.start()
        try:
            estimate(f, EstimatorConfig(mode, samples_per_level=n, seed=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < _CHUNK * sample_bytes, peaks


# -- failure modes ---------------------------------------------------------------


def test_too_few_levels_is_unreliable():
    config = EstimatorConfig("real", samples_per_level=1000, t_min=0.5, t_max=0.9, levels=2)
    with pytest.raises(UnreliableEstimateError) as info:
        estimate(P("x^2"), config)
    assert "too coarse" in str(info.value)
    partial = info.value.partial
    assert partial is not None
    assert math.isnan(partial.lambda_hat)
    assert len(partial.hit_counts) == 2


def test_sparse_hits_are_unreliable():
    # At this budget every level falls under min_hits effective hits (at most
    # 69 for seed 0). The directed complex sampler already makes 3-8 levels
    # usable at 2*10^4 samples, so the budget is 2*10^3.
    config = EstimatorConfig("complex", samples_per_level=2_000, seed=0)
    with pytest.raises(UnreliableEstimateError) as info:
        estimate(P("x^2 + y^2 + z^2"), config)
    partial = info.value.partial
    assert partial is not None
    assert partial.levels_used < 2
    assert len(partial.hit_counts) == 8


def test_unreliable_carries_the_measured_counts():
    config = EstimatorConfig("real", samples_per_level=1000, t_min=0.5, t_max=0.9, levels=2)
    direct = hit_counts(P("x^2"), config)
    with pytest.raises(UnreliableEstimateError) as info:
        estimate(P("x^2"), config)
    assert info.value.partial.hit_counts == direct


def test_unreliable_names_effective_hits():
    config = EstimatorConfig("complex", samples_per_level=2_000, seed=0)
    with pytest.raises(UnreliableEstimateError) as info:
        estimate(P("x^2 + y^2 + z^2"), config)
    assert "effective hits" in str(info.value)
    partial = info.value.partial
    assert len(partial.volumes) == len(partial.effective_hits) == 8
    assert all(h < config.min_hits for h in partial.effective_hits)


# -- weighted volumes --------------------------------------------------------------


@pytest.mark.parametrize(
    "text, exact",
    [
        ("z", lambda t: t * t),  # directed, degree 1
        ("z^2", lambda t: t),  # directed, degree 2
        ("(z - 1/2)^2", lambda t: t),  # degree 2 with a linear term
    ],
)
def test_complex_weights_match_exact_volumes(text, exact):
    # Volume fractions of the unit polydisk, known in closed form.
    config = EstimatorConfig("complex", samples_per_level=200_000, seed=0)
    e = estimate(P(text), config)
    assert e.levels_used == config.levels
    for t, vol, eff in zip(e.t_grid, e.volumes, e.effective_hits):
        stderr = vol * math.sqrt(1 / eff - 1 / e.samples)
        assert abs(vol - exact(t)) <= 3 * stderr, (t, vol, exact(t), stderr)


def test_directed_draws_are_deterministic():
    config = cfg("complex", seed=3)
    a = estimate(P("x^2 + y^2 + z^2"), config)
    b = estimate(P("x^2 + y^2 + z^2"), config)
    assert (a.hit_counts, a.volumes, a.lambda_hat) == (b.hit_counts, b.volumes, b.lambda_hat)


def test_real_mode_weights_are_one():
    config = cfg("real", seed=9)
    e = estimate(P("x^2 + y^3"), config)
    assert e.effective_hits == tuple(float(c) for c in e.hit_counts)
    assert e.volumes == tuple(c / e.samples for c in e.hit_counts)


def test_real_mode_counts_and_slope_are_pinned():
    # Real mode draws and fits exactly as before the complex sampler gained
    # its directed draws; only the stderr may widen (Birge ratio, shared hits).
    e = estimate(P("x^2 + y^3"), cfg("real", seed=9))
    assert e.hit_counts == (124, 288, 625, 1380, 2929, 6412, 13776, 28829)
    assert e.lambda_hat == 0.7711310218696766
    assert e.stderr >= 0.0034672175788191726


# Counts and fits at seed 7, taken when the powers went through pow. Real mode
# must reproduce them bit for bit; complex mode must reproduce the counts, and
# its floats to 1e-12 relative, since a multiplication chain may differ from
# complex pow in the last ulp.
PINNED_REAL = [
    ("x^2+y^3+z^5", (36, 97, 264, 646, 1693, 4079, 9729, 22921),
     0.8859172861696514, 0.010453046086429024),
    ("x^4+y^4", (1348, 2231, 3716, 6095, 9901, 16175, 26724, 43931),
     0.5025312354335343, 0.0026730753314362144),
    ("x^2+y^2+z^3", (12, 29, 82, 229, 593, 1607, 4287, 11472),
     0.9966215155389208, 0.010461627960866802),
]
PINNED_COMPLEX = [
    ("x^2+y^3", (5153, 15193, 25218, 35169, 45287, 55328, 65559, 77410),
     0.8052335893245993, 0.005259371316641281,
     (4.7550733548012e-07, 2.480846592460596e-06, 1.1355113208816816e-05,
      5.060334341378252e-05, 0.00026693558703678723, 0.0013646344229183457,
      0.006581554137324764, 0.03135724652394321)),
    ("x^2+y^4", (5153, 15193, 25220, 35176, 45311, 55400, 65743, 78105),
     0.7359095956326275, 0.0028656323609902385,
     (1.554553075446551e-06, 6.538807006411638e-06, 2.87893676429816e-05,
      0.00012101756890269916, 0.0005237722964296203, 0.002286982061566768,
      0.009634686340369717, 0.040868778413009246)),
    ("z^3", (323, 602, 1187, 2295, 4533, 8795, 16705, 32354),
     0.33366666952468355, 0.0021136717410372265,
     (0.0021533333333333335, 0.004013333333333333, 0.007913333333333333,
      0.0153, 0.03022, 0.058633333333333336,
      0.11136666666666667, 0.21569333333333332)),
    ("x^2+y^2+z^7", (5152, 15192, 25216, 35164, 45268, 55245, 65220, 76220),
     0.9786298483508096, 0.005069973437167282,
     (2.1805056288464555e-08, 1.4485594643976624e-07, 1.0247148857470543e-06,
      7.461472248415978e-06, 5.579875808144571e-05, 0.00037001761635680375,
      0.0024987126450534726, 0.0161468932945933)),
    ("x^3*y^2+z^2", (5075, 14772, 24741, 34732, 44901, 55242, 65998, 79054),
     0.7389888414208937, 0.016342301982112922,
     (8.190370971720846e-07, 1.780668889703837e-06, 8.52100463486881e-06,
      0.00011720648075416349, 0.0005684022021710035, 0.0030115421285872193,
      0.013172610388034111, 0.05462927444724036)),
]


@pytest.mark.parametrize("text, hits, lam, stderr", PINNED_REAL)
def test_real_mode_pins(text, hits, lam, stderr):
    config = cfg("real", seed=7)
    e = estimate(P(text), config)
    assert hit_counts(P(text), config) == e.hit_counts == hits
    assert (e.lambda_hat, e.stderr) == (lam, stderr)


@pytest.mark.parametrize("text, hits, lam, stderr, volumes", PINNED_COMPLEX)
def test_complex_mode_pins(text, hits, lam, stderr, volumes):
    config = cfg("complex", seed=7)
    e = estimate(P(text), config)
    assert hit_counts(P(text), config) == e.hit_counts == hits
    got = (e.lambda_hat, e.stderr, *e.volumes)
    for a, b in zip(got, (lam, stderr, *volumes), strict=True):
        assert a == pytest.approx(b, rel=1e-12, abs=0)


def test_stderr_carries_the_birge_ratio():
    # x*y*z over R has vol ~ t log^2 t: the log-log curve bends, and the
    # spread of the levels about the line must widen the error.
    e = estimate(P("x*y*z"), cfg("real", seed=3))
    n = e.samples
    used = [i for i, c in enumerate(e.hit_counts) if 100 <= c < n]
    xs = [math.log(e.t_grid[i]) for i in used]
    ys = [math.log(e.volumes[i]) for i in used]
    ws = [e.hit_counts[i] / (1 - e.hit_counts[i] / n) for i in used]
    s_w = sum(ws)
    x_bar = sum(w * x for w, x in zip(ws, xs)) / s_w
    s_xx = sum(w * (x - x_bar) ** 2 for w, x in zip(ws, xs))
    intercept = sum(w * y for w, y in zip(ws, ys)) / s_w - e.slope * x_bar
    chi2 = sum(w * (y - intercept - e.slope * x) ** 2 for w, x, y in zip(ws, xs, ys))
    birge = math.sqrt(chi2 / (len(used) - 2))
    assert birge > 2
    assert e.stderr >= birge / math.sqrt(s_xx) * (1 - 1e-9)


# -- evaluation kernel ---------------------------------------------------------


def _kernel_case(seed, real):
    """Eight terms in x, y, z, each axis raised to several exponents in 1-9
    with gaps (no 4 or 8, so the table steps over missing powers), and
    nonzero Q(i) coefficients (rational ones when `real`)."""
    rng = random.Random(seed)
    variables = ("x", "y", "z")
    f = Polynomial.zero(GAUSS, variables)
    while len(f.terms) < 8:
        exps = {v: rng.choice((0, 1, 2, 3, 5, 6, 7, 9)) for v in variables}
        coeff = random_element(rng, zero_ok=False)
        if real:
            coeff = GAUSS.element([coeff.coeffs[0] or 1, 0])
        f = f + Polynomial.monomial(GAUSS, variables, exps, coeff)
    return _compiled_terms(f)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("points_dtype, out_dtype", [
    (np.float64, np.float64),  # real mode, rational coefficients
    (np.float64, np.complex128),  # real mode, Q(i) coefficients
    (np.complex128, np.complex128),  # complex mode
])
def test_kernel_matches_python_arithmetic(seed, points_dtype, out_dtype):
    # 100 points a case, 500 a dtype: every power in the table and every sum
    # against plain Python float / complex arithmetic, to 1e-12 relative.
    terms = _kernel_case(seed, real=out_dtype is np.float64)
    if out_dtype is np.float64:
        terms = [(c.real, exps) for c, exps in terms]
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1, 1, size=(3, 100))
    if points_dtype is np.complex128:
        points = points + 1j * rng.uniform(-1, 1, size=(3, 100))
    table = _power_table([terms], points)
    needed = {(axis, e) for _, exps in terms for axis, e in enumerate(exps) if e}
    assert set(table) == needed | {(axis, 1) for axis in range(3)}
    for (axis, e), power in table.items():
        assert power.dtype == points_dtype
        for x, got in zip(points[axis].tolist(), power.tolist()):
            assert abs(got - x**e) <= 1e-12 * abs(x**e)
    values = _evaluate(terms, table, np.empty(100, dtype=out_dtype))
    for j, got in enumerate(values.tolist()):
        parts = [coeff * math.prod(points[axis, j].item() ** e
                                   for axis, e in enumerate(exps))
                 for coeff, exps in terms]
        # relative to the size of the terms: the sum itself may cancel
        assert abs(got - sum(parts)) <= 1e-12 * sum(map(abs, parts))
