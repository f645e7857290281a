"""Monte Carlo level-set estimator: determinism, slopes, and failure modes."""

import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import random_element
from disk_reference import unit_disk

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
    _BLOCK,
    _CHUNK,
    _compiled_terms,
    _evaluate,
    _measure,
    _power_table,
    _sample_chunk,
    _unit_disk,
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
    """Serial reference for the lanes: every chunk drawn and measured in turn
    on this thread into arrays of all the samples, then binned whole. Call
    it with estimator._BLOCK at _CHUNK, so that each chunk is measured in
    one block and each disk row drawn in one buffer."""
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
    counts = (
        3 * _CHUNK + 12345,  # 3 full chunks and a shorter last one
        2 * _BLOCK + 999,  # one chunk: the calling lane alone
        # an odd last chunk whose half falls inside its second block
        _CHUNK + 3 * _BLOCK + 4321,
    )
    for count in counts:
        config = cfg(mode, samples_per_level=count, seed=13)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            piped = estimate(P(text), config)
        finally:
            sys.setswitchinterval(interval)
        with monkeypatch.context() as patch:
            patch.setattr(estimator, "_BLOCK", _CHUNK)
            reference = _serial_sums(P(text), config)
        with monkeypatch.context() as patch:
            patch.setattr(estimator, "_abs_values", lambda f, config: reference)
            serial = estimate(P(text), config)
        assert serial.levels_used >= 2, count
        assert piped.hit_counts == serial.hit_counts, count
        assert piped.volumes == serial.volumes, count
        assert piped.effective_hits == serial.effective_hits, count
        assert (piped.lambda_hat, piped.stderr) == (serial.lambda_hat, serial.stderr)
        assert hit_counts(P(text), config) == serial.hit_counts, count


class _Broken(Exception):
    pass


@pytest.mark.parametrize("text, mode", [
    ("x^2 + y^3", "real"),
    ("x^2 + y^2 + z^2", "complex"),
])
def test_helper_failure_reaches_the_caller(text, mode, monkeypatch):
    def broken(term_lists, points):
        raise _Broken("power table")

    def broken_draw(config, chunk, points):
        if chunk == broken_chunk:
            raise _Broken(f"chunk {chunk}")
        draw(config, chunk, points)

    draw = estimator._sample_chunk
    # None: every power table raises, in whichever lane measures first;
    # 0 and 1: the first draw of the calling lane, or of the helper lane
    for broken_chunk in (None, 0, 1):
        with monkeypatch.context() as patch:
            if broken_chunk is None:
                patch.setattr(estimator, "_power_table", broken)
            else:
                patch.setattr(estimator, "_sample_chunk", broken_draw)
            before = threading.active_count()
            with pytest.raises(_Broken):
                estimate(P(text), cfg(mode, seed=1))
            # the helper thread has been joined, not left running
            assert threading.active_count() == before, broken_chunk


def test_a_failed_lane_stops_the_other(monkeypatch):
    # Twenty chunks, and the calling lane's first draw raises: the helper
    # lane stops at its next chunk instead of drawing its ten.
    drawn = []
    draw = estimator._sample_chunk

    def broken_draw(config, chunk, points):
        drawn.append(chunk)
        if chunk == 0:
            raise _Broken("chunk 0")
        draw(config, chunk, points)

    monkeypatch.setattr(estimator, "_sample_chunk", broken_draw)
    with pytest.raises(_Broken):
        hit_counts(P("x^2 + y^3"), cfg("real", samples_per_level=20 * _CHUNK))
    assert len(drawn) < 6, drawn


@pytest.mark.parametrize("mode", ["real", "complex"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_chunk_points_depend_only_on_seed_and_index(mode, k, monkeypatch):
    # Chunk k is drawn from the same stream whatever the sample count, so
    # the lanes' schedule cannot move it.
    draw = estimator._sample_chunk
    kept = []

    def recorded(config, chunk, points):
        draw(config, chunk, points)
        if chunk == k:
            kept.append(points.copy())

    monkeypatch.setattr(estimator, "_sample_chunk", recorded)
    for chunks in (k + 1, k + 3):
        hit_counts(P("x^2 + y^2 + z^2"),
                   cfg(mode, samples_per_level=chunks * _CHUNK, seed=21))
    assert len(kept) == 2 and np.array_equal(kept[0], kept[1])


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


def test_memory_of_a_complex_estimate_is_bounded():
    # numpy's buffers for three complex variables at 10^6 samples, both
    # lanes included: each lane keeps a chunk's points, |f| and weights,
    # and its temporaries are a block's worth. Whole-chunk temporaries in
    # both lanes measured about 36 MiB.
    f = P("x^2+y^2+z^2")
    hit_counts(f, EstimatorConfig("complex", samples_per_level=1000))  # warm up
    tracemalloc.start()
    try:
        estimate(f, EstimatorConfig("complex", samples_per_level=10**6, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20, peak


class _Cornered:
    """A generator whose first `bad` doubles are 0.99: those squares map to
    the corner (0.98, 0.98), off the disk. Its stream does not depend on
    how the draws are split into calls."""

    def __init__(self, seed, bad):
        self.rng = np.random.default_rng(seed)
        self.bad = bad
        self.drawn = 0

    def random(self, size=None, out=None):
        values = self.rng.random(size=size, out=out)
        values[: max(0, self.bad - self.drawn)] = 0.99
        self.drawn += len(values)
        return values


@pytest.mark.parametrize("count", [1, 100, _BLOCK - 7, _BLOCK + 1, 4 * _BLOCK])
def test_unit_disk_matches_the_whole_row_reference(count):
    # Same points, and the generator left at the same position.
    rows = [np.empty(count, dtype=np.complex128) for _ in range(2)]
    rngs = [np.random.default_rng(count) for _ in range(2)]
    unit_disk(rngs[0], rows[0])
    _unit_disk(rngs[1], rows[1])
    assert np.array_equal(rows[0], rows[1])
    assert np.all(np.abs(rows[1]) <= 1)
    assert rngs[0].random() == rngs[1].random()


@pytest.mark.parametrize("count", [50, 3 * _BLOCK + 5])
def test_unit_disk_second_attempt_matches_the_reference(count):
    # The first attempt keeps at most 10 points, so a second attempt (and a
    # third for the short row) draws for the rest.
    bad = 2 * (count + count // 3 + 16) - 20
    rows = [np.empty(count, dtype=np.complex128) for _ in range(2)]
    rngs = [_Cornered(count, bad) for _ in range(2)]
    unit_disk(rngs[0], rows[0])
    _unit_disk(rngs[1], rows[1])
    assert rngs[0].drawn == rngs[1].drawn > 2 * (count + count // 3 + 16)
    assert np.array_equal(rows[0], rows[1])
    assert rngs[0].rng.random() == rngs[1].rng.random()


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
    # Counts and slope on the SFC64 chunk streams. The bound is the stderr
    # that these levels give as independent delta-method estimates; the
    # Birge ratio and the shared hits may only widen it.
    e = estimate(P("x^2 + y^3"), cfg("real", seed=9))
    assert e.hit_counts == (132, 280, 659, 1409, 3023, 6435, 13712, 28868)
    assert e.lambda_hat == 0.7660722208538544
    assert e.stderr >= 0.0034359565620528765


# Counts and fits at seed 7, taken when the draws moved from Philox keys to
# SFC64 streams seeded by (seed, chunk). Real mode must reproduce them bit
# for bit. Complex mode must reproduce the counts, and its floats to 1e-12
# relative, since numpy's complex loops may round differently in the last
# ulp on another CPU's SIMD path.
PINNED_REAL = [
    ("x^2+y^3+z^5", (47, 108, 313, 735, 1780, 4239, 9925, 23036),
     0.8677111130181159, 0.008696906425759713),
    ("x^4+y^4", (1371, 2255, 3657, 5981, 9900, 16314, 26587, 43809),
     0.5023537360096798, 0.002680144122933692),
    ("x^2+y^2+z^3", (9, 26, 78, 232, 634, 1664, 4280, 11640),
     0.9899953598559433, 0.010291089366193351),
]
PINNED_COMPLEX = [
    ("x^2+y^3", (4913, 14879, 24949, 34865, 44925, 55110, 65610, 77354),
     0.8026623912635561, 0.004934927819654966,
     (4.0960940503902883e-07, 2.2084723079112784e-06, 1.0865661691701992e-05,
      5.5373139861186854e-05, 0.00028623360324921913, 0.0013693866223580054,
      0.006817612944419374, 0.03184332619442547)),
    ("x^2+y^4", (4913, 14881, 24952, 34880, 44949, 55181, 65853, 78162),
     0.7412885643242433, 0.002778489965819242,
     (1.271163531539418e-06, 6.123623408712343e-06, 2.6922275703954456e-05,
      0.00012185247123697507, 0.0005146206483937167, 0.0022820922898492088,
      0.009813467950298433, 0.041459211512023385)),
    ("z^3", (298, 600, 1162, 2320, 4479, 8552, 16766, 32282),
     0.3354983076173128, 0.0021252590154043796,
     (0.0019866666666666665, 0.004, 0.0077466666666666665,
      0.015466666666666667, 0.02986, 0.05701333333333333,
      0.11177333333333334, 0.21521333333333334)),
    ("x^2+y^2+z^7", (4913, 14879, 24948, 34865, 44906, 55032, 65307, 76199),
     0.9667858992387464, 0.005599512434301669,
     (2.2572678627543592e-08, 1.7099466604177898e-07, 1.07050632352601e-06,
      8.000148814727652e-06, 5.687473290576728e-05, 0.00036033178444442346,
      0.002481751796052641, 0.015889077672658812)),
    ("x^3*y^2+z^2", (5091, 15213, 25127, 35131, 45034, 55273, 65911, 79022),
     0.7413876819593899, 0.013667870841236223,
     (1.8181914246365997e-07, 1.1058080578648712e-05, 3.7464931230817534e-05,
      0.00013309434910224478, 0.0006156050155972696, 0.0028362738517616515,
      0.013147663956632052, 0.05438276204835529)),
]


@pytest.mark.parametrize("text, hits, lam, stderr", PINNED_REAL,
                         ids=[row[0] for row in PINNED_REAL])
def test_real_mode_pins(text, hits, lam, stderr):
    config = cfg("real", seed=7)
    e = estimate(P(text), config)
    assert hit_counts(P(text), config) == e.hit_counts == hits
    assert (e.lambda_hat, e.stderr) == (lam, stderr)


@pytest.mark.parametrize("text, hits, lam, stderr, volumes", PINNED_COMPLEX,
                         ids=[row[0] for row in PINNED_COMPLEX])
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


@pytest.mark.parametrize("text", ["x^2+y^2+z^2", "x^3*y^2+z^2"])
@pytest.mark.parametrize("chunks", [8, 11])
def test_chunk_sums_are_added_in_chunk_order(text, chunks, monkeypatch):
    # Float sums depend on their order. Over many chunks of directed
    # weights, adding one lane's chunks before the other's rounds the
    # level sums differently from the serial chunk order.
    config = cfg("complex", samples_per_level=chunks * _CHUNK - 777, seed=7)
    with monkeypatch.context() as patch:
        patch.setattr(estimator, "_BLOCK", _CHUNK)
        reference = _serial_sums(P(text), config)
    piped = estimator._abs_values(P(text), config)
    for got, want in zip(piped, reference, strict=True):
        assert got.tobytes() == want.tobytes(), (got, want)
