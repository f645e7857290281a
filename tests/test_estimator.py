"""Monte Carlo level-set estimator: determinism, slopes, and failure modes."""

import math

import numpy as np
import pytest

from lctkit import (
    EISENSTEIN,
    EstimatorConfig,
    UnreliableEstimateError,
    estimate,
    hit_counts,
    parse_poly,
)
from lctkit.estimator import t_grid

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
