"""Grid estimation pipeline: schema, soft failures, CI construction."""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from lpdens.cli import render
from lpdens.density import FIELDS, default_grid, estimate_grid
from lpdens.errors import EmptyGrid, InvalidAlpha
from lpdens.sample import load_sample


@pytest.fixture(scope="module")
def exp_sample():
    rng = np.random.default_rng(21)
    return load_sample(rng.exponential(size=3000), support=(0.0, np.inf))


def test_default_grid_quantile_convention():
    s = load_sample(np.arange(1.0, 11.0))  # 1..10
    grid = default_grid(s, 5)
    # q in {0, .25, .5, .75, 1} -> order statistics ceil(q n) with floor 1
    assert np.array_equal(grid, [1.0, 3.0, 5.0, 8.0, 10.0])
    # the same rule written out, on odd n, ties, heaped draws and grid sizes
    # where q n rounds: the sorted value at index ceil(q n) - 1, clipped to [0, n - 1]
    rng = np.random.default_rng(23)
    samples = [np.arange(7.0), rng.normal(size=7), rng.normal(size=100),
               np.round(rng.normal(size=100), 1), np.round(rng.normal(size=1001), 2),
               np.repeat([0.5, 1.0, 2.5], [3, 1, 5])]
    for values in samples:
        s = load_sample(values)
        for n_points in (2, 3, 5, 33, 101, 1000):
            probs = np.linspace(0.0, 1.0, n_points)
            idx = np.clip(np.ceil(probs * s.n).astype(int) - 1, 0, s.n - 1)
            assert np.array_equal(default_grid(s, n_points), np.unique(s.values[idx]))


def test_default_grid_too_small():
    s = load_sample([1.0, 2.0])
    with pytest.raises(EmptyGrid):
        default_grid(s, 1)


def test_estimate_grid_schema_and_values(exp_sample):
    out = estimate_grid(exp_sample, [0.5, 1.0], p=2, v=1)
    assert len(out) == 2
    for e in out:
        rec = e.record()
        assert tuple(rec.keys()) == FIELDS
        assert e.error is None
        assert e.f_hat == pytest.approx(np.exp(-e.x), abs=0.15)
        assert e.ci_low < e.ci_high
        assert e.se > 0 and e.m_eff > 0
        assert all(type(val) is float for val in (e.f_hat, e.se, e.ci_low, e.ci_high))
    # each record value is its attribute, for an estimate and a soft failure
    failed = estimate_grid(exp_sample, [-1.0])[0]
    assert failed.error == "outside-support"
    for e in (*out, failed):
        assert e.record() == {
            "x": e.x, "v": e.v, "h": e.h_used, "p": e.p_point, "f_hat": e.f_hat,
            "se": e.se, "ci_low": e.ci_low, "ci_high": e.ci_high, "m_eff": e.m_eff,
            "region": e.region, "error": e.error,
        }


def test_estimate_grid_ci_centered_at_higher_order(exp_sample):
    e = estimate_grid(exp_sample, [1.0], p=2)[0]
    center = (e.ci_low + e.ci_high) / 2.0
    half = (e.ci_high - e.ci_low) / 2.0
    # interval half-width is z_{.975} * se of the order-3 fit
    assert half == pytest.approx(1.959964 * e.se, rel=1e-4)
    # robust bias correction recenters: the midpoint is the p+1 estimate,
    # generally not the order-p point estimate
    assert np.isfinite(center)
    assert e.p_point == 2


def test_estimate_grid_outside_support_is_soft(exp_sample):
    out = estimate_grid(exp_sample, [-1.0, 1.0])
    assert out[0].error == "outside-support"
    assert out[0].f_hat is None
    assert out[1].error is None


def test_estimate_grid_singular_pilot_is_soft():
    # on data heaped at multiples of 0.25 the p = 3 pilot's S_hat passes the
    # fit's Cholesky and fails LU; that LinAlgError used to abort the grid
    s = load_sample(np.round(np.random.default_rng(3).normal(size=500) / 0.25) * 0.25)
    grid = default_grid(s, 25)
    out = estimate_grid(s, grid, p=3)
    assert len(out) == len(grid) == 16
    assert "SingularDesign" in {e.error for e in out}


@pytest.mark.parametrize("x,h", [(-2.9, None), (3.1, 0.5)])
def test_estimate_grid_rank_deficient_interval_fit_is_typed(x, h):
    # the order-2 interval fit holds 3 points on 2 distinct values, so its q
    # is rounding noise; it used to give se = 2,148,575 and 293,801 here
    s = load_sample(np.round(np.random.default_rng(2024).normal(size=400), 1))
    [est] = estimate_grid(s, [x], p=1, h=h)
    assert est.error == "NonPositiveVariance" and est.se is None


def test_estimate_grid_fixed_bandwidth(exp_sample):
    out = estimate_grid(exp_sample, [1.0], h=0.4)
    assert out[0].h_used == 0.4


def test_estimate_grid_validation(exp_sample):
    with pytest.raises(EmptyGrid):
        estimate_grid(exp_sample, [])
    # a non-finite point fails the grid, whatever the support: (0, inf) here
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            estimate_grid(exp_sample, [1.0, bad])
    # one check of z = Phi^-1(1 - alpha/2) per grid: at alpha <= 2^-53, 1 - alpha/2 rounds to 1
    for alpha in (1.5, 1e-17, 2.0**-53, 0.0, 1.0, np.nan, -0.1):
        with pytest.raises(InvalidAlpha):
            estimate_grid(exp_sample, [1.0], alpha=alpha)
    (tiny,) = estimate_grid(exp_sample, [1.0], alpha=2.0**-52)
    assert tiny.error is None and np.isfinite([tiny.ci_low, tiny.ci_high]).all()
    for h in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            estimate_grid(exp_sample, [1.0], h=h)
    # one order check for the whole grid, with a fixed bandwidth as with the automatic one
    for p, v, h in ((2, 3, 0.3), (2, 3, None), (2, -1, 0.3), (-1, 1, 0.3)):
        with pytest.raises(ValueError, match="0 <= v <= p"):
            estimate_grid(exp_sample, [1.0, 2.0], p=p, v=v, h=h)


def test_json_and_csv_emitters(exp_sample):
    out = estimate_grid(exp_sample, [-1.0, 1.0])
    records = json.loads(render([e.record() for e in out], FIELDS, "json"))
    assert [r["x"] for r in records] == [-1.0, 1.0]
    assert records[0]["error"] == "outside-support"

    text = render([e.record() for e in out], FIELDS, "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert tuple(rows[0].keys()) == FIELDS
    assert rows[0]["f_hat"] == ""  # failed point serialized as empty
    assert float(rows[1]["f_hat"]) == pytest.approx(out[1].f_hat)


@pytest.mark.slow
def test_estimate_grid_large_window_holds_no_m_by_m_matrix():
    # m = 17,099 in-window points: a dense EDF covariance matrix would take
    # 2.3 GB per gamma_hat call
    s = load_sample(np.random.default_rng(0).exponential(size=100_000), support=(0.0, np.inf))
    tracemalloc.start()
    try:
        [est] = estimate_grid(s, [1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.error is None and est.m_eff > 15_000
    assert np.isfinite(est.f_hat) and est.se > 0
    assert peak < 64 * 2**20
