"""Grid estimation pipeline: schema, soft failures, CI construction."""

import csv
import io
import json

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


def test_estimate_grid_ci_centered_at_higher_order(exp_sample):
    e = estimate_grid(exp_sample, [1.0], p=2)[0]
    center = (e.ci_low + e.ci_high) / 2.0
    half = (e.ci_high - e.ci_low) / 2.0
    # interval half-width is z_{.975} * se of the order-3 fit
    assert half == pytest.approx(1.959964 * e.se, rel=1e-4)
    # robust bias correction recenters: the midpoint is the p+1 estimate,
    # generally not the order-p point estimate
    assert np.isfinite(center)
    assert e.p_point == 2 and e.p_ci == 3


def test_estimate_grid_outside_support_is_soft(exp_sample):
    out = estimate_grid(exp_sample, [-1.0, 1.0])
    assert out[0].error == "outside-support"
    assert out[0].f_hat is None
    assert out[1].error is None


def test_estimate_grid_fixed_bandwidth(exp_sample):
    out = estimate_grid(exp_sample, [1.0], h=0.4)
    assert out[0].h_used == 0.4


def test_estimate_grid_validation(exp_sample):
    with pytest.raises(EmptyGrid):
        estimate_grid(exp_sample, [])
    with pytest.raises(InvalidAlpha):
        estimate_grid(exp_sample, [1.0], alpha=1.5)
    for h in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            estimate_grid(exp_sample, [1.0], h=h)


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
