"""Bandwidth selection: closed form, optimality, case dispatch, guards."""

import sys

import numpy as np
import pytest

from lpdens.bandwidth import (
    closed_form_h,
    estimate_bias_constants,
    mse_bandwidth,
    preliminary_bandwidth,
)
from lpdens import bandwidth, maniptest, variance
from lpdens.density import estimate_grid
from lpdens.errors import (
    InsufficientData,
    NegativeDensity,
    NonPositiveVariance,
    ZeroBias,
    ZeroVariance,
)
from lpdens.kernels import factorial, moments, selector
from lpdens.lpfit import derivative_estimate, fit_local
from lpdens.sample import load_sample
from lpdens.simulation import SimDesign, get_dgp, run_design
from lpdens.variance import dense_gamma_hat, variance_constant


def test_closed_form_value():
    # (2v-1) V / (n (2p+2-2v) B^2), exponent 1/(2p+1):
    # v=1, p=2: (0.6 / (1000 * 4 * 0.04))^(1/5)
    h = closed_form_h(0.6, 0.2, 1000, 2, 1)
    assert h == pytest.approx((0.6 / 160.0) ** 0.2, rel=1e-12)


def test_closed_form_first_order_optimality():
    # stationary point of the frozen-constant MSE in h
    V, B, n, p, v = 0.6, 0.2, 1000, 2, 1
    h = closed_form_h(V, B, n, p, v)

    def mse(hh):
        return B**2 * hh ** (2 * p + 2 - 2 * v) + V / (n * hh ** (2 * v - 1))

    eps = 1e-6
    deriv = (mse(h * (1 + eps)) - mse(h * (1 - eps))) / (2 * h * eps)
    scale = mse(h) / h
    assert abs(deriv) / scale < 1e-6
    assert mse(h) < mse(h * 0.9) and mse(h) < mse(h * 1.1)


def test_closed_form_zero_bias():
    with pytest.raises(ZeroBias):
        closed_form_h(0.6, 0.0, 1000, 2, 1)


def test_preliminary_bandwidth_normal_reference():
    rng = np.random.default_rng(12)
    vals = rng.normal(size=1000)
    s = load_sample(vals)
    ell = preliminary_bandwidth(s)
    assert ell == pytest.approx(1.06 * np.std(vals, ddof=1) * 1000 ** (-0.2))


def test_preliminary_bandwidth_zero_variance():
    s = load_sample([1.0, 1.0, 1.0])
    with pytest.raises(ZeroVariance):
        preliminary_bandwidth(s)


def test_bias_constants_shape_and_pilot():
    rng = np.random.default_rng(8)
    s = load_sample(rng.exponential(size=3000), support=(0.0, np.inf))
    bc = estimate_bias_constants(s, fit_local(s, 1.0, 0.5, 2))
    assert bc.Sinv_c.shape == (3,)
    assert np.isfinite(bc.F_p1) and np.isfinite(bc.F_p2)
    # exponential: F'''(1) = e^{-1}; pilot is rough, just sign and scale
    assert abs(bc.F_p1) < 5.0


def test_pilot_fit_runs_once(monkeypatch):
    """The order-p pilot fit at ell feeds both the bias and variance constants."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[3])
        return fit_local(*args, **kwargs)

    monkeypatch.setattr(bandwidth, "fit_local", counting)
    monkeypatch.setattr(maniptest, "fit_local", counting)
    rng = np.random.default_rng(9)
    s = load_sample(rng.exponential(size=3000), support=(0.0, np.inf))
    for v in (0, 1, 2):
        calls.clear()
        mse_bandwidth(s, 1.0, 2, v)
        assert sorted(calls) == [2, 4]  # order-p pilot, order-(p+2) pilot
    calls.clear()
    maniptest.diff_mse_bandwidth(s, 1.0, 2)
    assert sorted(calls) == [2, 2, 4, 4, 4, 4]  # per side: p, p+2, whole-side p+2
    calls.clear()
    maniptest.diff_mse_bandwidth(s, 1.0, 2)
    assert calls == []  # the memoized selection


def test_mse_bandwidth_case_dispatch():
    rng = np.random.default_rng(15)
    s = load_sample(rng.exponential(size=4000), support=(0.0, np.inf))
    # p=2, v=1: p-v odd -> case (a) everywhere
    sel = mse_bandwidth(s, 1.0, 2, 1)
    assert sel.case_tag == "odd_or_boundary"
    assert 0.05 < sel.h < 2.0
    # p=3, v=1 interior: p-v even -> second-order case
    sel2 = mse_bandwidth(s, 1.0, 3, 1)
    assert sel2.case_tag == "even_interior"
    assert 0.05 < sel2.h < 3.0
    # near the boundary the pilot region is truncated -> case (a)
    sel3 = mse_bandwidth(s, 0.0, 3, 1)
    assert sel3.case_tag == "odd_or_boundary"


def test_mse_bandwidth_cdf_cases():
    rng = np.random.default_rng(16)
    s = load_sample(rng.exponential(size=4000), support=(0.0, np.inf))
    sel = mse_bandwidth(s, 1.0, 2, 0)
    assert sel.case_tag == "cdf_interior" and sel.h > 0
    sel_b = mse_bandwidth(s, 0.05, 2, 0)
    assert sel_b.case_tag == "cdf_boundary_empirical" and sel_b.h > s.span / s.n
    # at the endpoint F(x) = 0, so the objective keeps falling to the bracket's end
    with pytest.raises(NonPositiveVariance, match="lower end of the bandwidth bracket"):
        mse_bandwidth(s, 0.0, 2, 0)


@pytest.mark.parametrize("x", [0.0, 0.999, 1.0])
def test_mse_bandwidth_cdf_bracket_end_raises(x):
    # on (0, 1) the v = 0 objective is minimised at span / n next to either
    # endpoint: a typed failure, not h = span / n reported as an optimum
    s = load_sample(np.random.default_rng(0).uniform(size=500), support=(0.0, 1.0))
    for p in range(4):
        with pytest.raises(NonPositiveVariance, match=r"bracket \["):
            mse_bandwidth(s, x, p, 0)


@pytest.mark.parametrize("x", [0.5, 2.0])
def test_mse_bandwidth_cdf_order_zero_uses_pilot_density(x):
    # at p = 0 the fit has no density coefficient; the interior variance
    # constant f z'Gamma z must take f from the order-2 pilot, not F(x)
    rng = np.random.default_rng(0)
    s = load_sample(rng.exponential(size=2000), support=(0.0, np.inf))
    sel = mse_bandwidth(s, x, 0, 0)
    assert sel.case_tag == "cdf_interior"
    fit = fit_local(s, x, preliminary_bandwidth(s), 0)
    mom = moments("triangular", fit.region, 0)
    z = np.linalg.solve(mom.S, np.ones(1))
    f_used = sel.variance_constant / float(z @ mom.Gamma @ z)
    assert f_used == pytest.approx(estimate_bias_constants(s, fit).F_p1, rel=1e-12)
    assert f_used == pytest.approx(np.exp(-x), rel=0.15)


def test_mse_bandwidth_cdf_negative_density_pilot_raises():
    # at the 1% quantile of N(0,1) draws the order-3 pilot's density is
    # negative: with V1 and V2 near 0, the "optimum" would be just where the
    # bias polynomial crosses zero
    s = load_sample(np.random.default_rng(0).normal(size=500))
    x = float(np.quantile(s.values, 0.01))
    assert derivative_estimate(fit_local(s, x, preliminary_bandwidth(s), 3), 1) < 0
    with pytest.raises(NegativeDensity, match="density pilot"):
        mse_bandwidth(s, x, 3, 0)


def test_mse_bandwidth_pilot_window_below_p_plus_3_points_raises():
    # three outliers 8 sd out: the pilot window at the middle one holds just
    # them, enough for the p = 1 fit but not for the bias constants
    s = load_sample(np.concatenate([np.random.default_rng(0).normal(size=100), [8.0, 8.1, 8.2]]))
    with pytest.raises(InsufficientData, match="pilot window holds 3 points, need 4"):
        mse_bandwidth(s, 8.1, 1, 1)


def test_mse_bandwidth_rank_deficient_pilot_gives_no_bandwidth():
    # the p = 3 pilot window holds three heaps (-0.75, -0.5, -0.25) for four
    # coefficients; its Cholesky factor exists only by rounding, the variance
    # quadratic form comes out negative, so V = 0 and h = 0
    s = load_sample(np.round(np.random.default_rng(3).normal(size=200) / 0.25) * 0.25)
    with pytest.raises(NonPositiveVariance, match="gives bandwidth 0.0"):
        mse_bandwidth(s, -0.5, 3, 1)


def test_mse_bandwidth_rate_in_n():
    # h should shrink roughly like n^{-1/5} for p=2, v=1
    rng = np.random.default_rng(17)
    pool = rng.exponential(size=32000)
    h_small = mse_bandwidth(load_sample(pool[:2000], support=(0.0, np.inf)), 1.0, 2, 1).h
    h_large = mse_bandwidth(load_sample(pool, support=(0.0, np.inf)), 1.0, 2, 1).h
    ratio = h_large / h_small
    expect = (32000 / 2000) ** (-0.2)
    assert 0.5 * expect < ratio < 2.0 * expect


def test_mse_bandwidth_order_guard():
    s = load_sample(np.linspace(0, 1, 100))
    with pytest.raises(ValueError):
        mse_bandwidth(s, 0.5, 2, 3)


def test_density_path_never_takes_the_dense_gamma_hat(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense Gamma-hat called")

    # wherever lpdens binds the dense O(m^2) form
    original = variance.dense_gamma_hat
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "lpdens" or name.startswith("lpdens.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, refuse)
    s = load_sample(np.random.default_rng(4).exponential(size=3000), support=(0.0, np.inf))
    with pytest.raises(AssertionError, match="dense Gamma-hat"):
        maniptest.diff_mse_bandwidth(s, 1.0, 2)  # the stand-in is in place
    for x, v in ((1.0, 1), (0.02, 1), (0.05, 0)):  # interior, boundary, cdf_boundary_empirical
        (est,) = estimate_grid(s, [x], p=2, v=v)
        assert est.error is None and est.se > 0
    assert mse_bandwidth(s, 0.05, 2, 0).case_tag == "cdf_boundary_empirical"
    design = SimDesign(dgp=get_dgp("exponential"), eval_points=(0.05, 1.0), n=400, reps=4,
                       bandwidth_rule="mse_estimated", seed=5)
    assert all(row["valid"] for row in run_design(design))


@pytest.mark.parametrize("x", [0.02, 1.0])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_variance_constant_matches_the_dense_form(x, p):
    # the pilot's suffix-sum Gamma-hat gives the dense product's V to 1e-12
    # of the unsigned form v!^2 |z|'|G||z| / h, the scale its rounding acts
    # on: at p = 3 on the boundary z'Gz cancels to 1e-4 of it
    s = load_sample(np.random.default_rng(6).exponential(size=4000), support=(0.0, np.inf))
    fit = fit_local(s, x, preliminary_bandwidth(s), p)
    G = dense_gamma_hat(s, fit)
    for v in range(1, p + 1):
        z = np.abs(fit.solve_S(selector(p, fit.basis, v)))
        scale = factorial(v) ** 2 * float(z @ np.abs(G) @ z) / fit.h
        got = mse_bandwidth(s, x, p, v).variance_constant
        assert abs(got - variance_constant(fit, G, v)) <= 1e-12 * scale
