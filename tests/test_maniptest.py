"""Manipulation test: joint/separate identities, models, RBC wrapper."""

import numpy as np
import pytest

from lpdens.errors import EmptySide, LpDensError, NonPositiveVariance
from lpdens.kernels import BasisKind
from lpdens.lpfit import derivative_estimate, fit_local
from lpdens.maniptest import MODELS, cutoff_test, diff_mse_bandwidth, rbc_test
from lpdens.sample import load_sample, split_at_cutoff


@pytest.fixture(scope="module")
def normal_sample():
    rng = np.random.default_rng(31)
    return load_sample(rng.normal(size=2500))


def test_joint_separate_identities(normal_sample):
    """Separate-sample fits equal rescaled joint-fit blocks exactly."""
    s = normal_sample
    c, h, p = 0.2, 0.8, 2
    left, right, n_minus, n_plus = split_at_cutoff(s, c)
    joint = fit_local(s, c, h, p, basis=BasisKind.UNRESTRICTED)
    fit_l = fit_local(left, c, h, p)
    fit_r = fit_local(right, c, h, p)
    n = s.n
    for v in range(p + 1):
        jl = derivative_estimate(joint, v, "left")
        jr = derivative_estimate(joint, v, "right")
        sl = derivative_estimate(fit_l, v)
        sr = derivative_estimate(fit_r, v)
        assert sl == pytest.approx((n / n_minus) * jl, rel=1e-10, abs=1e-12)
        if v == 0:
            # right EDF is affine in the pooled EDF below the block
            assert sr == pytest.approx((n / n_plus) * jr - n_minus / n_plus, rel=1e-10)
        else:
            assert sr == pytest.approx((n / n_plus) * jr, rel=1e-10, abs=1e-12)


def test_unrestricted_joint_result_shape(normal_sample):
    res = cutoff_test(normal_sample, 0.0, p=2, h_minus=0.7, h_plus=0.7)
    assert res.model == "unrestricted"
    assert res.h_minus == res.h_plus == 0.7
    assert res.n_minus + res.n_plus == normal_sample.n
    assert res.se_diff > 0
    assert 0.0 <= res.p_value <= 1.0
    rec = res.record()
    # key order is the `lpdens test` JSON layout
    assert list(rec) == ["cutoff", "model", "p_point", "p_infer", "h_minus", "h_plus",
                         "n_minus", "n_plus", "m_eff_minus", "m_eff_plus", "f_minus",
                         "f_plus", "se_diff", "T", "p_value", "warnings"]
    assert rec["warnings"] == []


def test_unrestricted_distinct_bandwidths_use_separate(normal_sample):
    res = cutoff_test(normal_sample, 0.0, p=2, h_minus=0.6, h_plus=0.8)
    assert res.model == "separate"
    assert res.h_minus == 0.6 and res.h_plus == 0.8


def test_joint_and_separate_T_agree_under_common_h(normal_sample):
    """Numerators are identical; the studentized forms agree asymptotically."""
    s = normal_sample
    h = 0.8
    joint = cutoff_test(s, 0.1, p=2, h_minus=h, h_plus=h)
    sep = cutoff_test(s, 0.1, 2, "triangular", "separate", h, h)
    num_joint = joint.f_plus - joint.f_minus
    num_sep = (sep.n_plus / s.n) * sep.f_plus - (sep.n_minus / s.n) * sep.f_minus
    # exact identity for the jump estimate
    assert num_joint == pytest.approx(num_sep, rel=1e-10)
    # the separate se drops the cross-side EDF covariance: close, not equal
    assert joint.T == pytest.approx(sep.T, rel=0.25)


def test_restricted_model(normal_sample):
    res = cutoff_test(normal_sample, 0.0, p=2, model="restricted", h_minus=0.7, h_plus=0.7)
    assert res.model == "restricted"
    assert res.se_diff > 0
    assert 0.0 <= res.p_value <= 1.0


def test_restricted_no_jump_when_density_continuous(normal_sample):
    # standard normal has no jump at 0; the restricted T should be moderate
    res = cutoff_test(normal_sample, 0.0, p=2, model="restricted", h_minus=0.8, h_plus=0.8)
    assert abs(res.T) < 4.0


@pytest.mark.parametrize("model", ["unrestricted", "restricted"])
def test_cutoff_test_default_bandwidth_is_common_mse(normal_sample, model):
    h = diff_mse_bandwidth(normal_sample, 0.0, 2).h_common
    res = cutoff_test(normal_sample, 0.0, model=model)
    assert res.model == model
    assert res.h_minus == res.h_plus == h
    assert res == cutoff_test(normal_sample, 0.0, model=model, h_minus=h, h_plus=h)
    # one missing side takes the common bandwidth; distinct ones go separate
    one = cutoff_test(normal_sample, 0.0, model=model, h_plus=0.6)
    assert one.model == "separate" and one.h_minus == h and one.h_plus == 0.6


def test_cutoff_test_rejects_unknown_model(normal_sample):
    with pytest.raises(ValueError, match="unknown model"):
        cutoff_test(normal_sample, 0.0, model="two-sided", h_minus=0.5, h_plus=0.5)


@pytest.mark.parametrize("model", MODELS)
def test_rbc_orders(normal_sample, model):
    res = rbc_test(normal_sample, 0.0, p=2, model=model)
    assert res.model == model
    assert res.p_point == 2 and res.p_infer == 3
    assert res.h_minus == res.h_plus > 0


def test_diff_mse_bandwidth_positive(normal_sample):
    bw = diff_mse_bandwidth(normal_sample, 0.0, 2)
    assert bw.h_common > 0 and bw.h_minus > 0 and bw.h_plus > 0
    assert bw.variance_diff > 0


def test_diff_bandwidth_zero_bias_falls_back_to_smaller_side():
    # a mirror-symmetric sample cancels the difference bias, so the closed
    # form raises ZeroBias and the common bandwidth is the smaller side's
    d = np.abs(np.random.default_rng(1).normal(size=2000)) + 1e-3
    s = load_sample(np.concatenate([-d, d]))
    bw = diff_mse_bandwidth(s, 0.0, 2)
    assert abs(bw.bias_diff) < 1e-12
    assert bw.h_common == min(bw.h_minus, bw.h_plus)


def test_diff_bandwidth_clamped_inside_support():
    # selected bandwidths must keep the window inside each side's support
    rng = np.random.default_rng(57)
    u = rng.random(3000)
    vals = np.where(u < 0.75, u / 0.75, 1.0 + (u - 0.75) / 0.25)
    s = load_sample(vals, support=(0.0, 2.0))
    bw = diff_mse_bandwidth(s, 1.0, 2)
    assert bw.h_common <= 0.95 + 1e-12
    assert bw.h_minus <= 0.95 + 1e-12
    assert bw.h_plus <= 0.95 + 1e-12


@pytest.mark.parametrize("model", ["unrestricted", "restricted", "separate"])
def test_zero_variance_constant_is_typed(model):
    # heaped N(0,1): at this cutoff the estimated variance constant is 0, so
    # the closed-form common bandwidth is 0 and must not reach the fit
    x = np.round(np.random.default_rng(3).normal(size=10_000) / 0.05) * 0.05
    try:
        res = rbc_test(load_sample(x), -0.125, model=model)
    except LpDensError:
        return
    assert res.h_minus > 0 and np.isfinite(res.T)


def test_rbc_rejects_bad_order_and_model(normal_sample):
    with pytest.raises(ValueError):
        rbc_test(normal_sample, 0.0, p=0)
    with pytest.raises(ValueError):
        rbc_test(normal_sample, 0.0, model="two-sided")


@pytest.mark.parametrize("model", ["unrestricted", "restricted"])
def test_zero_standard_error_is_typed(normal_sample, monkeypatch, model):
    # a zero jump standard error used to give T = 0 and p = 1 silently
    monkeypatch.setattr("lpdens.maniptest.difference_se", lambda sample, fit: 0.0)
    with pytest.raises(NonPositiveVariance):
        rbc_test(normal_sample, 0.0, model=model)


def test_cutoff_outside_data(normal_sample):
    with pytest.raises(EmptySide):
        cutoff_test(normal_sample, 99.0, h_minus=0.5, h_plus=0.5)


def test_power_against_actual_jump():
    # sharp density jump 0.75 vs 0.25 at cutoff 1: T should be large
    rng = np.random.default_rng(33)
    u = rng.random(4000)
    vals = np.where(u < 0.75, u / 0.75, 1.0 + (u - 0.75) / 0.25)
    s = load_sample(vals, support=(0.0, 2.0))
    res = rbc_test(s, 1.0, p=2)
    assert res.p_value < 0.01
    assert res.f_plus < res.f_minus
