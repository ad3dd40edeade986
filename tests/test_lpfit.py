"""Local fit: WLS equivalence, polynomial reproduction, guards, equivariance."""

import numpy as np
import pytest

from oracles import wls_beta

from lpdens.errors import InsufficientData, OrderOutOfRange, SingularDesign
from lpdens.kernels import BasisKind
from lpdens.lpfit import derivative_estimate, fit_local
from lpdens.sample import load_sample


@pytest.fixture(scope="module")
def normal_sample():
    rng = np.random.default_rng(11)
    return load_sample(rng.normal(size=400))


def test_beta_matches_dense_wls(normal_sample):
    fit = fit_local(normal_sample, 0.2, 0.7, 2)
    assert np.allclose(fit.beta_scaled, wls_beta(normal_sample, fit), atol=1e-10)


def test_beta_unscaling(normal_sample):
    fit = fit_local(normal_sample, 0.2, 0.7, 3)
    assert np.allclose(fit.beta, fit.beta_scaled / 0.7 ** np.arange(4))


def test_window_and_counts(normal_sample):
    fit = fit_local(normal_sample, 0.0, 0.5, 2)
    assert np.all(np.abs(fit.xw) <= 0.5)
    assert fit.m_eff == len(fit.xw) == fit.m_eff_minus + fit.m_eff_plus
    inside = np.sum(np.abs(normal_sample.values) <= 0.5)
    assert fit.m_eff == inside


@pytest.mark.parametrize("basis", [BasisKind.STANDARD, BasisKind.UNRESTRICTED, BasisKind.RESTRICTED])
def test_polynomial_reproduction_all_bases(normal_sample, basis):
    # response is a degree-p polynomial of (x_i - x): the fit must be exact
    rng = np.random.default_rng(5)
    p, x, h = 2, 0.1, 0.8
    import math

    coef = rng.normal(size=p + 1)
    resp = np.polynomial.polynomial.polyval(normal_sample.values - x, coef)
    fit = fit_local(normal_sample, x, h, p, basis=basis, response=resp)
    for v in range(p + 1):
        want = math.factorial(v) * coef[v]
        if basis is BasisKind.STANDARD:
            sides = [None]
        elif basis is BasisKind.RESTRICTED:
            sides = ["left", "right"] if v == 1 else [None]
        else:
            sides = ["left", "right"]
        for side in sides:
            got = derivative_estimate(fit, v, side)
            assert got == pytest.approx(want, abs=1e-8)


def test_insufficient_data_guards():
    s = load_sample(np.linspace(0, 1, 30))
    with pytest.raises(InsufficientData):
        fit_local(s, 0.5, 0.03, 3)  # window too small for p+1=4 points
    with pytest.raises(InsufficientData):
        fit_local(s, 0.02, 0.05, 2, basis=BasisKind.UNRESTRICTED)  # one-sided window


def test_singular_design_on_duplicates():
    vals = np.concatenate([np.full(10, 0.5), [0.0, 1.0]])
    s = load_sample(vals)
    with pytest.raises((SingularDesign, InsufficientData)):
        fit_local(s, 0.5, 0.1, 2)


def test_derivative_order_guard(normal_sample):
    fit = fit_local(normal_sample, 0.0, 0.6, 2)
    with pytest.raises(OrderOutOfRange):
        derivative_estimate(fit, 3)


def test_bandwidth_must_be_positive(normal_sample):
    with pytest.raises(ValueError):
        fit_local(normal_sample, 0.0, 0.0, 2)


def test_location_scale_equivariance():
    """f_Y(a + b x) = f_X(x)/b when Y = a + b X, using h_Y = b h_X."""
    rng = np.random.default_rng(23)
    x_vals = rng.normal(size=500)
    a, b = 3.0, 2.5
    sx = load_sample(x_vals)
    sy = load_sample(a + b * x_vals)
    x0, h = 0.4, 0.6
    fx = derivative_estimate(fit_local(sx, x0, h, 2), 1)
    fy = derivative_estimate(fit_local(sy, a + b * x0, b * h, 2), 1)
    assert fy == pytest.approx(fx / b, rel=1e-10)


def test_edf_response_default(normal_sample):
    fit = fit_local(normal_sample, 0.0, 0.6, 2)
    # the window's EDF is the sample's EDF sliced by the fit's window
    k = np.searchsorted(normal_sample.values, fit.xw, side="right")
    assert np.allclose(normal_sample.F[fit.window], k / normal_sample.n)
