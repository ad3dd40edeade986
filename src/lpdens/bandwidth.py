"""Bias-constant estimation and MSE-optimal bandwidth selection.

The selector dispatches on derivative order, region, and the parity of
p - v. For v >= 1 the optimum has a closed form; for the smoothed-CDF
target (v = 0) the empirical MSE is minimized numerically because the
leading variance alone offers no bias-variance trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, NonPositiveVariance, SingularDesign, ZeroBias, ZeroVariance
from .kernels import BasisKind, EvalRegion, factorial, moments, selector
from .lpfit import LocalFit, derivative_estimate, fit_local
from .sample import Sample, edf
from .variance import gamma_hat, quadratic_form

_ZERO_BIAS_TOL = 1e-12


@dataclass(frozen=True)
class BiasConstants:
    Sinv_c: np.ndarray
    Sinv_ctilde: np.ndarray
    F_p1: float  # pilot estimate of F^(p+1)(x)
    F_p2: float  # pilot estimate of F^(p+2)(x)


@dataclass(frozen=True)
class BandwidthSelection:
    h: float
    v: int
    p: int
    case_tag: str
    bias_estimate: float
    variance_constant: float


def _normal_reference(sample: Sample, p: int) -> float:
    """Normal-reference rule 1.06 sd n^(-1/(2p+5)), capped at half the range."""
    sd = float(np.std(sample.values, ddof=1))
    if sd <= 0:
        raise ZeroVariance("sample standard deviation is zero")
    return min(1.06 * sd * sample.n ** (-1.0 / (2 * p + 5)), sample.span / 2.0)


def preliminary_bandwidth(sample: Sample) -> float:
    """Normal-reference pilot: 1.06 sd n^(-1/5), capped at half the range."""
    return _normal_reference(sample, 0)


def estimate_bias_constants(sample: Sample, fit: LocalFit) -> BiasConstants:
    """Sample-moment estimates of S^-1 c and S^-1 c~ plus derivative pilots.

    The matrix ratios come from kernel-weighted sample moments of ``fit``,
    the order-p fit at the preliminary bandwidth ell = ``fit.h``; the
    derivative pilots F^(p+1), F^(p+2) come from a local fit of order p+2
    at a coarser bandwidth matched to that order (rate n^{-1/(2p+5)}),
    since high derivatives at the density-pilot scale are far too noisy.
    """
    p, ell = fit.p, fit.h
    if fit.m_eff < p + 3:
        raise InsufficientData(
            f"pilot window holds {fit.m_eff} points, need {p + 3}"
        )
    R, w, u = fit.R, fit.w, fit.u
    n = sample.n
    c_hat = R.T @ (w * u ** (p + 1)) / n
    ct_hat = R.T @ (w * u ** (p + 2)) / n
    try:
        Sinv_c = np.linalg.solve(fit.S_hat, c_hat)
        Sinv_ct = np.linalg.solve(fit.S_hat, ct_hat)
    except np.linalg.LinAlgError as exc:
        # the fit's Cholesky can accept an S_hat that LU then finds singular
        raise SingularDesign(f"pilot normal equations singular at x={fit.x}, h={ell}") from exc

    ell_deriv = max(ell, _normal_reference(sample, p))
    pilot = fit_local(sample, fit.x, ell_deriv, p + 2, fit.kernel)
    return BiasConstants(
        Sinv_c=Sinv_c,
        Sinv_ctilde=Sinv_ct,
        F_p1=derivative_estimate(pilot, p + 1),
        F_p2=derivative_estimate(pilot, p + 2),
    )


def _golden_section(objective, lo: float, hi: float):
    """Golden-section minimizer on log h: at most 200 steps, to a log-width of 1e-8."""
    a, b = np.log(lo), np.log(hi)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(np.exp(c)), objective(np.exp(d))
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(np.exp(d))
        if b - a < 1e-8:
            break
    return float(np.exp((a + b) / 2.0))


def variance_constant(sample: Sample, fit: LocalFit, v: int) -> float:
    """V-hat such that variance(h) ~= V-hat / (n h^{2v-1}), from Gamma-hat at ell = ``fit.h``."""
    q = quadratic_form(fit, gamma_hat(sample, fit), selector(fit.p, fit.basis, v))
    return factorial(v) ** 2 * max(q, 0.0) / fit.h


def mse_bandwidth(
    sample: Sample,
    x: float,
    p: int,
    v: int,
    kernel: str = "triangular",
) -> BandwidthSelection:
    """Pointwise MSE-optimal bandwidth.

    Cases: (a) closed form when v >= 1 and the first-order bias cannot
    vanish (boundary region at the pilot scale, or p - v odd); (b) closed
    form with the second-order bias when v >= 1, interior, p - v even;
    (c)/(d) numerical empirical-MSE minimization for v = 0, which raises
    ``NonPositiveVariance`` when the minimum is the bracket's lower end span / n.
    """
    if not 0 <= v <= p:
        raise ValueError("need 0 <= v <= p")
    fit = fit_local(sample, x, preliminary_bandwidth(sample), p, kernel)
    bc = estimate_bias_constants(sample, fit)
    B1 = factorial(v) * bc.F_p1 / factorial(p + 1) * float(bc.Sinv_c[v])
    B2 = factorial(v) * bc.F_p2 / factorial(p + 2) * float(bc.Sinv_ctilde[v])

    n = sample.n
    if v >= 1:
        V = variance_constant(sample, fit, v)
        order, tag = mse_case(fit.region, p, v)
        B = B1 if order == 1 else B2
        h = closed_form_h(V, B, n, p, v, order)
        if not h > 0:
            raise NonPositiveVariance(f"variance constant {V:.3e} gives bandwidth {h}")
        return BandwidthSelection(
            h=h, v=v, p=p, case_tag=tag, bias_estimate=B, variance_constant=V,
        )

    # v = 0: empirical MSE with the quadratic-variance term restoring the
    # trade-off; minimized numerically on log h
    Ftil = edf(sample, x)
    # at p = 0 the fit has no density coefficient: use the order-2 pilot's F'
    f_hat = max(derivative_estimate(fit, 1) if p >= 1 else bc.F_p1, 1e-12)
    mom = moments(kernel, fit.region, p)
    z = np.linalg.solve(mom.S, selector(p, BasisKind.STANDARD, 0))
    V2 = 2.0 * f_hat * Ftil * (1.0 - Ftil) * float(z @ mom.Tmat @ z)
    if fit.region.is_interior:
        V1 = f_hat * float(z @ mom.Gamma @ z)
        tag = "cdf_interior"
    else:
        # boundary: no well-defined asymptotic optimum; use the
        # ell-dependent empirical variance (documented as such)
        V1 = variance_constant(sample, fit, 0)
        tag = "cdf_boundary_empirical"

    def objective(h):
        bias = h ** (p + 1) * B1 + h ** (p + 2) * B2
        return bias**2 + V1 * h / n + V2 / (n**2 * h)

    lo, hi = sample.span / n, sample.span / 2.0
    h = _golden_section(objective, lo, hi)
    if h <= lo * (1.0 + 1e-6):
        raise NonPositiveVariance(f"empirical MSE falls to the lower end of the bandwidth "
                                  f"bracket [{lo:.4g}, {hi:.4g}]: no interior optimum")
    return BandwidthSelection(
        h=h, v=0, p=p, case_tag=tag,
        bias_estimate=h ** (p + 1) * B1 + h ** (p + 2) * B2,
        variance_constant=V1,
    )


def mse_case(region: EvalRegion, p: int, v: int) -> tuple[int, str]:
    """(bias_order, case_tag) of the closed form: 2 only if interior with p - v even."""
    if not region.is_interior or (p - v) % 2 == 1:
        return 1, "odd_or_boundary"
    return 2, "even_interior"


def closed_form_h(V: float, B: float, n: int, p: int, v: int, bias_order: int = 1) -> float:
    """Stationary point of V/(n h^{2v-1}) + h^{2(p+k-v)} B^2, k = ``bias_order``.

    k = 1 is case (a), the first-order bias; k = 2 is case (b), the
    second-order bias of an interior fit with p - v even.
    """
    if abs(B) < _ZERO_BIAS_TOL:
        raise ZeroBias(f"order-{bias_order} bias constant is numerically zero")
    k = bias_order
    return ((2 * v - 1) * V / (n * (2 * (p + k - v)) * B**2)) ** (1.0 / (2 * p + 2 * k - 1))
