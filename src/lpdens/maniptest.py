"""Density-discontinuity (manipulation) testing at a known cutoff.

Supports the joint unrestricted model (all derivatives may jump), the
restricted model (only the density jumps), and separate-sample estimation
with side-specific bandwidths. Inference uses the automatic variance
machinery. The conventional ``cutoff_test`` runs the statistic at the
bandwidth's order p; the robust bias-corrected ``rbc_test`` runs it at p + 1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .bandwidth import (
    closed_form_h,
    estimate_bias_constants,
    preliminary_bandwidth,
)
from .errors import LpDensError, NonPositiveVariance, ZeroBias
from .kernels import BasisKind, factorial
from .lpfit import derivative_estimate, fit_local
from .sample import Sample, split_at_cutoff
from .variance import dense_gamma_hat, difference_se, standard_error, variance_constant


@dataclass(frozen=True)
class DiffBandwidth:
    """MSE-optimal bandwidths for the density jump at the cutoff."""

    h_common: float
    h_minus: float
    h_plus: float
    bias_diff: float
    variance_diff: float


@dataclass(frozen=True)
class ManipulationTestResult:
    cutoff: float
    model: str  # "unrestricted" | "restricted" | "separate"
    p_point: int
    p_infer: int
    h_minus: float
    h_plus: float
    n_minus: int
    n_plus: int
    m_eff_minus: int
    m_eff_plus: int
    f_minus: float
    f_plus: float
    se_diff: float
    T: float
    p_value: float
    warnings: tuple = field(default_factory=tuple)

    def record(self) -> dict:
        return {**asdict(self), "warnings": list(self.warnings)}


MODELS = ("unrestricted", "restricted", "separate")


def _clamp_h(h: float, side: Sample) -> float:
    # keep the window inside the side's support so the fit region stays a
    # plain boundary region rather than a doubly truncated one; a side whose
    # support has no finite positive range is left as it is
    rng = side.support_range
    return float(min(h, 0.95 * rng)) if np.isfinite(rng) and rng > 0 else float(h)


def _side_constants(side: Sample, cutoff: float, p: int, kernel: str) -> tuple[float, float]:
    """Bias and variance constants (B, V) of one side's boundary fit for f(c)."""
    fit = fit_local(side, cutoff, preliminary_bandwidth(side), p, kernel)
    # only Sinv_c is used here: the F^(p+1) pilot comes from the whole-side
    # fit below, yet estimate_bias_constants still fits its own order-(p+2)
    # pilot, whose typed failures (e.g. SingularDesign on heaped data) send
    # rbc_test to its preliminary-bandwidth fallback
    bc = estimate_bias_constants(side, fit)
    pilot = fit_local(side, cutoff, side.span, p + 2, kernel)
    B = derivative_estimate(pilot, p + 1) / factorial(p + 1) * float(bc.Sinv_c[1])
    return B, variance_constant(fit, dense_gamma_hat(side, fit), 1)


@lru_cache(maxsize=1)
def diff_mse_bandwidth(sample: Sample, cutoff: float, p: int, kernel: str = "triangular") -> DiffBandwidth:
    """Bandwidths MSE-optimal for the jump estimator f(c+) - f(c-).

    Bias constants subtract across sides (with sample-share weights),
    variance constants add; both sides are boundary fits at the cutoff so
    the first-order bias never vanishes and the closed form applies.
    The F^(p+1) pilot comes from an order-(p+2) fit over the whole side
    (bandwidth ``side.span``): boundary fits of order p+2 at the density
    pilot scale are too noisy to use.
    When the difference bias cancels numerically the common bandwidth
    falls back to the smaller per-side bandwidth. Per-side bandwidths
    from per-side MSE are always reported.

    The last selection is memoized on the sample's identity and the other
    arguments as passed, so the models of one cutoff share it; the memo keeps
    that sample alive, and a selection that raises runs again.
    """
    if p < 1:
        raise ValueError(f"p must be at least 1 for the density jump, got {p}")
    left, right, n_minus, n_plus = split_at_cutoff(sample, cutoff)
    n = sample.n
    B_m, V_m = _side_constants(left, cutoff, p, kernel)
    B_p, V_p = _side_constants(right, cutoff, p, kernel)
    B_diff = (n_plus / n) * B_p - (n_minus / n) * B_m
    V_diff = (n_plus / n) * V_p + (n_minus / n) * V_m
    h_minus = _clamp_h(closed_form_h(V_m, B_m, n_minus, p, 1), left)
    h_plus = _clamp_h(closed_form_h(V_p, B_p, n_plus, p, 1), right)
    try:
        h_common = closed_form_h(V_diff, B_diff, n, p, 1)
    except ZeroBias:
        h_common = min(h_minus, h_plus)
    h_common = _clamp_h(_clamp_h(h_common, left), right)
    if not h_common > 0:
        raise NonPositiveVariance(
            f"variance constant {V_diff:.3e} gives common bandwidth {h_common}"
        )
    return DiffBandwidth(
        h_common=h_common,
        h_minus=h_minus,
        h_plus=h_plus,
        bias_diff=B_diff,
        variance_diff=V_diff,
    )


def cutoff_test(
    sample: Sample,
    cutoff: float,
    p: int = 2,
    kernel: str = "triangular",
    model: str = "unrestricted",
    h_minus: float | None = None,
    h_plus: float | None = None,
) -> ManipulationTestResult:
    """Conventional test of density continuity at the cutoff: the studentized jump at order p.

    A missing bandwidth is the MSE-optimal common one. The unrestricted and
    restricted models fit the pooled EDF in their split basis at one common
    bandwidth, and two distinct ones raise ``ValueError``; f_minus/f_plus are
    the joint one-sided density estimates. The separate model fits each
    side's own EDF at its own bandwidth; f_minus/f_plus are then conditional
    density estimates entering T with weights n_minus/n and n_plus/n. A
    standard error that is not positive raises :class:`NonPositiveVariance`.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    if h_minus is None or h_plus is None:
        h_common = diff_mse_bandwidth(sample, cutoff, p, kernel).h_common
        h_minus = h_common if h_minus is None else h_minus
        h_plus = h_common if h_plus is None else h_plus
    if model != "separate" and h_minus != h_plus:
        raise ValueError(f"the {model} model fits one bandwidth, got h_minus={h_minus}, h_plus={h_plus}")
    left, right, n_minus, n_plus = split_at_cutoff(sample, cutoff)
    if model == "separate":
        n = sample.n
        fit_m = fit_local(left, cutoff, h_minus, p, kernel)
        fit_p = fit_local(right, cutoff, h_plus, p, kernel)
        f_minus = derivative_estimate(fit_m, 1)
        f_plus = derivative_estimate(fit_p, 1)
        se_m = standard_error(left, fit_m, 1)
        se_p = standard_error(right, fit_p, 1)
        jump = (n_plus / n) * f_plus - (n_minus / n) * f_minus
        se = float(np.hypot((n_plus / n) * se_p, (n_minus / n) * se_m))
        m_eff_minus, m_eff_plus = fit_m.m_eff, fit_p.m_eff
    else:
        fit = fit_local(sample, cutoff, h_minus, p, kernel, BasisKind(model))
        f_minus = derivative_estimate(fit, 1, "left")
        f_plus = derivative_estimate(fit, 1, "right")
        jump = f_plus - f_minus
        se = difference_se(sample, fit)
        m_eff_minus, m_eff_plus = fit.m_eff_minus, fit.m_eff_plus
    if not se > 0:
        raise NonPositiveVariance(f"standard error of the density jump is {se}")
    T = jump / se
    return ManipulationTestResult(
        cutoff=cutoff,
        model=model,
        p_point=p,
        p_infer=p,
        h_minus=h_minus,
        h_plus=h_plus,
        n_minus=n_minus,
        n_plus=n_plus,
        m_eff_minus=m_eff_minus,
        m_eff_plus=m_eff_plus,
        f_minus=f_minus,
        f_plus=f_plus,
        se_diff=se,
        T=T,
        p_value=float(2.0 * ndtr(-abs(T))),
    )


def rbc_test(
    sample: Sample,
    cutoff: float,
    p: int = 2,
    kernel: str = "triangular",
    model: str = "unrestricted",
) -> ManipulationTestResult:
    """Robust bias-corrected test: bandwidth tuned for order p, :func:`cutoff_test` at p+1.

    A typed bandwidth failure falls back to the preliminary bandwidth, named in ``warnings``.
    The models of one cutoff share one memoized selection; a failed one runs again.
    """
    warnings = ()
    try:
        h = diff_mse_bandwidth(sample, cutoff, p, kernel).h_common
    except LpDensError as exc:
        h = preliminary_bandwidth(sample)
        warnings = (f"bandwidth-fallback-preliminary:{type(exc).__name__}",)
    result = cutoff_test(sample, cutoff, p + 1, kernel, model, h, h)
    return replace(result, p_point=p, warnings=warnings)
