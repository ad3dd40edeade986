"""Grid estimation pipeline: point estimates, robust bias-corrected CIs.

Each grid point gets a bandwidth (pointwise MSE-optimal or fixed), a point
estimate at order p, and a confidence interval built from a fit at order
p + 1 with the same bandwidth and its own automatic standard error. The
order-p fit's standard error is never used for the interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import EmptyGrid, InvalidAlpha, LpDensError
from .bandwidth import mse_bandwidth
from .lpfit import derivative_estimate, fit_local
from .sample import Sample
from .variance import standard_error

#: keys of ``DensityEstimate.record``, also the CSV columns (order is contractual)
FIELDS = ("x", "v", "h", "p", "f_hat", "se", "ci_low", "ci_high", "m_eff", "region", "error")


@dataclass(frozen=True)
class DensityEstimate:
    x: float
    v: int
    h_used: float | None
    p_point: int
    p_ci: int
    f_hat: float | None
    se: float | None
    ci_low: float | None
    ci_high: float | None
    m_eff: int | None
    region: str | None
    error: str | None = None

    def record(self) -> dict:
        return dict(zip(FIELDS, (
            self.x, self.v, self.h_used, self.p_point, self.f_hat, self.se,
            self.ci_low, self.ci_high, self.m_eff, self.region, self.error,
        )))


def default_grid(sample: Sample, n_points: int) -> np.ndarray:
    """Quantile grid: EDF inverse at equispaced probabilities, endpoints kept.

    The inverse uses the lower-midpoint convention: probability q maps to
    the order statistic at index ceil(q n) - 1.
    """
    if n_points < 2:
        raise EmptyGrid("grid needs at least 2 points")
    probs = np.linspace(0.0, 1.0, n_points)
    idx = np.clip(np.ceil(probs * sample.n).astype(int) - 1, 0, sample.n - 1)
    return sample.values[idx].astype(float)


def _estimate_point(sample, x, p, v, kernel, alpha, h):
    h = mse_bandwidth(sample, x, p, v, kernel).h if h is None else float(h)

    fit_point = fit_local(sample, x, h, p, kernel)
    f_hat = derivative_estimate(fit_point, v)

    # RBC: interval centered at the order-(p+1) estimate with matching se
    fit_ci = fit_local(sample, x, h, p + 1, kernel)
    f_ci = derivative_estimate(fit_ci, v)
    se = standard_error(sample, fit_ci, v).se
    z = ndtri(1.0 - alpha / 2.0)
    return DensityEstimate(
        x=x,
        v=v,
        h_used=h,
        p_point=p,
        p_ci=p + 1,
        f_hat=f_hat,
        se=se,
        ci_low=f_ci - z * se,
        ci_high=f_ci + z * se,
        m_eff=fit_point.m_eff,
        region=fit_point.region.kind,
    )


def estimate_grid(
    sample: Sample,
    grid,
    p: int = 2,
    v: int = 1,
    kernel: str = "triangular",
    h: float | None = None,
    alpha: float = 0.05,
) -> list[DensityEstimate]:
    """Estimate the order-v derivative over a grid of evaluation points.

    ``h`` is a fixed bandwidth for every point; ``None`` selects the
    pointwise MSE-optimal one. Per-point failures are soft: a failing point
    is emitted with null estimate fields and an error tag, without
    affecting other points.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise EmptyGrid("empty evaluation grid")
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha={alpha} not in (0, 1)")
    if h is not None and not (np.isfinite(h) and h > 0):
        raise ValueError(f"fixed bandwidth must be finite and positive, got {h}")

    out = []
    for x in grid:
        x = float(x)
        if not sample.support_lower <= x <= sample.support_upper:
            out.append(_failed_point(x, v, p, "outside-support"))
            continue
        try:
            out.append(_estimate_point(sample, x, p, v, kernel, alpha, h))
        except LpDensError as exc:
            out.append(_failed_point(x, v, p, type(exc).__name__))
    return out


def _failed_point(x, v, p, tag) -> DensityEstimate:
    return DensityEstimate(
        x=x, v=v, h_used=None, p_point=p, p_ci=p + 1,
        f_hat=None, se=None, ci_low=None, ci_high=None,
        m_eff=None, region=None, error=tag,
    )
