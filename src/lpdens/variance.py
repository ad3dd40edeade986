"""Standard errors for the local fit.

Three routes: the automatic Gamma-hat estimator (default, boundary
adaptive, no support knowledge needed), a jackknife variant built from
leave-one-out averages of the symmetrized U-statistic kernel, and a
plug-in variant that combines quadrature moment matrices with the
estimated density.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import NegativeDensity, NonPositiveVariance
from .kernels import BasisKind, factorial, moments, selector
from .lpfit import LocalFit, derivative_estimate, fit_local
from .sample import Sample

_NEG_TOL = 1e-12
#: elements per row block when filling Gamma-hat's EDF covariance matrix
_BLOCK_ELEMENTS = 2**16
#: per-thread grow-only buffer behind Gamma-hat's m x m matrix
_workspace = threading.local()


@dataclass(frozen=True)
class VarianceEstimate:
    method: str  # "gamma_hat" | "jackknife" | "plugin"
    V_hat: float
    se: float
    v: int


def gamma_hat(sample: Sample, fit: LocalFit) -> np.ndarray:
    """Automatic variance matrix Gamma-hat.

    Defined as a triple sum over observations; computed through the exact
    factorization over the inner index, which reduces it to a double sum
    over in-window points:

        Gamma = n^-2 sum_{j,k} w_j w_k r_j r_k'
                      (EDF(min(x_j, x_k)) - EDF(x_j) EDF(x_k)).

    The m x m EDF covariance matrix is the one large array: 8 m^2 bytes
    for m in-window points (800 MB at m = 1e4), filled in place in row
    blocks of about 2^16 elements. It lives in a per-thread workspace that
    only grows, so each thread keeps 8 m^2 bytes for the largest window it
    has seen; the peak is still one matrix, and the result never aliases it.
    """
    A = fit.Rw
    F = sample.F[fit.window]
    # xw sorted, EDF monotone, so EDF(min(x_j,x_k)) = min(F_j, F_k)
    m = len(F)
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < m * m:
        buf = _workspace.buf = None  # free the old buffer before the new one
        buf = _workspace.buf = np.empty(m * m)
    M = buf[:m * m].reshape(m, m)
    rows = max(1, _BLOCK_ELEMENTS // m)
    for lo in range(0, m, rows):
        Fb = F[lo:lo + rows, None]
        np.minimum(Fb, F, out=M[lo:lo + rows])
        M[lo:lo + rows] -= Fb * F
    return (A.T @ M @ A) / fit.n**2


def quadratic_form(fit: LocalFit, G: np.ndarray, e: np.ndarray) -> float:
    """q = e' S^-1 G S^-1 e for a selector e and a variance matrix G."""
    z = fit.solve_S(e)
    return float(z @ G @ z)


def _se_from_form(q: float, n: int, h: float, v: int) -> float:
    if q < -_NEG_TOL:
        raise NonPositiveVariance(f"variance quadratic form is negative ({q:.3e})")
    return factorial(v) * np.sqrt(max(q, 0.0) / (n * h ** (2 * v)))


def _estimate(
    method: str, fit: LocalFit, G: np.ndarray, v: int, side: str | None
) -> VarianceEstimate:
    """se = v! sqrt(q / (n h^{2v})), q = e_v' S^-1 G S^-1 e_v; no interior/boundary branch."""
    q = quadratic_form(fit, G, selector(fit.p, fit.basis, v, side))
    return VarianceEstimate(
        method=method,
        V_hat=q,
        se=_se_from_form(q, fit.n, fit.h, v),
        v=v,
    )


def standard_error(
    sample: Sample, fit: LocalFit, v: int, side: str | None = None
) -> VarianceEstimate:
    """Gamma-hat standard error for the order-v derivative estimate."""
    return _estimate("gamma_hat", fit, gamma_hat(sample, fit), v, side)


def difference_se(sample: Sample, fit: LocalFit) -> float:
    """Standard error of the density jump f(c+) - f(c-) from a joint cutoff fit.

    Uses the difference quadratic form with selector e_{1,+} - e_{1,-}.
    """
    if fit.basis is BasisKind.STANDARD:
        raise ValueError("difference_se requires a cutoff basis")
    e = selector(fit.p, fit.basis, 1, "right") - selector(fit.p, fit.basis, 1, "left")
    q = quadratic_form(fit, gamma_hat(sample, fit), e)
    return _se_from_form(q, fit.n, fit.h, v=1)


def jackknife_gamma(sample: Sample, fit: LocalFit) -> np.ndarray:
    """Gamma-hat^JK from leave-one-out averages of the symmetrized kernel.

    O(n m) via suffix sums of the weighted basis rows over the window.
    """
    n, win = fit.n, fit.window
    G = fit.Rw  # g_j = r_j K_h(x_j - x), in-window rows
    pred = fit.R @ fit.beta_scaled

    # suffix sums over the sorted window: sum_{j: x_j >= t} g_j
    suffix = np.zeros((len(fit.xw) + 1, G.shape[1]))
    suffix[:-1] = np.cumsum(G[::-1], axis=0)[::-1]

    pos = np.searchsorted(fit.xw, sample.values, side="left")
    abar = suffix[pos] - G.T @ pred  # sum_{j in win} g_j (1[x_i <= x_j] - pred_j)

    # window members: remove the j=i term and add the fixed-i side term
    abar[win] -= G * (1.0 - pred)[:, None]
    abar[win] += G * (n * sample.F[win] - 1.0 - (n - 1) * pred)[:, None]
    abar /= n - 1

    ubar = abar.mean(axis=0)
    return (abar.T @ abar) / n - np.outer(ubar, ubar)


def jackknife_se(
    sample: Sample, fit: LocalFit, v: int, side: str | None = None
) -> VarianceEstimate:
    """Jackknife-based standard error; same assembly as the Gamma-hat route, with Gamma-hat^JK."""
    return _estimate("jackknife", fit, jackknife_gamma(sample, fit), v, side)


def plugin_se(
    sample: Sample, x: float, h: float, p: int, v: int, kernel: str = "triangular"
) -> VarianceEstimate:
    """Plug-in standard error: quadrature S, Gamma plus the estimated density.

    se = sqrt(V / (n h^{2v-1})) with V = (v!)^2 f S^-1 Gamma S^-1. Requires
    knowledge of the support (through the evaluation region) and a positive
    density estimate; raises :class:`NegativeDensity` otherwise.
    """
    if p < 1 or v < 1:
        raise ValueError("plug-in route requires p >= 1 and v >= 1")
    fit = fit_local(sample, x, h, p, kernel)
    f_hat = derivative_estimate(fit, 1)
    if f_hat <= 0:
        raise NegativeDensity(f"estimated density {f_hat} <= 0 at x={x}")
    mom = moments(kernel, fit.region, p)
    z = np.linalg.solve(mom.S, selector(p, BasisKind.STANDARD, v))
    V_hat = factorial(v) ** 2 * f_hat * float(z @ mom.Gamma @ z)
    se = float(np.sqrt(V_hat / (sample.n * h ** (2 * v - 1))))
    return VarianceEstimate(
        method="plugin",
        V_hat=V_hat,
        se=se,
        v=v,
    )
