"""Local polynomial regression of EDF values: the core fit.

The fit regresses pooled EDF values on the (bandwidth-scaled) polynomial
basis with kernel weights, solving the small dense normal equations
directly. Coefficients are returned on the unscaled basis r_p(x_i - x),
so the order-v derivative estimate is v! times the v-th coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InsufficientData, OrderOutOfRange, SingularDesign
from .kernels import (
    BasisKind,
    EvalRegion,
    basis_dim,
    basis_matrix,
    basis_powers,
    classify_region,
    factorial,
    kernel_value,
    selector_index,
)
from .sample import Sample


@dataclass(frozen=True)
class LocalFit:
    """One weighted local polynomial fit and the pieces reused downstream.

    ``sample.F[window]`` is the EDF at ``xw``; ``Rw`` is ``R * w[:, None]``.
    """

    x: float
    h: float
    p: int
    basis: BasisKind
    kernel: str
    beta: np.ndarray  # coefficients on the unscaled basis r_p(x_i - x)
    beta_scaled: np.ndarray  # coefficients on r_p((x_i - x)/h)
    S_hat: np.ndarray  # (1/n) X_h' K_h X_h, scaled design
    S_chol: tuple  # cached Cholesky factor of S_hat
    region: EvalRegion
    n: int
    m_eff: int
    m_eff_minus: int
    m_eff_plus: int
    # in-window arrays (sorted ascending), reused by the variance estimators
    window: slice  # sample.values[window] is xw
    xw: np.ndarray
    u: np.ndarray  # (xw - x)/h
    w: np.ndarray  # K_h(xw - x)
    R: np.ndarray  # scaled basis rows r_p(u)
    Rw: np.ndarray  # R * w[:, None]

    def solve_S(self, rhs: np.ndarray) -> np.ndarray:
        """S_hat^{-1} rhs via the cached factorization."""
        return scipy.linalg.cho_solve(self.S_chol, rhs)


def fit_local(
    sample: Sample,
    x: float,
    h: float,
    p: int,
    kernel: str = "triangular",
    basis: BasisKind = BasisKind.STANDARD,
    response: np.ndarray | None = None,
) -> LocalFit:
    """Fit the kernel-weighted local polynomial to the EDF ``sample.F`` around x.

    ``response``, when given, must align with the sorted sample values and
    replaces the EDF as the regressand (used by the polynomial-reproduction
    checks).

    Only observations with ``|x_i - x| <= h`` enter. Raises
    :class:`InsufficientData` when the window holds fewer points than the
    basis dimension (fewer than ``p + 1`` per side for cutoff bases), and
    :class:`SingularDesign` when the normal equations cannot be factorized.
    """
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    region = classify_region(x, h, sample.support_lower, sample.support_upper)

    lo = int(np.searchsorted(sample.values, x - h, side="left"))
    hi = int(np.searchsorted(sample.values, x + h, side="right"))
    window = slice(lo, hi)
    xw = sample.values[window]
    m_eff = hi - lo
    m_minus = int(np.searchsorted(xw, x, side="left"))
    m_plus = m_eff - m_minus

    d = basis_dim(p, basis)
    if basis is BasisKind.STANDARD:
        if m_eff < d:
            raise InsufficientData(f"{m_eff} in-window points, need {d}")
    else:
        if m_minus < p + 1 or m_plus < p + 1:
            raise InsufficientData(
                f"cutoff basis needs {p + 1} points per side, "
                f"got {m_minus} left / {m_plus} right"
            )

    u = (xw - x) / h
    w = kernel_value(kernel, u) / h
    R = basis_matrix(u, p, basis)
    Y = sample.F[window] if response is None else np.asarray(response, dtype=float)[window]

    n = sample.n
    Rw = R * w[:, None]
    S_hat = (Rw.T @ R) / n
    rhs = (Rw.T @ Y) / n
    try:
        chol = scipy.linalg.cho_factor(S_hat)
        beta_scaled = scipy.linalg.cho_solve(chol, rhs)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularDesign(f"normal equations not SPD at x={x}, h={h}") from exc

    beta = beta_scaled / h ** basis_powers(p, basis)
    return LocalFit(
        x=x,
        h=h,
        p=p,
        basis=basis,
        kernel=kernel,
        beta=beta,
        beta_scaled=beta_scaled,
        S_hat=S_hat,
        S_chol=chol,
        region=region,
        n=n,
        m_eff=m_eff,
        m_eff_minus=m_minus,
        m_eff_plus=m_plus,
        window=window,
        xw=xw,
        u=u,
        w=w,
        R=R,
        Rw=Rw,
    )


def derivative_estimate(fit: LocalFit, v: int, side: str | None = None) -> float:
    """v-th derivative estimate v! e_v' beta; v=1 is the density."""
    if not 0 <= v <= fit.p:
        raise OrderOutOfRange(f"v={v} not in [0, {fit.p}]")
    idx = selector_index(fit.p, fit.basis, v, side)
    return factorial(v) * float(fit.beta[idx])
