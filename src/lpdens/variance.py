"""Standard errors and the bandwidth pilots' variance constant for the local fit.

Two routes: the automatic Gamma-hat estimator (default, boundary
adaptive, no support knowledge needed) and the jackknife (Gamma-hat plus
terms from the fit's window); both take O(m d^2) for m in-window points.
The pilots' variance constant takes Gamma-hat too, bar the jump bandwidth's dense O(m^2)
form on windows of at most 1,448 points.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveVariance
from .kernels import BasisKind, factorial, selector
from .lpfit import LocalFit
from .sample import Sample

#: largest window whose m x m matrix is filled (m^2 < 2^21, about 16.8 MB); larger ones take gamma_hat
_DENSE_POINTS = 1_448
#: elements per chunk of rows when filling M
_FILL_ELEMENTS = 2**16
#: numpy's ufunc buffer while filling, its least legal size: only rows under 6 go through it
_FILL_BUFSIZE = 16


def _suffix_sums(X: np.ndarray) -> np.ndarray:
    """Row j is sum_{k >= j} X_k over a sorted window; one extra zero row at the end."""
    suffix = np.zeros((len(X) + 1, X.shape[1]))
    suffix[:-1] = np.cumsum(X[::-1], axis=0)[::-1]
    return suffix


def gamma_hat(sample: Sample, fit: LocalFit) -> np.ndarray:
    """Automatic variance matrix Gamma-hat, in O(m d^2) time and O(m d) memory.

    Defined as a triple sum over observations; the exact factorization over
    the inner index reduces it to a double sum over the m in-window points:

        Gamma = n^-2 sum_{j,k} a_j a_k' M_jk,  a_j = w_j r_j,
        M_jk = EDF(min(x_j, x_k)) - EDF(x_j) EDF(x_k).

    On the sorted window M_jk = F_j (1 - F_k) for j <= k (tied points share
    F, so ties need no special case), and with s_j = sum_{k>j} (1 - F_k) a_k

        Gamma = n^-2 [sum_j F_j (1 - F_j) a_j a_j' + P + P'],  P = sum_j F_j a_j s_j'.
    """
    A = fit.Rw
    F = sample.F[fit.window]
    s = _suffix_sums((1.0 - F)[:, None] * A)[1:]
    P = (F[:, None] * A).T @ s
    return ((A * (F * (1.0 - F))[:, None]).T @ A + P + P.T) / fit.n**2


def dense_gamma_hat(sample: Sample, fit: LocalFit) -> np.ndarray:
    """Gamma-hat as the dense n^-2 A' M A, for the jump bandwidth's side pilots only.

    ``maniptest`` passes this O(m^2) form to :func:`variance_constant` so
    that every jump bandwidth keeps the bits of the dense product: they reach
    h and then the nearly cancelled density jump of ``cutoff_test``. It goes
    when the benchmark's reference outputs are next re-recorded, and those
    pilots then take :func:`gamma_hat`. A window of more than 1,448 points
    takes :func:`gamma_hat` already, so M is never larger than about 16.8 MB.

    M is filled in chunks of about 2^16 elements, with numpy's ufunc buffer
    at 16 elements, in an ``np.errstate`` scope that restores the caller's
    size on every exit (per thread). At the default 8192, numpy 2.4 sends rows
    shorter than 2,731 elements (a third of the buffer) through its buffered
    loop, which first copies the broadcast operands and doubles the fill's
    time. Min, multiply and subtract are exact.
    """
    if fit.m_eff > _DENSE_POINTS:
        return gamma_hat(sample, fit)
    A = fit.Rw
    F = sample.F[fit.window]
    # xw sorted, EDF monotone, so EDF(min(x_j,x_k)) = min(F_j, F_k)
    m = len(F)
    M = np.empty((m, m))
    rows = max(1, _FILL_ELEMENTS // m)
    with np.errstate():
        np.setbufsize(_FILL_BUFSIZE)
        for a in range(0, m, rows):
            Fb = F[a:a + rows, None]
            np.minimum(Fb, F, out=M[a:a + rows])
            M[a:a + rows] -= Fb * F
    return (A.T @ M @ A) / fit.n**2


def variance_constant(fit: LocalFit, G: np.ndarray, v: int) -> float:
    """V-hat with variance(h) ~= V-hat / (n h^{2v-1}), from the fit's Gamma-hat G at ell = ``fit.h``."""
    z = fit.solve_S(selector(fit.p, fit.basis, v))
    q = float(z @ G @ z)
    return factorial(v) ** 2 * max(q, 0.0) / fit.h


def _se(fit: LocalFit, G: np.ndarray, e: np.ndarray, v: int) -> float:
    """se = v! sqrt(q / (n h^{2v})), q = e' S^-1 G S^-1 e; no interior/boundary branch.

    A q no larger than its rounding bound m eps |z|'|G||z| (z = S^-1 e, m the
    window's points) is noise whatever its sign, as on a rank-deficient fit,
    and raises :class:`NonPositiveVariance`.
    """
    z = fit.solve_S(e)
    q = float(z @ G @ z)
    bound = fit.m_eff * np.finfo(float).eps * float(np.abs(z) @ np.abs(G) @ np.abs(z))
    if not q > bound:
        raise NonPositiveVariance(
            f"variance quadratic form {q:.3e} is within its rounding bound {bound:.3e}")
    return float(factorial(v) * np.sqrt(q / (fit.n * fit.h ** (2 * v))))


def standard_error(sample: Sample, fit: LocalFit, v: int, side: str | None = None) -> float:
    """Gamma-hat standard error for the order-v derivative estimate."""
    return _se(fit, gamma_hat(sample, fit), selector(fit.p, fit.basis, v, side), v)


def difference_se(sample: Sample, fit: LocalFit) -> float:
    """Standard error of the density jump f(c+) - f(c-) from a joint cutoff fit.

    Uses the difference quadratic form with selector e_{1,+} - e_{1,-}.
    """
    if fit.basis is BasisKind.STANDARD:
        raise ValueError("difference_se requires a cutoff basis")
    e = selector(fit.p, fit.basis, 1, "right") - selector(fit.p, fit.basis, 1, "left")
    return _se(fit, gamma_hat(sample, fit), e, 1)


def jackknife_gamma(sample: Sample, fit: LocalFit) -> np.ndarray:
    """Gamma-hat^JK, the covariance of the leave-one-out averages, in O(m d^2).

    Observation i's average is (c_i + e_i - b) / (n - 1), with g_j the rows of Rw,
    pred = R beta, b = sum_j g_j pred_j, c_i = sum_j g_j 1[x_i <= x_j] and, in the
    window only, e_i = g_i (n F_i - 2 - (n - 2) pred_i). Over all n observations
    Cov(c) = n^2 Gamma-hat, so with c-bar = sum_j F_j g_j and e-bar = sum_i e_i / n

        Gamma^JK = [n^2 Gamma-hat + C + C' + sum_i e_i e_i' / n - e-bar e-bar'] / (n - 1)^2,
        C = sum_i (c_i - c-bar) e_i' / n.
    """
    n, G, F = fit.n, fit.Rw, sample.F[fit.window]
    c = _suffix_sums(G)[np.searchsorted(fit.xw, fit.xw, side="left")]  # at each first tie
    e = G * (n * F - 2.0 - (n - 2) * (fit.R @ fit.beta_scaled))[:, None]
    e_bar = e.sum(axis=0) / n
    C = ((c - F @ G).T @ e) / n
    return (n**2 * gamma_hat(sample, fit) + C + C.T
            + (e.T @ e) / n - np.outer(e_bar, e_bar)) / (n - 1) ** 2


def jackknife_se(sample: Sample, fit: LocalFit, v: int, side: str | None = None) -> float:
    """Jackknife-based standard error; same assembly as the Gamma-hat route, with Gamma-hat^JK."""
    return _se(fit, jackknife_gamma(sample, fit), selector(fit.p, fit.basis, v, side), v)

