"""Standard errors and the bandwidth pilots' variance constant for the local fit.

Three routes: the automatic Gamma-hat estimator (default, boundary
adaptive, no support knowledge needed), the jackknife (Gamma-hat plus
terms from the fit's window; both take O(m d^2) for m in-window points),
and a plug-in variant from quadrature moment matrices and the estimated density.
The pilots' variance constant takes Gamma-hat too, bar the jump bandwidth's dense O(m^2) form.
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeDensity, NonPositiveVariance
from .kernels import BasisKind, factorial, moments, selector
from .lpfit import LocalFit, derivative_estimate
from .sample import Sample

#: least elements per row block of the pilot's dense EDF covariance matrix in one GEMM
_GEMM_ELEMENTS = 2**20
#: elements per chunk when filling a row block
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
    pilots then take :func:`gamma_hat`.

    M is never held whole: it is cut into ``max(1, m^2 // 2^20)`` row blocks
    of equal height (edges ``m i // blocks``), each filled in chunks of about
    2^16 elements and multiplied straight into ``A' M`` (M is symmetric, so
    rows lo:hi are columns lo:hi). Memory is one block, at most about 16 MB,
    plus O(m d); nothing is kept between calls.

    The fill runs with numpy's ufunc buffer at 16 elements. At the default
    8192, numpy 2.4 sends rows shorter than 2,731 elements (a third of the
    buffer) through its buffered loop, which first copies the broadcast
    operands; that doubles the fill's time. The caller's size is restored on
    every exit, and the setting is per thread. Min, multiply and subtract are
    exact, so the bits cannot change.

    The bits are those of the dense ``A.T @ M @ A``. One block is M itself.
    Across blocks each column of ``A' M`` sums the same m terms in the same
    order, provided every block's GEMM takes the dense product's BLAS kernel;
    a short block (below about 1e6 multiply-adds) would not, hence equal heights.
    """
    A = fit.Rw
    F = sample.F[fit.window]
    # xw sorted, EDF monotone, so EDF(min(x_j,x_k)) = min(F_j, F_k)
    m = len(F)
    blocks = max(1, m * m // _GEMM_ELEMENTS)
    buf = np.empty((-(-m // blocks), m))
    rows = max(1, _FILL_ELEMENTS // m)
    AM = np.empty((A.shape[1], m))
    for i in range(blocks):
        lo, hi = m * i // blocks, m * (i + 1) // blocks
        Fi, Mb = F[lo:hi], buf[:hi - lo]
        old = np.setbufsize(_FILL_BUFSIZE)
        try:
            for a in range(0, hi - lo, rows):
                Fb = Fi[a:a + rows, None]
                np.minimum(Fb, F, out=Mb[a:a + rows])
                Mb[a:a + rows] -= Fb * F
        finally:
            np.setbufsize(old)
        # one block is M itself, in the dense product's memory order
        AM[:, lo:hi] = A.T @ (Mb if blocks == 1 else Mb.T)
    return (AM @ A) / fit.n**2


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


def plugin_se(sample: Sample, fit: LocalFit, v: int) -> float:
    """Plug-in standard error of a standard-basis fit: quadrature S and Gamma, estimated f.

    se = sqrt(V / (n h^{2v-1})) with V = (v!)^2 f S^-1 Gamma S^-1. Requires
    knowledge of the support (through the evaluation region) and a positive
    density estimate; raises :class:`NegativeDensity` otherwise.
    """
    if fit.basis is not BasisKind.STANDARD or fit.p < 1 or v < 1:
        raise ValueError("plug-in route requires a standard-basis fit, p >= 1 and v >= 1")
    f_hat = derivative_estimate(fit, 1)
    if f_hat <= 0:
        raise NegativeDensity(f"estimated density {f_hat} <= 0 at x={fit.x}")
    mom = moments(fit.kernel, fit.region, fit.p)
    z = np.linalg.solve(mom.S, selector(fit.p, BasisKind.STANDARD, v))
    V_hat = factorial(v) ** 2 * f_hat * float(z @ mom.Gamma @ z)
    return float(np.sqrt(V_hat / (sample.n * fit.h ** (2 * v - 1))))
