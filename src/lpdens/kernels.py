"""Kernel families, polynomial bases, and the population moment matrices.

The moment matrices (``S``, ``c``, ``c_tilde``, ``Gamma``, ``Tmat``) are the
bias/variance constants of the local fit in the standard basis over the
(possibly truncated) kernel window. The kernels are piecewise polynomial with
their only kink at u = 0, so one 20-node Gauss-Legendre rule per segment split
at 0 computes them exactly: the largest integrands, u^(2p+2) K^2 and Gamma's
G G' with G(t) = int_t^b r K, have degree 2p+6, and the rule is exact up to
degree 39, i.e. for p <= 16.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateRegion

KERNEL_FAMILIES = ("triangular", "epanechnikov", "uniform")

#: Gauss-Legendre nodes per segment: exact up to degree 39, and the moment
#: integrands have degree <= 2p+6 (Gamma's G G'), so exact for p <= 16.
_GL_NODES = 20
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)
_REGION_TOL = 1e-12
_DEGENERATE_TOL = 1e-8


def kernel_value(family: str, u) -> np.ndarray:
    """Evaluate the kernel; zero outside [-1, 1]."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) <= 1.0
    if family == "triangular":
        return np.where(inside, 1.0 - np.abs(u), 0.0)
    if family == "epanechnikov":
        return np.where(inside, 0.75 * (1.0 - u * u), 0.0)
    if family == "uniform":
        return np.where(inside, 0.5, 0.0)
    raise ValueError(f"unknown kernel family {family!r}")


class BasisKind(enum.Enum):
    """Shape of the local polynomial expansion r_p(u)."""

    STANDARD = "standard"  # [1, u, ..., u^p], dim p+1
    UNRESTRICTED = "unrestricted"  # split monomials at u=0, dim 2p+2
    RESTRICTED = "restricted"  # [1, u*1{u<0}, u*1{u>=0}, u^2..u^p], dim p+2


def _columns(p: int, basis: BasisKind) -> tuple:
    """(power, side) of each basis column; side None is shared by both sides."""
    shared = [(j, None) for j in range(p + 1)]
    if basis is BasisKind.STANDARD:
        return tuple(shared)
    if basis is BasisKind.UNRESTRICTED:
        return tuple((j, side) for side in ("left", "right") for j in range(p + 1))
    if p < 1:
        raise ValueError(f"restricted basis needs p >= 1, got {p}")
    return ((0, None), (1, "left"), (1, "right"), *shared[2:])


def basis_dim(p: int, basis: BasisKind) -> int:
    return len(_columns(p, basis))


def basis_powers(p: int, basis: BasisKind) -> np.ndarray:
    """Monomial power of each basis column (drives the bandwidth rescaling)."""
    return np.array([power for power, _ in _columns(p, basis)])


def basis_matrix(u, p: int, basis: BasisKind) -> np.ndarray:
    """Rows r_p(u_i) for each input point; u = 0 belongs to the right side.

    The powers are bit for bit ``u[:, None] ** np.arange(p + 1)``, which the
    recorded benchmark outputs hold, with ``pow`` called only where its
    result is not known exactly: powers 0 and 1 are 1.0 and u, and powers
    2..p are computed once per run of tied u (a sorted window of heaped data
    repeats rows) and repeated back. numpy's ``pow`` takes a scalar path on a
    negative base, 30-40x slower than on a positive one. Two traps keep
    these bits: numpy squares a stride-0 exponent of 2 (a scalar or a
    one-column broadcast) as u*u, which rounds differently from ``pow``, so
    each exponent is a full array; and runs are found on the bit pattern,
    since -0.0 == 0.0 but pow(-0.0, 3) is -0.0. A product basis (running
    products, as ``np.vander``) would replace ``pow`` but rounds differently,
    so it waits for the benchmark reference to be re-recorded.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    bits = u.view(np.int64)
    first = np.ones(len(u), dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    tied = not first.all()
    ud = u[first] if tied else u
    mono = np.empty((len(ud), p + 1))
    mono[:, 0] = 1.0
    mono[:, 1:2] = ud[:, None]
    for k in range(2, p + 1):
        mono[:, k] = np.power(ud, np.full_like(ud, k))
    if tied:
        mono = np.repeat(mono, np.diff(np.flatnonzero(np.append(first, True))), axis=0)
    if basis is BasisKind.STANDARD:
        return mono
    neg = u < 0
    mask = {None: True, "left": neg, "right": ~neg}
    return np.column_stack([mono[:, j] * mask[side] for j, side in _columns(p, basis)])


def selector_index(p: int, basis: BasisKind, v: int, side: str | None = None) -> int:
    """Column index extracting the order-v coefficient (per side at a cutoff)."""
    for i, (power, col_side) in enumerate(_columns(p, basis)):
        if power == v and col_side in (None, side):
            return i
    raise ValueError(f"order-{p} {basis.value} basis has no order-{v} column for side={side!r}")


def selector(p: int, basis: BasisKind, v: int, side: str | None = None) -> np.ndarray:
    """Unit vector e_v picking the order-v coefficient (per side at a cutoff)."""
    e = np.zeros(basis_dim(p, basis))
    e[selector_index(p, basis, v, side)] = 1.0
    return e


@dataclass(frozen=True)
class EvalRegion:
    """Scaled integration window [a, b] = [max(-1,(lo-x)/h), min(1,(hi-x)/h)]."""

    a: float
    b: float
    kind: str  # "interior" | "lower_boundary" | "upper_boundary"

    @property
    def is_interior(self) -> bool:
        return self.kind == "interior"


def classify_region(x: float, h: float, support_lower: float, support_upper: float) -> EvalRegion:
    """Classify the evaluation point relative to the support at bandwidth h."""
    a = max(-1.0, (support_lower - x) / h)
    b = min(1.0, (support_upper - x) / h)
    lower_trunc = a > -1.0 + _REGION_TOL
    upper_trunc = b < 1.0 - _REGION_TOL
    if b - a < _DEGENERATE_TOL:
        raise DegenerateRegion(f"kernel window [{a}, {b}] is degenerate")
    if lower_trunc and upper_trunc:
        raise DegenerateRegion(
            "window truncated at both support endpoints; reduce the bandwidth"
        )
    if lower_trunc:
        return EvalRegion(a=a, b=1.0, kind="lower_boundary")
    if upper_trunc:
        return EvalRegion(a=-1.0, b=b, kind="upper_boundary")
    return EvalRegion(a=-1.0, b=1.0, kind="interior")


@dataclass(frozen=True)
class KernelMoments:
    """Moment matrices of the kernel over one integration region."""

    S: np.ndarray
    c: np.ndarray
    c_tilde: np.ndarray
    Gamma: np.ndarray
    Tmat: np.ndarray

    def __post_init__(self):
        # memoized: every later call shares these arrays (lpdens starts no threads)
        for a in (self.S, self.c, self.c_tilde, self.Gamma, self.Tmat):
            a.flags.writeable = False


def _gauss_legendre(a, b: float):
    """Gauss-Legendre nodes and weights on [a, b]; an array ``a`` adds a leading axis."""
    a = np.asarray(a)[..., None]
    half = (b - a) / 2.0
    return a + half * (1.0 + _GL_X), half * _GL_W


@lru_cache(maxsize=512)
def moments(family: str, region: EvalRegion, p: int) -> KernelMoments:
    """Standard-basis moment matrices for a kernel family over ``region`` at order ``p``.

    With mu_k = int_a^b u^k K and nu_k = int_a^b u^k K^2: S = [mu_{i+j}] and Tmat = [nu_{i+j}]
    are Hankel, c = mu_{p+1..2p+1} and c_tilde = mu_{p+2..2p+2}. As min(u, v) = a +
    int_a^b 1{t<u} 1{t<v} dt on [a, b], Gamma = int int min(u, v) r(u) r(v)' K(u) K(v)
    = a m0 m0' + int_a^b G G' dt, with G(t) = int_t^b r K and m0 = G(a) = mu_{0..p}.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    a, b = region.a, region.b
    if b - a < _DEGENERATE_TOL:
        raise DegenerateRegion(f"region [{a}, {b}] is degenerate")
    if a < -1.0 or b > 1.0:
        raise ValueError(f"region [{a}, {b}] leaves the kernel's support [-1, 1]")
    r = np.arange(p + 1)
    mu, nu, Gamma = np.zeros(2 * p + 3), np.zeros(2 * p + 3), np.zeros((p + 1, p + 1))
    # split at 0, the triangular kernel's kink (GL nodes never sample it), and walk down:
    # G(t) is an inner rule on [t, sb] plus mu[r], so far int r K over the segments above
    for sa, sb in [(0.0, b), (a, 0.0)] if a < 0.0 < b else [(a, b)]:
        xs, ws = _gauss_legendre(sa, sb)
        ts, wt = _gauss_legendre(xs, sb)
        V = np.vander(ts.ravel(), p + 1, increasing=True).reshape(*ts.shape, p + 1)
        G = mu[r] + np.einsum("ik,ikj->ij", wt * kernel_value(family, ts), V)
        Gamma += (G * ws[:, None]).T @ G
        K = kernel_value(family, xs)
        U = np.vander(xs, 2 * p + 3, increasing=True)
        mu += (ws * K) @ U
        nu += (ws * K * K) @ U
    Gamma += a * np.outer(mu[r], mu[r])
    return KernelMoments(S=mu[r[:, None] + r], c=mu[p + 1:2 * p + 2], c_tilde=mu[p + 2:],
                         Gamma=Gamma, Tmat=nu[r[:, None] + r])


def factorial(v: int) -> float:
    return float(math.factorial(v))
