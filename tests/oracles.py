"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is written directly from the defining formulas, with no
shortcuts shared with the package internals: triple sums stay triple sums,
double integrals stay dense grids or exact rational antiderivatives.
"""

from fractions import Fraction

import numpy as np

from lpdens.kernels import BasisKind, basis_matrix, kernel_value
from lpdens.sample import edf_values


def gamma_triple_sum(sample, fit):
    """O(n^3)-definition Gamma-hat, evaluated literally.

    n^-3 sum_{i,j,k} w_j w_k r_j r_k' (1[x_i<=x_j] - F_j)(1[x_i<=x_k] - F_k).
    """
    vals = sample.values
    n = sample.n
    xw, w, R = fit.xw, fit.w, fit.R
    F = edf_values(sample, xw)
    d = R.shape[1]
    G = np.zeros((d, d))
    for i in range(n):
        vec = np.zeros(d)
        for j in range(len(xw)):
            vec += w[j] * R[j] * ((vals[i] <= xw[j]) - F[j])
        G += np.outer(vec, vec)
    return G / n**3


def jackknife_pairwise(sample, fit):
    """O(n^2) literal leave-one-out construction of Gamma-hat^JK."""
    vals = sample.values
    n = sample.n
    d = fit.R.shape[1]
    lo = int(np.searchsorted(vals, fit.x - fit.h, side="left"))
    g = np.zeros((n, d))
    pred = np.zeros(n)
    g[lo:lo + len(fit.xw)] = fit.R * fit.w[:, None]
    pred[lo:lo + len(fit.xw)] = fit.R @ fit.beta_scaled
    abar = np.zeros((n, d))
    for i in range(n):
        acc = np.zeros(d)
        for j in range(n):
            if j == i:
                continue
            acc += g[j] * ((vals[i] <= vals[j]) - pred[j])
            acc += g[i] * ((vals[j] <= vals[i]) - pred[i])
        abar[i] = acc / (n - 1)
    ubar = abar.mean(axis=0)
    return abar.T @ abar / n - np.outer(ubar, ubar)


def wls_beta(sample, fit, y=None):
    """Dense weighted least squares via lstsq on sqrt-weighted rows; y defaults to the EDF."""
    y = edf_values(sample, fit.xw) if y is None else y
    sw = np.sqrt(fit.w)
    beta_scaled, *_ = np.linalg.lstsq(fit.R * sw[:, None], y * sw, rcond=None)
    return beta_scaled


def gamma_bruteforce_triangles(family, p, n_grid=400, a=-1.0, b=1.0):
    """Dense midpoint-rule Gamma over the two kink-free triangles of [a,b]^2.

    The lower triangle {v <= u} is mapped to the unit square so min(u,v)=v
    is smooth; its transpose supplies the upper triangle.
    """
    s = (np.arange(n_grid) + 0.5) / n_grid
    u = a + (b - a) * s
    U = np.repeat(u, n_grid)
    T = np.tile(s, n_grid)
    V = a + (U - a) * T
    jac = (b - a) / n_grid * (U - a) / n_grid
    wgt = jac * V * kernel_value(family, U) * kernel_value(family, V)
    Ru = basis_matrix(U, p, BasisKind.STANDARD)
    Rv = basis_matrix(V, p, BasisKind.STANDARD)
    L = (Ru * wgt[:, None]).T @ Rv
    return L + L.T


def monomial_moment_uniform(m, a=-1.0, b=1.0):
    """int_a^b u^m K(u) du for the uniform kernel, closed form."""
    return (b ** (m + 1) - a ** (m + 1)) / (2.0 * (m + 1))


#: each kernel as coefficient lists in u (lowest power first) on [-1, 0] and on [0, 1]
_KERNEL_PIECES = {
    "triangular": ((1, 1), (1, -1)),
    "epanechnikov": ((Fraction(3, 4), 0, Fraction(-3, 4)),) * 2,
    "uniform": ((Fraction(1, 2),),) * 2,
}


def _poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _antiderivative(f):
    """The antiderivative of f that vanishes at 0."""
    return [Fraction(0)] + [Fraction(x) / (k + 1) for k, x in enumerate(f)]


def _poly_eval(f, x):
    return sum(coef * x**k for k, coef in enumerate(f))


def _poly_integral(f, lo, hi):
    big_f = _antiderivative(f)
    return _poly_eval(big_f, hi) - _poly_eval(big_f, lo)


def exact_kernel_moments(family, a, b, p):
    """S, c, c_tilde, Gamma and Tmat over [a, b] in exact rational arithmetic, as floats.

    a and b are taken at their exact binary values. Each kernel piece is a
    polynomial with Fraction coefficients, integrated through its
    antiderivative, so no quadrature is involved. Gamma = L + L' over the two
    triangles of its definition, L = int_a^b r(u) K(u) int_a^u v r(v)' K(v) dv du.
    """
    a, b = Fraction(a), Fraction(b)
    segs = [(max(a, lo), min(b, hi), piece)
            for (lo, hi), piece in zip(((-1, 0), (0, 1)), _KERNEL_PIECES[family])
            if max(a, lo) < min(b, hi)]

    def mono(k):
        return [0] * k + [1]

    def total(k, square=False):
        return sum(_poly_integral(_poly_mul(mono(k), _poly_mul(K, K) if square else K), lo, hi)
                   for lo, hi, K in segs)

    d = p + 1
    S = [[total(i + j) for j in range(d)] for i in range(d)]
    c = [total(p + 1 + j) for j in range(d)]
    c_tilde = [total(p + 2 + j) for j in range(d)]
    Tmat = [[total(i + j, square=True) for j in range(d)] for i in range(d)]
    L = [[Fraction(0)] * d for _ in range(d)]
    for j in range(d):
        below = Fraction(0)  # int of v^(j+1) K over the segments left of u's
        for lo, hi, K in segs:
            # inner(u) = below + int_lo^u v^(j+1) K(v) dv on this segment
            inner = _antiderivative(_poly_mul(mono(j + 1), K))
            inner[0] += below - _poly_eval(inner, lo)
            for i in range(d):
                L[i][j] += _poly_integral(_poly_mul(_poly_mul(mono(i), K), inner), lo, hi)
            below = _poly_eval(inner, hi)
    Gamma = [[L[i][j] + L[j][i] for j in range(d)] for i in range(d)]
    return {name: np.array(value, dtype=float) for name, value in
            (("S", S), ("c", c), ("c_tilde", c_tilde), ("Gamma", Gamma), ("Tmat", Tmat))}
