"""Variance estimators: triple-sum identity, jackknife oracle."""

import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import gamma_triple_sum, jackknife_pairwise

from lpdens.kernels import BasisKind, selector
from lpdens.lpfit import fit_local
from lpdens.sample import edf_values, load_sample
from lpdens.variance import (
    dense_gamma_hat,
    difference_se,
    gamma_hat,
    jackknife_gamma,
    jackknife_se,
    standard_error,
)


@pytest.fixture(scope="module")
def small_sample():
    rng = np.random.default_rng(3)
    return load_sample(rng.normal(size=80))


@pytest.fixture(scope="module")
def oracle_samples(small_sample):
    rng = np.random.default_rng(3)
    return {"raw": small_sample, "tied": load_sample(np.round(4 * rng.normal(size=80)) / 4)}


def _oracle_fit(samples, data, x, h, p, basis=BasisKind.STANDARD):
    """Raw data: the given window, triangular kernel. Tied data: the window
    [-1, 1] with mass points at both edges and at 0, uniform kernel, so the
    tied edge points carry weight."""
    s = samples[data]
    if data == "raw":
        return s, fit_local(s, x, h, p, basis=basis)
    fit = fit_local(s, 0.0, 1.0, p, "uniform", basis)
    assert fit.xw[0] == fit.xw[1] == -1.0 and fit.xw[-2] == fit.xw[-1] == 1.0
    return s, fit


@pytest.mark.parametrize("data", ["raw", "tied"])
def test_gamma_hat_matches_triple_sum(oracle_samples, data):
    s, fit = _oracle_fit(oracle_samples, data, 0.1, 0.9, 2)
    G = gamma_hat(s, fit)
    oracle = gamma_triple_sum(s, fit)
    assert np.max(np.abs(G - oracle)) / np.max(np.abs(oracle)) < 1e-12


@pytest.mark.parametrize("basis", [BasisKind.UNRESTRICTED, BasisKind.RESTRICTED])
@pytest.mark.parametrize("data", ["raw", "tied"])
def test_gamma_hat_triple_sum_cutoff_basis(oracle_samples, data, basis):
    s, fit = _oracle_fit(oracle_samples, data, 0.0, 1.0, 1, basis)
    G = gamma_hat(s, fit)
    oracle = gamma_triple_sum(s, fit)
    assert np.max(np.abs(G - oracle)) / np.max(np.abs(oracle)) < 1e-12


@pytest.mark.parametrize("basis", list(BasisKind))
def test_gamma_hat_reads_the_sample_edf(small_sample, basis):
    # Gamma-hat is built from the sample's EDF over the fit's window, never
    # from the regressand, so a response fit gives the EDF fit's Gamma-hat
    s = small_sample
    fit = fit_local(s, 0.0, 1.0, 2, basis=basis)
    other = fit_local(s, 0.0, 1.0, 2, basis=basis, response=np.cos(s.values))
    assert np.array_equal(gamma_hat(s, other), gamma_hat(s, fit))
    assert np.array_equal(fit.Rw, fit.R * fit.w[:, None])
    assert np.array_equal(s.values[fit.window], fit.xw)


def test_gamma_hat_symmetric_psd_form(small_sample):
    fit = fit_local(small_sample, 0.1, 0.9, 2)
    G = gamma_hat(small_sample, fit)
    assert np.allclose(G, G.T, atol=1e-15)
    # the triple sum is an average of outer products: PSD up to rounding
    assert np.min(np.linalg.eigvalsh(G)) > -1e-12


@pytest.mark.parametrize("basis", list(BasisKind))
@pytest.mark.parametrize("data", ["raw", "tied"])
def test_jackknife_matches_pairwise_oracle(oracle_samples, data, basis):
    s, fit = _oracle_fit(oracle_samples, data, 0.1, 0.9, 2, basis)
    G = jackknife_gamma(s, fit)
    oracle = jackknife_pairwise(s, fit)
    assert np.max(np.abs(G - oracle)) / np.max(np.abs(oracle)) < 1e-12


def _jackknife_rows_long_double(s, fit):
    """Gamma-hat^JK from the n leave-one-out rows, every observation searched
    into the window's suffix sums, all in long double."""
    ld = np.longdouble
    n, win = fit.n, fit.window
    G = fit.Rw.astype(ld)
    pred = fit.R.astype(ld) @ fit.beta_scaled.astype(ld)
    F = np.searchsorted(s.values, fit.xw, side="right").astype(ld) / n
    suffix = np.zeros((len(G) + 1, G.shape[1]), dtype=ld)
    suffix[:-1] = np.cumsum(G[::-1], axis=0)[::-1]
    abar = suffix[np.searchsorted(fit.xw, s.values, side="left")] - G.T @ pred
    abar[win] -= G * (1 - pred)[:, None]
    abar[win] += G * (n * F - 1 - (n - 1) * pred)[:, None]
    abar /= n - 1
    ubar = abar.mean(axis=0)
    return (abar.T @ abar) / n - np.outer(ubar, ubar)


@pytest.fixture(scope="module")
def long_double_samples():
    raw = np.random.default_rng(0).normal(size=2_000)
    return {"raw": load_sample(raw), "tied": load_sample(np.round(raw / 0.05) * 0.05)}


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("basis", list(BasisKind))
@pytest.mark.parametrize("data", ["raw", "tied"])
def test_jackknife_matches_long_double_reference(long_double_samples, data, basis, p):
    # the n leave-one-out rows in long double, against Gamma-hat plus the
    # in-window terms in float64; the tied window holds runs of equal values
    s = long_double_samples[data]
    fit = fit_local(s, 0.0, 0.5, p, basis=basis)
    assert data == "raw" or len(np.unique(fit.xw)) < fit.m_eff
    want = _jackknife_rows_long_double(s, fit)
    err = np.max(np.abs(jackknife_gamma(s, fit) - want))
    assert err <= 1e-13 * np.max(np.abs(want))


@pytest.fixture(scope="module")
def million_sample():
    return load_sample(np.random.default_rng(17).normal(size=1_000_000))


@pytest.mark.parametrize("basis", list(BasisKind))
def test_jackknife_peak_memory_is_o_of_m_d(million_sample, basis):
    # n = 1e6 observations, about 10,000 in the window: Gamma-hat's few m x d
    # arrays and the in-window terms, no array with a row per observation
    s = million_sample
    fit = fit_local(s, 0.0, 0.0125, 2, basis=basis)
    assert 9_000 <= fit.m_eff <= 11_000
    tracemalloc.start()
    try:
        jackknife_gamma(s, fit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * fit.Rw.nbytes


def test_jackknife_se_close_to_gamma_hat_se():
    rng = np.random.default_rng(9)
    s = load_sample(rng.exponential(size=1500), support=(0.0, np.inf))
    fit = fit_local(s, 1.0, 0.4, 2)
    se_g = standard_error(s, fit, 1)
    se_j = jackknife_se(s, fit, 1)
    assert se_j == pytest.approx(se_g, rel=0.1)


def test_standard_error_positive_and_scaling(small_sample):
    fit = fit_local(small_sample, 0.1, 0.9, 2)
    se = standard_error(small_sample, fit, 1)
    assert se > 0
    # se = 1! sqrt(q / (n h^2)), q = z' Gamma-hat z, z = S^-1 e_1
    z = fit.solve_S(selector(fit.p, fit.basis, 1))
    q = float(z @ gamma_hat(small_sample, fit) @ z)
    want = np.sqrt(q / (small_sample.n * fit.h**2))
    assert se == pytest.approx(want)


def test_difference_se_requires_cutoff_basis(small_sample):
    fit = fit_local(small_sample, 0.1, 0.9, 2)
    with pytest.raises(ValueError):
        difference_se(small_sample, fit)


def test_difference_se_runs_on_joint_fit(small_sample):
    fit = fit_local(small_sample, 0.0, 1.2, 1, basis=BasisKind.UNRESTRICTED)
    se = difference_se(small_sample, fit)
    assert type(se) is float and se > 0


@pytest.fixture(scope="module")
def large_samples():
    raw = np.random.default_rng(17).normal(size=10_000)
    return {"raw": load_sample(raw), "heaped": load_sample(np.round(raw / 0.05) * 0.05)}


def _dense_gamma(s, fit):
    """The dense n^-2 A' M A, with M held whole."""
    A = fit.R * fit.w[:, None]
    F = edf_values(s, fit.xw)
    M = np.minimum.outer(F, F)
    M -= np.outer(F, F)
    return (A.T @ M @ A) / fit.n**2


#: the largest window dense_gamma_hat fills as one m x m matrix
_DENSE_POINTS = 1_448

#: h at x = 0.15 whose window on the raw sample holds exactly 1,448 and 1,449 points
_H_1448, _H_1449 = 0.180858, 0.181181

# (basis, h) -> (x, the range of m) of windows that dense_gamma_hat fills, on
# raw and heaped data alike: m of 1,300 to 1,448, and m of about 230, whose
# matrix is filled in one chunk (m^2 <= 2^16)
_DENSE_WINDOWS = {
    (basis, h): (x, m) for basis in BasisKind
    for x, h, m in ((0.15, 0.17, range(1_300, _DENSE_POINTS + 1)),
                    (2.3, 0.36, range(2**8 + 1)))
}

# (basis, h) -> (x, the range of m) of windows above 1,448 points, which
# dense_gamma_hat hands to gamma_hat, on raw and heaped data alike: m of 2,000
# to 3,000, then m of about 1,600, 4,950, 2,700 and 2,750
_LARGE_WINDOWS = {
    (BasisKind.STANDARD, 0.26): (0.1, range(2_000, 3_000)),
    (BasisKind.UNRESTRICTED, 0.3): (0.1, range(2_000, 3_000)),
    (BasisKind.RESTRICTED, 0.38): (0.1, range(2_000, 3_000)),
    **{(basis, h): (x, m) for basis in BasisKind
       for x, h, m in ((0.15, 0.2, range(1_500, 1_700)),
                       (0.15, 0.68, range(4_800, 5_100)),
                       (0.15, 0.35, range(2_650, 2_731)),
                       (0.35, 0.37, range(2_731, 2_800)))},
}


@pytest.mark.parametrize("data", ["raw", "heaped", "heaped-after-larger"])
@pytest.mark.parametrize("basis,h", list(_DENSE_WINDOWS))
def test_dense_gamma_hat_bit_identical_to_dense_outer_form(large_samples, data, basis, h):
    # the chunked fill does the same per-element arithmetic and the same GEMM
    # as the dense expression; compared in-process, since the GEMM bits
    # depend on the BLAS thread count
    name, _, after_larger = data.partition("-")
    s = large_samples[name]
    x, m = _DENSE_WINDOWS[basis, h]
    fit = fit_local(s, x, h, 2, basis=basis)
    assert fit.m_eff in m
    if after_larger:
        # no state carries from one call to the next: the largest filled
        # window first leaves nothing that changes this one
        larger = fit_local(large_samples["raw"], 0.15, _H_1448, 2)
        assert fit.m_eff < larger.m_eff == _DENSE_POINTS
        dense_gamma_hat(large_samples["raw"], larger)
    assert np.array_equal(dense_gamma_hat(s, fit), _dense_gamma(s, fit))


@pytest.mark.parametrize("basis", list(BasisKind))
@pytest.mark.parametrize("h,m,want", [(_H_1448, _DENSE_POINTS, _dense_gamma),
                                      (_H_1449, _DENSE_POINTS + 1, gamma_hat)])
def test_dense_gamma_hat_switches_to_gamma_hat_above_1448_points(large_samples, basis, h, m, want):
    s = large_samples["raw"]
    fit = fit_local(s, 0.15, h, 2, basis=basis)
    assert fit.m_eff == m
    assert np.array_equal(dense_gamma_hat(s, fit), want(s, fit))


@pytest.mark.parametrize("data", ["raw", "heaped", "heaped-after-larger"])
@pytest.mark.parametrize("basis,h", list(_LARGE_WINDOWS))
def test_dense_gamma_hat_above_1448_points_is_gamma_hat(large_samples, data, basis, h):
    name, _, after_larger = data.partition("-")
    s = large_samples[name]
    x, m = _LARGE_WINDOWS[basis, h]
    fit = fit_local(s, x, h, 2, basis=basis)
    assert fit.m_eff in m
    if after_larger:
        # the largest filled window first leaves nothing that changes this one
        larger = fit_local(large_samples["raw"], 0.15, _H_1448, 2)
        assert larger.m_eff == _DENSE_POINTS
        dense_gamma_hat(large_samples["raw"], larger)
    assert np.array_equal(dense_gamma_hat(s, fit), gamma_hat(s, fit))


@pytest.mark.parametrize("data", ["raw", "heaped"])
def test_dense_gamma_hat_is_the_dense_product_at_d_1(large_samples, data):
    # M is held whole, so even numpy's matrix-vector product for a p = 0 fit
    # (d = 1) sums in the dense order
    s = large_samples[data]
    fit = fit_local(s, 0.15, 0.1, 0)
    assert fit.R.shape[1] == 1 and fit.m_eff <= _DENSE_POINTS
    assert np.array_equal(dense_gamma_hat(s, fit), _dense_gamma(s, fit))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("data", ["raw", "heaped"])
def test_gamma_hat_matches_long_double_dense_oracle(data):
    # an accuracy gate that any summation order of Gamma-hat must pass: the
    # dense min(F_j, F_k) - F_j F_k form, evaluated in long double
    raw = np.random.default_rng(0).normal(size=2_000)
    s = load_sample(raw if data == "raw" else np.round(raw / 0.05) * 0.05)
    fit = fit_local(s, 0.0, 0.5, 2, basis=BasisKind.UNRESTRICTED)
    A = fit.Rw.astype(np.longdouble)
    F = s.F[fit.window].astype(np.longdouble)
    want = (A.T @ (np.minimum.outer(F, F) - np.outer(F, F)) @ A) / np.longdouble(fit.n) ** 2
    err = np.max(np.abs(gamma_hat(s, fit) - want))
    assert err <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [_DENSE_POINTS, _DENSE_POINTS + 1, 10_000])
def test_dense_gamma_hat_holds_one_matrix_only_up_to_1448_points(m):
    # the m x m matrix takes about 16.8 MB at 1,448 points; a larger window
    # holds a few m x d arrays, as gamma_hat does (a dense matrix would take
    # 800 MB at 10,000 points)
    s = load_sample(np.random.default_rng(17).normal(size=40_000))
    dist = np.sort(np.abs(s.values))
    fit = fit_local(s, 0.0, (dist[m - 1] + dist[m]) / 2, 2)
    assert fit.m_eff == m
    tracemalloc.start()
    try:
        dense_gamma_hat(s, fit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if m <= _DENSE_POINTS:
        assert 8 * m * m <= peak < 8 * m * m + 4 * fit.Rw.nbytes + 2**20
    else:
        assert peak < 4 * fit.Rw.nbytes


@pytest.mark.parametrize("basis", list(BasisKind))
def test_gamma_hat_peak_memory_is_o_of_m_d(basis):
    # the suffix-sum form holds a few m x d arrays, about 270 KB each at d = 3
    s = load_sample(np.random.default_rng(17).normal(size=40_000))
    fit = fit_local(s, 0.0, 0.35, 2, basis=basis)
    assert fit.m_eff >= 10_000
    tracemalloc.start()
    try:
        gamma_hat(s, fit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * fit.Rw.nbytes


@pytest.mark.parametrize("data", ["raw", "heaped"])
@pytest.mark.parametrize("basis,h", list(_DENSE_WINDOWS | _LARGE_WINDOWS))
def test_gamma_hat_matches_the_dense_pilot_form(large_samples, data, basis, h):
    # the suffix sums and the dense product (the jump bandwidth pilots' on
    # windows of at most 1,448 points) sum the same terms in different orders
    s = large_samples[data]
    fit = fit_local(s, (_DENSE_WINDOWS | _LARGE_WINDOWS)[basis, h][0], h, 2, basis=basis)
    dense = _dense_gamma(s, fit)
    assert np.max(np.abs(gamma_hat(s, fit) - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("bufsize", [None, 4096])
def test_dense_gamma_hat_restores_the_ufunc_buffer(large_samples, bufsize):
    # the fill runs with a 16-element ufunc buffer; the caller gets back the
    # size it had, numpy's default or its own
    s = large_samples["raw"]
    fit = fit_local(s, 0.15, 0.17, 2)  # 1,379 points, filled
    with np.errstate():
        if bufsize is not None:
            np.setbufsize(bufsize)
        want = np.getbufsize()
        dense_gamma_hat(s, fit)
        assert np.getbufsize() == want


def test_dense_gamma_hat_restores_the_ufunc_buffer_on_error(large_samples, monkeypatch):
    # a fill that fails midway, as when a chunk cannot be allocated
    s = large_samples["raw"]
    fit = fit_local(s, 0.15, 0.17, 2)
    want = np.getbufsize()

    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "minimum", fail)
    with pytest.raises(MemoryError):
        dense_gamma_hat(s, fit)
    assert np.getbufsize() == want


def test_dense_gamma_hat_is_thread_safe(large_samples):
    fits = {name: fit_local(s, 0.15, 0.17, 2) for name, s in large_samples.items()}
    assert fits["raw"].m_eff != fits["heaped"].m_eff
    assert max(fit.m_eff for fit in fits.values()) <= _DENSE_POINTS
    serial = {name: dense_gamma_hat(large_samples[name], fit) for name, fit in fits.items()}
    start = threading.Barrier(2)
    # numpy's ufunc buffer size is per thread: each worker sets its own, and
    # finds it unchanged after a call that ran alongside the other's
    bufsizes = {"raw": 4096, "heaped": 2 * 8192}

    def call(name):
        with np.errstate():
            np.setbufsize(bufsizes[name])
            start.wait()
            return dense_gamma_hat(large_samples[name], fits[name]), np.getbufsize()

    for _ in range(3):
        with ThreadPoolExecutor(max_workers=2) as pool:
            (raw, raw_bufsize), (heaped, heaped_bufsize) = pool.map(call, ["raw", "heaped"])
        assert raw_bufsize == bufsizes["raw"] and heaped_bufsize == bufsizes["heaped"]
        assert np.array_equal(raw, serial["raw"])
        assert np.array_equal(heaped, serial["heaped"])
        assert not np.shares_memory(raw, heaped)
