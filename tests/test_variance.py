"""Variance estimators: triple-sum identity, jackknife oracle, plug-in."""

import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import gamma_triple_sum, jackknife_pairwise

from lpdens.kernels import BasisKind
from lpdens.lpfit import fit_local
from lpdens.sample import edf_values, load_sample
from lpdens.variance import (
    difference_se,
    gamma_hat,
    jackknife_gamma,
    jackknife_se,
    plugin_se,
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


@pytest.mark.parametrize("data", ["raw", "tied"])
def test_jackknife_matches_pairwise_oracle(oracle_samples, data):
    s, fit = _oracle_fit(oracle_samples, data, 0.1, 0.9, 2)
    G = jackknife_gamma(s, fit)
    oracle = jackknife_pairwise(s, fit)
    assert np.max(np.abs(G - oracle)) / np.max(np.abs(oracle)) < 1e-12


def test_jackknife_se_close_to_gamma_hat_se():
    rng = np.random.default_rng(9)
    s = load_sample(rng.exponential(size=1500), support=(0.0, np.inf))
    fit = fit_local(s, 1.0, 0.4, 2)
    se_g = standard_error(s, fit, 1).se
    se_j = jackknife_se(s, fit, 1).se
    assert se_j == pytest.approx(se_g, rel=0.1)


def test_standard_error_positive_and_scaling(small_sample):
    fit = fit_local(small_sample, 0.1, 0.9, 2)
    est = standard_error(small_sample, fit, 1)
    assert est.se > 0
    assert est.method == "gamma_hat"
    # se = 1! sqrt(q / (n h^2))
    want = np.sqrt(est.V_hat / (small_sample.n * fit.h**2))
    assert est.se == pytest.approx(want)


def test_difference_se_requires_cutoff_basis(small_sample):
    fit = fit_local(small_sample, 0.1, 0.9, 2)
    with pytest.raises(ValueError):
        difference_se(small_sample, fit)


def test_difference_se_runs_on_joint_fit(small_sample):
    fit = fit_local(small_sample, 0.0, 1.2, 1, basis=BasisKind.UNRESTRICTED)
    se = difference_se(small_sample, fit)
    assert isinstance(se, float) and se > 0


def test_plugin_se_matches_derived_value():
    # f_hat = 1, uniform kernel, interior, p = v = 1:
    # V = e1' S^-1 Gamma S^-1 e1 = 9 * (1/15) = 3/5
    vals = np.linspace(0.001, 0.999, 2001)  # near-perfect uniform sample
    s = load_sample(vals, support=(0.0, 1.0))
    est = plugin_se(s, 0.5, 0.3, 1, 1, kernel="uniform")
    assert est.V_hat == pytest.approx(0.6, rel=5e-3)
    assert est.se == pytest.approx(np.sqrt(est.V_hat / (s.n * 0.3)), rel=1e-12)


def test_plugin_se_order_guard(small_sample):
    with pytest.raises(ValueError):
        plugin_se(small_sample, 0.0, 0.5, 2, 0)


@pytest.fixture(scope="module")
def large_samples():
    raw = np.random.default_rng(17).normal(size=10_000)
    return {"raw": load_sample(raw), "heaped": load_sample(np.round(raw / 0.05) * 0.05)}


@pytest.mark.parametrize("data", ["raw", "heaped", "heaped-after-larger"])
@pytest.mark.parametrize("basis,h", [
    (BasisKind.STANDARD, 0.26),
    (BasisKind.UNRESTRICTED, 0.3),
    (BasisKind.RESTRICTED, 0.38),
])
def test_gamma_hat_bit_identical_to_dense_outer_form(large_samples, data, basis, h):
    # the row-block fill does the same per-element arithmetic as the dense
    # expression; compared in-process, since the GEMM bits depend on the
    # BLAS thread count
    name, _, after_larger = data.partition("-")
    s = large_samples[name]
    fit = fit_local(s, 0.1, h, 2, basis=basis)
    assert 2_000 <= fit.m_eff <= 3_000
    if after_larger:
        # the workspace is then larger than m x m, and M is a prefix view of it
        larger = fit_local(s, 0.1, 0.5, 2)
        assert larger.m_eff > fit.m_eff
        gamma_hat(s, larger)
    A = fit.R * fit.w[:, None]
    F = edf_values(s, fit.xw)
    want = (A.T @ (np.minimum.outer(F, F) - np.outer(F, F)) @ A) / fit.n**2
    assert np.array_equal(gamma_hat(s, fit), want)


def test_gamma_hat_peak_memory_is_one_matrix(large_samples):
    # a fresh thread starts with an empty workspace, which grows twice: to a
    # window almost as large, then to this one, freeing the old buffer first
    s = large_samples["raw"]
    near = fit_local(s, 0.1, 0.38, 2)
    fit = fit_local(s, 0.1, 0.4, 2)
    m = fit.m_eff
    assert m >= 3_000 and 0.9 * m < near.m_eff < m

    def grow():
        gamma_hat(s, near)
        gamma_hat(s, fit)

    tracemalloc.start()
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(grow).result()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * m**2


def test_gamma_hat_reuses_its_workspace(large_samples):
    s = large_samples["raw"]
    large = fit_local(s, 0.1, 0.4, 2)
    small = fit_local(s, 0.1, 0.26, 2)
    first = gamma_hat(s, large)
    for fit in (large, small):
        tracemalloc.start()
        try:
            G = gamma_hat(s, fit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * fit.m_eff**2
        assert not np.shares_memory(G, first)
    assert np.array_equal(gamma_hat(s, large), first)


def test_gamma_hat_threads_keep_separate_workspaces(large_samples):
    fits = {name: fit_local(s, 0.1, 0.3, 2) for name, s in large_samples.items()}
    assert fits["raw"].m_eff != fits["heaped"].m_eff
    serial = {name: gamma_hat(large_samples[name], fit) for name, fit in fits.items()}
    start = threading.Barrier(2)

    def call(name):
        start.wait()
        return gamma_hat(large_samples[name], fits[name])

    for _ in range(3):
        with ThreadPoolExecutor(max_workers=2) as pool:
            raw, heaped = pool.map(call, ["raw", "heaped"])
        assert np.array_equal(raw, serial["raw"])
        assert np.array_equal(heaped, serial["heaped"])
        assert not np.shares_memory(raw, heaped)
