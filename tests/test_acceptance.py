"""Acceptance criteria.

One test per criterion; ``pytest -v tests/test_acceptance.py`` prints exactly
one pass/fail line per criterion. Tolerances are stated inline at each
assertion. Criterion 8 carries a strict xfail companion pinning a published
example value that contradicts first-order optimality (see the assertion
comments); the criterion itself asserts the self-consistent value.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import (
    gamma_bruteforce_triangles,
    gamma_triple_sum,
    monomial_moment_uniform,
)

from lpdens.bandwidth import closed_form_h
from lpdens.cli import main
from lpdens.kernels import BasisKind, EvalRegion, moments
from lpdens.lpfit import derivative_estimate, fit_local
from lpdens.maniptest import rbc_test
from lpdens.sample import load_sample, split_at_cutoff
from lpdens.simulation import get_dgp, rep_rng, sample_dgp, true_mse_bandwidth
from lpdens.variance import gamma_hat, jackknife_se, standard_error

INTERIOR = EvalRegion(a=-1.0, b=1.0, kind="interior", c=0.0)
Z_CRIT = 1.959964

def _pmap(fn, reps, workers=8):
    with ThreadPoolExecutor(workers) as ex:
        return list(ex.map(fn, range(reps)))


# --------------------------------------------------------------------------
# Criterion 1: quadrature oracle. Uniform-kernel S, c, c_tilde equal the
# closed-form monomial moments (b^{m+1} - a^{m+1})/(2(m+1)) to 1e-9 on
# interior and truncated regions; interior Gamma for the triangular kernel
# (p <= 2) matches a 400x400 brute-force midpoint oracle to 1e-6. The oracle
# integrates the two triangles split at the diagonal kink of u ^ v; a plain
# square-grid midpoint rule carries an intrinsic kink bias above 1e-6 for
# every kernel and cannot serve as the reference at this tolerance.
# --------------------------------------------------------------------------
def test_criterion_01_quadrature_oracle():
    regions = [
        INTERIOR,
        EvalRegion(a=-0.4, b=1.0, kind="lower_boundary", c=0.4),
        EvalRegion(a=-1.0, b=0.7, kind="upper_boundary", c=0.3),
    ]
    for reg in regions:
        mom = moments("uniform", reg, 3)
        for j in range(4):
            for k in range(4):
                exact = monomial_moment_uniform(j + k, reg.a, reg.b)
                assert abs(mom.S[j, k] - exact) < 1e-9
            assert abs(mom.c[j] - monomial_moment_uniform(j + 4, reg.a, reg.b)) < 1e-9
            assert abs(mom.c_tilde[j] - monomial_moment_uniform(j + 5, reg.a, reg.b)) < 1e-9

    brute = gamma_bruteforce_triangles("triangular", 2, n_grid=400)
    g2 = moments("triangular", INTERIOR, 2).Gamma
    g1 = moments("triangular", INTERIOR, 1).Gamma
    assert np.max(np.abs(g2 - brute)) < 1e-6
    # the p=1 basis is a prefix of the p=2 basis, so reuse the same oracle
    assert np.max(np.abs(g1 - brute[:2, :2])) < 1e-6


# --------------------------------------------------------------------------
# Criterion 2: the factored Gamma-hat equals the literal triple-sum oracle to
# 1e-12 relative for n in {10, 50, 200}, all three kernels, interior and
# boundary x, standard and both cutoff bases.
# --------------------------------------------------------------------------
def test_criterion_02_v_statistic_identity():
    rng = np.random.default_rng(12)
    bases = (BasisKind.STANDARD, BasisKind.UNRESTRICTED, BasisKind.RESTRICTED)
    for n in (10, 50, 200):
        # stratified draw keeps both sides of each x populated at n=10
        s = load_sample((np.arange(n) + rng.random(n)) / n, support=(0.0, 1.0))
        for kernel in ("triangular", "epanechnikov", "uniform"):
            # x=0.5 is interior at h=0.45; x=0.3 has a lower-truncated window
            for x in (0.5, 0.3):
                for basis in bases:
                    fit = fit_local(s, x, 0.45, 2, kernel, basis)
                    fast = gamma_hat(s, fit)
                    slow = gamma_triple_sum(s, fit)
                    scale = np.max(np.abs(slow))
                    assert np.max(np.abs(fast - slow)) <= 1e-12 * scale


# --------------------------------------------------------------------------
# Criterion 3: polynomial reproduction. Fits on synthetic degree-<=p response
# values recover all coefficients to 1e-8 across 100 randomized
# configurations (kernel, h, region, p <= 3).
# --------------------------------------------------------------------------
def test_criterion_03_polynomial_reproduction():
    rng = np.random.default_rng(33)
    kernels = ("triangular", "epanechnikov", "uniform")
    for _ in range(100):
        n = int(rng.integers(100, 400))
        p = int(rng.integers(1, 4))
        h = float(rng.uniform(0.15, 0.4))
        x = float(rng.uniform(0.0, 1.0))
        kernel = kernels[int(rng.integers(3))]
        s = load_sample(rng.random(n), support=(0.0, 1.0))
        coef = rng.normal(size=p + 1)
        resp = np.polynomial.polynomial.polyval(s.values - x, coef)
        fit = fit_local(s, x, h, p, kernel, response=resp)
        for v in range(p + 1):
            est = derivative_estimate(fit, v)
            assert est == pytest.approx(
                math.factorial(v) * coef[v], rel=1e-8, abs=1e-8
            )


# --------------------------------------------------------------------------
# Criterion 4: joint/separate scaling identities at the cutoff hold to 1e-10
# relative for v in {0, 1, 2} on 50 randomized samples: separate-side fits
# equal (n/n_side)-rescaled joint split-basis blocks, with the affine
# correction -n_minus/n_plus for the right side at v=0.
# --------------------------------------------------------------------------
def test_criterion_04_joint_separate_identities():
    rng = np.random.default_rng(44)
    p = 2
    for _ in range(50):
        n = int(rng.integers(300, 900))
        if rng.random() < 0.5:
            vals = rng.normal(loc=rng.uniform(-0.5, 0.5), size=n)
            s = load_sample(vals, support=(-np.inf, np.inf))
            cutoff = float(np.quantile(vals, rng.uniform(0.35, 0.65)))
            h = float(rng.uniform(0.5, 1.0))
        else:
            vals = rng.exponential(size=n)
            s = load_sample(vals, support=(0.0, np.inf))
            cutoff = float(np.quantile(vals, rng.uniform(0.35, 0.65)))
            # keep the left-side window inside (0, cutoff)
            h = float(rng.uniform(0.5, 0.9)) * cutoff
        left, right, n_minus, n_plus = split_at_cutoff(s, cutoff)
        joint = fit_local(s, cutoff, h, p, basis=BasisKind.UNRESTRICTED)
        fit_l = fit_local(left, cutoff, h, p)
        fit_r = fit_local(right, cutoff, h, p)
        for v in (0, 1, 2):
            jl = derivative_estimate(joint, v, "left")
            jr = derivative_estimate(joint, v, "right")
            assert derivative_estimate(fit_l, v) == pytest.approx(
                (n / n_minus) * jl, rel=1e-10, abs=1e-12
            )
            expect_r = (n / n_plus) * jr - (n_minus / n_plus if v == 0 else 0.0)
            assert derivative_estimate(fit_r, v) == pytest.approx(
                expect_r, rel=1e-10, abs=1e-12
            )


# --------------------------------------------------------------------------
# Criterion 5: zero-smoothing-bias design. Uniform[0,1] DGP, p=2, v=1,
# n=2000, 1000 reps, fixed h=0.2: |empirical bias of f-hat| < 0.02 at
# x in {0, 0.5, 1}, including both boundary points.
# --------------------------------------------------------------------------
def test_criterion_05_zero_smoothing_bias():
    dgp = get_dgp("uniform01")
    xs = (0.0, 0.5, 1.0)

    def one(rep):
        vals = sample_dgp(dgp, 2000, rep_rng(505, rep))
        s = load_sample(vals, support=dgp.support)
        return [
            derivative_estimate(fit_local(s, x, 0.2, 2), 1) for x in xs
        ]

    est = np.array(_pmap(one, 1000))
    bias = est.mean(axis=0) - 1.0
    assert np.max(np.abs(bias)) < 0.02


# --------------------------------------------------------------------------
# Criteria 6 and 7 share four Monte Carlo cells: exponential at x in {0, 1}
# and truncated normal at x in {-0.8, 0.5}; p=2, v=1, triangular kernel,
# n=2000, h = true MSE-optimal bandwidth, 2000 reps per cell.
# --------------------------------------------------------------------------
CELLS = (
    ("exponential", 0.0),
    ("exponential", 1.0),
    ("truncated_normal", -0.8),
    ("truncated_normal", 0.5),
)


@pytest.fixture(scope="module")
def calibration_cells():
    out = {}
    for seed, (name, x) in enumerate(CELLS, start=601):
        dgp = get_dgp(name)
        h = true_mse_bandwidth(dgp, x, 2000, 2, 1)

        def one(rep, dgp=dgp, x=x, h=h, seed=seed):
            s = load_sample(sample_dgp(dgp, 2000, rep_rng(seed, rep)), support=dgp.support)
            fit = fit_local(s, x, h, 2)
            return (
                derivative_estimate(fit, 1),
                standard_error(s, fit, 1).se,
                jackknife_se(s, fit, 1).se,
            )

        arr = np.array(_pmap(one, 2000))
        out[(name, x)] = {"f": arr[:, 0], "se": arr[:, 1], "jk": arr[:, 2]}
    return out


@pytest.mark.slow
def test_criterion_06_normality_size_band(calibration_cells):
    # centered-t rejection rate at nominal 5% must lie in [0.03, 0.08]
    for cell, d in calibration_cells.items():
        t = np.abs(d["f"] - d["f"].mean()) / d["se"]
        size = float(np.mean(t >= Z_CRIT))
        assert 0.03 <= size <= 0.08, f"{cell}: size {size:.4f}"


@pytest.mark.slow
def test_criterion_07_standard_error_calibration(calibration_cells):
    # mean(se)/sd(f-hat) in [0.9, 1.1]; jackknife within 15% of gamma-hat
    for cell, d in calibration_cells.items():
        ratio = d["se"].mean() / d["f"].std(ddof=0)
        assert 0.9 <= ratio <= 1.1, f"{cell}: se/sd {ratio:.4f}"
        jk_ratio = d["jk"].mean() / d["se"].mean()
        assert abs(jk_ratio - 1.0) <= 0.15, f"{cell}: jk/gamma {jk_ratio:.4f}"


# --------------------------------------------------------------------------
# Criterion 8: bandwidth closed form. With frozen constants V=0.6, B=0.2,
# n=1000, p=2, v=1 the MSE is h^4 B^2 + V/(n h); its unique stationary point
# is ((2v-1)V / (n(2p+2-2v)B^2))^{1/(2p+1)} = (0.6/160)^{1/5} = 0.32716...,
# asserted to 1e-4 together with numerical first-order optimality. The
# companion strict-xfail test pins the circulated example value 0.3759,
# which solves the same expression with denominator factor 2 instead of
# 2p+2-2v = 4 and fails the optimality check; it is kept red on purpose.
# --------------------------------------------------------------------------
def test_criterion_08_bandwidth_closed_form():
    V, B, n, p, v = 0.6, 0.2, 1000, 2, 1
    h = closed_form_h(V, B, n, p, v)
    target = (V / (n * 4 * B**2)) ** 0.2
    assert abs(h - target) < 1e-4

    def mse(hh):
        return hh**4 * B**2 + V / (n * hh)

    assert mse(h) <= mse(1.01 * h) and mse(h) <= mse(0.99 * h)
    grad = (mse(h * 1.000001) - mse(h * 0.999999)) / (2e-6 * h)
    assert abs(grad) < 1e-6 * mse(h) / h


@pytest.mark.xfail(
    strict=True,
    reason="the circulated example value 0.3759 uses denominator 2 instead of "
    "2p+2-2v = 4 and is not the MSE stationary point; the consistent "
    "value is 0.3272",
)
def test_criterion_08_literal_example_value():
    assert abs(closed_form_h(0.6, 0.2, 1000, 2, 1) - 0.3759) < 1e-4


# --------------------------------------------------------------------------
# Criterion 9: manipulation-test size and power with the robust
# bias-corrected statistic T_{p+1}(h-hat_p), p=2, n=2000, 2000 reps each.
# H0: Exponential(1), cutoff at the median -> rejection rate in [0.03, 0.08].
# H1: density jumping 0.75 -> 0.25 at the cutoff -> rejection rate > 0.8.
# --------------------------------------------------------------------------
@pytest.mark.slow
def test_criterion_09_manipulation_size_and_power():
    ln2 = float(np.log(2.0))

    def rep_h0(r):
        x = rep_rng(901, r).exponential(size=2000)
        s = load_sample(x, support=(0.0, np.inf))
        return abs(rbc_test(s, ln2, p=2).T) >= Z_CRIT

    def rep_h1(r):
        u = rep_rng(902, r).random(2000)
        x = np.where(u < 0.75, u / 0.75, 1.0 + (u - 0.75) / 0.25)
        s = load_sample(x, support=(0.0, 2.0))
        return abs(rbc_test(s, 1.0, p=2).T) >= Z_CRIT

    size = float(np.mean(_pmap(rep_h0, 2000)))
    assert 0.03 <= size <= 0.08, f"H0 size {size:.4f}"
    power = float(np.mean(_pmap(rep_h1, 2000)))
    assert power > 0.8, f"H1 power {power:.4f}"


# --------------------------------------------------------------------------
# Criterion 10: determinism. A simulate run repeated with the same seed is
# byte-identical for every --threads value.
# --------------------------------------------------------------------------
@pytest.mark.slow
def test_criterion_10_simulate_determinism(tmp_path, capsys):
    design = tmp_path / "design.json"
    design.write_text(json.dumps({
        "dgp": "exponential", "eval_points": [0.5, 1.0], "n": 400,
        "reps": 24, "seed": 11,
    }))
    outputs = []
    for threads in ("1", "4", "4"):
        code = main(["simulate", "--design", str(design), "--format", "csv",
                     "--threads", threads])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
