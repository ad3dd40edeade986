"""Monte Carlo harness: DGPs, seeding, true bandwidths, summaries."""

import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import lpdens
from lpdens import simulation
from lpdens.errors import NoFixedPoint, ZeroBias
from lpdens.cli import render
from lpdens.simulation import (
    CSV_COLUMNS,
    SimDesign,
    get_dgp,
    load_design,
    rep_rng,
    run_design,
    sample_dgp,
    true_mse_bandwidth,
)


class RateTwoExponential(simulation.DGP):
    """Exponential(2), defined at module level so that its instances pickle by class."""

    name = "exponential_rate2"
    support = (0.0, np.inf)

    def icdf(self, u):
        return -np.log1p(-u) / 2.0

    def cdf(self, x):
        return 1.0 - np.exp(-2.0 * x)

    def cdf_deriv(self, x, k):
        return (-2.0) ** (k - 1) * 2.0 * np.exp(-2.0 * x)


class RateTwoUnderBuiltinName(RateTwoExponential):
    name = "exponential"


# replication stubs live at module level: the pool pickles them by name
def _constant_rep(design, hs, rep):
    return [(1.0, 0.1)]


def _failing_rep(design, hs, rep):
    raise ValueError(f"rep {rep}")


def test_get_dgp_names():
    for name in ("truncated_normal", "exponential", "uniform01"):
        assert get_dgp(name).name == name
    with pytest.raises(ValueError):
        get_dgp("cauchy")


@pytest.mark.parametrize("name", ["truncated_normal", "exponential", "uniform01"])
def test_icdf_inverts_cdf(name):
    dgp = get_dgp(name)
    u = np.linspace(0.01, 0.99, 50)
    x = dgp.icdf(u)
    assert np.allclose(dgp.cdf(x), u, atol=1e-10)


@pytest.mark.parametrize("name", ["truncated_normal", "exponential"])
def test_cdf_derivatives_match_finite_differences(name):
    dgp = get_dgp(name)
    xs = np.array([0.2, 0.9, 1.7]) if name == "exponential" else np.array([-0.5, 0.3, 1.1])
    eps = 1e-5
    for k in range(2, 6):
        for x in xs:
            fd = (dgp.cdf_deriv(x + eps, k - 1) - dgp.cdf_deriv(x - eps, k - 1)) / (2 * eps)
            assert dgp.cdf_deriv(x, k) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_truncated_normal_derivatives_are_hermite_closed_forms():
    # F^(k) = (-1)^(k-1) He_{k-1}(x) phi(x) / z, He the probabilists' Hermite polynomials
    dgp = get_dgp("truncated_normal")
    z = 1.0 - norm.cdf(-0.8)
    closed = (lambda x: 1.0, lambda x: x, lambda x: x**2 - 1.0,
              lambda x: x**3 - 3.0 * x, lambda x: x**4 - 6.0 * x**2 + 3.0)
    for k, He in enumerate(closed, start=1):
        for x in (-0.5, 0.3, 1.1, 2.5):
            got = (-1.0) ** (k - 1) * dgp.cdf_deriv(x, k) * z / norm.pdf(x)
            assert got == pytest.approx(He(x), rel=1e-14, abs=0.0)


def test_truncated_normal_density_normalizes():
    dgp = get_dgp("truncated_normal")
    z = 1.0 - norm.cdf(-0.8)
    assert dgp.pdf(-0.8) == pytest.approx(norm.pdf(-0.8) / z)
    x = np.linspace(-0.8, 10, 200001)
    assert np.trapezoid(dgp.pdf(x), x) == pytest.approx(1.0, abs=1e-6)


def test_rep_rng_streams_are_reproducible_and_distinct():
    a1 = rep_rng(7, 0).random(5)
    a2 = rep_rng(7, 0).random(5)
    b = rep_rng(7, 1).random(5)
    c = rep_rng(8, 0).random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_sample_dgp_matches_population_moments():
    dgp = get_dgp("exponential")
    x = sample_dgp(dgp, 200000, rep_rng(1, 0))
    assert x.min() >= 0
    assert x.mean() == pytest.approx(1.0, abs=0.02)


def test_true_mse_bandwidth_interior_matches_direct_formula():
    # exponential, p=2, v=1 at x=2 is interior for the resulting h:
    # first-order bias term with p-v odd -> case (a) closed form
    from lpdens.bandwidth import closed_form_h
    from lpdens.kernels import classify_region, moments

    dgp = get_dgp("exponential")
    n, p, v = 2000, 2, 1
    h = true_mse_bandwidth(dgp, 2.0, n, p, v)
    region = classify_region(2.0, h, 0.0, np.inf)
    assert region.is_interior
    mom = moments("triangular", region, p)
    e = np.zeros(p + 1)
    e[v] = 1.0
    z = np.linalg.solve(mom.S, e)
    V = dgp.pdf(2.0) * float(z @ mom.Gamma @ z)
    B = dgp.cdf_deriv(2.0, p + 1) / 6.0 * float(z @ mom.c)
    assert h == pytest.approx(closed_form_h(V, B, n, p, v), rel=1e-9)


def test_true_mse_bandwidth_second_order_matches_direct_formula():
    # exponential, p=3, v=1 at x=2 is interior with p-v even: the first-order
    # bias vanishes, case (b) uses the second-order bias constant
    from lpdens.bandwidth import closed_form_h
    from lpdens.kernels import classify_region, moments

    dgp = get_dgp("exponential")
    n, p, v = 2000, 3, 1
    h = true_mse_bandwidth(dgp, 2.0, n, p, v)
    region = classify_region(2.0, h, 0.0, np.inf)
    assert region.is_interior
    mom = moments("triangular", region, p)
    e = np.zeros(p + 1)
    e[v] = 1.0
    z = np.linalg.solve(mom.S, e)
    f = dgp.pdf(2.0)
    V = f * float(z @ mom.Gamma @ z)
    B = (dgp.cdf_deriv(2.0, 5) / 120.0
         + dgp.cdf_deriv(2.0, 4) / 24.0 * dgp.cdf_deriv(2.0, 2) / f) * float(z @ mom.c_tilde)
    assert h == pytest.approx(closed_form_h(V, B, n, p, v, 2), rel=1e-9)


def _assert_boundary_fixed_point(x, n, name="exponential", p=2):
    # h must reproduce itself through the closed form over its own region
    from lpdens.bandwidth import closed_form_h
    from lpdens.kernels import classify_region, moments

    dgp = get_dgp(name)
    v = 1
    h = true_mse_bandwidth(dgp, x, n, p, v)
    region = classify_region(x, h, *dgp.support)
    assert not region.is_interior
    mom = moments("triangular", region, p)
    e = np.zeros(p + 1)
    e[v] = 1.0
    z = np.linalg.solve(mom.S, e)
    V = dgp.pdf(x) * float(z @ mom.Gamma @ z)
    B = dgp.cdf_deriv(x, p + 1) / math.factorial(p + 1) * float(z @ mom.c)
    assert h == pytest.approx(closed_form_h(V, B, n, p, v), rel=1e-9)
    return h


def test_true_mse_bandwidth_boundary_fixed_point():
    # x=0 is always a boundary point
    h = _assert_boundary_fixed_point(0.0, 2000)
    assert 0.1 < h < 2.0


def test_true_mse_bandwidth_boundary_fixed_point_oscillating():
    # at (0.5, 400) the plain iteration oscillates (g crosses h with slope
    # about -2) and used to return its 100th iterate, 1.724
    _assert_boundary_fixed_point(0.5, 400)


def test_true_mse_bandwidth_boundary_fixed_point_two_cycle():
    # g falls through h near 1.657 with a log slope of about -3.3, so the
    # damped steps enter a 2-cycle; the bisection on the bracket settles
    h = _assert_boundary_fixed_point(0.45, 400, "truncated_normal", p=1)
    assert h == pytest.approx(1.65656, rel=1e-5)


def test_true_mse_bandwidth_without_fixed_point_raises(monkeypatch):
    # g(h) = 2h has no fixed point and never closes a bracket; the closed
    # form is not passed h, so the stub reads it from the region classifier
    seen = []
    classify = simulation.classify_region
    monkeypatch.setattr(simulation, "classify_region",
                        lambda x, h, lo, hi: seen.append(h) or classify(x, h, lo, hi))
    monkeypatch.setattr(simulation, "closed_form_h", lambda *args: 2 * seen[-1])
    with pytest.raises(NoFixedPoint):
        true_mse_bandwidth(get_dgp("truncated_normal"), 0.45, 400, p=1, v=1)


def test_true_mse_bandwidth_uniform_zero_bias():
    with pytest.raises(ZeroBias):
        true_mse_bandwidth(get_dgp("uniform01"), 0.5, 2000, p=2, v=1)


@pytest.mark.parametrize("v", [0, 3, -1])
def test_true_mse_bandwidth_needs_order_in_one_to_p(v):
    # the closed form V / (n h^{2v-1}) has no optimum for v = 0
    with pytest.raises(ValueError):
        true_mse_bandwidth(get_dgp("exponential"), 0.5, 400, p=2, v=v)


def test_run_design_cdf_target_needs_estimated_bandwidth():
    dgp = get_dgp("exponential")
    for rule in ("mse_true", 1.5):
        design = SimDesign(dgp=dgp, eval_points=(0.5,), n=400, reps=4, v=0, bandwidth_rule=rule)
        with pytest.raises(ValueError):
            run_design(design)
    design = SimDesign(dgp=dgp, eval_points=(0.5,), n=400, reps=4, v=0,
                       bandwidth_rule="mse_estimated")
    (row,) = run_design(design)
    assert row["valid"] is True and np.isfinite(row["bias"])


def test_run_design_summary_contract():
    design = SimDesign(
        dgp=get_dgp("exponential"), eval_points=(0.5, 1.0), n=400, reps=30, seed=2
    )
    rows = run_design(design)
    assert len(rows) == 2
    for row in rows:
        assert row["valid"] is True
        assert row["rmse"] == pytest.approx(np.hypot(row["bias"], row["sd"]))
        assert 0.0 <= row["size"] <= 1.0
        assert row["se_mean"] > 0


def test_run_design_thread_invariance():
    # reps=3 with 5 workers: the pool is capped at one worker per rep
    for reps, counts in ((16, (1, 4)), (3, (1, 2, 5))):
        design = SimDesign(
            dgp=get_dgp("truncated_normal"), eval_points=(0.5,), n=300, reps=reps, seed=9
        )
        csvs = {render(run_design(design, threads=t), CSV_COLUMNS, "csv") for t in counts}
        assert len(csvs) == 1


@pytest.mark.parametrize("threads, reps, cpus, expect", [
    (5000, 5000, 4, 4), (5, 3, 8, 3), (2, 10, 8, 2), (3, 10, None, 1),
])
def test_run_design_caps_workers(monkeypatch, threads, reps, cpus, expect):
    # the fork pool starts every worker up front: at most one per rep and per CPU
    seen = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(simulation, "_run_one_rep", _constant_rep)
    design = SimDesign(dgp=get_dgp("exponential"), eval_points=(1.0,), n=300, reps=reps, seed=3)
    (row,) = run_design(design, threads=threads)
    assert seen == [expect]
    assert row["valid"] is True


def test_run_design_leaves_no_worker_behind(monkeypatch):
    design = SimDesign(dgp=get_dgp("exponential"), eval_points=(1.0,), n=300, reps=6, seed=3)
    run_design(design, threads=2)
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(simulation, "_run_one_rep", _failing_rep)
    with pytest.raises(ValueError, match="rep 0"):
        run_design(design, threads=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name", ["truncated_normal", "exponential", "uniform01"])
def test_dgp_pickles_by_class(name):
    dgp = get_dgp(name)
    back = pickle.loads(pickle.dumps(dgp))
    assert back.name == name and back.support == dgp.support
    u = np.linspace(0.01, 0.99, 25)
    x = dgp.icdf(u)
    assert np.array_equal(back.icdf(u), x)
    assert np.array_equal(back.cdf(x), dgp.cdf(x))


@pytest.mark.parametrize("dgp_class", [RateTwoExponential, RateTwoUnderBuiltinName])
def test_run_design_workers_draw_from_the_design_dgp(dgp_class):
    # the workers must sample the design's own DGP, whatever its name: a
    # built-in looked up by name would draw Exponential(1) against the
    # rate-2 truth f(0.5) = 2 exp(-1)
    dgp = dgp_class()
    design = SimDesign(dgp=dgp, eval_points=(0.5,), n=500, reps=8, bandwidth_rule=0.3, seed=1)
    rows = [run_design(design, threads=t) for t in (1, 2)]
    assert rows[0] == rows[1]
    assert abs(rows[0][0]["bias"]) < 0.1 * dgp.pdf(0.5)


def test_import_leaves_multiprocessing_unloaded():
    # run_design imports the process pool when it runs; at import time
    # multiprocessing would add to every cold start
    src = str(Path(lpdens.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, lpdens; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "False"


def test_design_validation():
    with pytest.raises(ValueError):
        SimDesign(dgp=get_dgp("exponential"), eval_points=(1.0,), n=400, reps=0)
    with pytest.raises(ValueError):
        SimDesign(dgp=get_dgp("exponential"), eval_points=(1.0,), n=5, reps=10)


@pytest.mark.parametrize("field, value", [
    ("kernel", "gaussian"),
    ("v", 3),
    ("v", -1),
    ("n", 500.5),
    ("n", 2**63),
    ("reps", True),
    ("seed", -1),
    ("seed", 2**64),
    ("eval_points", 1.0),
    ("eval_points", (10**400,)),
    ("eval_points", ()),
    ("eval_points", (float("nan"), 1.0)),
    ("eval_points", (float("inf"),)),
    ("eval_points", (-0.05,)),
    ("bandwidth_rule", "mse"),
    ("bandwidth_rule", -1.0),
    ("bandwidth_rule", 0.0),
    ("bandwidth_rule", float("nan")),
    ("bandwidth_rule", float("inf")),
    ("bandwidth_rule", True),
], ids=["kernel", "v-above-p", "v-negative", "n-not-integer", "n-past-array-size", "reps-bool",
        "seed-negative", "seed-too-large", "eval-points-scalar", "eval-point-past-float-range",
        "no-eval-points", "eval-point-nan", "eval-point-inf", "eval-point-outside-support", "rule-name",
        "multiple-negative", "multiple-zero", "multiple-nan", "multiple-inf", "multiple-bool"])
def test_design_rejects_bad_fields(field, value):
    # rejected when the design is built, before any replication runs
    spec = dict(dgp=get_dgp("exponential"), eval_points=(1.0,), n=400, reps=4, p=2)
    with pytest.raises(ValueError):
        SimDesign(**{**spec, field: value})


def test_design_file_roundtrip(tmp_path):
    spec = {
        "dgp": "exponential",
        "eval_points": [0.5, 1.5],
        "n": 500,
        "reps": 40,
        "p": 2,
        "kernel": "triangular",
        "bandwidth_rule": {"multiple": 0.5},
        "seed": 4,
    }
    path = tmp_path / "design.json"
    path.write_text(json.dumps(spec))
    design = load_design(str(path))
    assert design.bandwidth_rule == 0.5
    assert design.eval_points == (0.5, 1.5)


def test_design_file_numbers_become_floats():
    # JSON integers where floats are meant print as before: x = 1.0, bw_rule 2.0
    design = SimDesign.from_dict({"dgp": "exponential", "eval_points": [1], "n": np.int64(300),
                                  "reps": 4, "bandwidth_rule": {"multiple": 2}})
    assert design.eval_points == (1.0,) and type(design.eval_points[0]) is float
    assert design.bandwidth_rule == 2.0 and type(design.bandwidth_rule) is float
    assert replace(design, seed=3).eval_points == (1.0,)


def test_design_file_rejects_unknown_keys():
    # a misspelled key used to be dropped, running the defaults silently
    spec = {"dgp": "exponential", "eval_points": [1.0], "n": 300, "reps": 4,
            "bandwith_rule": "mse_estimated", "sed": 5}
    with pytest.raises(ValueError, match="bandwith_rule"):
        SimDesign.from_dict(spec)


def test_summary_emitters():
    design = SimDesign(
        dgp=get_dgp("exponential"), eval_points=(1.0,), n=300, reps=10, seed=1
    )
    rows = run_design(design)
    text = render(rows, CSV_COLUMNS, "csv")
    assert text.splitlines()[0] == "x,n,p,kernel,bw_rule,bias,sd,rmse,se_mean,size,fail_rate,valid"
    parsed = json.loads(render(rows, CSV_COLUMNS, "json"))
    assert parsed[0]["n"] == 300
