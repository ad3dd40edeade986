"""The benchmark's tracer wraps lpdens functions by name; keep those names alive."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("target", _traced())
def test_traced_function_exists(target):
    mod, fn = target.split(".")
    assert callable(getattr(importlib.import_module(f"lpdens.{mod}"), fn))


def test_tracer_hook_call_shapes():
    """The tracer's count hooks read these argument positions and result fields."""
    import dataclasses
    import inspect

    from lpdens import kernels, lpfit, maniptest, variance

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(variance.gamma_hat)[:2] == ["sample", "fit"]
    assert params(kernels.moments)[:3] == ["family", "region", "p"]
    assert "m_eff" in {f.name for f in dataclasses.fields(lpfit.LocalFit)}
    assert "warnings" in {f.name for f in dataclasses.fields(maniptest.ManipulationTestResult)}


def test_tracer_hooks_count_real_calls():
    import numpy as np

    from lpdens import bandwidth, maniptest, sample

    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    raw = np.random.default_rng(0).normal(size=800)
    s = sample.load_sample(np.round(raw, 1))
    with tracer.Tracer() as t:
        bandwidth.mse_bandwidth(s, 0.3, 2, 0)  # v = 0 interior: a moments call
        bandwidth.mse_bandwidth(s, 0.3, 2, 1)  # v = 1: a variance constant
        maniptest.rbc_test(s, 0.05, model="restricted")  # a bandwidth fallback
        maniptest.rbc_test(sample.load_sample(raw), 0.0)  # a variance constant per side
    for key in ("lpfit.fit_local.window_pts", "variance.gamma_hat.window_pts",
                "kernels.basis_matrix.rows", "maniptest.rbc_test.fallbacks"):
        assert t.counts[key] > 0, key
    assert t.moment_keys
    # the pilot's variance constant is counted under its bandwidth label from
    # both callers, wherever the function is defined
    tops = []
    for span in t.spans:
        if span[0] == "bandwidth.variance_constant":
            while span[3] is not None:
                span = t.spans[span[3]]
            tops.append(span[0])
    assert set(tops) == {"bandwidth.mse_bandwidth", "maniptest.rbc_test"}
    assert t.layer_stats()[0]["bandwidth.variance_constant"][0] == len(tops)
