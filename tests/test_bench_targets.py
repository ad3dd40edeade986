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
