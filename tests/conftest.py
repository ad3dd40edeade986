"""Shared test setup."""

import sys

import pytest


@pytest.fixture(autouse=True)
def _empty_lpdens_caches():
    """Empty every functools cache in lpdens before each test.

    No test then reads a result memoized by an earlier one, for instance a
    bandwidth selection made before a helper was monkeypatched.
    """
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "lpdens" or name.startswith("lpdens.")):
            for value in list(vars(mod).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
