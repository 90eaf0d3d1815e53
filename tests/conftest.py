import math
import tracemalloc

import numpy as np
import pytest

ELL = 2.0 * math.pi


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def ell():
    return ELL


def _traced_peak(fn):
    """(fn(), the tracemalloc peak of the call above what was traced before it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    """The helper ``traced_peak(fn) -> (fn(), peak bytes)``."""
    return _traced_peak
