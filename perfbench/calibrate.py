"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark box is shared: its speed drifts by up to a factor of two over
seconds to minutes while the program does not change.  The worker times this
kernel before and after every invocation and rescales the invocation's wall
time to the reference speed

    scaled = wall * (REFERENCE_S / calibration_s) ** elasticity,

with the workload's elasticity from ``workloads.ELASTICITY``, so the reported
times compare across runs made at different moments.  The
kernel is the benchmark's own code, with fixed inputs, and mixes the kinds of
work torusns does: interpreter-bound loops and string formatting, small and
mid-size complex FFTs, elementwise array arithmetic and a BLAS product.  Its
arrays total about 1 MiB, so it adds little to the worker's peak RSS.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# typical time of calibration_s() on the 2-vCPU x86_64 (Xeon) box the
# benchmark was built on, with Python 3.11, numpy 2.4 and scipy-openblas 0.3.31
REFERENCE_S = 0.012

_rng = np.random.default_rng(20261017)
_SMALL = _rng.standard_normal((9, 13, 13, 13)) + 1j * _rng.standard_normal((9, 13, 13, 13))
_MID = _rng.standard_normal((3, 25, 25, 25)) + 1j * _rng.standard_normal((3, 25, 25, 25))
_MAT = _rng.standard_normal((160, 160))


def calibration_s() -> float:
    """Wall seconds of one pass of the reference kernel."""
    t0 = perf_counter()
    for _ in range(8):
        np.fft.ifftn(_SMALL, axes=(1, 2, 3))
    for _ in range(2):
        spectrum = np.fft.fftn(_MID, axes=(1, 2, 3))
        np.abs(spectrum * 0.5 + _MID).sum()
        _MAT @ _MAT
    table: dict[int, float] = {}
    lines = []
    for i in range(8000):
        table[i & 63] = table.get(i & 63, 0.0) + (i % 7) * 0.5
        if i % 4 == 0:
            lines.append(f"{i} {i % 5} {table[i & 63]:.17g}")
    "\n".join(lines).split()
    return perf_counter() - t0
