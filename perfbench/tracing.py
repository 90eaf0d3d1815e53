"""Run-time tracing of torusns from outside the package.

Wrappers are installed on the module attributes that the package's call
sites look up at call time (``galerkin.self_convection``,
``estimates.symmetrized_convection``, ``operators.convect``,
``cli.save_trajectory``, ...).  Every torusns module attribute that refers to
a traced function is replaced, so each call site reaches the wrapper exactly
once and nothing inside the package changes.

Each wrapped call records a span (name, start, end, parent) in memory.  The
spans of one invocation share a request id; those of the last traced
invocation are written out when the run ends.  A kernel evaluation is counted
only at ``operators.convect``: ``self_convection`` and
``symmetrized_convection`` are recorded as their own spans but add no kernel
count, so the count is not doubled.  Self time is a span's duration minus the
time covered by its child spans; children of a synchronous call nest inside
it and never overlap, so the covered time is the sum of their durations.

numpy FFT entry points are counted (calls, grid points passed, computed
bytes) without spans, to keep the cost of tracing small.
"""

from __future__ import annotations

import json
import os
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name); the package's layers are its modules
SPANNED = (
    ("torusns.cli", "main", "cli.main"),
    ("torusns.operators", "convect", "operators.convect"),
    ("torusns.operators", "self_convection", "operators.self_convection"),
    ("torusns.operators", "symmetrized_convection", "operators.symmetrized_convection"),
    ("torusns.operators", "lp_norm", "operators.lp_norm"),
    ("torusns.helmholtz", "leray_project", "helmholtz.leray_project"),
    ("torusns.galerkin", "solve_navier_stokes", "galerkin.solve_navier_stokes"),
    ("torusns.galerkin", "solve_linearized", "galerkin.solve_linearized"),
    ("torusns.galerkin", "linearized_closed_form", "galerkin.linearized_closed_form"),
    ("torusns.galerkin", "matrix_exponential", "galerkin.matrix_exponential"),
    ("torusns.galerkin", "energy_identity_defect", "galerkin.energy_identity_defect"),
    ("torusns.galerkin", "load_trajectory", "galerkin.load_trajectory"),
    ("torusns.eigenbasis", "build_basis", "eigenbasis.build_basis"),
    ("torusns.eigenbasis", "project_coefficients", "eigenbasis.project_coefficients"),
    ("torusns.estimates", "energy_certificate", "estimates.energy_certificate"),
    ("torusns.estimates", "lps_norm", "estimates.lps_norm"),
    ("torusns.estimates", "bochner_scale_norm", "estimates.bochner_scale_norm"),
)
FFT_ENTRY_POINTS = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)
FIELD_SPAN = "fields.scalar_field"


def replace_everywhere(original, wrapper) -> list[tuple[object, str, object]]:
    """Point every torusns module attribute that is ``original`` at ``wrapper``.

    Returns the replaced (module, attribute, original) triples for :func:`restore`.
    """
    patches = []
    for modname, module in list(sys.modules.items()):
        if modname != "torusns" and not modname.startswith("torusns."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, original))
                setattr(module, attr, wrapper)
    return patches


def restore(patches: list[tuple[object, str, object]]) -> None:
    for obj, attr, original in reversed(patches):
        setattr(obj, attr, original)
    patches.clear()


class Tracer:
    """Spans and counters of one traced run; install, run, uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request_id = 0
        self.alloc_probed = False
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def _save_span(self, fn):
        def traced(traj, path, *args, **kwargs):
            idx = self._open("galerkin.save_trajectory")
            try:
                fn(traj, path, *args, **kwargs)
            finally:
                self._close(idx)
            self.counts["galerkin.traj_bytes"] += os.path.getsize(path)

        return traced

    def _assemble_span(self, fn):
        # tracemalloc slows the assembly down, so only the first traced call
        # measures the allocation peak; later calls give the time
        def traced(*args, **kwargs):
            probe = not self.alloc_probed
            idx = self._open("galerkin.assemble_linearized")
            if probe:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if probe:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.alloc_probed = True
                    self.counts["galerkin.assemble_linearized.peak_alloc_mb"] = peak / 2**20
                self._close(idx)

        return traced

    def _fft_counter(self, fn):
        counts = self.counts

        def counted(a, *args, **kwargs):
            arr = np.asarray(a)
            counts["operators.fft.calls"] += 1
            counts["operators.fft.points"] += arr.size
            counts["operators.fft.bytes_computed"] += arr.size * arr.itemsize
            return fn(a, *args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from torusns import fields, galerkin

        for modname, attr, name in SPANNED:
            original = getattr(sys.modules[modname], attr)
            self._patches += replace_everywhere(original, self._span(name, original))
        self._patches += replace_everywhere(
            galerkin.save_trajectory, self._save_span(galerkin.save_trajectory)
        )
        self._patches += replace_everywhere(
            galerkin.assemble_linearized, self._assemble_span(galerkin.assemble_linearized)
        )
        post_init = fields.SpectralScalarField.__post_init__
        self._patches.append((fields.SpectralScalarField, "__post_init__", post_init))
        fields.SpectralScalarField.__post_init__ = self._span(FIELD_SPAN, post_init)
        for attr in FFT_ENTRY_POINTS:
            original = getattr(np.fft, attr)
            self._patches.append((np.fft, attr, original))
            setattr(np.fft, attr, self._fft_counter(original))

    def uninstall(self) -> None:
        restore(self._patches)

    # -- results -----------------------------------------------------------

    def begin_request(self) -> None:
        """Start a new traced invocation; spans and counters start empty."""
        for lst in (self.names, self.starts, self.ends, self.parents):
            lst.clear()
        self.counts.clear()
        self.request_id += 1

    def totals(self) -> dict[str, dict]:
        """Per span name of the current invocation: calls, total seconds and
        self seconds; plus the counters."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += dur[i]
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += dur[i]
            agg["self_s"] += dur[i] - covered[i]
        return {"spans": dict(out), "counters": dict(self.counts)}

    def calls_within(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        inside = [False] * len(self.names)
        count = 0
        # a parent is opened before its children, so it has the smaller index
        for i, parent in enumerate(self.parents):
            inside[i] = parent >= 0 and (inside[parent] or self.names[parent] == ancestor)
            if inside[i] and self.names[i] == name:
                count += 1
        return count

    def write_spans(self, path) -> None:
        """Write the spans of the current invocation as JSON lines."""
        with open(path, "w", encoding="ascii") as fh:
            for i in range(len(self.names)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "request": self.request_id,
                            "name": self.names[i],
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                        }
                    )
                    + "\n"
                )
