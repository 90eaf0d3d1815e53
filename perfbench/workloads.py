"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Each workload is one ``torus-ns`` invocation.  Its inputs are generated from
the benchmark seed at set-up and written as files; the program receives only
those files.  ``problems`` is used here to generate inputs and nowhere else.

``FULL`` sizes are the measured ones; ``TOY`` sizes keep the benchmark's own
tests fast and exercise the same code paths.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ELL = 2.0 * math.pi
MU = 0.1
# |div u| at roundoff: the solver projects every stage, so the divergence is
# a few ulps of the field's L2 norm times its largest wavenumber
DIV_ROUNDOFF = 1e-12
# bound of acceptance criterion 9 (matrix-exponential oracle)
EXPM_AGREEMENT = 1e-8

NAMES = ("ns_small", "ns_large", "linearized", "certify")

# How strongly each workload's wall time follows the machine speed that
# calibrate.py measures: the least-squares slope of log(wall time) on
# log(calibration time) over ten-seed runs on the 2-vCPU box, rounded to 0.1.
# Interpreter- and FFT-bound runs follow the calibration kernel almost one to
# one; the memory- and BLAS-bound linearized run follows it less.
ELASTICITY = {"ns_small": 1.0, "ns_large": 0.8, "linearized": 0.6, "certify": 0.8}

FULL = {
    "ns_small": {"M": 4, "T": 0.1, "dt": 1e-3, "amplitude": 0.5},
    "ns_large": {"M": 36, "T": 0.016, "dt": 2e-3, "amplitude": 0.5},
    "linearized": {"M": 16, "T": 0.02, "dt": 5e-3, "amplitude": 0.3},
    "certify": {"M": 36, "samples": 30, "T": 0.5, "amplitude": 1.0},
}
TOY = {
    "ns_small": {"M": 4, "T": 0.03, "dt": 1e-3, "amplitude": 0.5},
    "ns_large": {"M": 9, "T": 0.004, "dt": 2e-3, "amplitude": 0.5},
    "linearized": {"M": 4, "T": 0.01, "dt": 5e-3, "amplitude": 0.3},
    "certify": {"M": 9, "samples": 6, "T": 0.5, "amplitude": 1.0},
}


def params(name: str, toy: bool) -> dict:
    return (TOY if toy else FULL)[name]


def nsteps(name: str, p: dict) -> int:
    """Time steps one invocation takes (certify takes none)."""
    return 0 if name == "certify" else max(1, round(p["T"] / p["dt"]))


def nsamples(name: str, p: dict) -> int:
    """Stored time samples the invocation writes or reads."""
    return p["samples"] if name == "certify" else nsteps(name, p) + 1


def generate_inputs(name: str, seed: int, toy: bool, inputs: Path) -> None:
    """Write the workload's input files, a pure function of the seed."""
    import numpy as np

    from torusns import fields, galerkin, problems

    p = params(name, toy)
    rng = np.random.default_rng([seed, NAMES.index(name)])
    inputs.mkdir(parents=True, exist_ok=True)
    if name in ("ns_small", "ns_large"):
        u0 = problems.smooth_random_divfree(ELL, p["M"], rng, amplitude=p["amplitude"])
        fields.save_field(u0, inputs / "u0.field")
    elif name == "linearized":
        # every mode of the drift is nonzero, so a triad-based assembly
        # cannot profit from a sparse drift
        w = problems.smooth_random_divfree(ELL, p["M"], rng, amplitude=p["amplitude"])
        u0 = problems.smooth_random_divfree(ELL, p["M"], rng, amplitude=1.0)
        fields.save_field(w, inputs / "w.field")
        fields.save_field(u0, inputs / "u0.field")
    else:
        # exact heat flow of a divergence-free field: independent of the
        # solver under test
        u0 = problems.smooth_random_divfree(ELL, p["M"], rng, amplitude=p["amplitude"])
        ksq = fields.wave_cubes(u0.bandwidth)[3]
        lam = MU * ksq * (2.0 * math.pi / ELL) ** 2
        times = np.linspace(0.0, p["T"], p["samples"])
        stack = u0.coeff_stack()
        traj = galerkin.FieldTrajectory(
            times, tuple(u0.with_stack(stack * np.exp(-lam * t)) for t in times)
        )
        galerkin.save_trajectory(traj, inputs / "input.traj")


def argv(name: str, toy: bool, inputs: Path, out: Path) -> list[str]:
    p = params(name, toy)
    common = ["--mu", repr(MU), "--out-dir", str(out)]
    if name == "certify":
        traj = str(inputs / "input.traj")
        return ["certify", "--traj", traj, "--lps", "4,6", "--bochner", "1,1"] + common
    solver = ["--M", str(p["M"]), "--T", repr(p["T"]), "--dt", repr(p["dt"])]
    if name == "linearized":
        files = ["--u0", str(inputs / "u0.field"), "--w", str(inputs / "w.field")]
        return ["linearized"] + files + solver + common
    files = ["--u0", str(inputs / "u0.field")]
    return ["custom"] + files + solver + ["--scheme", "if_rk4"] + common


def artifacts(name: str) -> tuple[str, ...]:
    return ("certificate.json",) if name == "certify" else (
        "run.traj", "norms.csv", "certificate.json"
    )


def check(name: str, toy: bool, out: Path) -> list[str]:
    """Correctness failures of one invocation's artifacts (empty when correct)."""
    missing = [f for f in artifacts(name) if not (out / f).is_file()]
    if missing:
        return [f"missing artifacts {missing}"]
    failures = []
    cert = json.loads((out / "certificate.json").read_text())
    norms = cert["norms"]
    if cert["pass"] is not True:
        failures.append("certificate pass is not true")
    if not norms["div_max"] <= DIV_ROUNDOFF * norms["l2_max"]:
        failures.append(f"div_max {norms['div_max']} not at roundoff of l2_max {norms['l2_max']}")
    if name == "linearized" and not norms["matrix_exponential_agreement"] <= EXPM_AGREEMENT:
        failures.append(
            f"matrix_exponential_agreement {norms['matrix_exponential_agreement']} > {EXPM_AGREEMENT}"
        )
    if name != "certify":
        n = nsamples(name, params(name, toy))
        header = (out / "run.traj").open(encoding="ascii").readline().split()
        if int(header[-1]) != n:
            failures.append(f"run.traj holds {header[-1]} samples, expected {n}")
        rows = (out / "norms.csv").read_text().splitlines()
        if len(rows) != n + 1:
            failures.append(f"norms.csv has {len(rows) - 1} rows, expected {n}")
    return failures
