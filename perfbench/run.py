"""torusns benchmark: end-to-end and per-layer metrics of ``torus-ns`` runs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ns_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--workload all`` runs every workload, once untraced and once traced, and
prints every metric.  Seeds 1-15 were used while the benchmark was built;
re-check a later performance claim on seed 7919 as well, which was not.

Each workload runs in its own worker process (``worker.py``) with BLAS fixed
to one thread.  Set-up (a fresh interpreter importing torusns and generating
the seeded inputs) is timed several times in separate processes and the
median reported.  The worker then calls ``torusns.cli.main`` for the given
number of seconds, checks every invocation and reports medians.  With
``--trace 1`` half of the time is measured untraced and half with run-time
wrappers on the package's modules (``tracing.py``); the per-layer metrics
come from the traced half.

The box the benchmark runs on is shared, and its speed drifts by up to a
factor of two within minutes.  So every reported time (and steps_per_s) is
rescaled to a reference machine speed: the worker times a fixed calibration
kernel (``calibrate.py``) before and after each invocation, and each wall time
is multiplied by (REFERENCE_S / calibration time) ** elasticity, with the
workload's measured elasticity, before the median is taken.  The plain clock
medians are printed too, as ``raw.*``.

Metric names and units are those of BENCHMARK.json.  Every metric is printed
as ``metric <workload> <name> <value> <unit>``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Work files go to ``.perfbench/`` in the checkout; the spans of the last
traced invocation are kept there as ``spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402

SETUP_REPS = 7
# one workload run, set-up included, must end within 180 s
RUN_BUDGET_S = 170.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(mode: str, args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run worker.py to completion; it is killed and reaped at ``deadline``."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode] + args
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run(
        cmd, env=_worker_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    """Set up and measure one workload; returns the raw measurements."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".perfbench" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    common = ["--workload", name, "--seed", str(seed), "--toy", str(int(toy))]
    common += ["--inputs", str(inputs)]
    setup_s, setup_cals, digests, failures = [], [], set(), []
    for _ in range(SETUP_REPS):
        t0 = time.monotonic()
        proc = _worker("setup", common, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"{name}: input generation exited {proc.returncode}")
        reply = json.loads(proc.stdout.splitlines()[-1])
        setup_s.append(reply["done"] - t0)
        setup_cals.append(reply["calibration_s"])
        digests.add(reply["digest"])
    if len(digests) != 1:
        failures.append("inputs differ between set-ups with the same seed")
    setup_failed = len(failures)
    result_path = work / "result.json"
    proc = _worker(
        "run",
        common
        + ["--work", str(work), "--seconds", repr(seconds), "--trace", str(int(trace))]
        + ["--result", str(result_path)],
        deadline,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: worker exited {proc.returncode}")
    result = json.loads(result_path.read_text())
    if not result["untraced"]["walls"] or (trace and not result["traced"]["walls"]):
        for failure in result["failures"]:
            print(f"failure {name} {failure}", file=sys.stderr)
        raise RuntimeError(f"{name}: no invocation passed its checks")
    shutil.rmtree(inputs, ignore_errors=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    result["setup"] = {"walls": setup_s, "cals": setup_cals}
    result["failures"] = failures + result["failures"]
    result["attempted"] += SETUP_REPS
    result["failed"] += setup_failed
    result["env"].update(seed=seed, commit=_git_commit(), toy=toy)
    result_path.write_text(json.dumps(result))
    return result


def _speed(cals: list[float], elasticity: float = 1.0) -> list[float]:
    """Factors that rescale times measured at these calibrations to the
    reference machine speed."""
    return [(REFERENCE_S / c) ** elasticity for c in cals]


def _scaled(phase: dict, elasticity: float = 1.0) -> list[float]:
    return [w * k for w, k in zip(phase["walls"], _speed(phase["cals"], elasticity))]


def end_to_end(name: str, result: dict) -> dict[str, float]:
    untraced = result["untraced"]
    alpha = workloads.ELASTICITY[name]
    return {
        # set-up is interpreter start, imports and input generation
        "setup_s": _median(_scaled(result["setup"])),
        "run_s": _median(_scaled(untraced, alpha)),
        "steps_per_s": _median(
            [r / k for r, k in zip(untraced["rates"], _speed(untraced["cals"], alpha))]
        ),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def raw_end_to_end(result: dict) -> dict[str, float]:
    """The same medians without the speed rescaling, as the clock read them."""
    return {
        "raw.setup_s": _median(result["setup"]["walls"]),
        "raw.run_s": _median(result["untraced"]["walls"]),
        "raw.steps_per_s": _median(result["untraced"]["rates"]),
    }


def per_layer(name: str, result: dict) -> dict[str, float]:
    traced = result["traced"]
    layers = traced["layers"]
    alpha = workloads.ELASTICITY[name]
    speed = _speed(traced["cals"], alpha)

    def med(fn) -> float:
        return _median([fn(x) for x in layers])

    def span(name: str, key: str = "s"):
        if key == "calls":
            return med(lambda x: x["spans"].get(name, {}).get(key, 0))
        # times rescaled to the reference speed, like the end-to-end ones
        return _median(
            [x["spans"].get(name, {}).get(key, 0.0) * k for x, k in zip(layers, speed)]
        )

    def counter(name: str):
        return med(lambda x: x["counters"].get(name, 0))

    def ms_per_call(x, k) -> float:
        conv = x["spans"].get("operators.convect")
        return 1e3 * k * conv["s"] / conv["calls"] if conv else 0.0

    out = {}
    for name in (
        "operators.convect", "operators.lp_norm", "helmholtz.leray_project",
        "galerkin.matrix_exponential", "eigenbasis.project_coefficients",
    ):
        out[f"{name}.calls"] = span(name, "calls")
    for name in (
        "operators.convect", "operators.lp_norm", "helmholtz.leray_project",
        "galerkin.solve_navier_stokes", "galerkin.save_trajectory",
        "galerkin.load_trajectory", "galerkin.assemble_linearized",
        "galerkin.solve_linearized", "galerkin.linearized_closed_form",
        "eigenbasis.build_basis", "eigenbasis.project_coefficients",
        "estimates.energy_certificate", "estimates.lps_norm",
        "estimates.bochner_scale_norm", "galerkin.energy_identity_defect",
    ):
        out[f"{name}.s"] = span(name)
    for name in (
        "galerkin.solve_navier_stokes", "estimates.bochner_scale_norm", "cli.main",
    ):
        out[f"{name}.self_s"] = span(name, "self_s")
    for name in (
        "operators.fft.calls", "operators.fft.points", "operators.fft.bytes_computed",
        "galerkin.traj_bytes",
    ):
        out[name] = counter(name)
    peak = "galerkin.assemble_linearized.peak_alloc_mb"
    out[peak] = max(x["counters"].get(peak, 0.0) for x in layers)
    out["operators.convect.ms_per_call"] = _median(
        [ms_per_call(x, k) for x, k in zip(layers, speed)]
    )
    out["fields.scalar_fields_built"] = span("fields.scalar_field", "calls")
    out["fields.scalar_fields_built.s"] = span("fields.scalar_field")
    out["galerkin.convect_per_step"] = med(lambda x: x["convect_per_step"])
    out["cli.artifact_bytes"] = med(lambda x: x["artifact_bytes"])
    out["trace.overhead_frac"] = (
        _median(_scaled(traced, alpha)) / _median(_scaled(result["untraced"], alpha)) - 1.0
    )
    return out


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(name: str, result: dict, trace: bool) -> dict[str, dict]:
    """Print every metric of one run with its unit; returns the JSON metrics."""
    spec = _spec()
    values = end_to_end(name, result)
    listed = spec["end_to_end"]
    if trace:
        values = per_layer(name, result)
        listed = spec["per_layer"]
    print(f"env {name} {json.dumps(result['env'], sort_keys=True)}")
    for failure in result["failures"]:
        print(f"failure {name} {failure}")
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {name} {m['name']} {values[m['name']]!r} {m['unit']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for key, value in raw_end_to_end(result).items():
        print(f"metric {name} {key} {value!r} {units[key[4:]]}")
    samples = len(result["untraced"]["walls"])
    print(f"metric {name} run_s.samples {samples} count")
    if trace:
        print(f"metric {name} traced_run_s.samples {len(result['traced']['walls'])} count")
    fail_frac = result["failed"] / result["attempted"]
    print(f"metric {name} fail_frac {fail_frac!r} ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "torusns" / "__init__.py").is_file():
        print(f"no torusns sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runs = [(args.workload, bool(args.trace))]
    if args.workload == "all":
        runs = [(n, t) for n in workloads.NAMES for t in (False, True)]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name, trace in runs:
        try:
            result = run_workload(name, args.seed, args.seconds, trace, args.toy)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        got = report(name, result, trace)
        if args.workload == "all":
            got = {f"{name}.{k}": v for k, v in got.items()}
        metrics.update(got)
        attempted += result["attempted"]
        failed += result["failed"]
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
