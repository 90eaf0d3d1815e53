"""Worker process of the benchmark; started by ``run.py``, never by hand.

``setup`` generates the workload inputs in a fresh interpreter and prints
the monotonic clock when they are written, so the parent can time the set-up
from process start.  ``run`` keeps one interpreter warm, calls
``torusns.cli.main`` repeatedly for the given number of seconds, checks every
invocation's artifacts and writes the measurements as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

# every timed phase takes at least this many invocations
MIN_REPS = 3


def _digest(directory: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest() for n in names}


def setup(args) -> None:
    import torusns  # noqa: F401  -- the import is part of the set-up cost

    inputs = Path(args.inputs)
    workloads.generate_inputs(args.workload, args.seed, args.toy, inputs)
    done = time.monotonic()
    names = sorted(p.name for p in inputs.iterdir())
    digest = hashlib.sha256(json.dumps(_digest(inputs, names)).encode()).hexdigest()
    from calibrate import calibration_s  # after ``done``: not part of set-up

    # median of four passes; the first warms the FFT plan cache of this fresh
    # interpreter
    cal = sorted(calibration_s() for _ in range(4))[1:3]
    print(json.dumps({"done": done, "digest": digest, "calibration_s": sum(cal) / 2}))


class SolveTimer:
    """Wall time spent inside the solver entry points, for steps_per_s."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - t0

        return timed


class Runner:
    """Repeated invocations of one workload in this interpreter."""

    def __init__(self, args) -> None:
        from torusns import cli

        self.cli = cli
        self.name = args.workload
        self.toy = args.toy
        self.out = Path(args.work) / "out"
        self.argv = workloads.argv(self.name, self.toy, Path(args.inputs), self.out)
        self.expected: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def invoke(self) -> tuple[float, bool]:
        """One checked invocation; returns (wall seconds, passed)."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.attempted += 1
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(sink):
                rc = self.cli.main(list(self.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:  # a crash is a failed run, not a dead worker
            rc = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        faults = [] if rc == 0 else [f"exit {rc}"]
        if not faults:
            faults = workloads.check(self.name, self.toy, self.out)
        if not faults:
            digest = _digest(self.out, workloads.artifacts(self.name))
            if self.expected is None:
                self.expected = digest
            elif digest != self.expected:
                changed = [k for k in digest if digest[k] != self.expected[k]]
                faults = [f"artifacts differ between repetitions: {changed}"]
        if faults:
            self.failed += 1
            self.failures += [f"invocation {self.attempted}: {f}" for f in faults]
        return wall, not faults

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir())


def _timed_phase(runner: Runner, seconds: float, before, after) -> tuple[list, list]:
    """Invoke until ``seconds`` have passed, at least MIN_REPS times.

    Returns the wall times of the invocations that passed their checks and,
    for each, the mean calibration time measured just before and after it.
    """
    from calibrate import calibration_s

    walls, cals = [], []
    attempts = 0
    t_end = perf_counter() + seconds
    cal_before = calibration_s()
    while attempts < MIN_REPS or perf_counter() < t_end:
        attempts += 1
        before()
        wall, ok = runner.invoke()
        cal_after = calibration_s()
        if ok:
            walls.append(wall)
            cals.append(0.5 * (cal_before + cal_after))
            after(wall)
        cal_before = cal_after
    return walls, cals


def _untraced(runner: Runner, seconds: float) -> dict:
    from torusns import galerkin

    from tracing import replace_everywhere, restore

    timer = SolveTimer()
    patches = []
    for fn in (galerkin.solve_navier_stokes, galerkin.solve_linearized):
        patches += replace_everywhere(fn, timer.wrap(fn))
    steps = workloads.nsteps(runner.name, workloads.params(runner.name, runner.toy))
    samples = workloads.nsamples(runner.name, workloads.params(runner.name, runner.toy))
    rates: list[float] = []

    def before():
        timer.seconds = 0.0

    def after(wall):
        # certify takes no time steps: its rate is stored samples certified
        # per second of the invocation
        rates.append(steps / timer.seconds if steps else samples / wall)

    try:
        walls, cals = _timed_phase(runner, seconds, before, after)
    finally:
        restore(patches)
    return {"walls": walls, "cals": cals, "rates": rates}


def _traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    steps = workloads.nsteps(runner.name, workloads.params(runner.name, runner.toy))
    layers: list[dict] = []

    def after(wall):
        tot = tracer.totals()
        solves = tot["spans"].get("galerkin.solve_navier_stokes", {}).get("calls", 0)
        within = tracer.calls_within("operators.convect", "galerkin.solve_navier_stokes")
        # each solve evaluates the kernel once for the t = 0 rhs sample
        # before its first step
        tot["convect_per_step"] = (within - solves) / (solves * steps) if solves else 0.0
        tot["artifact_bytes"] = runner.artifact_bytes()
        layers.append(tot)

    try:
        walls, cals = _timed_phase(runner, seconds, tracer.begin_request, after)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    return {"walls": walls, "cals": cals, "layers": layers}


def environment() -> dict:
    import numpy as np

    import torusns

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "torusns": torusns.__version__,
        "fft_backend": "numpy pocketfft" if hasattr(np.fft, "_pocketfft") else "numpy",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def run(args) -> None:
    from calibrate import calibration_s

    runner = Runner(args)
    calibration_s()
    runner.invoke()  # warm-up: caches, lazy imports; checked, not timed
    result: dict = {"env": environment()}
    if args.trace:
        half = args.seconds / 2.0
        result["untraced"] = _untraced(runner, half)
        result["traced"] = _traced(runner, half, Path(args.work) / "spans.jsonl")
    else:
        result["untraced"] = _untraced(runner, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["failures"] = runner.failures
    Path(args.result).write_text(json.dumps(result))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "run"])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--toy", type=int, default=0)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result")
    args = ap.parse_args()
    args.toy = bool(args.toy)
    if args.mode == "setup":
        setup(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
