"""The benchmark's own tests, at toy sizes.  From the root of a checkout:

    python3 -m pytest perfbench/bench_tests.py -q

The file name keeps these tests out of the package's default test run: they
start worker processes and take about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _toy_run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name_of_workload, name, value, unit = line.split()
            assert name_of_workload == workload
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


@pytest.fixture(scope="module", params=workloads.NAMES)
def untraced(request):
    return request.param, *_toy_run(request.param, 0)


@pytest.fixture(scope="module", params=workloads.NAMES)
def traced(request):
    return request.param, *_toy_run(request.param, 1)


def _assert_listed(printed: dict, last: dict, listed: list[dict]) -> None:
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        value, unit = printed[m["name"]]
        assert unit == m["unit"]
        assert last["metrics"][m["name"]] == {"value": value, "unit": m["unit"]}
    assert printed["fail_frac"] == (0.0, "ratio")
    assert printed["run_s.samples"][0] >= 3


def test_end_to_end_metrics_printed_with_units(untraced):
    _, printed, last = untraced
    _assert_listed(printed, last, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert printed[m["name"]][0] > 0


def test_per_layer_metrics_printed_with_units(traced):
    _, printed, last = traced
    _assert_listed(printed, last, SPEC["per_layer"])


def test_parent_counts(traced):
    name, printed, _ = traced
    p = workloads.params(name, toy=True)
    steps, samples = workloads.nsteps(name, p), workloads.nsamples(name, p)
    convect = printed["operators.convect.calls"][0]
    lp_norm = printed["operators.lp_norm.calls"][0]
    if name in ("ns_small", "ns_large"):
        # IF-RK4: four stages and the stored rhs sample per step
        assert printed["galerkin.convect_per_step"][0] == 5
        assert convect == 5 * steps + 1
        # norms.csv (L^r, L^inf) and the certificate (LPS, L^inf) per
        # stored sample, and the CFL check every 25 steps
        assert lp_norm == 4 * samples + math.ceil(steps / 25)
    elif name == "linearized":
        assert convect == 0
        assert printed["galerkin.matrix_exponential.calls"][0] == samples
        assert printed["galerkin.assemble_linearized.peak_alloc_mb"][0] > 0
    else:
        # --bochner 1,1 on a loaded trajectory: one symmetrized product
        # (two kernel evaluations) per sample; --lps 4,6 and L^inf per sample
        assert convect == 2 * samples
        assert lp_norm == 2 * samples
        assert printed["galerkin.traj_bytes"][0] == 0


def test_tracer_counts_each_kernel_evaluation_once(tmp_path):
    from torusns import cli, operators, problems

    tracer = tracing.Tracer()
    tracer.install()
    try:
        u = problems.taylor_green_field(2.0 * math.pi, 4)
        operators.self_convection(u)
        operators.symmetrized_convection(u, u)
        spans = tracer.totals()["spans"]
        assert spans["operators.convect"]["calls"] == 3
        assert spans["operators.self_convection"]["calls"] == 1
        assert spans["operators.symmetrized_convection"]["calls"] == 1
        assert tracer.calls_within("operators.convect", "operators.symmetrized_convection") == 2

        counts = []
        for _ in range(2):
            tracer.begin_request()
            argv = ["taylor_green", "--T", "0.01", "--out-dir", str(tmp_path)]
            assert cli.main(argv) == 0
            tot = tracer.totals()
            counts.append(({k: v["calls"] for k, v in tot["spans"].items()}, tot["counters"]))
        assert counts[0] == counts[1]
        for calls, _ in counts:
            assert calls["cli.main"] == 1
        tracer.write_spans(tmp_path / "spans.jsonl")
        spans = [json.loads(x) for x in (tmp_path / "spans.jsonl").read_text().splitlines()]
        assert len(spans) == len(tracer.names)
        for s in spans:
            assert s["end"] >= s["start"]
            assert s["parent"] < s["id"]
    finally:
        tracer.uninstall()
    assert operators.convect.__module__ == "torusns.operators"
    assert not hasattr(operators.convect, "__wrapped__")


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    outer = tracer._open("outer")
    inner = tracer._open("inner")
    tracer._close(inner)
    tracer._close(outer)
    tracer.starts[:] = [0.0, 1.0]
    tracer.ends[:] = [10.0, 4.0]
    spans = tracer.totals()["spans"]
    assert spans["outer"]["s"] == 10.0 and spans["outer"]["self_s"] == 7.0
    assert spans["inner"]["self_s"] == 3.0


def test_inputs_depend_only_on_seed(tmp_path):
    for name in workloads.NAMES:
        blobs = []
        for run, seed in enumerate((5, 5, 6)):
            out = tmp_path / f"{name}-{run}"
            workloads.generate_inputs(name, seed, True, out)
            blobs.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
        assert blobs[0] == blobs[1]
        assert blobs[0] != blobs[2]


def test_check_rejects_bad_artifacts(tmp_path):
    samples = workloads.nsamples("linearized", workloads.params("linearized", True))
    good = {"pass": True, "norms": {"div_max": 1e-15, "l2_max": 1.0,
                                    "matrix_exponential_agreement": 1e-12}}
    (tmp_path / "run.traj").write_text(f"TRAJ 1 6.28 4 {samples}\n")
    (tmp_path / "norms.csv").write_text("header\n" * (samples + 1))
    (tmp_path / "certificate.json").write_text(json.dumps(good))
    assert workloads.check("linearized", True, tmp_path) == []
    for change in (
        {"pass": False},
        {"norms": {**good["norms"], "div_max": 1e-9}},
        {"norms": {**good["norms"], "matrix_exponential_agreement": 1e-6}},
    ):
        (tmp_path / "certificate.json").write_text(json.dumps({**good, **change}))
        assert len(workloads.check("linearized", True, tmp_path)) == 1
    (tmp_path / "certificate.json").write_text(json.dumps(good))
    (tmp_path / "run.traj").write_text(f"TRAJ 1 6.28 4 {samples - 1}\n")
    assert len(workloads.check("linearized", True, tmp_path)) == 1
    (tmp_path / "run.traj").unlink()
    assert workloads.check("linearized", True, tmp_path) != []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ns_small", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
