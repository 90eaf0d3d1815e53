import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusns.cli import _apply_config_file, build_parser, main
from torusns.fields import load_field, random_vector_field, save_field
from torusns.galerkin import FieldTrajectory, load_trajectory, save_trajectory
from torusns.helmholtz import leray_project
from torusns.eigenbasis import build_basis, save_basis

ELL = 2.0 * math.pi
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd, env_extra=None):
    # The child runs in a tmp cwd, so a relative PYTHONPATH entry such as
    # "src" would not find the package: put the absolute source dir first.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # An inherited TORUS_NS_OUT would redirect every run's artifacts away
    # from the directory the test reads.
    env.pop("TORUS_NS_OUT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "torusns.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture(scope="module")
def decay_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("decay")
    r = run_cli(
        "decay", "--mu", "0.1", "--T", "0.25", "--dt", "1e-3", "--M", "4",
        "--out-dir", "out", cwd=d,
    )
    assert r.returncode == 0, r.stderr
    return d / "out", r


class TestDecay:
    def test_artifacts_written(self, decay_dir):
        out, _ = decay_dir
        assert (out / "run.traj").exists()
        assert (out / "norms.csv").exists()
        assert (out / "certificate.json").exists()

    def test_certificate_contents(self, decay_dir):
        out, _ = decay_dir
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["pass"] is True
        assert cert["norms"]["decay_error_l2"] <= 1e-6
        assert cert["norms"]["pressure_residual_max"] <= 1e-8
        assert cert["lps"][0]["admissible"] is True

    def test_csv_columns(self, decay_dir):
        out, _ = decay_dir
        lines = (out / "norms.csv").read_text().splitlines()
        assert lines[0] == "t,l2,h1,h2,linf,div,lps_partial"
        assert len(lines) == 252  # header + 251 samples
        assert all(len(line.split(",")) == 7 for line in lines[1:])

    def test_trajectory_loadable(self, decay_dir):
        out, _ = decay_dir
        traj = load_trajectory(out / "run.traj")
        assert len(traj) == 251
        assert traj.cutoff == 4

    def test_stdout_reports(self, decay_dir):
        _, r = decay_dir
        assert "final L2 error vs closed form" in r.stdout
        assert "certificate pass: True" in r.stdout


class TestExitCodes:
    def test_bad_flag_value(self, tmp_path):
        r = run_cli("decay", "--mu", "-1", cwd=tmp_path)
        assert r.returncode == 2

    def test_unknown_command(self, tmp_path):
        r = run_cli("explode", cwd=tmp_path)
        assert r.returncode == 2

    def test_missing_field_file(self, tmp_path):
        r = run_cli("custom", "--u0", "missing.field", cwd=tmp_path)
        assert r.returncode == 2
        assert "configuration error" in r.stderr

    def test_blowup_returns_three(self, tmp_path):
        rng = np.random.default_rng(0)
        big = leray_project(random_vector_field(ELL, 4, rng, amplitude=120.0))
        save_field(big, tmp_path / "big.field")
        r = run_cli(
            "custom", "--mu", "1e-6", "--T", "1", "--dt", "0.1", "--M", "4",
            "--u0", "big.field", cwd=tmp_path,
        )
        assert r.returncode == 3
        assert "blow-up suspected" in r.stderr

    @pytest.mark.parametrize("problem", ["decay", "taylor_green"])
    def test_overflowed_certificate_fails(self, tmp_path, problem):
        # both sides of the energy estimate overflow to inf: inf <= inf must
        # not count as a pass
        r = run_cli(
            problem, "--M", "3", "--T", "0.003", "--dt", "1e-3", "--amplitude", "1e300",
            "--out-dir", "out", cwd=tmp_path,
        )
        assert r.returncode == 4, r.stderr
        assert "certificate pass: False" in r.stdout
        cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert cert["pass"] is False

    def test_inadmissible_lps_rejected_when_strict(self, decay_dir, tmp_path):
        out, _ = decay_dir
        r = run_cli(
            "certify", "--traj", str(out / "run.traj"), "--mu", "0.1",
            "--lps", "2,6", "--admissible-only", cwd=tmp_path,
        )
        assert r.returncode == 2

    def test_bad_lps_exponent_is_config_error(self, decay_dir, tmp_path):
        out, _ = decay_dir
        r = run_cli(
            "certify", "--traj", str(out / "run.traj"), "--mu", "0.1",
            "--lps", "0.5,6", cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "configuration error" in r.stderr

    @pytest.mark.parametrize("grid", ["0", "3"])
    def test_grid_below_resolution_is_config_error(self, tmp_path, grid):
        # cutoff 4 has axis bandwidth 2, so the grid needs at least 5 points
        r = run_cli(
            "decay", "--T", "0.05", "--dt", "1e-3", "--M", "4", "--grid", grid,
            "--out-dir", "out", cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "configuration error" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "out").exists()

    def test_certify_grid_checked_against_trajectory_cutoff(self, decay_dir, tmp_path):
        out, _ = decay_dir
        r = run_cli(
            "certify", "--traj", str(out / "run.traj"), "--mu", "0.1", "--grid", "4",
            cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "Traceback" not in r.stderr

    def test_nonfinite_field_coefficient_is_config_error(self, tmp_path):
        rng = np.random.default_rng(5)
        u0 = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.3))
        save_field(u0, tmp_path / "u0.field")
        lines = (tmp_path / "u0.field").read_text().splitlines()
        k1, k2, k3, comp, _, im = lines[1].split()
        lines[1] = f"{k1} {k2} {k3} {comp} nan {im}"
        (tmp_path / "u0.field").write_text("\n".join(lines) + "\n")
        r = run_cli(
            "custom", "--T", "0.01", "--dt", "1e-3", "--M", "4", "--u0", "u0.field",
            cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "non-finite coefficient" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "damage",
        [
            "empty", "count_too_large", "trailing_block", "nan_time", "inf_ell", "huge_cutoff",
            "header_ell", "header_cutoff", "negative_count",
        ],
    )
    def test_malformed_trajectory_is_config_error(self, decay_dir, tmp_path, damage):
        text = (decay_dir[0] / "run.traj").read_text()
        header, body = text.split("\n", 1)
        if damage == "empty":
            text = ""
        elif damage == "count_too_large":
            *head, count = header.split()
            text = " ".join(head + [str(int(count) + 1)]) + "\n" + body
        elif damage == "trailing_block":  # the first sample once more, after the counted ones
            text += body[: body.index("\nT ") + 1]
        elif damage == "nan_time":  # the second time marker
            text = header + "\n" + re.sub(r"\nT \S+", "\nT nan", body, count=1)
        elif damage == "inf_ell":  # in the TRAJ and every TORUSFIELD header
            text = re.sub(r"^(TRAJ|TORUSFIELD) 1 \S+", r"\1 1 inf", text, flags=re.M)
        elif damage == "huge_cutoff":  # a dense cube of 3 (2 * 10^4 + 1)^3 coefficients, 384 TB
            text = re.sub(r"^(TORUSFIELD 1 \S+) \d+", r"\1 100000000", text, count=1, flags=re.M)
        elif damage == "header_ell":  # the blocks keep their ell
            text = re.sub(r"^TRAJ 1 \S+", "TRAJ 1 inf", text)
        elif damage == "header_cutoff":  # the blocks keep cutoff 4
            text = re.sub(r"^(TRAJ 1 \S+) \d+", r"\1 99", text)
        else:
            text = re.sub(r"^(TRAJ .*) \d+$", r"\1 -1", text, count=1, flags=re.M)
        (tmp_path / "bad.traj").write_text(text)
        r = run_cli("certify", "--traj", "bad.traj", "--mu", "0.1", cwd=tmp_path)
        assert r.returncode == 2
        assert "configuration error" in r.stderr
        assert "Traceback" not in r.stderr
        if damage == "negative_count":
            assert "sample count must be at least 1" in r.stderr
        elif damage.startswith("header_"):
            assert "TRAJ header" in r.stderr

    @pytest.mark.parametrize("command", ["decay", "linearized"])
    @pytest.mark.parametrize(
        "horizon, step", [("inf", "1e-3"), ("0.01", "inf"), ("nan", "1e-3"), ("1e300", "1e-300")]
    )
    def test_nonfinite_horizon_or_step_is_config_error(self, tmp_path, command, horizon, step):
        r = run_cli(
            command, "--T", horizon, "--dt", step, "--M", "4", "--out-dir", "out", cwd=tmp_path
        )
        assert r.returncode == 2
        assert "configuration error" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pair", ["nan,4", "4,nan", "nan,nan"])
    def test_nan_lps_exponent_is_config_error(self, decay_dir, tmp_path, pair):
        out, _ = decay_dir
        r = run_cli(
            "certify", "--traj", str(out / "run.traj"), "--mu", "0.1", "--lps", pair,
            "--out-dir", "cert", cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "exponent" in r.stderr
        assert not (tmp_path / "cert" / "certificate.json").exists()


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["decay", "--jobs", "0"], "--jobs must be at least 1"),
            (["decay", "--grid", "257"], "points"),
            (["decay", "--ell", "1e300"], "period ell"),
            (["linearized", "--ell", "1e-300"], "period ell"),
            (["decay", "--mu", "inf"], "viscosity"),
            (["certify", "--mu", "0"], "viscosity"),
            (["certify", "--mu", "nan"], "viscosity"),
            (["decay", "--amplitude", "nan"], "--amplitude must be finite"),
            (["taylor_green", "--amplitude", "inf"], "--amplitude must be finite"),
            (["linearized", "--amplitude=-inf"], "--amplitude must be finite"),
        ],
        ids=[
            "jobs", "grid", "huge_ell", "tiny_ell", "inf_mu", "certify_zero_mu", "certify_nan_mu",
            "decay_nan_amplitude", "taylor_green_inf_amplitude", "linearized_inf_amplitude",
        ],
    )
    def test_flag_value_out_of_range_is_config_error(
        self, decay_dir, tmp_path, monkeypatch, argv, message
    ):
        monkeypatch.delenv("TORUS_NS_OUT", raising=False)
        if argv[0] == "certify":
            argv = argv + ["--traj", str(decay_dir[0] / "run.traj")]
        else:
            argv = argv + ["--T", "0.003", "--dt", "1e-3", "--M", "4"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "configuration error" in err.getvalue() and message in err.getvalue()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["manufactured", "custom", "certify"])
    def test_amplitude_only_on_subcommands_that_read_it(self, decay_dir, tmp_path, command):
        argv = [command, "--amplitude", "nan", "--out-dir", str(tmp_path / "out")]
        if command == "certify":
            argv += ["--traj", str(decay_dir[0] / "run.traj")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --amplitude" in err.getvalue()
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            r = run_cli(
                "decay", "--T", "0.05", "--dt", "1e-3", "--M", "4",
                "--out-dir", sub, cwd=tmp_path,
            )
            assert r.returncode == 0
        for name in ("run.traj", "norms.csv", "certificate.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestConfigHandling:
    def test_env_var_overrides_out_dir(self, tmp_path):
        r = run_cli(
            "decay", "--T", "0.05", "--dt", "1e-3", "--M", "4", "--out-dir", "flagged",
            cwd=tmp_path, env_extra={"TORUS_NS_OUT": "enved"},
        )
        assert r.returncode == 0
        assert (tmp_path / "enved" / "certificate.json").exists()
        assert not (tmp_path / "flagged").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        (tmp_path / "run.cfg").write_text(
            "mu = 0.2\nT = 0.05\ndt = 1e-3\nM = 4\nout_dir = cfgout\n"
        )
        r = run_cli("decay", "--config", "run.cfg", "--mu", "0.1", cwd=tmp_path)
        assert r.returncode == 0
        cert = json.loads((tmp_path / "cfgout" / "certificate.json").read_text())
        lam = 0.1 * (2 * math.pi / ELL) ** 2  # flag mu wins over config mu
        expected = 1 + (1 - math.exp(-2 * lam * 0.05)) / 2
        assert abs(cert["ratio"] - expected) < 1e-6

    def test_unknown_config_key_rejected(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("warp_factor = 9\n")
        r = run_cli("decay", "--config", "bad.cfg", cwd=tmp_path)
        assert r.returncode == 2

    def test_missing_config_file(self, tmp_path):
        r = run_cli("decay", "--config", "nope.cfg", cwd=tmp_path)
        assert r.returncode == 2


class TestCertify:
    def test_reports_lps_pairs(self, decay_dir, tmp_path):
        out, _ = decay_dir
        r = run_cli(
            "certify", "--traj", str(out / "run.traj"), "--mu", "0.1",
            "--lps", "4,6", "--lps", "2,6", "--bochner", "0,1",
            "--out-dir", "cert", cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        cert = json.loads((tmp_path / "cert" / "certificate.json").read_text())
        flags = {(rep["s"], rep["r"]): rep["admissible"] for rep in cert["lps"]}
        assert flags[(4.0, 6.0)] is True
        assert flags[(2.0, 6.0)] is False
        assert cert["norms"]["bochner"][0]["value"] > 0


class TestSelftest:
    def test_passes(self, tmp_path):
        r = run_cli("selftest", "--M", "4", cwd=tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
        assert "all 7 checks passed" in r.stdout

    @pytest.mark.parametrize("cutoff", [2, 4, 6])
    def test_pass_set_independent_of_cutoff(self, tmp_path, cutoff):
        r = run_cli("selftest", "--M", str(cutoff), cwd=tmp_path)
        assert r.returncode == 0
        statuses = [
            line.split()[1] for line in r.stdout.splitlines() if " PASS " in f" {line} " or " FAIL " in f" {line} "
        ]
        assert statuses and all(s == "PASS" for s in statuses)

    def test_corrupted_basis_detected(self, tmp_path):
        basis = build_basis(ELL, 4)
        save_basis(basis, tmp_path / "basis.txt")
        lines = (tmp_path / "basis.txt").read_text().splitlines()
        for i, line in enumerate(lines):
            parts = line.split()
            if len(parts) == 6 and parts[0] not in ("BASIS", "BASIS-GRAD", "TORUSFIELD"):
                parts[4] = "0.25"
                lines[i] = " ".join(parts)
                break
        (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
        r = run_cli("selftest", "--M", "4", "--basis", "bad.txt", cwd=tmp_path)
        assert r.returncode == 4
        assert any("eigenbasis_gram" in l and "FAIL" in l for l in r.stdout.splitlines())


class TestLinearized:
    def test_default_run_and_expm_check(self, tmp_path):
        r = run_cli(
            "linearized", "--mu", "0.1", "--T", "0.25", "--dt", "1e-3", "--M", "4",
            "--out-dir", "lin", cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        cert = json.loads((tmp_path / "lin" / "certificate.json").read_text())
        assert cert["norms"]["matrix_exponential_agreement"] <= 1e-8

    def test_field_file_inputs(self, tmp_path):
        rng = np.random.default_rng(3)
        w = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.2))
        u0 = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.5))
        save_field(w, tmp_path / "w.field")
        save_field(u0, tmp_path / "u0.field")
        r = run_cli(
            "linearized", "--T", "0.1", "--dt", "1e-3", "--M", "4",
            "--w", "w.field", "--u0", "u0.field", "--out-dir", "lin2", cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        traj = load_trajectory(tmp_path / "lin2" / "run.traj")
        from torusns.operators import l2_norm_exact

        loaded = load_field(tmp_path / "u0.field")
        assert l2_norm_exact(traj.initial - leray_project(loaded)) <= 1e-11


class TestStudy:
    def test_dt_study_csv(self, tmp_path):
        r = run_cli(
            "manufactured", "--scheme", "if_rk4", "--dt-study", "2", "--dt", "4e-3",
            "--T", "0.1", "--out-dir", "study", cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert "observed order" in r.stdout
        lines = (tmp_path / "study" / "dt_study.csv").read_text().splitlines()
        assert lines[0] == "dt,error"
        assert len(lines) == 3
        meta = json.loads((tmp_path / "study" / "dt_study.json").read_text())
        assert meta["observed_order"] > 3.0

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_dt_study_needs_two_points(self, tmp_path, points):
        r = run_cli(
            "manufactured", "--dt-study", points, "--dt", "4e-3", "--T", "0.1",
            "--out-dir", "study", cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "at least 2 points" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "study").exists()

    def test_jobs_fanout_matches_serial(self, tmp_path):
        outputs = {}
        for jobs, sub in (("1", "serial"), ("2", "par")):
            r = run_cli(
                "manufactured", "--scheme", "imex_euler", "--dt-study", "2",
                "--dt", "4e-3", "--T", "0.1", "--jobs", jobs,
                "--out-dir", sub, cwd=tmp_path,
            )
            assert r.returncode == 0, r.stderr
            outputs[sub] = (tmp_path / sub / "dt_study.csv").read_bytes()
        assert outputs["serial"] == outputs["par"]


BAD_TOKENS = [
    "nan", "inf", "-inf", "1e400", "1.0", "x", "0x1f", "--1", "-1", "0", "2", "7",
    "99999999999999999999",
]


def _corrupt(text, kind, where, token):
    """Damage one place of a field or trajectory file, chosen by ``where``."""
    if kind == "truncate":
        return text[: where % len(text)]
    lines = [line.split() for line in text.splitlines()]
    if kind == "count":  # the sample or component count of a header line
        headers = [toks for toks in lines if toks[0] in ("TRAJ", "TORUSFIELD")]
        headers[where % len(headers)][-1] = token
    else:
        i, j = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))][
            where % sum(map(len, lines))
        ]
        if kind == "drop":
            del lines[i][j]
        elif kind == "extra":
            lines[i].insert(j, token)
        else:
            lines[i][j] = token
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    u = leray_project(random_vector_field(ELL, 2, np.random.default_rng(11), amplitude=0.3))
    save_field(u, d / "u0.field")
    traj = FieldTrajectory(np.array([0.0, 0.01, 0.02]), (u, u * 0.99, u * 0.98))
    save_trajectory(traj, d / "run.traj")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("TORUS_NS_OUT", raising=False)
        yield d


class TestCorruptedFiles:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        target=st.sampled_from(["field", "traj"]),
        kind=st.sampled_from(["truncate", "drop", "extra", "replace", "count"]),
        where=st.integers(0, 10**6),
        token=st.sampled_from(BAD_TOKENS),
    )
    def test_exit_code_is_documented(self, fuzz_dir, target, kind, where, token):
        # in-process, so an uncaught exception fails the test with its traceback
        name = "u0.field" if target == "field" else "run.traj"
        bad = fuzz_dir / f"bad_{name}"
        bad.write_text(_corrupt((fuzz_dir / name).read_text(), kind, where, token))
        if target == "field":
            argv = ["custom", "--u0", str(bad), "--M", "2", "--T", "0.002", "--dt", "1e-3"]
        else:
            argv = ["certify", "--traj", str(bad), "--mu", "0.1"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out-dir", str(fuzz_dir / "out")])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()


# Values every fuzzed flag may get, and per flag a few that parse.  Sizes are
# capped here, not in the program: M <= 3, small Bochner indices, and at
# most 4 time steps (see _cap_steps).
BAD_VALUES = ["-1", "0", "-0", "nan", "inf", "-inf", "x", "", "1,2", "0x10", "1e400"]
FLAG_VALUES = {
    "--M": ["1", "2", "3"],
    "--T": ["0.003", "1e-300", "1e300"],
    "--dt": ["1e-3", "1e-300", "1e300"],
    "--mu": ["0.1", "1e-300", "1e300"],
    "--ell": ["1", "6.25", "1e-300", "1e300"],
    "--grid": ["5", "7", "16", "257", "99999999999999999999"],
    "--lps": ["4,6", "inf,2", "2,inf", "nan,4", "4,nan", "0.5,6", "2,1", "x,6", "4,6,8"],
    "--bochner": ["0,1", "1,0", "1,1", "-1,0", "0,-1", "x,1", "0"],
    "--jobs": ["1", "2", "99999999999999999999"],
    "--amplitude": ["0.5", "-2", "1e-300", "1e300"],
}
SOLVER_DEFAULTS = {"--M": "3", "--T": "0.003", "--dt": "1e-3"}
CONFIG_NOISE = ["", "# comment", "junk line", "unknown_key = 1", "= 3", "M ="]


def _positive_number(text):
    try:
        x = float(text)
    except ValueError:
        return None
    return x if 0 < x < math.inf else None


def _cap_steps(flags):
    """Set dt = T where T and dt are numbers whose ratio T/dt exceeds 4."""
    horizon, step = _positive_number(flags["--T"]), _positive_number(flags["--dt"])
    if horizon is not None and step is not None and not horizon / step <= 4:
        flags["--dt"] = flags["--T"]
    return flags


_flag_value = st.sampled_from(sorted(FLAG_VALUES)).flatmap(
    lambda flag: st.tuples(st.just(flag), st.sampled_from(BAD_VALUES + FLAG_VALUES[flag]))
)


class TestFlagValues:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        command=st.sampled_from(["decay", "taylor_green", "manufactured", "linearized", "certify"]),
        drawn=st.lists(_flag_value, min_size=1, max_size=3),
        via_config=st.booleans(),
        noise=st.sampled_from(CONFIG_NOISE),
    )
    def test_exit_code_is_documented(self, fuzz_dir, command, drawn, via_config, noise):
        if command == "certify":  # it takes no solver flags, so only drawn ones are passed
            flags, base = dict(drawn), ["certify", "--traj", str(fuzz_dir / "run.traj")]
        else:
            flags, base = _cap_steps({**SOLVER_DEFAULTS, **dict(drawn)}), [command]
        if via_config:
            lines = [f"{flag[2:]} = {value}" for flag, value in flags.items()] + [noise]
            (fuzz_dir / "flags.cfg").write_text("\n".join(lines) + "\n")
            argv = base + ["--config", str(fuzz_dir / "flags.cfg")]
        else:
            argv = base + [tok for flag, value in flags.items() for tok in (flag, value)]
        argv += ["--out-dir", str(fuzz_dir / "flags_out")]
        # --jobs starts a pool only with --dt-study, which is never passed here
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a value with exit 2
                code = exc.code
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0 and "--jobs" in flags:
            args = build_parser().parse_args(_apply_config_file(argv, build_parser()))
            assert args.jobs >= 1
