import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torusns.cli import (
    ConfigError,
    _apply_config_file,
    _check_args,
    _selftest_checks,
    build_parser,
    main,
)
from torusns.fields import load_field, random_vector_field, save_field
from torusns.galerkin import FieldTrajectory, load_trajectory, save_trajectory
from torusns.helmholtz import leray_project
from torusns.eigenbasis import build_basis, save_basis
from torusns.operators import multi_indices

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


def _bochner_terms(k, s):
    """Terms (j, alpha, i) that ``bochner_scale_norm(traj, k, s, mu)`` sums, counted
    along its loops: j <= s, |alpha| <= 2(s - j), i <= k."""
    return (k + 1) * sum(
        len(multi_indices(order)) for j in range(s + 1) for order in range(2 * (s - j) + 1)
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
        # finite differences of the samples; re-evaluating the stored rhs reads 0
        assert 0 < cert["norms"]["pressure_residual_max"] <= 1e-8
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


# Flags a subcommand does not read, each with a value that would parse.
UNREAD_FLAGS = [
    ("manufactured", "--amplitude", "nan"),
    ("custom", "--amplitude", "nan"),
    ("certify", "--amplitude", "nan"),
    ("selftest", "--mu", "7"),
    ("selftest", "--ell", "3"),
    ("selftest", "--out-dir", "."),
    ("selftest", "--grid", "9"),
    ("selftest", "--lps", "4,6"),
    ("selftest", "--bochner", "0,1"),
    ("selftest", "--admissible-only", None),
    ("selftest", "--jobs", "5"),
    ("certify", "--ell", "99"),
    ("certify", "--jobs", "5"),
    ("custom", "--ell", "3"),
    ("custom", "--jobs", "2"),
    ("decay", "--jobs", "2"),
    ("taylor_green", "--jobs", "2"),
    ("linearized", "--jobs", "2"),
]


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
        assert "encountered" not in r.stderr  # no numpy overflow warnings

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

    def test_config_path_not_a_file_is_config_error(self, tmp_path):
        r = run_cli(
            "decay", "--T", "0.01", "--dt", "1e-3", "--M", "4", "--config", str(tmp_path),
            "--out-dir", "out", cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "configuration error" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["flag", "env", "below_file"])
    def test_out_dir_not_a_directory_is_config_error(self, decay_dir, tmp_path, where):
        (tmp_path / "taken").write_text("a file\n")
        if where == "below_file":  # unchecked, certify failed only after its norms
            argv = ["certify", "--traj", str(decay_dir[0] / "run.traj"), "--mu", "0.1"]
            argv += ["--out-dir", "taken/x"]
        else:
            argv = ["decay", "--T", "0.01", "--dt", "1e-3", "--M", "4"]
            argv += ["--out-dir", "taken"] if where == "flag" else []
        env = {"TORUS_NS_OUT": "taken"} if where == "env" else None
        r = run_cli(*argv, cwd=tmp_path, env_extra=env)
        assert r.returncode == 2
        assert "configuration error" in r.stderr and "not a directory" in r.stderr
        assert "Traceback" not in r.stderr
        assert (tmp_path / "taken").read_text() == "a file\n"

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["decay", "--T", "1e300", "--dt", "1"],
            ["manufactured", "--dt-study", "40", "--T", "0.01", "--dt", "1e-3"],
            ["manufactured", "--dt-study", "5000", "--T", "0.01", "--dt", "1e-3"],
            ["manufactured", "--dt-study", "9" * 400, "--T", "0.01", "--dt", "1e-3"],
            ["taylor_green", "--M", "36", "--T", "1.272", "--dt", "1e-3"],
        ],
        ids=[
            "decay_1e300_steps", "dt_study_40", "dt_study_underflow", "dt_study_huge",
            "m36_1272_steps",
        ],
    )
    def test_run_too_long_to_store_is_config_error(self, tmp_path, argv):
        # the check alone, so that a check letting such a run through starts nothing
        args = build_parser().parse_args(argv + ["--out-dir", str(tmp_path / "out")])
        with pytest.raises(ConfigError, match="trajectory coefficients|time step dt"):
            _check_args(args)
        assert not (tmp_path / "out").exists()

    def test_one_step_decay_is_config_error(self, tmp_path):
        # a one-step run has 2 samples, too few for the finite-difference residual
        out = tmp_path / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["decay", "--T", "0.01", "--dt", "0.01", "--M", "4", "--out-dir", str(out)])
        assert code == 2
        assert "residual needs 2 steps, got 1" in err.getvalue()
        assert not out.exists()

    def test_largest_m36_run_passes_the_size_check(self, tmp_path):
        argv = ["taylor_green", "--M", "36", "--T", "1.271", "--dt", "1e-3"]
        args = build_parser().parse_args(argv + ["--out-dir", str(tmp_path / "out")])
        _check_args(args)
        assert args.solver.nsteps == 1271

    def test_subnormal_viscosity_gives_finite_certificate(self, tmp_path):
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["decay", "--mu", "1e-320", "--T", "0.01", "--out-dir", str(out)])
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert all(math.isfinite(cert[key]) for key in ("lhs2", "rhs2", "ratio"))

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
            (["manufactured", "--jobs", "0"], "--jobs must be at least 1"),
            (["decay", "--grid", "257"], "points"),
            (["decay", "--ell", "1e300"], "period ell"),
            (["linearized", "--ell", "1e-300"], "period ell"),
            (["decay", "--mu", "inf"], "viscosity"),
            (["certify", "--mu", "0"], "viscosity"),
            (["certify", "--mu", "nan"], "viscosity"),
            (["decay", "--amplitude", "nan"], "--amplitude must be finite"),
            (["taylor_green", "--amplitude", "inf"], "--amplitude must be finite"),
            (["linearized", "--amplitude=-inf"], "--amplitude must be finite"),
            (["decay", "--lps", "2,6", "--admissible-only"], "(2.0, 6.0) is not admissible"),
            (["decay", "--lps", "0.5,6"], "time exponent must be >= 1"),
            (["decay", "--lps", "nan,4"], "time exponent must be >= 1"),
            (["decay", "--lps", "2,1"], "space exponent must lie in (1, infinity]"),
            (["decay", "--lps", "4,nan"], "space exponent must lie in (1, infinity]"),
            (["decay", "--lps", "4,0.5"], "space exponent must lie in (1, infinity]"),
            (["decay", "--bochner", "0,-1"], "indices k and s must be nonnegative"),
            (["decay", "--bochner", "1,60"], f"sum {_bochner_terms(1, 60)} terms"),
            (["decay", "--bochner", "0,14"], f"sum {_bochner_terms(0, 14)} terms"),
            (["taylor_green", "--bochner", "2,10"], f"sum {_bochner_terms(2, 10)} terms"),
            (
                ["manufactured", "--bochner", "1,11", "--bochner", "0,5"],
                f"sum {_bochner_terms(1, 11) + _bochner_terms(0, 5)} terms",
            ),
            (["certify", "--bochner", "1,12"], f"sum {_bochner_terms(1, 12)} terms"),
            (["decay", "--bochner", "0,99999999999999999999"], "more than 16384"),
        ],
        ids=[
            "jobs", "grid", "huge_ell", "tiny_ell", "inf_mu", "certify_zero_mu", "certify_nan_mu",
            "decay_nan_amplitude", "taylor_green_inf_amplitude", "linearized_inf_amplitude",
            "decay_inadmissible_lps", "decay_lps_s_below_1", "decay_lps_nan_s", "decay_lps_r_1",
            "decay_lps_nan_r", "decay_lps_r_below_1", "decay_negative_bochner",
            "decay_bochner_1_60", "decay_bochner_0_14", "taylor_green_bochner_2_10",
            "manufactured_bochner_pairs_add", "certify_bochner_1_12", "decay_huge_bochner",
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

    @pytest.mark.parametrize(
        "command, flag, value", UNREAD_FLAGS, ids=[f"{c}-{f[2:]}" for c, f, _ in UNREAD_FLAGS]
    )
    def test_flag_only_on_subcommands_that_read_it(
        self, decay_dir, tmp_path, command, flag, value
    ):
        argv = [command, flag] + ([] if value is None else [value])
        if command != "selftest":
            argv += ["--out-dir", str(tmp_path / "out")]
        if command == "certify":
            argv += ["--traj", str(decay_dir[0] / "run.traj")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in err.getvalue()
        assert not (tmp_path / "out").exists()


class TestParser:
    """``main`` fills in only the invoked subcommand's flags; what it parses
    is what the full parser parses."""

    ARGV = [
        ["decay", "--mu", "0.2", "--T", "0.5", "--dt", "2e-3", "--M", "9", "--ell", "3.3",
         "--amplitude", "0.5", "--grid", "20", "--lps", "4,6", "--lps", "inf,2",
         "--bochner", "1,1", "--admissible-only", "--scheme", "IMEX_EULER"],
        ["manufactured", "--dt-study", "3", "--jobs", "2", "--M", "2"],
        ["taylor_green", "--amplitude", "2", "--T", "0.1"],
        ["linearized", "--w", "w.field", "--u0", "u0.field", "--f", "f.field", "--bochner", "0,1"],
        ["custom", "--u0", "u0.field", "--f", "f.field", "--M", "16"],
        ["certify", "--traj", "run.traj", "--f", "f.field", "--bochner", "0,2", "--mu", "0.3"],
        ["selftest", "--M", "9", "--basis", "basis.txt"],
    ]

    @pytest.mark.parametrize("argv", ARGV, ids=[a[0] for a in ARGV])
    def test_namespace_matches_full_parser(self, monkeypatch, argv):
        import torusns.cli as cli

        parsed = []

        def stop(args):
            parsed.append(args)
            raise ConfigError("parsed")

        monkeypatch.setattr(cli, "_check_args", stop)
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 2
        assert vars(parsed[0]) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [["custom", "--u0", "u0.field", "stray"], ["decay", "--M", "four"]])
    def test_errors_match_full_parser(self, argv):
        # an unrecognized argument is reported with the top-level usage,
        # which lists every subcommand
        errors = []
        for parse in (main, build_parser().parse_args):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
                parse(argv)
            errors.append((exc.value.code, err.getvalue()))
        assert errors[0] == errors[1] and errors[0][0] == 2

    def test_help_lists_every_subcommand(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        for name in ("decay", "manufactured", "taylor_green", "linearized", "custom",
                     "certify", "selftest"):
            assert re.search(rf"^\s+{name}\s+\S", out.getvalue(), re.M), name

    def test_subcommand_help_lists_its_flags(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            main(["linearized", "--help"])
        assert all(flag in out.getvalue() for flag in ("--w", "--u0", "--amplitude", "--lps"))

    def test_unknown_subcommand_exits_2(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["explode", "--M", "4"])
        assert exc.value.code == 2
        assert "invalid choice: 'explode'" in err.getvalue()


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


class TestGoldenArtifacts:
    """sha256 of the artifacts of small seeded runs, pinned so that a change
    meant to keep every byte of run.traj, norms.csv and certificate.json
    shows when it does not.  The digests assume numpy's pocketfft and an IEEE
    double BLAS, as in the tier-1 environment."""

    DIGESTS = {
        "custom": {
            "run.traj": "396c289a4a2f3ddf82a8f9393f445a9520167d36ae1cc2c31bf0d827fe10bbe5",
            "norms.csv": "70ee1bf7f33dc25355ef2d4fd0747d1f4c2f42f44a8ac3a0331de226e342820a",
            "certificate.json": "e3db1fcc9e5416baf274c532234cba397275af8d9290bd4d0fc1a49169cab36c",
        },
        "linearized": {
            "run.traj": "9b7c34fe23835516e3ac460bb70de58647607740b92050d1cc0b41542eeed330",
            "norms.csv": "2ac1fc34cea4461daa22a09343073df90899d8fb52135f3cd86d6a575c6e3751",
            "certificate.json": "fb2dba490fa5f3c17008003ff461edf14fa66ce4f3f933c1a4c0b8be5d44284b",
        },
        "certify": {
            "certificate.json": "266d3996a29a97d092d0358175a1fecf6ec1b15c1c86a0b0ab1d094dabbd77ec",
        },
    }

    @staticmethod
    def _inputs(command, d):
        """The run's input files in ``d``, from a fixed rng, and its flags."""
        from torusns.problems import smooth_random_divfree

        rng = np.random.default_rng(5147)
        if command == "custom":
            # steps large enough that each step's increment moves the last
            # bits of the samples: a reordered product in the step shows
            save_field(smooth_random_divfree(ELL, 4, rng, amplitude=2.0), d / "u0.field")
            return ["--u0", str(d / "u0.field"), "--M", "4", "--T", "0.1", "--dt", "1e-2",
                    "--mu", "1.0"]
        if command == "linearized":
            save_field(smooth_random_divfree(ELL, 4, rng, amplitude=0.3), d / "w.field")
            save_field(smooth_random_divfree(ELL, 4, rng, amplitude=1.0), d / "u0.field")
            return ["--w", str(d / "w.field"), "--u0", str(d / "u0.field"),
                    "--M", "4", "--T", "0.01", "--dt", "5e-3", "--mu", "0.1"]
        # an exact heat flow at M = 9: the Bochner chain runs the general kernel
        from torusns.fields import wave_cubes

        u0 = smooth_random_divfree(ELL, 9, rng, amplitude=1.0)
        rate = 0.1 * wave_cubes(u0.bandwidth)[3] * (2.0 * math.pi / ELL) ** 2
        times = np.linspace(0.0, 0.5, 6)
        flow = tuple(u0.with_coeffs(u0.coeffs * np.exp(-rate * t)) for t in times)
        save_trajectory(FieldTrajectory(times, flow), d / "input.traj")
        return ["--traj", str(d / "input.traj"), "--bochner", "1,1", "--mu", "0.1"]

    @pytest.mark.parametrize("command", ["custom", "linearized", "certify"])
    def test_artifact_digests(self, tmp_path, monkeypatch, command):
        import hashlib

        monkeypatch.delenv("TORUS_NS_OUT", raising=False)
        argv = [command, *self._inputs(command, tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in self.DIGESTS[command]
        }
        assert digests == self.DIGESTS[command]


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

    def test_config_before_subcommand_is_config_error(self, tmp_path):
        # the file's values must not be read as the subcommand
        (tmp_path / "c.cfg").write_text("T = 0.01\n")
        r = run_cli("--config", "c.cfg", "decay", cwd=tmp_path)
        assert r.returncode == 2
        assert "--config goes after the subcommand" in r.stderr
        assert "invalid choice" not in r.stderr


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


class TestQuadratureSamplings:
    """Each stored sample is sampled once on the quadrature grid per run;
    the solver's CFL check samples once every 25 steps on its own."""

    @pytest.fixture
    def samplings(self, monkeypatch):
        from torusns import operators

        calls = []
        real = operators.sample_values

        def counting(u, n):
            calls.append(n)
            return real(u, n)

        monkeypatch.setattr(operators, "sample_values", counting)
        monkeypatch.delenv("TORUS_NS_OUT", raising=False)
        return calls

    @pytest.mark.parametrize("lps", [[], ["--lps", "4,6", "--lps", "3,inf"]])
    def test_custom_run(self, samplings, tmp_path, lps):
        u0 = leray_project(random_vector_field(ELL, 4, np.random.default_rng(7), amplitude=0.3))
        save_field(u0, tmp_path / "u0.field")
        steps = 30
        argv = [
            "custom", "--u0", str(tmp_path / "u0.field"), "--M", "4", "--T", "0.03",
            "--dt", "1e-3", "--scheme", "if_rk4", "--out-dir", str(tmp_path / "out"), *lps,
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        samples = len(load_trajectory(tmp_path / "out" / "run.traj"))
        assert samples == steps + 1
        assert len(samplings) == samples + math.ceil(steps / 25)

    def test_certify(self, samplings, decay_dir, tmp_path):
        out, _ = decay_dir
        argv = [
            "certify", "--traj", str(out / "run.traj"), "--mu", "0.1",
            "--lps", "4,6", "--lps", "3,inf", "--out-dir", str(tmp_path / "cert"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert len(samplings) == len(load_trajectory(out / "run.traj"))


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

    def test_relabelled_field_fails_eigen_check(self, tmp_path):
        # the constant e_3 dropped and the first m = 1 field relabelled as
        # it: still orthonormal, but rot rot of that "constant" is not 0
        save_basis(build_basis(ELL, 4), tmp_path / "basis.txt")
        blocks = re.split(r"(?m)^(?=BASIS)", (tmp_path / "basis.txt").read_text())
        assert blocks[3].startswith("BASIS 0 3\n") and blocks[4].startswith("BASIS 1 1\n")
        blocks[4] = blocks[4].replace("BASIS 1 1\n", "BASIS 0 3\n", 1)
        (tmp_path / "bad.txt").write_text("".join(blocks[:3] + blocks[4:]))
        r = run_cli("selftest", "--M", "4", "--basis", "bad.txt", cwd=tmp_path)
        assert r.returncode == 4, r.stdout + r.stderr
        failed = [line.split()[0] for line in r.stdout.splitlines() if "  FAIL  " in line]
        assert failed == ["eigenbasis_eigen_identities"]

    @pytest.mark.parametrize("name", ["eigenbasis_gram", "eigenbasis_eigen_identities"])
    def test_basis_checks_hold_one_field_at_a_time(self, name, traced_peak):
        # a dense (fields, coefficients) stack reads 86.5 MiB (Gram) and
        # 17.5 MiB (eigen) at M = 16; one field at a time stays near 0.3 MB
        check = dict(_selftest_checks(16, build_basis(ELL, 16)))[name]
        (ok, detail), peak = traced_peak(check)
        assert ok, detail
        assert peak < 2e6

    def test_cutoff_ceiling_is_a_gibibyte_matrix(self):
        # one (dim, dim) float64 matrix of the basis at M = 124 fits in 1 GiB
        assert build_basis(ELL, 124).dim ** 2 <= 2**27 < build_basis(ELL, 125).dim ** 2

    @pytest.mark.parametrize("command", ["selftest", "linearized"])
    @pytest.mark.parametrize(
        "cutoff, admitted", [(124, True), (125, False), (400, False), (100000, False)]
    )
    def test_cutoff_ceiling(self, tmp_path, command, cutoff, admitted):
        # checked before anything is built or written; linearized --M 400
        # would otherwise allocate its 33 GiB (dim, dim) coupling matrix
        out = tmp_path / "out"
        argv = [command, "--M", str(cutoff)]
        if command == "linearized":
            argv += ["--T", "1e-3", "--dt", "1e-3", "--out-dir", str(out)]
        args = build_parser().parse_args(argv)
        if admitted:
            _check_args(args)
            return
        with pytest.raises(ConfigError, match=f"--M {cutoff} is more than 124"):
            _check_args(args)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert err.getvalue().startswith(f"configuration error: {command} --M {cutoff}")
        assert not out.exists()

    @pytest.mark.parametrize("defect", ["ell", "unparsable", "missing"])
    def test_unloadable_basis_is_config_error(self, tmp_path, defect):
        save_basis(build_basis(ELL, 4), tmp_path / "basis.txt")
        text = (tmp_path / "basis.txt").read_text()
        header = "TORUSFIELD 1 6.2831853071795862 4 3\n0 0 1 1"
        assert header in text
        if defect == "ell":
            # one block of another period
            (tmp_path / "bad.txt").write_text(text.replace(header, "TORUSFIELD 1 3.0 4 3\n0 0 1 1"))
        elif defect == "unparsable":
            (tmp_path / "bad.txt").write_text(text.replace("BASIS 1 1\n", "BASIS one 1\n"))
        r = run_cli("selftest", "--M", "4", "--basis", "bad.txt", cwd=tmp_path)
        assert r.returncode == 2, r.stdout + r.stderr
        assert "cannot read basis dump bad.txt" in r.stderr


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

    def test_drift_wider_than_quadrature_grid(self, tmp_path):
        # the drift's bandwidth 8 needs 17 points, more than the 16 of cutoff 4
        w = leray_project(random_vector_field(ELL, 64, np.random.default_rng(7), amplitude=0.01))
        save_field(w, tmp_path / "w.field")
        r = run_cli(
            "linearized", "--M", "4", "--T", "0.01", "--dt", "5e-3", "--w", "w.field",
            "--out-dir", "lin", cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr

    def test_forcing_above_basis_cutoff_is_truncated(self, tmp_path):
        # the solver truncates --f to the run's cutoff, and so must the
        # closed-form check
        f = leray_project(random_vector_field(ELL, 6, np.random.default_rng(5), amplitude=0.2))
        save_field(f, tmp_path / "f.field")
        r = run_cli(
            "linearized", "--M", "4", "--T", "0.01", "--dt", "5e-3", "--f", "f.field",
            "--out-dir", "lin", cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        cert = json.loads((tmp_path / "lin" / "certificate.json").read_text())
        assert cert["norms"]["matrix_exponential_agreement"] <= 1e-8

    def test_integrates_once(self, tmp_path, monkeypatch):
        # the closed form measures the integrator's error, so no dt/2 run
        import torusns.galerkin as galerkin

        marches, stages = [], []
        march = galerkin._march

        def counted(mu, lam, stage, *rest):
            marches.append(rest)
            return march(mu, lam, lambda c, t: stages.append(t) or stage(c, t), *rest)

        monkeypatch.setattr(galerkin, "_march", counted)
        argv = ["linearized", "--M", "4", "--T", "0.01", "--dt", "5e-3"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--out-dir", str(tmp_path / "lin")]) == 0
        # 2 IF_RK4 steps of 4 stages, plus k1 at the final time
        assert len(marches) == 1 and len(stages) == 4 * 2 + 1
        assert "matrix exponential agreement: " in out.getvalue()

    @pytest.mark.parametrize("pair", ["0,2", "1,3"])
    def test_bochner_beyond_first_time_derivative_rejected(self, tmp_path, pair):
        # the chain's d_t^2 u follows the Navier-Stokes equation, not the
        # linearized one, so its norm would be wrong
        r = run_cli(
            "linearized", "--M", "4", "--T", "0.01", "--dt", "5e-3", "--bochner", "1,1",
            "--bochner", pair, "--out-dir", "lin", cwd=tmp_path,
        )
        assert r.returncode == 2, r.stderr
        assert "--bochner k,s with s <= 1" in r.stderr
        assert not (tmp_path / "lin").exists()


class TestForcingSeries:
    """The Bochner chain reads d_t^j f for j < s: exact derivatives of the
    manufactured forcing, and zeros for a steady --f."""

    def test_manufactured_takes_deep_bochner_orders(self, tmp_path):
        r = run_cli(
            "manufactured", "--T", "0.01", "--dt", "1e-3", "--M", "4", "--bochner", "0,5",
            "--out-dir", "out", cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
        [bochner] = cert["norms"]["bochner"]
        assert (bochner["k"], bochner["s"]) == (0, 5) and math.isfinite(bochner["value"])

    def test_steady_forcing_custom_matches_certify(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TORUS_NS_OUT", raising=False)
        rng = np.random.default_rng(3)
        save_field(leray_project(random_vector_field(ELL, 4, rng, amplitude=0.3)), tmp_path / "u0")
        save_field(leray_project(random_vector_field(ELL, 4, rng, amplitude=0.5)), tmp_path / "f")
        bochner = ["--f", str(tmp_path / "f"), "--bochner", "0,2", "--bochner", "1,3"]
        runs = (
            ["custom", "--u0", str(tmp_path / "u0"), "--T", "0.02", "--dt", "1e-3", "--M", "4"],
            ["certify", "--traj", str(tmp_path / "custom" / "run.traj"), "--mu", "0.1"],
        )
        values = []
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv + bochner + ["--out-dir", str(tmp_path / argv[0])]) == 0
            cert = json.loads((tmp_path / argv[0] / "certificate.json").read_text())
            values.append(cert["norms"]["bochner"])
        assert [(b["k"], b["s"]) for b in values[0]] == [(0, 2), (1, 3)]
        assert values[0] == values[1]

    def test_certify_rejects_generating_from_non_solenoidal_samples(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TORUS_NS_OUT", raising=False)
        u = random_vector_field(ELL, 4, np.random.default_rng(7), amplitude=0.5)
        traj = FieldTrajectory(np.linspace(0.0, 0.1, 3), (u, u * 0.9, u * 0.8))
        save_trajectory(traj, tmp_path / "run.traj")
        base = ["certify", "--traj", str(tmp_path / "run.traj"), "--mu", "0.1"]
        # d_t u is generated at s = 1 and needs a divergence-free sample
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(base + ["--bochner", "1,1", "--out-dir", str(tmp_path / "s1")]) == 2
        assert "must be divergence-free" in err.getvalue()
        assert not (tmp_path / "s1" / "certificate.json").exists()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(base + ["--bochner", "1,0", "--out-dir", str(tmp_path / "s0")]) == 0
        assert (tmp_path / "s0" / "certificate.json").exists()


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

    @pytest.mark.parametrize("study", [[], ["--dt-study", "3"]], ids=["run", "dt_study"])
    def test_manufactured_below_shell_two_is_config_error(self, tmp_path, study):
        # the solution lives on shells 1 and 2: at M = 1 a run printed an
        # error of 3.9 and a study an observed order of -1.3e-16, exiting 0
        out = tmp_path / "out"
        argv = ["manufactured", "--M", "1", "--dt", "4e-3", "--T", "0.1", *study]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out-dir", str(out)])
        assert code == 2
        assert "cannot hold the solution on shells 1 and 2" in err.getvalue()
        assert not out.exists()

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
    "--bochner": ["0,1", "1,0", "1,1", "0,2", "1,5", "-1,0", "0,-1", "x,1", "0"],
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
        admissible_only=st.booleans(),
    )
    # a bad and an inadmissible LPS pair exit 2 before the solve; a deep Bochner order runs
    @example("decay", [("--lps", "2,1")], False, "", False)
    @example("taylor_green", [("--lps", "inf,2")], True, "", True)
    @example("manufactured", [("--bochner", "1,5")], False, "", False)
    def test_exit_code_is_documented(
        self, fuzz_dir, command, drawn, via_config, noise, admissible_only
    ):
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
        argv += ["--admissible-only"] * admissible_only + ["--out-dir", str(fuzz_dir / "flags_out")]
        shutil.rmtree(fuzz_dir / "flags_out", ignore_errors=True)
        # --jobs starts a pool only with --dt-study, which is never passed here
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a value with exit 2
                code = exc.code
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:  # every flag value is checked before anything is written
            assert not (fuzz_dir / "flags_out").exists(), err.getvalue()
        if code == 0 and "--jobs" in flags:
            assert build_parser().parse_args(_apply_config_file(argv)).jobs >= 1
