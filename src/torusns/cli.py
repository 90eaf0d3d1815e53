"""Batch front end: configure runs, execute solvers, emit artifacts.

Subcommands: decay, manufactured, taylor_green, linearized, certify,
selftest.  Every solver run writes a trajectory file (TRAJ format), a norm
time series CSV with the fixed columns

    t,l2,h1,h2,linf,div,lps_partial

and a certificate JSON.  Outputs are deterministic for identical inputs;
floats are rendered with 17 significant digits in the CSV and shortest
round-trip representation in the JSON.

Exit codes: 0 success, 2 configuration error, 3 solver abort (blow-up or
rejected step), 4 invariant failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import estimates, problems
from .eigenbasis import build_basis, load_basis, project_coefficients
from .fields import (
    _FMT,
    _MAX_COEFFS,
    SpectralVectorField,
    bandwidth_of,
    load_field,
    random_scalar_field,
    random_vector_field,
    truncate_vector,
)
from .galerkin import (
    FieldTrajectory,
    SolverAbort,
    SolverConfig,
    assemble_linearized,
    cumulative_trapezoid,
    energy_identity_defect,
    linearized_closed_form,
    load_trajectory,
    residual,
    save_trajectory,
    solve_linearized,
    solve_navier_stokes,
)
from .helmholtz import (
    decompose,
    derivative_commutation_defect,
    leray_project,
    recover_pressure,
)
from .operators import (
    convect,
    div,
    grad,
    hs_norm,
    inner_l2,
    l2_norm_exact,
    lp_norm,
    rot,
    laplacian,
    _fast_len,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4


class ConfigError(Exception):
    pass


class InvariantFailure(Exception):
    pass


@dataclass
class RunSpec:
    """Resolved description of one batch run."""

    problem: str
    config: SolverConfig
    ell: float
    amplitude: float = 1.0
    out_dir: Path = Path(".")
    grid: int | None = None
    lps_pairs: list[tuple[float, float]] = field(default_factory=list)
    bochner_pairs: list[tuple[int, int]] = field(default_factory=list)
    u0_path: str | None = None
    f_path: str | None = None
    w_path: str | None = None
    dt_study: int | None = None
    jobs: int = 1
    admissible_only: bool = False


def _fmt(x: float) -> str:
    return _FMT.format(float(x))


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_FMT.format(obj)) if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _round_floats(float(obj))
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_round_floats(obj), indent=2, sort_keys=True) + "\n")


def _norm_grid(spec_grid: int | None, cutoff: int) -> int:
    """Quadrature grid for the L^p, L^inf and LPS norms at shell cutoff ``cutoff``.

    A grid coarser than 2B+1 cannot resolve the fields, so it is rejected,
    and so is a grid of more than 2^24 points, the ceiling on field files.
    """
    bw = bandwidth_of(cutoff)
    if spec_grid is None:
        return _fast_len(max(2 * bw + 1, 16))
    if spec_grid < 2 * bw + 1:
        raise ConfigError(
            f"--grid {spec_grid} cannot resolve cutoff {cutoff}: need at least {2 * bw + 1}"
        )
    if spec_grid**3 > _MAX_COEFFS:
        raise ConfigError(f"--grid {spec_grid} has more than {_MAX_COEFFS} points")
    return spec_grid


def _write_norms_csv(
    path: Path, traj: FieldTrajectory, grid_n: int, lps_pair: tuple[float, float]
) -> None:
    s_exp, r_exp = lps_pair
    rows = ["t,l2,h1,h2,linf,div,lps_partial"]
    spatial = np.array([lp_norm(u, r_exp, grid_n) for u in traj.fields])
    if math.isinf(s_exp):
        partial = np.maximum.accumulate(spatial)
    else:
        partial = cumulative_trapezoid(spatial**s_exp, traj.times) ** (1.0 / s_exp)
    for i, (t, u) in enumerate(zip(traj.times, traj.fields)):
        rows.append(
            ",".join(
                _fmt(x)
                for x in (
                    t,
                    l2_norm_exact(u),
                    hs_norm(u, 1),
                    hs_norm(u, 2),
                    lp_norm(u, math.inf, grid_n),
                    l2_norm_exact(div(u)),
                    partial[i],
                )
            )
        )
    path.write_text("\n".join(rows) + "\n")


def _certificate_payload(
    traj: FieldTrajectory,
    f,
    mu: float,
    spec: RunSpec,
    extra_norms: dict | None = None,
    f_series=None,
    w=None,
    energy_defect: bool = True,
) -> dict:
    grid_n = _norm_grid(spec.grid, traj.cutoff)
    cert = estimates.energy_certificate(traj, f, traj.initial, mu, w=w, grid_n=grid_n)
    lps_reports = []
    for s_exp, r_exp in spec.lps_pairs or [(4.0, 6.0)]:
        rep = estimates.lps_norm(traj, s_exp, r_exp, grid_n)
        if spec.admissible_only and not rep.admissible:
            raise ConfigError(
                f"LPS pair ({s_exp}, {r_exp}) is not admissible (2/s + 3/r != 1)"
            )
        lps_reports.append(rep.to_dict())
    norms = {
        "l2_max": max(l2_norm_exact(u) for u in traj.fields),
        "h1_max": max(hs_norm(u, 1) for u in traj.fields),
        "linf_max": max(lp_norm(u, math.inf, grid_n) for u in traj.fields),
        "div_max": max(l2_norm_exact(div(u)) for u in traj.fields),
    }
    if energy_defect:
        # defect of the nonlinear evolution balance; skipped for the
        # drift-linearized problem, whose balance carries an extra work term
        norms["energy_defect_max"] = float(np.max(energy_identity_defect(traj, f, mu)))
    bochner = []
    for k, s in spec.bochner_pairs:
        bn = estimates.bochner_scale_norm(traj, k, s, mu, f_series=f_series)
        bochner.append(bn.to_dict())
    if bochner:
        norms["bochner"] = bochner
    if extra_norms:
        norms.update(extra_norms)
    payload = cert.to_dict()
    payload["lps"] = lps_reports
    payload["norms"] = norms
    return payload


def _emit_run_outputs(
    spec: RunSpec,
    traj: FieldTrajectory,
    f,
    mu: float,
    extra_norms: dict | None = None,
    f_series=None,
    w=None,
    energy_defect: bool = True,
) -> dict:
    out = spec.out_dir
    out.mkdir(parents=True, exist_ok=True)
    save_trajectory(traj, out / "run.traj")
    grid_n = _norm_grid(spec.grid, traj.cutoff)
    lps_pair = (spec.lps_pairs or [(4.0, 6.0)])[0]
    _write_norms_csv(out / "norms.csv", traj, grid_n, lps_pair)
    payload = _certificate_payload(traj, f, mu, spec, extra_norms, f_series, w, energy_defect)
    _write_json(out / "certificate.json", payload)
    return payload


def _load_vector(path: str) -> SpectralVectorField:
    try:
        fieldval = load_field(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field file {path}: {exc}") from exc
    if not isinstance(fieldval, SpectralVectorField):
        raise ConfigError(f"{path} does not hold a vector field")
    return fieldval


# ---------------------------------------------------------------------------
# Problem runners.
# ---------------------------------------------------------------------------


def run(spec: RunSpec) -> int:
    """Execute a solver run described by ``spec`` and write its artifacts."""
    if spec.problem == "decay":
        return _run_decay(spec)
    if spec.problem == "manufactured":
        return _run_manufactured(spec)
    if spec.problem == "taylor_green":
        return _run_taylor_green(spec)
    if spec.problem == "linearized":
        return _run_linearized(spec)
    if spec.problem == "custom":
        return _run_custom(spec)
    raise ConfigError(f"unknown problem {spec.problem!r}")


def _run_decay(spec: RunSpec) -> int:
    cfg = spec.config
    u0 = problems.shear_field(spec.ell, cfg.cutoff, spec.amplitude)
    traj = solve_navier_stokes(None, u0, cfg)
    final_amp = problems.shear_decay_amplitude(
        traj.horizon, cfg.mu, spec.ell, spec.amplitude
    )
    exact_final = problems.shear_field(spec.ell, cfg.cutoff, 1.0) * final_amp
    decay_error = l2_norm_exact(traj.final - exact_final)
    pressures = [recover_pressure(None, u) for u in traj.fields]
    res = residual(traj, pressures, None, cfg.mu)
    payload = _emit_run_outputs(
        spec,
        traj,
        None,
        cfg.mu,
        extra_norms={
            "decay_error_l2": decay_error,
            "pressure_residual_max": float(np.max(res)),
        },
    )
    print(f"final L2 error vs closed form: {_fmt(decay_error)}")
    print(f"pressure residual max: {_fmt(float(np.max(res)))}")
    print(f"certificate pass: {payload['pass']} (ratio {_fmt(payload['ratio'])})")
    if not payload["pass"]:
        raise InvariantFailure("energy certificate failed on a converged decay run")
    return EXIT_OK


def _study_worker(task) -> tuple[float, float]:
    scheme, dt, cutoff, horizon, ell, mu = task
    prob = problems.two_shell_problem(ell=ell, mu=mu)
    [(dt_out, err)] = problems.temporal_order_study(
        scheme, [dt], prob, cutoff=cutoff, horizon=horizon
    )
    return dt_out, err


def _run_manufactured(spec: RunSpec) -> int:
    cfg = spec.config
    prob = problems.two_shell_problem(ell=spec.ell, mu=cfg.mu)
    if spec.dt_study is not None:
        if spec.dt_study < 2:
            raise ConfigError(
                f"--dt-study needs at least 2 points to fit an order, got {spec.dt_study}"
            )
        dts = [cfg.dt * 0.5**i for i in range(spec.dt_study)]
        tasks = [(cfg.scheme, dt, cfg.cutoff, cfg.horizon, spec.ell, cfg.mu) for dt in dts]
        if spec.jobs > 1:
            with ProcessPoolExecutor(max_workers=min(spec.jobs, len(tasks))) as pool:
                results = list(pool.map(_study_worker, tasks))
        else:
            results = [_study_worker(t) for t in tasks]
        order = problems.observed_order(results)
        spec.out_dir.mkdir(parents=True, exist_ok=True)
        rows = ["dt,error"] + [f"{_fmt(dt)},{_fmt(err)}" for dt, err in results]
        (spec.out_dir / "dt_study.csv").write_text("\n".join(rows) + "\n")
        _write_json(
            spec.out_dir / "dt_study.json",
            {"scheme": cfg.scheme, "points": [list(r) for r in results], "observed_order": order},
        )
        print(f"observed order: {_fmt(order)}")
        return EXIT_OK
    u0 = truncate_vector(prob.initial, cfg.cutoff)
    traj = solve_navier_stokes(prob.forcing, u0, cfg)
    err = max(
        l2_norm_exact(u - prob.velocity(float(t)))
        for t, u in zip(traj.times, traj.fields)
    )
    f_series = [prob.forcing_derivative(j) for j in range(4)]
    payload = _emit_run_outputs(
        spec,
        traj,
        prob.forcing,
        cfg.mu,
        extra_norms={"manufactured_error_l2": err},
        f_series=f_series,
    )
    print(f"max L2 error vs manufactured solution: {_fmt(err)}")
    print(f"certificate pass: {payload['pass']} (ratio {_fmt(payload['ratio'])})")
    if not payload["pass"]:
        raise InvariantFailure("energy certificate failed on a converged run")
    return EXIT_OK


def _run_taylor_green(spec: RunSpec) -> int:
    cfg = spec.config
    u0 = problems.taylor_green_field(spec.ell, cfg.cutoff, spec.amplitude)
    traj = solve_navier_stokes(None, u0, cfg)
    payload = _emit_run_outputs(spec, traj, None, cfg.mu)
    print(f"certificate pass: {payload['pass']} (ratio {_fmt(payload['ratio'])})")
    if not payload["pass"]:
        raise InvariantFailure("energy certificate failed on a converged run")
    return EXIT_OK


def _run_linearized(spec: RunSpec) -> int:
    cfg = spec.config
    w = (
        _load_vector(spec.w_path)
        if spec.w_path
        else problems.taylor_green_field(spec.ell, cfg.cutoff, 0.3)
    )
    u0 = (
        _load_vector(spec.u0_path)
        if spec.u0_path
        else problems.shear_field(spec.ell, cfg.cutoff, spec.amplitude)
    )
    f = _load_vector(spec.f_path) if spec.f_path else None
    basis = build_basis(spec.ell, cfg.cutoff)
    op = assemble_linearized(w, basis, cfg.mu)
    traj = solve_linearized(op, f, u0, cfg)
    c0 = project_coefficients(u0, basis)
    f_const = None if f is None else project_coefficients(f, basis)
    exact = linearized_closed_form(op, f_const, c0, traj.times)
    numeric = np.stack([project_coefficients(u, basis) for u in traj.fields])
    agreement = float(np.max(np.abs(exact - numeric)))
    payload = _emit_run_outputs(
        spec,
        traj,
        f,
        cfg.mu,
        extra_norms={"matrix_exponential_agreement": agreement},
        w=w,
        energy_defect=False,
    )
    print(f"matrix exponential agreement: {_fmt(agreement)}")
    print(f"integrator error estimate: {_fmt(traj.error_estimate)}")
    print(f"certificate pass: {payload['pass']} (ratio {_fmt(payload['ratio'])})")
    return EXIT_OK


def _run_custom(spec: RunSpec) -> int:
    cfg = spec.config
    if spec.u0_path is None:
        raise ConfigError("custom problem requires --u0")
    u0 = _load_vector(spec.u0_path)
    f = _load_vector(spec.f_path) if spec.f_path else None
    traj = solve_navier_stokes(f, u0, cfg)
    f_series = None if f is None else [f]
    payload = _emit_run_outputs(spec, traj, f, cfg.mu, f_series=f_series)
    print(f"certificate pass: {payload['pass']} (ratio {_fmt(payload['ratio'])})")
    return EXIT_OK


def _run_certify(args) -> int:
    if not 0 < args.mu < math.inf:
        raise ConfigError(f"viscosity mu must be positive and finite, got {args.mu}")
    try:
        traj = load_trajectory(args.traj)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read trajectory {args.traj}: {exc}") from exc
    f = _load_vector(args.f) if args.f else None
    spec = _spec_from_args(args, problem="certify", need_config=False)
    max_s = max((s for _, s in spec.bochner_pairs), default=0)
    f_series = None
    if f is not None:
        f_series = [f] + [None] * max(0, max_s - 1)
    payload = _certificate_payload(traj, f, args.mu, spec, f_series=f_series)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(spec.out_dir / "certificate.json", payload)
    print(f"certificate pass: {payload['pass']} (ratio {_fmt(payload['ratio'])})")
    for rep in payload["lps"]:
        print(
            f"lps s={rep['s']} r={rep['r']} admissible={rep['admissible']} "
            f"value={_fmt(rep['value'])}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Self test.
# ---------------------------------------------------------------------------


def _selftest_checks(cutoff: int, basis_path: str | None):
    ell = 2.0 * math.pi
    rng = np.random.default_rng(2024)

    def check_derham():
        worst = 0.0
        for _ in range(10):
            p = random_scalar_field(ell, cutoff, rng)
            v = random_vector_field(ell, cutoff, rng)
            scale = hs_norm(v, 2) + hs_norm(p, 2)
            worst = max(worst, l2_norm_exact(rot(grad(p))) / scale)
            worst = max(worst, l2_norm_exact(div(rot(v))) / scale)
            ident = rot(rot(v)) * (-1.0) + grad(div(v)) - laplacian(v)
            worst = max(worst, l2_norm_exact(ident) / scale)
        return worst <= 1e-13, f"max relative defect {worst:.2e}"

    def check_projection():
        worst = 0.0
        for _ in range(10):
            v = random_vector_field(ell, cutoff, rng)
            pv = leray_project(v)
            scale = l2_norm_exact(v)
            worst = max(worst, l2_norm_exact(leray_project(pv) - pv) / scale)
            worst = max(worst, l2_norm_exact(div(pv)) / scale)
            worst = max(worst, derivative_commutation_defect(v, 1) / hs_norm(v, 1))
            d = decompose(v)
            worst = max(
                worst, l2_norm_exact(d.solenoidal + d.gradient_part - v) / scale
            )
        return worst <= 1e-13, f"max relative defect {worst:.2e}"

    def check_basis_gram():
        basis = load_basis(basis_path) if basis_path else build_basis(ell, cutoff)
        fields = basis.all_fields()
        mat = np.stack([f.coeff_stack().ravel() for f in fields])
        gram = np.real(mat.conj() @ mat.T) * basis.ell**3
        dev = float(np.max(np.abs(gram - np.eye(len(fields)))))
        return dev <= 1e-12, f"Gram deviation {dev:.2e}"

    def check_eigen_identities():
        basis = load_basis(basis_path) if basis_path else build_basis(ell, cutoff)
        kappa2 = (2.0 * math.pi / basis.ell) ** 2
        worst = 0.0
        for m, _, f in basis.entries:
            worst = max(worst, l2_norm_exact(rot(rot(f)) - f * (m * kappa2)))
        for m, _, f in basis.gradient_entries:
            worst = max(worst, l2_norm_exact(grad(div(f)) + f * (m * kappa2)))
        return worst <= 1e-11, f"max eigen defect {worst:.2e}"

    def check_energy_identity():
        u0 = problems.shear_field(ell, cutoff, 1.0)
        cfg = SolverConfig(mu=0.1, horizon=0.25, cutoff=cutoff, dt=1e-3)
        traj = solve_navier_stokes(None, u0, cfg)
        defect = float(np.max(energy_identity_defect(traj, None, 0.1)))
        return defect <= 1e-6, f"max defect {defect:.2e}"

    def check_perov():
        t = np.linspace(0.0, 2.0, 201)
        bound = estimates.perov_bound(
            estimates.PerovInput(3.0, 1.0, t, 0.5 * np.ones_like(t), np.zeros_like(t))
        )
        err1 = float(np.max(np.abs(bound - 3.0 * np.exp(0.5 * t))))
        bound2 = estimates.perov_bound(
            estimates.PerovInput(1.0, 0.5, t, np.zeros_like(t), np.ones_like(t))
        )
        err2 = float(np.max(np.abs(bound2 - (1.0 + t / 2.0) ** 2)))
        err = max(err1, err2)
        return err <= 1e-10, f"closed-form error {err:.2e}"

    def check_product_oracle():
        w = leray_project(random_vector_field(ell, min(cutoff, 3), rng))
        u = random_vector_field(ell, min(cutoff, 3), rng)
        fast = convect(w, u)
        slow = _brute_convect(w, u)
        dev = l2_norm_exact(fast - slow) / max(l2_norm_exact(slow), 1e-30)
        skew = abs(inner_l2(fast, u)) / (hs_norm(w, 2) * hs_norm(u, 1) ** 2)
        worst = max(dev, skew)
        return worst <= 1e-12, f"oracle deviation {worst:.2e}"

    return [
        ("derham_identities", check_derham),
        ("helmholtz_projection", check_projection),
        ("eigenbasis_gram", check_basis_gram),
        ("eigenbasis_eigen_identities", check_eigen_identities),
        ("energy_identity", check_energy_identity),
        ("perov_closed_forms", check_perov),
        ("dealiased_product_oracle", check_product_oracle),
    ]


def _brute_convect(w: SpectralVectorField, u: SpectralVectorField) -> SpectralVectorField:
    """Triple loop over coefficient maps; the independent convolution oracle."""
    out_cutoff = u.cutoff
    bw_out = bandwidth_of(out_cutoff)
    side = 2 * bw_out + 1
    out = np.zeros((3, side, side, side), dtype=np.complex128)
    fac = 2.0j * math.pi / u.ell
    wmodes = [list(c.modes()) for c in w.components]
    for i, comp in enumerate(u.components):
        umodes = list(comp.modes())
        for j in range(3):
            for kw, cw in wmodes[j]:
                for ku, cu in umodes:
                    k = (kw[0] + ku[0], kw[1] + ku[1], kw[2] + ku[2])
                    if k[0] ** 2 + k[1] ** 2 + k[2] ** 2 <= out_cutoff:
                        out[i, bw_out + k[0], bw_out + k[1], bw_out + k[2]] += (
                            cw * fac * ku[j] * cu
                        )
    return SpectralVectorField.from_stack(u.ell, out_cutoff, out)


def _run_selftest(args) -> int:
    failures = 0
    checks = _selftest_checks(args.M, args.basis)
    width = max(len(name) for name, _ in checks)
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        print(f"{name.ljust(width)}  {status}  {detail}")
        if not ok:
            failures += 1
    if failures:
        raise InvariantFailure(f"{failures} selftest check(s) failed")
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _parse_pair(text: str, kinds, what: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"{what} expects 'a,b', got {text!r}")
    out = []
    for raw, kind in zip(parts, kinds):
        raw = raw.strip()
        if kind is float and raw.lower() in ("inf", "infinity"):
            out.append(math.inf)
        else:
            try:
                out.append(kind(raw))
            except ValueError as exc:
                raise argparse.ArgumentTypeError(f"bad {what} entry {raw!r}") from exc
    return tuple(out)


def _lps_pair(text: str):
    return _parse_pair(text, (float, float), "--lps")


def _bochner_pair(text: str):
    return _parse_pair(text, (int, int), "--bochner")


def _add_common(p: argparse.ArgumentParser, with_solver: bool = True) -> None:
    p.add_argument("--config", help="flat key=value config file; flags win")
    p.add_argument("--mu", type=float, default=0.1, help="viscosity")
    p.add_argument("--ell", type=float, default=2.0 * math.pi, help="torus period")
    p.add_argument("--out-dir", default=".", help="output directory (env TORUS_NS_OUT overrides)")
    p.add_argument("--grid", type=int, default=None, help="quadrature grid per axis")
    p.add_argument("--lps", type=_lps_pair, action="append", default=None, metavar="s,r")
    p.add_argument("--bochner", type=_bochner_pair, action="append", default=None, metavar="k,s")
    p.add_argument("--admissible-only", action="store_true", help="reject non-admissible LPS pairs")
    p.add_argument("--jobs", type=int, default=1, help="workers for study fan-out")
    if with_solver:
        p.add_argument("--T", type=float, default=1.0, help="time horizon")
        p.add_argument("--dt", type=float, default=1e-3, help="time step")
        p.add_argument("--M", type=int, default=4, help="shell cutoff")
        p.add_argument(
            "--scheme", default="if_rk4", type=str.lower, choices=["imex_euler", "if_rk4"]
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-ns",
        description="Fourier-Galerkin Navier-Stokes runs and certificates on the periodic torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("decay", "single shear mode; exact heat closed form"),
        ("manufactured", "manufactured solution run or dt study"),
        ("taylor_green", "Taylor-Green vortex benchmark"),
        ("linearized", "drift-linearized run with matrix-exponential cross-check"),
        ("custom", "run from field files"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name in ("decay", "taylor_green", "linearized"):
            p.add_argument("--amplitude", type=float, default=1.0,
                           help="amplitude of the built-in initial field")
        if name == "manufactured":
            p.add_argument("--dt-study", type=int, default=None, metavar="N",
                           help="run N step-halving points starting at --dt")
        if name in ("linearized", "custom"):
            p.add_argument("--u0", help="initial field file")
            p.add_argument("--f", help="forcing field file")
        if name == "linearized":
            p.add_argument("--w", help="steady drift field file")

    p = sub.add_parser("certify", help="evaluate certificates for a stored trajectory")
    _add_common(p, with_solver=False)
    p.add_argument("--traj", required=True, help="trajectory file")
    p.add_argument("--f", help="steady forcing field file")

    p = sub.add_parser("selftest", help="run the invariant suite")
    _add_common(p, with_solver=False)
    p.add_argument("--M", type=int, default=4, help="shell cutoff for the checks")
    p.add_argument("--basis", help="basis dump to check instead of a fresh build")
    return parser


def _apply_config_file(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Load key=value defaults from --config; explicit flags still win."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return argv
    path = Path(known.config)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    injected: list[str] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        for token in value.split():
            injected.extend([flag, token])
    # injected defaults go right after the subcommand so later flags override
    if not argv:
        return argv
    return [argv[0]] + injected + argv[1:]


def _spec_from_args(args, problem: str, need_config: bool = True) -> RunSpec:
    out_dir = Path(os.environ.get("TORUS_NS_OUT", args.out_dir))
    config = None
    if need_config:
        try:
            config = SolverConfig(
                mu=args.mu,
                horizon=args.T,
                cutoff=args.M,
                dt=args.dt,
                scheme=args.scheme.lower(),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # reject a bad --grid before the solve writes any artifact
        _norm_grid(args.grid, config.cutoff)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    amplitude = getattr(args, "amplitude", 1.0)
    if not math.isfinite(amplitude):
        raise ConfigError(f"--amplitude must be finite, got {amplitude}")
    return RunSpec(
        problem=problem,
        config=config,
        ell=args.ell,
        amplitude=amplitude,
        out_dir=out_dir,
        grid=args.grid,
        lps_pairs=list(args.lps) if args.lps else [],
        bochner_pairs=list(args.bochner) if args.bochner else [],
        u0_path=getattr(args, "u0", None),
        f_path=getattr(args, "f", None),
        w_path=getattr(args, "w", None),
        dt_study=getattr(args, "dt_study", None),
        jobs=args.jobs,
        admissible_only=args.admissible_only,
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv, parser)
        args = parser.parse_args(argv)
        if args.command == "certify":
            return _run_certify(args)
        if args.command == "selftest":
            return _run_selftest(args)
        spec = _spec_from_args(args, problem=args.command)
        return run(spec)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except InvariantFailure as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
