"""Batch front end: configure runs, execute solvers, emit artifacts.

Subcommands: decay, manufactured, taylor_green, linearized, custom,
certify, selftest; each takes only the flags its runner reads.  Every
solver run writes a trajectory file (TRAJ format), a norm time series CSV
with the fixed columns

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
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import estimates, problems
from .eigenbasis import DivFreeBasis, build_basis, load_basis, project_coefficients
from .fields import (
    _FMT,
    _MAX_COEFFS,
    SpectralVectorField,
    bandwidth_of,
    load_field,
    random_scalar_field,
    random_vector_field,
    truncate,
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
)
from .operators import (
    NormTable,
    convect,
    div,
    grad,
    hs_norm,
    inner_l2,
    l2_norm_exact,
    norm_table,
    rot,
    laplacian,
    _quadrature_grid,
    _require_divfree,
    _self_convect_stack,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4
# terms (j, alpha, i) the Bochner-scale evaluator may sum over all --bochner
# pairs of one run; each is a product over samples and modes, which the
# stored trajectory's ceiling _MAX_COEFFS bounds
_MAX_BOCHNER_TERMS = 2**14


class ConfigError(Exception):
    pass


class InvariantFailure(Exception):
    pass


def _fmt(x: float) -> str:
    return _FMT.format(float(x))


def _json_floats(obj):
    """``obj`` with numpy scalars as Python floats and the non-finite floats,
    which JSON has no number for, as their repr."""
    if isinstance(obj, (np.floating, np.integer)):
        obj = float(obj)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _json_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_floats(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_json_floats(obj), indent=2, sort_keys=True) + "\n")


def _norm_grid(grid: int | None, cutoff: int) -> int:
    """Quadrature grid for the L^p, L^inf and LPS norms at shell cutoff ``cutoff``.

    A grid coarser than 2B+1 cannot resolve the fields, so it is rejected,
    and so is a grid of more than 2^24 points, the ceiling on field files.
    """
    bw = bandwidth_of(cutoff)
    if grid is None:
        return _quadrature_grid(bw)
    if grid < 2 * bw + 1:
        raise ConfigError(
            f"--grid {grid} cannot resolve cutoff {cutoff}: need at least {2 * bw + 1}"
        )
    if grid**3 > _MAX_COEFFS:
        raise ConfigError(f"--grid {grid} has more than {_MAX_COEFFS} points")
    return grid


def _norm_table(traj: FieldTrajectory, args) -> NormTable:
    """The norms of every stored sample, each sample read once: the exact
    norms, and on the quadrature grid L^inf and the L^r of every LPS pair."""
    grid_n = _norm_grid(args.grid, traj.cutoff)
    return norm_table(traj.fields, grid_n, [r for _, r in args.lps])


def _write_norms_csv(
    path: Path, traj: FieldTrajectory, table: NormTable, lps_pair: tuple[float, float]
) -> None:
    s_exp, r_exp = lps_pair
    rows = ["t,l2,h1,h2,linf,div,lps_partial"]
    spatial = np.array(table.lp[r_exp])
    if math.isinf(s_exp):
        partial = np.maximum.accumulate(spatial)
    else:
        partial = cumulative_trapezoid(spatial**s_exp, traj.times) ** (1.0 / s_exp)
    columns = (traj.times, table.l2, table.hs(1), table.hs(2), table.linf, table.div, partial)
    rows += [",".join(_fmt(x) for x in row) for row in zip(*columns)]
    path.write_text("\n".join(rows) + "\n")


def _certificate_payload(
    traj: FieldTrajectory,
    table: NormTable,
    f,
    args,
    extra_norms: dict | None = None,
    f_series=None,
    w=None,
) -> dict:
    cert = estimates.energy_certificate(traj, f, args.mu, w=w, norms=table)
    lps_reports = [
        estimates.lps_report(table, traj.times, s_exp, r_exp).to_dict() for s_exp, r_exp in args.lps
    ]
    norms = {
        "l2_max": max(table.l2),
        "h1_max": max(table.hs(1)),
        "linf_max": max(table.linf),
        "div_max": max(table.div),
    }
    if w is None:
        # defect of the nonlinear evolution balance; skipped for the
        # drift-linearized problem, whose balance carries an extra work term
        defect = energy_identity_defect(traj, f, args.mu, norms=table)
        norms["energy_defect_max"] = float(np.max(defect))
    bochner = []
    for k, s in args.bochner:
        bn = estimates.bochner_scale_norm(traj, k, s, args.mu, f_series=f_series)
        bochner.append(bn.to_dict())
    if bochner:
        norms["bochner"] = bochner
    if extra_norms:
        norms.update(extra_norms)
    payload = cert.to_dict()
    payload["lps"] = lps_reports
    payload["norms"] = norms
    return payload


def _emit_run_outputs(args, traj: FieldTrajectory, f, **options) -> dict:
    """Write run.traj, norms.csv and certificate.json; ``options`` are the
    keyword arguments of :func:`_certificate_payload`."""
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    save_trajectory(traj, out / "run.traj")
    table = _norm_table(traj, args)
    _write_norms_csv(out / "norms.csv", traj, table, args.lps[0])
    payload = _certificate_payload(traj, table, f, args, **options)
    _write_json(out / "certificate.json", payload)
    return payload


def _report_certificate(payload: dict, converged: str | None = None) -> None:
    """Print the certificate verdict.  On a ``converged`` run, one whose
    solution is known to be resolved, a failed certificate is an invariant
    failure."""
    print(f"certificate pass: {payload['pass']} (ratio {_fmt(payload['ratio'])})")
    if converged and not payload["pass"]:
        raise InvariantFailure(f"energy certificate failed on a converged {converged}")


def _bochner_depth(args) -> int:
    """Time derivatives of the forcing that the --bochner norms read."""
    return max((s for _, s in args.bochner), default=0)


def _steady_series(f: SpectralVectorField | None, args) -> list | None:
    """A steady forcing and its time derivatives, all zero (None)."""
    return None if f is None else [f] + [None] * max(0, _bochner_depth(args) - 1)


def _load_vector(path: str) -> SpectralVectorField:
    try:
        fieldval = load_field(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field file {path}: {exc}") from exc
    if not isinstance(fieldval, SpectralVectorField):
        raise ConfigError(f"{path} does not hold a vector field")
    return fieldval


# ---------------------------------------------------------------------------
# Subcommand runners.  Each reads the parsed flags, which _check_args has
# validated, and raises on failure; main maps the exceptions to exit codes.
# ---------------------------------------------------------------------------


def _run_decay(args) -> None:
    cfg = args.solver
    u0 = problems.shear_field(args.ell, cfg.cutoff, args.amplitude)
    traj = solve_navier_stokes(None, u0, cfg)
    final_amp = problems.shear_decay_amplitude(
        traj.horizon, cfg.mu, args.ell, args.amplitude
    )
    exact_final = problems.shear_field(args.ell, cfg.cutoff, 1.0) * final_amp
    decay_error = l2_norm_exact(traj.final - exact_final)
    # the samples' O(dt^2) finite-difference residual; their stored rhs would give 0
    res = residual(replace(traj, rhs=None), None, cfg.mu)
    payload = _emit_run_outputs(
        args,
        traj,
        None,
        extra_norms={
            "decay_error_l2": decay_error,
            "pressure_residual_max": float(np.max(res)),
        },
    )
    print(f"final L2 error vs closed form: {_fmt(decay_error)}")
    print(f"pressure residual max: {_fmt(float(np.max(res)))}")
    _report_certificate(payload, converged="decay run")


def _study_worker(task) -> tuple[float, float]:
    scheme, dt, cutoff, horizon, ell, mu = task
    prob = problems.two_shell_problem(ell=ell, mu=mu)
    [(dt_out, err)] = problems.temporal_order_study(
        scheme, [dt], prob, cutoff=cutoff, horizon=horizon
    )
    return dt_out, err


def _run_manufactured(args) -> None:
    cfg = args.solver
    prob = problems.two_shell_problem(ell=args.ell, mu=cfg.mu)
    if args.dt_study is not None:
        if args.dt_study < 2:
            raise ConfigError(
                f"--dt-study needs at least 2 points to fit an order, got {args.dt_study}"
            )
        dts = [cfg.dt * 0.5**i for i in range(args.dt_study)]
        tasks = [(cfg.scheme, dt, cfg.cutoff, cfg.horizon, args.ell, cfg.mu) for dt in dts]
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
                results = list(pool.map(_study_worker, tasks))
        else:
            results = [_study_worker(t) for t in tasks]
        order = problems.observed_order(results)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        rows = ["dt,error"] + [f"{_fmt(dt)},{_fmt(err)}" for dt, err in results]
        (args.out_dir / "dt_study.csv").write_text("\n".join(rows) + "\n")
        _write_json(
            args.out_dir / "dt_study.json",
            {"scheme": cfg.scheme, "points": [list(r) for r in results], "observed_order": order},
        )
        print(f"observed order: {_fmt(order)}")
        return
    u0 = truncate(prob.initial, cfg.cutoff)
    traj = solve_navier_stokes(prob.forcing, u0, cfg)
    err = max(
        l2_norm_exact(u - prob.velocity(float(t)))
        for t, u in zip(traj.times, traj.fields)
    )
    f_series = [prob.forcing_derivative(j) for j in range(_bochner_depth(args))]
    payload = _emit_run_outputs(
        args,
        traj,
        prob.forcing,
        extra_norms={"manufactured_error_l2": err},
        f_series=f_series,
    )
    print(f"max L2 error vs manufactured solution: {_fmt(err)}")
    _report_certificate(payload, converged="run")


def _run_taylor_green(args) -> None:
    cfg = args.solver
    u0 = problems.taylor_green_field(args.ell, cfg.cutoff, args.amplitude)
    traj = solve_navier_stokes(None, u0, cfg)
    payload = _emit_run_outputs(args, traj, None)
    _report_certificate(payload, converged="run")


def _run_linearized(args) -> None:
    cfg = args.solver
    # the Bochner chain builds d_t^j u, j >= 2, from the Navier-Stokes equation
    if any(s >= 2 for _, s in args.bochner):
        raise ConfigError("linearized runs take --bochner k,s with s <= 1")
    w = (
        _load_vector(args.w)
        if args.w
        else problems.taylor_green_field(args.ell, cfg.cutoff, 0.3)
    )
    u0 = (
        _load_vector(args.u0)
        if args.u0
        else problems.shear_field(args.ell, cfg.cutoff, args.amplitude)
    )
    # the solver reads f truncated to the basis, and so must the closed form
    f = truncate(_load_vector(args.f), cfg.cutoff) if args.f else None
    basis = build_basis(args.ell, cfg.cutoff)
    op = assemble_linearized(w, basis, cfg.mu)
    _require_divfree(u0, "initial field")
    c0 = project_coefficients(u0, basis)
    traj = solve_linearized(op, f, c0, replace(cfg, attach_error_estimate=True))
    f_const = None if f is None else project_coefficients(f, basis)
    exact = linearized_closed_form(op, f_const, c0, traj.times)
    numeric = np.stack([project_coefficients(u, basis) for u in traj.fields])
    agreement = float(np.max(np.abs(exact - numeric)))
    payload = _emit_run_outputs(
        args,
        traj,
        f,
        extra_norms={"matrix_exponential_agreement": agreement},
        w=w,
    )
    print(f"matrix exponential agreement: {_fmt(agreement)}")
    print(f"integrator error estimate: {_fmt(traj.error_estimate)}")
    _report_certificate(payload)


def _run_custom(args) -> None:
    if args.u0 is None:
        raise ConfigError("custom problem requires --u0")
    u0 = _load_vector(args.u0)
    f = _load_vector(args.f) if args.f else None
    traj = solve_navier_stokes(f, u0, args.solver)
    payload = _emit_run_outputs(args, traj, f, f_series=_steady_series(f, args))
    _report_certificate(payload)


def _run_certify(args) -> None:
    if not 0 < args.mu < math.inf:
        raise ConfigError(f"viscosity mu must be positive and finite, got {args.mu}")
    try:
        traj = load_trajectory(args.traj)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read trajectory {args.traj}: {exc}") from exc
    f = _load_vector(args.f) if args.f else None
    payload = _certificate_payload(
        traj, _norm_table(traj, args), f, args, f_series=_steady_series(f, args)
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(args.out_dir / "certificate.json", payload)
    _report_certificate(payload)
    for rep in payload["lps"]:
        print(
            f"lps s={rep['s']} r={rep['r']} admissible={rep['admissible']} "
            f"value={_fmt(rep['value'])}"
        )


# ---------------------------------------------------------------------------
# Self test.
# ---------------------------------------------------------------------------


def _selftest_checks(cutoff: int, basis: DivFreeBasis):
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
        fields = [*basis.fields(), *basis.gradient.fields()]
        mat = np.stack([f.coeffs.ravel() for f in fields])
        gram = np.real(mat.conj() @ mat.T) * basis.ell**3
        dev = float(np.max(np.abs(gram - np.eye(len(fields)))))
        return dev <= 1e-12, f"Gram deviation {dev:.2e}"

    def check_eigen_identities():
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
        v = leray_project(u)
        fast = convect(w, u)
        # the solver's kernel div(w (x) w), and div(w (x) v + v (x) w), the chain's order 1
        solver = w.with_coeffs(_self_convect_stack((w.coeffs,), ell, w.cutoff))
        chain = w.with_coeffs(_self_convect_stack((w.coeffs, v.coeffs), ell, w.cutoff))
        pairs = ((fast, _brute_convect(w, u)), (solver, _brute_convect(w, w)),
                 (chain, _brute_convect(w, v) + _brute_convect(v, w)))
        dev = max(l2_norm_exact(a - b) / max(l2_norm_exact(b), 1e-30) for a, b in pairs)
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


def _brute_convect(
    w: SpectralVectorField, u: SpectralVectorField, out_cutoff: int | None = None
) -> SpectralVectorField:
    """Triple loop over coefficient maps; the independent convolution oracle.
    The product is kept up to ``out_cutoff``, by default that of ``u``."""
    if out_cutoff is None:
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
    return SpectralVectorField(u.ell, out_cutoff, out)


def _run_selftest(args) -> None:
    try:
        basis = load_basis(args.basis) if args.basis else None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read basis dump {args.basis}: {exc}") from exc
    failures = 0
    checks = _selftest_checks(args.M, basis or build_basis(2.0 * math.pi, args.M))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-ns",
        description="Fourier-Galerkin Navier-Stokes runs and certificates on the periodic torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    lps_pair = partial(_parse_pair, kinds=(float, float), what="--lps")
    bochner_pair = partial(_parse_pair, kinds=(int, int), what="--bochner")

    # each subcommand takes only the flags its runner reads
    for name, run, helptext in (
        ("decay", _run_decay, "single shear mode; exact heat closed form"),
        ("manufactured", _run_manufactured, "manufactured solution run or dt study"),
        ("taylor_green", _run_taylor_green, "Taylor-Green vortex benchmark"),
        ("linearized", _run_linearized, "drift-linearized run with matrix-exponential cross-check"),
        ("custom", _run_custom, "run from field files"),
        ("certify", _run_certify, "evaluate certificates for a stored trajectory"),
        ("selftest", _run_selftest, "run the invariant suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(run=run)
        p.add_argument("--config", help="flat key=value config file; flags win")
        if name == "selftest":
            p.add_argument("--M", type=int, default=4, help="shell cutoff for the checks")
            p.add_argument("--basis", help="basis dump to check instead of a fresh build")
            continue
        p.add_argument("--mu", type=float, default=0.1, help="viscosity")
        p.add_argument("--out-dir", default=".", help="output directory (env TORUS_NS_OUT overrides)")
        p.add_argument("--grid", type=int, default=None, help="quadrature grid per axis")
        p.add_argument("--lps", type=lps_pair, action="append", default=None, metavar="s,r")
        p.add_argument("--bochner", type=bochner_pair, action="append", default=[], metavar="k,s")
        p.add_argument("--admissible-only", action="store_true", help="reject non-admissible LPS pairs")
        if name == "certify":
            p.add_argument("--traj", required=True, help="trajectory file")
            p.add_argument("--f", help="steady forcing field file")
            continue
        p.add_argument("--T", type=float, default=1.0, help="time horizon")
        p.add_argument("--dt", type=float, default=1e-3, help="time step")
        p.add_argument("--M", type=int, default=4, help="shell cutoff")
        p.add_argument(
            "--scheme", default="if_rk4", type=str.lower, choices=["imex_euler", "if_rk4"]
        )
        if name != "custom":  # a custom run takes the period of its field files
            p.add_argument("--ell", type=float, default=2.0 * math.pi, help="torus period")
        if name in ("decay", "taylor_green", "linearized"):
            p.add_argument("--amplitude", type=float, default=1.0,
                           help="amplitude of the built-in initial field")
        if name == "manufactured":
            p.add_argument("--dt-study", type=int, default=None, metavar="N",
                           help="run N step-halving points starting at --dt")
            p.add_argument("--jobs", type=int, default=1, help="workers for the --dt-study fan-out")
        if name in ("linearized", "custom"):
            p.add_argument("--u0", help="initial field file")
            p.add_argument("--f", help="forcing field file")
        if name == "linearized":
            p.add_argument("--w", help="steady drift field file")
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Load key=value defaults from --config; explicit flags still win."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return argv
    if argv[0].startswith("-"):
        raise ConfigError("--config goes after the subcommand, as in: torus-ns decay --config FILE")
    path = Path(known.config)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    injected: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
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
    return [argv[0]] + injected + argv[1:]


def _check_out_dir(out_dir: Path) -> None:
    """Reject an output path that cannot become a directory: the path or its
    nearest existing ancestor is not a directory.  Nothing is created."""
    for path in (out_dir, *out_dir.parents):
        if path.is_dir():
            return
        if path.exists() or path.is_symlink():
            raise ConfigError(f"output path {path} exists and is not a directory")


def _check_args(args) -> None:
    """Check the flags a runner reads before it starts, so that a rejected
    run writes nothing.  Resolves the output directory, the default LPS pair
    and, for a solver run, ``args.solver``, the :class:`SolverConfig`."""
    if "out_dir" not in args:  # selftest writes nothing
        return
    args.out_dir = Path(os.environ.get("TORUS_NS_OUT", args.out_dir))
    _check_out_dir(args.out_dir)
    # the first pair also gives the lps_partial column of norms.csv
    args.lps = args.lps or [(4.0, 6.0)]
    for s_exp, r_exp in args.lps:
        estimates._check_lps_exponents(s_exp, r_exp)
        if args.admissible_only and not estimates.lps_admissible(s_exp, r_exp):
            raise ConfigError(f"LPS pair ({s_exp}, {r_exp}) is not admissible (2/s + 3/r != 1)")
    if any(k < 0 or s < 0 for k, s in args.bochner):
        raise ConfigError("indices k and s must be nonnegative")
    # (k, s) has (k+1) sum_{m<=s} C(2m+3, 3) terms: i <= k, |alpha| <= 2m, m = s - j
    terms = sum((k + 1) * (s + 1) * (s + 2) * (2 * s * s + 6 * s + 3) // 6
                for k, s in args.bochner)
    if terms > _MAX_BOCHNER_TERMS:
        raise ConfigError(
            f"the --bochner norms sum {terms} terms (j, alpha, i), more than {_MAX_BOCHNER_TERMS}"
        )
    if "scheme" in args:
        try:
            args.solver = cfg = SolverConfig(
                mu=args.mu, horizon=args.T, cutoff=args.M, dt=args.dt, scheme=args.scheme
            )
            if (getattr(args, "dt_study", None) or 0) >= 2:  # sized at its finest point
                cfg = replace(cfg, dt=math.ldexp(cfg.dt, 1 - args.dt_study))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if args.command == "decay" and cfg.nsteps < 2:
            raise ConfigError(f"decay's finite-difference residual needs 2 steps, got {cfg.nsteps}")
        _norm_grid(args.grid, cfg.cutoff)
        # the stored samples and their rhs stay within the field-file ceiling
        if 2 * (cfg.nsteps + 1) * 3 * (2 * bandwidth_of(cfg.cutoff) + 1) ** 3 > _MAX_COEFFS:
            raise ConfigError(
                f"{cfg.nsteps + 1:.6g} samples at cutoff {cfg.cutoff}, with their rhs, "
                f"store more than {_MAX_COEFFS} trajectory coefficients"
            )
    if getattr(args, "jobs", 1) < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    amplitude = getattr(args, "amplitude", 1.0)
    if not math.isfinite(amplitude):
        raise ConfigError(f"--amplitude must be finite, got {amplitude}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        _check_args(args)
        # A run whose values overflow fails its certificate, which reports
        # sides that are not finite as a failure; numpy's overflow and
        # invalid-value warnings on the way there would only repeat that.
        with np.errstate(over="ignore", invalid="ignore"):
            args.run(args)
        return EXIT_OK
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
