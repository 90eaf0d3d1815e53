"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Everything runs at desk scale (shell cutoffs <= 16, grids
<= 48^3, horizons <= 1).
"""

import dataclasses
import math

import numpy as np
import pytest

from torusns.eigenbasis import build_basis, project_coefficients
from torusns.estimates import (
    PerovInput,
    energy_certificate,
    lps_admissible,
    lps_norm,
    perov_bound,
)
from torusns.fields import (
    random_scalar_field,
    random_vector_field,
    truncate,
    vector_from_modes,
)
from torusns.galerkin import (
    FieldTrajectory,
    SolverConfig,
    assemble_linearized,
    cumulative_trapezoid,
    energy_identity_defect,
    linearized_closed_form,
    residual,
    solve_linearized,
    solve_navier_stokes,
    trapezoid,
)
from torusns.helmholtz import (
    derivative_commutation_defect,
    leray_project,
)
from torusns.operators import (
    convect,
    div,
    grad,
    grad_norm,
    hs_norm,
    inner_l2,
    l2_norm_exact,
    laplacian,
    rot,
)
from torusns.problems import (
    analytic_decay_problem,
    observed_order,
    shear_decay_amplitude,
    shear_field,
    smooth_random_divfree,
    temporal_order_study,
    two_shell_problem,
)

ELL = 2.0 * math.pi
MU = 0.1


def spatial_refinement_errors(cutoffs, problem):
    """Max-in-time L2 error against the closed-form truth per shell cutoff.

    The error includes the truncated tail of the target, so it directly
    reflects the spectral accuracy of the Galerkin hierarchy.
    """
    out = {}
    for cutoff in cutoffs:
        u0 = truncate(problem.initial, cutoff)
        config = SolverConfig(mu=problem.mu, horizon=0.25, cutoff=cutoff, dt=1e-3)
        traj = solve_navier_stokes(problem.forcing, u0, config)
        out[cutoff] = max(
            l2_norm_exact(u - problem.velocity(float(t)))
            for t, u in zip(traj.times, traj.fields)
        )
    return out


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def shear_run():
    cfg = SolverConfig(mu=MU, horizon=1.0, cutoff=4, dt=1e-3, scheme="if_rk4")
    return solve_navier_stokes(None, shear_field(ELL, 4, 1.0), cfg)


@pytest.fixture(scope="module")
def manufactured():
    return two_shell_problem()


def test_criterion_01_de_rham_identities():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        p = random_scalar_field(ELL, 6, rng)
        v = random_vector_field(ELL, 6, rng)
        scale_p = np.max(np.abs(grad(p).coeff_stack())) + 1e-300
        worst = max(worst, np.max(np.abs(rot(grad(p)).coeff_stack())) / scale_p)
        scale_v = np.max(np.abs(rot(v).coeff_stack())) + 1e-300
        worst = max(worst, np.max(np.abs(div(rot(v)).coeffs)) / scale_v)
        lhs = rot(rot(v)) * (-1.0) + grad(div(v))
        scale_l = np.max(np.abs(laplacian(v).coeff_stack())) + 1e-300
        worst = max(
            worst, np.max(np.abs((lhs - laplacian(v)).coeff_stack())) / scale_l
        )
    report(1, worst <= 1e-13, f"max coefficientwise relative defect {worst:.2e} <= 1e-13")


def test_criterion_02_helmholtz_projection():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        u = random_vector_field(ELL, 6, rng)
        v = random_vector_field(ELL, 6, rng)
        pu = leray_project(u)
        worst = max(worst, l2_norm_exact(leray_project(pu) - pu) / l2_norm_exact(u))
        adj = abs(inner_l2(pu, v) - inner_l2(u, leray_project(v)))
        worst = max(worst, adj / (l2_norm_exact(u) * l2_norm_exact(v)))
        worst = max(
            worst,
            np.max(np.abs(div(pu).coeffs)) / (np.max(np.abs(pu.coeff_stack())) + 1e-300),
        )
        for j in (1, 2, 3):
            worst = max(worst, derivative_commutation_defect(u, j) / hs_norm(u, 1))
    report(2, worst <= 1e-13, f"max relative projection defect {worst:.2e} <= 1e-13")


def test_criterion_03_eigenbasis():
    basis = build_basis(ELL, 6)
    fields = [*basis.fields(), *basis.gradient.fields()]
    mat = np.stack([f.coeff_stack().ravel() for f in fields])
    gram_dev = float(np.max(np.abs(np.real(mat.conj() @ mat.T) * ELL**3 - np.eye(len(fields)))))
    kappa2 = (2 * math.pi / ELL) ** 2
    eig_dev = 0.0
    # the constants (m = 0) take part: rot rot e_j = 0
    for m, _, f in basis.indexed():
        eig_dev = max(eig_dev, l2_norm_exact(rot(rot(f)) - f * (m * kappa2)))
    for m, _, f in basis.gradient.indexed():
        eig_dev = max(eig_dev, l2_norm_exact(grad(div(f)) + f * (m * kappa2)))
    ok = gram_dev <= 1e-12 and eig_dev <= 1e-11
    report(3, ok, f"Gram deviation {gram_dev:.2e} <= 1e-12, eigen defect {eig_dev:.2e} <= 1e-11")


def test_criterion_04_skew_symmetry():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        w = leray_project(random_vector_field(ELL, 6, rng))
        u = leray_project(random_vector_field(ELL, 6, rng))
        val = abs(inner_l2(convect(w, u), u))
        bound = hs_norm(w, 2) * hs_norm(u, 1) ** 2
        worst = max(worst, val / bound)
    report(4, worst <= 1e-10, f"max |(w.grad u, u)| / (||w||_H2 ||u||_H1^2) = {worst:.2e} <= 1e-10")


def test_criterion_05_exact_decay(shear_run):
    final_amp = shear_decay_amplitude(1.0, MU, ELL)
    err = l2_norm_exact(shear_run.final - shear_field(ELL, 4, final_amp))
    # without the stored rhs, residual takes second-order differences of the
    # samples: on solver output the stored-rhs path is 0 by construction
    res = float(np.max(residual(dataclasses.replace(shear_run, rhs=None), None, MU)))
    ok = err <= 1e-6 and res <= 1e-8
    report(5, ok, f"final L2 error {err:.2e} <= 1e-6, pressure residual {res:.2e} <= 1e-8")


def _trapezoid_error_estimate(values: np.ndarray, times: np.ndarray) -> float:
    # pointwise Richardson estimate of the running-integral quadrature error
    full = cumulative_trapezoid(values, times)
    coarse = cumulative_trapezoid(values[::2], times[::2])
    return float(np.max(np.abs(full[::2] - coarse))) / 3.0


def test_criterion_06_energy_identity(shear_run, manufactured):
    shear_defect = float(np.max(energy_identity_defect(shear_run, None, MU)))

    dt = 1e-3
    cfg = SolverConfig(mu=manufactured.mu, horizon=0.5, cutoff=4, dt=dt, scheme="if_rk4")
    u0 = truncate(manufactured.initial, 4)
    traj = solve_navier_stokes(manufactured.forcing, u0, cfg)
    defect = float(np.max(energy_identity_defect(traj, manufactured.forcing, manufactured.mu)))
    enstrophy = np.array([grad_norm(u, 1) ** 2 for u in traj.fields])
    work = np.array(
        [inner_l2(manufactured.forcing(float(t)), u) for t, u in zip(traj.times, traj.fields)]
    )
    trap_est = manufactured.mu * _trapezoid_error_estimate(
        enstrophy, traj.times
    ) + _trapezoid_error_estimate(work, traj.times)
    bound = 5.0 * (dt**2 + trap_est)
    ok = shear_defect <= 1e-6 and defect <= bound
    report(
        6,
        ok,
        f"shear defect {shear_defect:.2e} <= 1e-6, manufactured defect {defect:.2e} "
        f"<= 5*(dt^2 + trapezoid error) = {bound:.2e}",
    )


def test_criterion_07_energy_certificate(shear_run):
    cert = energy_certificate(shear_run, None, MU)
    lam = MU * (2 * math.pi / ELL) ** 2
    expected = 1.0 + (1.0 - math.exp(-2.0 * lam)) / 2.0
    ratio_err = abs(cert.ratio - expected)
    ok = ratio_err <= 1e-4 and cert.passed and cert.factor == pytest.approx(1 + 2 * math.sqrt(2))
    report(
        7,
        ok,
        f"ratio {cert.ratio:.8f} vs closed form {expected:.8f} (|diff| {ratio_err:.2e} <= 1e-4), "
        f"passes with factor 1+2*sqrt(2)",
    )


def test_criterion_08_manufactured_convergence(manufactured):
    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    imex = temporal_order_study("imex_euler", dts, manufactured)
    rk4 = temporal_order_study("if_rk4", dts, manufactured)
    order_imex = observed_order(imex)
    order_rk4 = observed_order(rk4)

    decay_problem = analytic_decay_problem()
    errs = spatial_refinement_errors([4, 9], decay_problem)
    drop = errs[4] / errs[9]
    ok = order_imex >= 0.9 and order_rk4 >= 3.5 and drop >= 10.0
    report(
        8,
        ok,
        f"temporal order imex_euler {order_imex:.3f} >= 0.9, if_rk4 {order_rk4:.3f} >= 3.5, "
        f"spectral error drop M=4 -> M=9: {drop:.1f}x >= 10x",
    )


def test_criterion_09_linearized_oracle():
    rng = np.random.default_rng(9)
    basis = build_basis(ELL, 4)
    w = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.3))  # frozen sample
    op = assemble_linearized(w, basis, MU)
    u0 = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.5))
    cfg = SolverConfig(mu=MU, horizon=0.5, cutoff=4, dt=1e-3, scheme="if_rk4")
    traj = solve_linearized(op, None, u0, cfg)
    exact = linearized_closed_form(op, None, project_coefficients(u0, basis), traj.times)
    numeric = np.stack([project_coefficients(u, basis) for u in traj.fields])
    dev = float(np.max(np.abs(exact - numeric)))
    report(9, dev <= 1e-8, f"max coefficient deviation vs matrix exponential {dev:.2e} <= 1e-8")


def test_criterion_10_perov_evaluator():
    t = np.linspace(0.0, 2.0, 201)
    exp_err = float(
        np.max(
            np.abs(
                perov_bound(PerovInput(3.0, 1.0, t, 0.7 * np.ones_like(t), np.zeros_like(t)))
                - 3.0 * np.exp(0.7 * t)
            )
        )
    )
    quad_err = float(
        np.max(
            np.abs(
                perov_bound(PerovInput(1.0, 0.5, t, np.zeros_like(t), np.ones_like(t)))
                - (1.0 + t / 2.0) ** 2
            )
        )
    )

    rng = np.random.default_rng(10)
    grid = np.linspace(0.0, 1.0, 51)
    dt = np.diff(grid)
    dominated = True
    for _ in range(100):
        a = rng.uniform(0.1, 3.0)
        b = rng.uniform(0.0, 2.0, size=grid.shape)
        c = rng.uniform(0.0, 2.0, size=grid.shape)
        theta = rng.uniform(0.0, 0.95, size=grid.shape)
        y = np.empty_like(grid)
        y[0] = theta[0] * a
        integral = 0.0
        for i in range(1, len(grid)):
            prev = b[i - 1] * y[i - 1] + c[i - 1]
            num = theta[i] * (a + integral + 0.5 * dt[i - 1] * (prev + c[i]))
            den = 1.0 - theta[i] * 0.5 * dt[i - 1] * b[i]
            y[i] = num / den
            integral += 0.5 * dt[i - 1] * (prev + b[i] * y[i] + c[i])
        admissible = np.all(y <= a + cumulative_trapezoid(b * y + c, grid) + 1e-12)
        bound = perov_bound(PerovInput(a, 1.0, grid, b, c))
        dominated = dominated and admissible and bool(np.all(y <= bound * (1 + 1e-10)))
    ok = exp_err <= 1e-10 and quad_err <= 1e-10 and dominated
    report(
        10,
        ok,
        f"closed-form errors {exp_err:.2e}, {quad_err:.2e} <= 1e-10; "
        f"dominates 100 admissible samples: {dominated}",
    )


def test_criterion_11_lps_machinery(shear_run):
    arithmetic = (
        lps_admissible(4, 6)
        and lps_admissible(2, math.inf)
        and not lps_admissible(2, 6)
        and not lps_admissible(4, 3)
    )

    const = vector_from_modes(ELL, 4, {(0, 0, 0): (0.7, 0.0, 0.0)})
    ctraj = FieldTrajectory(np.linspace(0, 2, 41), tuple([const] * 41))
    cval = lps_norm(ctraj, 4.0, 6.0, 16).value
    cexp = 0.7 * ELL ** (3.0 / 6.0) * 2.0 ** (1.0 / 4.0)
    const_err = abs(cval - cexp)

    rep = lps_norm(shear_run, 4.0, 6.0, 32)
    lam = MU * (2 * math.pi / ELL) ** 2
    mean_sin6 = 5.0 / 16.0
    spatial = (ELL**3 * mean_sin6) ** (1.0 / 6.0)
    exact = spatial * ((1.0 - math.exp(-4.0 * lam)) / (4.0 * lam)) ** 0.25
    shear_err = abs(rep.value - exact) / exact
    ok = arithmetic and const_err <= 1e-10 and shear_err <= 1e-4
    report(
        11,
        ok,
        f"admissibility arithmetic exact; constant closed form |diff| {const_err:.2e} <= 1e-10; "
        f"shear LPS relative error {shear_err:.2e} <= 1e-4",
    )


def test_criterion_12_cutoff_independence():
    rng = np.random.default_rng(12)
    u0 = smooth_random_divfree(ELL, 6, rng, amplitude=0.25)
    seminorms = {}
    for cutoff in (12, 16):
        cfg = SolverConfig(mu=0.2, horizon=0.25, cutoff=cutoff, dt=2e-3, scheme="if_rk4")
        traj = solve_navier_stokes(None, u0, cfg)
        vals = []
        for order in (0, 1, 2):
            sup = max(grad_norm(u, order) ** 2 for u in traj.fields)
            integral = trapezoid(
                np.array([grad_norm(u, order + 1) ** 2 for u in traj.fields]), traj.times
            )
            vals.append(math.sqrt(sup + 0.2 * integral))
        seminorms[cutoff] = vals
    change = max(
        abs(a - b) / b for a, b in zip(seminorms[16], seminorms[12])
    )
    report(12, change < 0.05, f"seminorm change M=12 -> M=16 is {change:.2e} < 5e-2")


def test_criterion_13_two_scheme_agreement():
    rng = np.random.default_rng(13)
    ok = True
    details = []
    for k in range(5):
        u0 = smooth_random_divfree(ELL, 5, rng, amplitude=0.3)
        runs, estimates = {}, {}
        for scheme in ("imex_euler", "if_rk4"):
            cfg = SolverConfig(mu=0.2, horizon=0.25, cutoff=5, dt=1e-3, scheme=scheme)
            runs[scheme] = solve_navier_stokes(None, u0, cfg)
            # step halving (Hairer, Norsett & Wanner 1993, II.4): the L2
            # distance to the run at dt/2 at equal times
            fine = solve_navier_stokes(None, u0, dataclasses.replace(cfg, dt=cfg.dt_effective / 2))
            estimates[scheme] = max(
                l2_norm_exact(a - b) for a, b in zip(runs[scheme].fields, fine.fields[::2])
            )
        diff = max(
            l2_norm_exact(a - b)
            for a, b in zip(runs["imex_euler"].fields, runs["if_rk4"].fields)
        )
        bound = 2.0 * (2.0 * estimates["imex_euler"] + (16.0 / 15.0) * estimates["if_rk4"])
        ok = ok and diff <= bound
        details.append(f"{diff:.2e}<={bound:.2e}")
    report(13, ok, "scheme differences within combined estimates: " + ", ".join(details))
