import dataclasses
import math

import numpy as np
import pytest

import torusns.galerkin as galerkin
from torusns.eigenbasis import build_basis, project_coefficients
from torusns.fields import (
    SpectralVectorField,
    bandwidth_of,
    random_vector_field,
    vector_from_modes,
    wave_cubes,
)
from torusns.galerkin import (
    FieldTrajectory,
    SolverAbort,
    SolverConfig,
    assemble_linearized,
    energy_identity_defect,
    linearized_closed_form,
    load_trajectory,
    matrix_exponential,
    residual,
    save_trajectory,
    solve_linearized,
    solve_navier_stokes,
)
from torusns.helmholtz import leray_project, recover_pressure
from torusns.operators import (
    _fast_len,
    _sample_stack,
    div,
    l2_norm_exact,
    laplacian,
    self_convection,
)
from torusns.problems import (
    shear_decay_amplitude,
    shear_field,
    smooth_random_divfree,
    two_shell_problem,
)

ELL = 2.0 * math.pi
MU = 0.1


@pytest.fixture(scope="module")
def basis4():
    return build_basis(ELL, 4)


@pytest.fixture(scope="module")
def shear_run():
    u0 = shear_field(ELL, 4, 1.0)
    cfg = SolverConfig(mu=MU, horizon=0.25, cutoff=4, dt=1e-3, scheme="if_rk4")
    return solve_navier_stokes(None, u0, cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            SolverConfig(mu=-1, horizon=1, cutoff=4, dt=1e-3)
        with pytest.raises(ValueError, match="exceed"):
            SolverConfig(mu=1, horizon=0.1, cutoff=4, dt=0.2)
        with pytest.raises(ValueError, match="scheme"):
            SolverConfig(mu=1, horizon=1, cutoff=4, dt=1e-2, scheme="euler")

    def test_scheme_case_folded(self):
        cfg = SolverConfig(mu=1, horizon=1, cutoff=4, dt=1e-2, scheme="IF_RK4")
        assert cfg.scheme == "if_rk4"


class TestTrajectory:
    def test_must_start_at_zero(self, rng):
        f = random_vector_field(ELL, 4, rng)
        with pytest.raises(ValueError, match="start at t = 0"):
            FieldTrajectory(np.array([0.5, 1.0]), (f, f))

    def test_strictly_increasing(self, rng):
        f = random_vector_field(ELL, 4, rng)
        with pytest.raises(ValueError, match="strictly increasing"):
            FieldTrajectory(np.array([0.0, 0.0]), (f, f))

    def test_interpolation(self, rng):
        a = random_vector_field(ELL, 4, rng)
        b = random_vector_field(ELL, 4, rng)
        traj = FieldTrajectory(np.array([0.0, 1.0]), (a, b))
        assert l2_norm_exact(traj.at(0.0) - a) == 0.0
        mid = traj.at(0.5)
        ref = (a + b) * 0.5
        assert l2_norm_exact(mid - ref) <= 1e-14 * l2_norm_exact(ref)

    def test_interpolation_rule_shared(self, basis4, rng):
        # FieldTrajectory.at, LinearizedOperator.at and sampled forcing use
        # one rule: a time just below a sample returns it bitwise, a lone
        # sample is constant, a time beyond the span by more than 1e-9 raises
        times = np.array([0.0, 0.1, 0.2])
        ws = [leray_project(random_vector_field(ELL, 4, rng, amplitude=0.3)) for _ in times]
        traj = FieldTrajectory(times, tuple(ws))
        op = assemble_linearized(traj, basis4, MU)
        forcing = galerkin._forcing_function(traj, ELL, 0.2, lambda g: g.coeff_stack())
        callers = [
            (traj.at, [w.coeff_stack() for w in ws], lambda x: x.coeff_stack()),
            (op.at, op.matrices, lambda x: x),
            (forcing, [w.coeff_stack() for w in ws], lambda x: x),
        ]
        for at, samples, values in callers:
            assert np.array_equal(values(at(0.1 - 1e-13)), samples[1])
            assert np.array_equal(values(at(0.2 - 1e-13)), samples[2])
            ref = 0.5 * (samples[0] + samples[1])
            assert np.max(np.abs(values(at(0.05)) - ref)) <= 1e-15 * np.max(np.abs(ref))
            beyond = values(at(0.2 + 5e-10))  # within 1e-9 of the span: no error
            assert np.max(np.abs(beyond - samples[2])) <= 1e-7 * np.max(np.abs(samples[2]))
            with pytest.raises(ValueError, match="outside the sampled span"):
                at(0.2 + 2e-9)
            with pytest.raises(ValueError, match="outside the sampled span"):
                at(-2e-9)
        lone = FieldTrajectory(np.zeros(1), (ws[0],))
        lone_op = assemble_linearized(ws[0], basis4, MU)
        lone_forcing = galerkin._forcing_function(lone, ELL, 5.0, lambda g: g)
        for t in (0.0, 1e-10, 0.3, 5.0):
            assert lone.at(t) is ws[0]
            assert np.array_equal(lone_op.at(t), lone_op.matrices[0])
            assert lone_forcing(t) is ws[0]

    def test_save_load_roundtrip(self, shear_run, tmp_path):
        path = tmp_path / "run.traj"
        short = FieldTrajectory(shear_run.times[:4], shear_run.fields[:4])
        save_trajectory(short, path)
        back = load_trajectory(path)
        assert np.array_equal(back.times, short.times)
        for x, y in zip(short.fields, back.fields):
            assert l2_norm_exact(x - y) == 0.0


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.array_equal(matrix_exponential(np.zeros((4, 4))), np.eye(4))

    def test_against_scipy(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(7)
        for scale in (0.1, 1.0, 10.0):
            a = rng.standard_normal((25, 25)) * scale
            ours = matrix_exponential(a)
            ref = scipy_linalg.expm(a)
            assert np.max(np.abs(ours - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_diagonal_closed_form(self):
        a = np.diag([0.5, -1.0, 2.0])
        assert np.max(np.abs(matrix_exponential(a) - np.diag(np.exp([0.5, -1.0, 2.0])))) <= 1e-14


class TestAssembly:
    def test_zero_drift_is_diagonal_diffusion(self, basis4):
        op = assemble_linearized(SpectralZero(), basis4, MU)
        kappa2 = (2 * math.pi / ELL) ** 2
        expected = MU * kappa2 * basis4.shell_values()
        assert np.max(np.abs(op.matrices[0] - np.diag(expected))) == 0.0

    def test_constant_drift_transport_blocks(self):
        basis1 = build_basis(ELL, 1)
        c = np.array([0.3, -0.7, 0.2])
        w = vector_from_modes(ELL, 1, {(0, 0, 0): tuple(c)})
        op = assemble_linearized(w, basis1, MU)
        wpart = op.matrices[0] - np.diag(op.diffusion)
        kappa = 2 * math.pi / ELL
        shells = [s for s in _shells1()]
        # entries per +-pair: (a1,cos),(a1,sin),(a2,cos),(a2,sin)
        for ipair, k in enumerate(shells):
            base = 3 + 4 * ipair
            coupling = float(np.dot(c, k)) * kappa
            for off in (0, 2):  # a1 block and a2 block
                row_cos, row_sin = base + off, base + off + 1
                assert wpart[row_cos, row_sin] == pytest.approx(coupling, abs=1e-12)
                assert wpart[row_sin, row_cos] == pytest.approx(-coupling, abs=1e-12)

    def test_transport_antisymmetry(self, basis4, rng):
        w = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.4))
        op = assemble_linearized(w, basis4, MU)
        wpart = op.matrices[0] - np.diag(op.diffusion)
        # for divergence-free drift the pure transport part is antisymmetric;
        # the full coupling satisfies the integration-by-parts identity checked
        # during assembly, so here we check (w . grad v', v) = -(w . grad v, v')
        transport = _transport_matrix(w, basis4)
        assert np.max(np.abs(transport + transport.T)) <= 1e-11 * (
            1 + np.max(np.abs(transport))
        )
        assert np.max(np.abs(wpart)) < math.inf

    def test_non_solenoidal_drift_rejected(self, basis4, rng):
        w = random_vector_field(ELL, 4, rng)  # generic: not divergence-free
        with pytest.raises(ValueError, match="divergence-free"):
            assemble_linearized(w, basis4, MU)

    @pytest.mark.parametrize(
        "swap, message",
        [
            # the coupling-form identity holds only for solenoidal basis fields
            ("curl_free", "coupling-form identity.*basis field is not solenoidal"),
            ("two_pairs", r"single \+-k pair"),
        ],
    )
    def test_malformed_basis_field_rejected(self, basis4, rng, swap, message):
        w = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.4))
        entries = list(basis4.entries)
        m, j, field = entries[5]
        if swap == "curl_free":
            field = basis4.gradient_entries[0][2]
        else:
            field = (field + entries[9][2]) * math.sqrt(0.5)
        entries[5] = (m, j, field)
        bad = dataclasses.replace(basis4, entries=tuple(entries))
        with pytest.raises(ValueError, match=message):
            assemble_linearized(w, bad, MU)

    @pytest.mark.parametrize("drift", ["cutoff4", "cutoff9", "wide", "trajectory", "zero"])
    def test_matches_grid_assembly(self, rng, drift):
        basis = build_basis(ELL, 9 if drift == "cutoff9" else 4)
        w_cutoff = 9 if drift in ("cutoff9", "wide") else 4
        w = leray_project(random_vector_field(ELL, w_cutoff, rng, amplitude=0.3))
        if drift == "trajectory":
            w2 = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.3))
            w = FieldTrajectory(np.array([0.0, 0.5]), (w, w2))
        elif drift == "zero":
            w = w * 0.0
        op = assemble_linearized(w, basis, MU)
        ref = _grid_coupling(w, basis)
        assert len(op.matrices) == len(ref)
        for i, expected in enumerate(ref):
            err = np.max(np.abs(op.drift_part(i) - expected))
            assert err <= 1e-13 * np.max(np.abs(expected))

    def test_wide_drift_entries_exact(self, basis4, rng):
        # drift modes above the basis cutoff still couple the basis fields
        from torusns.fields import embed_vector
        from torusns.operators import convect, inner_l2

        w = leray_project(random_vector_field(ELL, 9, rng, amplitude=0.3))
        op = assemble_linearized(w, basis4, MU)
        wpart = op.matrices[0] - np.diag(op.diffusion)
        fields = basis4.divfree_fields()
        for i, j in [(3, 10), (0, 5), (20, 21)]:
            row, col = fields[i], fields[j]
            cole = embed_vector(col, 9)
            expected = inner_l2(convect(w, cole, out_cutoff=25), embed_vector(row, 25)) + inner_l2(
                convect(cole, w, out_cutoff=25), embed_vector(row, 25)
            )
            assert wpart[i, j] == pytest.approx(expected, abs=1e-12 + 1e-12 * abs(expected))


def SpectralZero():
    return vector_from_modes(ELL, 4, {})


def _shells1():
    return [np.array(k) for k in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]]


def _grid_coupling(w, basis):
    """Drift couplings (w . grad v_b, v_a) + (v_b . grad w, v_a) by exact
    quadrature of the sampled basis fields: the grid assembly the Fourier
    assembly replaced, kept as its oracle."""
    samples = [w] if isinstance(w, SpectralVectorField) else list(w.fields)

    def derivatives(field):
        k1, k2, k3, _ = wave_cubes(field.bandwidth)
        fac = 1j * 2.0 * math.pi / field.ell
        out = np.empty((3, 3) + field.components[0].coeffs.shape, dtype=np.complex128)
        for c, comp in enumerate(field.components):
            for m, km in enumerate((k1, k2, k3)):
                out[m, c] = fac * km * comp.coeffs
        return out.reshape(9, *out.shape[2:])

    bw = bandwidth_of(basis.cutoff)
    bw_w = max(s.bandwidth for s in samples)
    # triple products w * grad v_b * v_a have per-axis bandwidth bw_w + 2 bw
    n = _fast_len(max(3 * bw, bw_w + 2 * bw) + 1)
    cell = (basis.ell / n) ** 3
    fields = basis.divfree_fields()
    dim = len(fields)
    vsamp = np.stack([_sample_stack(f.coeff_stack(), n) for f in fields])
    dsamp = np.stack([_sample_stack(derivatives(f), n) for f in fields])
    dsamp = dsamp.reshape(dim, 3, 3, n, n, n)
    vflat = vsamp.reshape(dim, -1)
    out = []
    for wt in samples:
        wsamp = _sample_stack(wt.coeff_stack(), n)
        dwsamp = _sample_stack(derivatives(wt), n).reshape(3, 3, n, n, n)
        conv = np.einsum("mxyz,bmcxyz->bcxyz", wsamp, dsamp).reshape(dim, -1)
        gradw = np.einsum("bmxyz,mcxyz->bcxyz", vsamp, dwsamp).reshape(dim, -1)
        out.append(cell * (vflat @ conv.T) + cell * (vflat @ gradw.T))
    return out


def _transport_matrix(w, basis):
    from torusns.operators import convect, inner_l2

    fields = basis.divfree_fields()
    out = np.zeros((len(fields), len(fields)))
    for j, col in enumerate(fields):
        moved = convect(w, col)
        for i, row in enumerate(fields):
            out[i, j] = inner_l2(moved, row)
    return out


class TestLinearizedSolve:
    def test_pure_decay_closed_form(self, basis4):
        op = assemble_linearized(SpectralZero(), basis4, MU)
        u0 = basis4.entries[0][2]  # shell m = 1 eigenfield
        cfg = SolverConfig(mu=MU, horizon=1.0, cutoff=4, dt=1e-3, scheme="if_rk4")
        traj = solve_linearized(op, None, u0, cfg)
        lam = MU * (2 * math.pi / ELL) ** 2
        coeffs = np.array([project_coefficients(u, basis4)[3] for u in traj.fields])
        assert np.max(np.abs(coeffs - np.exp(-lam * traj.times))) <= 1e-9

    def test_constant_forcing_steady_state(self, basis4):
        op = assemble_linearized(SpectralZero(), basis4, MU)
        forcing = basis4.entries[0][2] * 0.8
        zero = vector_from_modes(ELL, 4, {})
        cfg = SolverConfig(mu=MU, horizon=1.0, cutoff=4, dt=1e-3, scheme="if_rk4")
        traj = solve_linearized(op, forcing, zero, cfg)
        lam = MU * (2 * math.pi / ELL) ** 2
        exact = 0.8 / lam * (1.0 - np.exp(-lam * traj.times))
        coeffs = np.array([project_coefficients(u, basis4)[3] for u in traj.fields])
        assert np.max(np.abs(coeffs - exact)) <= 1e-8

    def test_autonomous_drift_matches_matrix_exponential(self, basis4, rng):
        w = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.3))
        op = assemble_linearized(w, basis4, MU)
        u0 = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.5))
        cfg = SolverConfig(mu=MU, horizon=0.5, cutoff=4, dt=1e-3, scheme="if_rk4")
        traj = solve_linearized(op, None, u0, cfg)
        c0 = project_coefficients(u0, basis4)
        exact = linearized_closed_form(op, None, c0, traj.times)
        numeric = np.stack([project_coefficients(u, basis4) for u in traj.fields])
        assert np.max(np.abs(exact - numeric)) <= 1e-8
        assert traj.error_estimate is not None and traj.error_estimate <= 1e-8

    def test_projected_ode_residual(self, basis4, rng):
        w = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.3))
        op = assemble_linearized(w, basis4, MU)
        u0 = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.5))
        dt = 2e-3
        cfg = SolverConfig(mu=MU, horizon=0.2, cutoff=4, dt=dt, scheme="if_rk4")
        traj = solve_linearized(op, None, u0, cfg)
        coeffs = np.stack([project_coefficients(u, basis4) for u in traj.fields])
        # centered differences against the ODE right-hand side
        worst = 0.0
        for i in range(1, len(traj.times) - 1):
            dcdt = (coeffs[i + 1] - coeffs[i - 1]) / (2 * dt)
            res = dcdt + op.matrices[0] @ coeffs[i]
            worst = max(worst, float(np.max(np.abs(res))))
        assert worst <= 10.0 * dt**2 * float(np.max(np.abs(coeffs)))

    def test_drift_must_cover_horizon(self, basis4, rng):
        w0 = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.2))
        drift = FieldTrajectory(np.array([0.0, 0.05]), (w0, w0 * 0.5))
        op = assemble_linearized(drift, basis4, MU)
        u0 = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.5))
        cfg = SolverConfig(mu=MU, horizon=0.1, cutoff=4, dt=1e-2)
        with pytest.raises(ValueError, match="drift samples do not cover the integration horizon"):
            solve_linearized(op, None, u0, cfg)
        covered = solve_linearized(op, None, u0, dataclasses.replace(cfg, horizon=0.05))
        assert covered.horizon == pytest.approx(0.05)
        # a lone drift sample is constant in time and needs no cover
        solve_linearized(assemble_linearized(w0, basis4, MU), None, u0, cfg)

    def test_closed_form_requires_autonomous(self, basis4, rng):
        w0 = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.2))
        drift = FieldTrajectory(np.array([0.0, 1.0]), (w0, w0 * 0.5))
        op = assemble_linearized(drift, basis4, MU)
        with pytest.raises(ValueError, match="autonomous"):
            linearized_closed_form(op, None, np.zeros(op.matrices.shape[1]), [0.1])


def _closed_form_per_time(op, f_const, c0, times):
    """The closed form with one augmented exponential per output time."""
    a = op.matrices[0]
    dim = a.shape[0]
    g = np.zeros(dim) if f_const is None else f_const
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = -a
    aug[:dim, dim] = g
    out = np.empty((len(times), dim))
    for i, t in enumerate(times):
        phi = matrix_exponential(aug * t)
        out[i] = phi[:dim, :dim] @ c0 + phi[:dim, dim]
    return out


def _integrate_linear_dense(op, gfun, c0, config, dt):
    """The integrator with a dense A(t) - diag(diffusion) formed at every stage."""
    nsteps = max(1, round(config.horizon / dt))
    dt = config.horizon / nsteps
    diff = op.diffusion

    def gee(c, t):
        return gfun(t) - (op.at(t) - np.diag(diff)) @ c

    c = c0.copy()
    out = [c0.copy()]
    for nstep in range(nsteps):
        t = nstep * dt
        if config.scheme == "imex_euler":
            c = (c + dt * gee(c, t)) / (1.0 + dt * diff)
        else:
            eh = np.exp(-diff * dt / 2.0)
            ef = eh * eh
            k1 = gee(c, t)
            k2 = gee(eh * (c + 0.5 * dt * k1), t + 0.5 * dt)
            k3 = gee(eh * c + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = gee(ef * c + dt * eh * k3, t + dt)
            c = ef * c + (dt / 6.0) * (ef * k1 + 2.0 * eh * (k2 + k3) + k4)
        out.append(c.copy())
    return np.stack(out)


def _solver_times(horizon, dt):
    """The output times of solve_linearized: (n + 1) * dt_effective, roundoff included."""
    cfg = SolverConfig(mu=MU, horizon=horizon, cutoff=4, dt=dt)
    return np.array([0.0] + [(n + 1) * cfg.dt_effective for n in range(cfg.nsteps)])


@pytest.fixture(scope="module")
def drift_problem(basis4):
    rng = np.random.default_rng(31)
    w = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.3))
    op = assemble_linearized(w, basis4, MU)
    c0 = rng.standard_normal(basis4.dim)
    g = rng.standard_normal(basis4.dim)
    return op, c0, g


class TestClosedForm:
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize(
        "times",
        [
            np.arange(6) * 0.05,
            _solver_times(0.02, 5e-3),
            _solver_times(0.3, 1e-3),
            np.array([0.0, 0.01, 0.04, 0.05, 0.2, 0.21, 0.5]),
            np.array([0.1, 0.1, 0.2, 0.2, 0.2, 0.35]),
            np.array([0.0, 0.1, 0.2, 0.3 + 1e-10, 0.4 + 1e-10]),
        ],
        ids=["uniform", "solver", "solver_long", "nonuniform", "repeated", "near_uniform"],
    )
    def test_matches_per_time_exponentials(self, drift_problem, forced, times):
        op, c0, g = drift_problem
        f_const = g if forced else None
        ref = _closed_form_per_time(op, f_const, c0, times)
        got = linearized_closed_form(op, f_const, c0, times)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_zero_time_returns_initial_coefficients(self, drift_problem):
        op, c0, g = drift_problem
        out = linearized_closed_form(op, g, c0, [0.0, 0.0])
        assert np.array_equal(out, np.stack([c0, c0]))

    @pytest.mark.parametrize(
        "horizon, dt", [(0.02, 5e-3), (0.25, 1e-3), (0.1, 3e-3), (1.0, 1e-3)]
    )
    def test_uniform_solver_times_take_one_exponential(
        self, drift_problem, monkeypatch, horizon, dt
    ):
        from torusns import galerkin

        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return matrix_exponential(a, *args, **kwargs)

        monkeypatch.setattr(galerkin, "matrix_exponential", counted)
        op, c0, g = drift_problem
        times = _solver_times(horizon, dt)
        assert len(set(np.diff(times))) > 1  # the spacings differ in their last bits
        linearized_closed_form(op, g, c0, times)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "times",
        [[0.0, 0.2, 0.1], [-0.1, 0.0], [0.0, math.nan], [0.0, math.inf]],
        ids=["decreasing", "negative", "nan", "inf"],
    )
    def test_bad_times_rejected(self, drift_problem, times):
        op, c0, g = drift_problem
        with pytest.raises(ValueError, match="closed-form times"):
            linearized_closed_form(op, g, c0, times)


class TestMatrixFreeStages:
    @pytest.mark.parametrize("scheme", ["if_rk4", "imex_euler"])
    @pytest.mark.parametrize("autonomous", [True, False])
    def test_matches_dense_stages(self, basis4, drift_problem, scheme, autonomous):
        from torusns.galerkin import _forcing_function, _integrate_linear

        op, c0, _ = drift_problem
        if not autonomous:
            rng = np.random.default_rng(37)
            w0 = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.3))
            w1 = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.3))
            drift = FieldTrajectory(np.array([0.0, 0.06, 0.1]), (w0, w1, w0 * 0.5))
            op = assemble_linearized(drift, basis4, MU)
        forcing = leray_project(random_vector_field(ELL, 4, np.random.default_rng(41)))
        forcing = FieldTrajectory(np.array([0.0, 0.1]), (forcing, forcing * -0.5))
        gfun = _forcing_function(forcing, ELL, 0.1, lambda g: project_coefficients(g, basis4))
        cfg = SolverConfig(mu=MU, horizon=0.1, cutoff=4, dt=4e-3, scheme=scheme)
        ref = _integrate_linear_dense(op, gfun, c0, cfg, cfg.dt_effective)
        times, got = _integrate_linear(op, gfun, c0, cfg, cfg.dt_effective)
        assert np.array_equal(times, _solver_times(0.1, 4e-3))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestNavierStokes:
    def test_zero_data_stays_zero(self):
        zero = vector_from_modes(ELL, 4, {})
        cfg = SolverConfig(mu=MU, horizon=0.1, cutoff=4, dt=1e-2)
        traj = solve_navier_stokes(None, zero, cfg)
        assert max(l2_norm_exact(u) for u in traj.fields) == 0.0

    def test_shear_decay_closed_form(self, shear_run):
        worst = 0.0
        for t, u in zip(shear_run.times, shear_run.fields):
            amp = shear_decay_amplitude(float(t), MU, ELL)
            worst = max(worst, l2_norm_exact(u - shear_field(ELL, 4, amp)))
        assert worst <= 1e-9

    def test_trajectory_divergence_free(self, shear_run, rng):
        assert all(l2_norm_exact(div(u)) <= 1e-12 for u in shear_run.fields)
        u0 = smooth_random_divfree(ELL, 6, rng, amplitude=0.4)
        cfg = SolverConfig(mu=0.2, horizon=0.05, cutoff=6, dt=1e-3)
        traj = solve_navier_stokes(None, u0, cfg)
        scale = l2_norm_exact(u0)
        assert all(l2_norm_exact(div(u)) <= 1e-12 * scale for u in traj.fields)

    def test_initial_slot_is_supplied_field(self, shear_run):
        assert l2_norm_exact(shear_run.initial - shear_field(ELL, 4, 1.0)) == 0.0

    def test_non_divfree_initial_rejected(self, rng):
        cfg = SolverConfig(mu=MU, horizon=0.1, cutoff=4, dt=1e-2)
        with pytest.raises(ValueError, match="divergence-free"):
            solve_navier_stokes(None, random_vector_field(ELL, 4, rng), cfg)

    def test_manufactured_recovery(self):
        prob = two_shell_problem()
        from torusns.fields import truncate_vector

        u0 = truncate_vector(prob.initial, 4)
        cfg = SolverConfig(mu=prob.mu, horizon=0.1, cutoff=4, dt=1e-3, scheme="if_rk4")
        traj = solve_navier_stokes(prob.forcing, u0, cfg)
        worst = max(
            l2_norm_exact(u - prob.velocity(float(t)))
            for t, u in zip(traj.times, traj.fields)
        )
        assert worst <= 1e-8

    def test_sampled_forcing_matches_callable(self):
        prob = two_shell_problem()
        from torusns.fields import truncate_vector

        dt = 2e-3
        u0 = truncate_vector(prob.initial, 4)
        cfg = SolverConfig(mu=prob.mu, horizon=0.1, cutoff=4, dt=dt, scheme="if_rk4")
        by_callable = solve_navier_stokes(prob.forcing, u0, cfg)
        fine = np.arange(0, round(0.1 / (dt / 2)) + 1) * (dt / 2)
        sampled = FieldTrajectory(
            fine, tuple(truncate_vector(prob.forcing(float(t)), 4) for t in fine)
        )
        by_samples = solve_navier_stokes(sampled, u0, cfg)
        worst = max(
            l2_norm_exact(a - b)
            for a, b in zip(by_callable.fields, by_samples.fields)
        )
        assert worst <= 1e-12

    @pytest.mark.filterwarnings("ignore:advective CFL:RuntimeWarning")
    def test_blowup_aborts(self, rng):
        u0 = leray_project(random_vector_field(ELL, 4, rng, amplitude=150.0))
        cfg = SolverConfig(mu=1e-6, horizon=2.0, cutoff=4, dt=0.1, scheme="imex_euler")
        with pytest.raises(SolverAbort, match="blow-up suspected at t="):
            solve_navier_stokes(None, u0, cfg)

    def test_cfl_advisory(self, rng):
        u0 = leray_project(random_vector_field(ELL, 4, rng, amplitude=3.0))
        cfg = SolverConfig(mu=5.0, horizon=0.02, cutoff=4, dt=0.02, scheme="imex_euler")
        with pytest.warns(RuntimeWarning, match="CFL"):
            solve_navier_stokes(None, u0, cfg)

    @pytest.mark.filterwarnings("ignore:advective CFL:RuntimeWarning")
    def test_step_rejection(self, rng):
        u0 = smooth_random_divfree(ELL, 4, rng, amplitude=1.0)
        cfg = SolverConfig(mu=MU, horizon=0.1, cutoff=4, dt=1e-2, step_tolerance=1e-18)
        with pytest.raises(SolverAbort, match="step rejected"):
            solve_navier_stokes(None, u0, cfg)

    def test_store_every(self, rng):
        u0 = smooth_random_divfree(ELL, 4, rng, amplitude=0.2)
        cfg = SolverConfig(mu=MU, horizon=0.1, cutoff=4, dt=1e-2, store_every=5)
        traj = solve_navier_stokes(None, u0, cfg)
        assert np.allclose(traj.times, [0.0, 0.05, 0.1])
        dense = solve_navier_stokes(
            None, u0, SolverConfig(mu=MU, horizon=0.1, cutoff=4, dt=1e-2)
        )
        assert l2_norm_exact(traj.final - dense.final) == 0.0

    def test_error_estimate_attached(self):
        prob = two_shell_problem()
        from torusns.fields import truncate_vector

        u0 = truncate_vector(prob.initial, 4)
        cfg = SolverConfig(
            mu=prob.mu,
            horizon=0.1,
            cutoff=4,
            dt=2e-3,
            scheme="imex_euler",
            attach_error_estimate=True,
        )
        traj = solve_navier_stokes(prob.forcing, u0, cfg)
        err = max(
            l2_norm_exact(u - prob.velocity(float(t)))
            for t, u in zip(traj.times, traj.fields)
        )
        assert traj.error_estimate is not None
        # first-order scheme: estimate is about half the true error
        assert err <= 3.0 * traj.error_estimate


def _field_loop(force, u0, cfg):
    """Every step of the field-at-a-time loop the array loop replaced, with
    the same arithmetic; steady forcing, no CFL check, no step doubling."""
    lam = wave_cubes(bandwidth_of(cfg.cutoff))[3] * (2.0 * math.pi / u0.ell) ** 2
    h = cfg.dt_effective

    def nonlinear(v):
        return leray_project(force - self_convection(v)).coeff_stack()

    def step(v):
        c = v.coeff_stack()
        if cfg.scheme == "imex_euler":
            return v.with_stack((c + h * nonlinear(v)) / (1.0 + h * cfg.mu * lam))
        eh = np.exp(-cfg.mu * lam * h / 2.0)
        ef = eh * eh
        k1 = nonlinear(v)
        k2 = nonlinear(v.with_stack(eh * (c + 0.5 * h * k1)))
        k3 = nonlinear(v.with_stack(eh * c + 0.5 * h * k2))
        k4 = nonlinear(v.with_stack(ef * c + h * eh * k3))
        return v.with_stack(ef * c + (h / 6.0) * (ef * k1 + 2.0 * eh * (k2 + k3) + k4))

    fields = [u0]
    for _ in range(cfg.nsteps):
        fields.append(step(fields[-1]))
    return fields


class TestArrayLoop:
    """The solver loop runs on coefficient stacks and evaluates the
    transport kernel once per stage, reusing N(u_{n+1}) as the next k1."""

    @pytest.mark.parametrize("scheme", ["if_rk4", "imex_euler"])
    @pytest.mark.parametrize("store_every", [1, 3])
    @pytest.mark.parametrize("forced", [False, True])
    def test_matches_field_operators_bitwise(self, rng, scheme, store_every, forced):
        u0 = smooth_random_divfree(ELL, 4, rng, amplitude=0.5)
        f = random_vector_field(ELL, 4, rng, amplitude=0.3) if forced else None
        cfg = SolverConfig(
            mu=MU, horizon=0.02, cutoff=4, dt=2e-3, scheme=scheme, store_every=store_every
        )
        traj = solve_navier_stokes(f, u0, cfg)
        force = f if forced else SpectralVectorField.zero(ELL, 4)
        steps = _field_loop(force, u0, cfg)
        stored = steps[::store_every] + ([steps[-1]] if cfg.nsteps % store_every else [])
        assert len(traj) == len(stored)
        for u, rhs, ref in zip(traj.fields, traj.rhs, stored):
            assert np.array_equal(u.coeff_stack(), ref.coeff_stack())
            expected = laplacian(u) * MU + leray_project(force - self_convection(u))
            assert np.array_equal(rhs.coeff_stack(), expected.coeff_stack())

    @pytest.mark.parametrize(
        "scheme, tolerance, per_step",
        [("if_rk4", None, 4), ("imex_euler", None, 1), ("if_rk4", 1.0, 11), ("imex_euler", 1.0, 2)],
    )
    @pytest.mark.parametrize("store_every", [1, 3])
    def test_kernel_calls_per_solve(
        self, rng, monkeypatch, scheme, tolerance, per_step, store_every
    ):
        calls = []
        kernel = galerkin._convect_stack

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(galerkin, "_convect_stack", counted)
        u0 = smooth_random_divfree(ELL, 4, rng, amplitude=0.5)
        cfg = SolverConfig(
            mu=MU, horizon=0.02, cutoff=4, dt=2e-3, scheme=scheme,
            step_tolerance=tolerance, store_every=store_every,
        )
        solve_navier_stokes(None, u0, cfg)
        # one for the t = 0 rhs sample, then per step the stages after k1
        # and N(u_{n+1}), which is also the next step's k1
        assert len(calls) == 1 + per_step * cfg.nsteps


class TestEnergyIdentity:
    def test_shear_defect_small(self, shear_run):
        defect = energy_identity_defect(shear_run, None, MU)
        assert float(np.max(defect)) <= 1e-6

    def test_imex_defect_scales_linearly(self):
        prob = two_shell_problem()
        from torusns.fields import truncate_vector

        u0 = truncate_vector(prob.initial, 4)
        defects = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(mu=prob.mu, horizon=0.1, cutoff=4, dt=dt, scheme="imex_euler")
            traj = solve_navier_stokes(prob.forcing, u0, cfg)
            defects.append(float(np.max(energy_identity_defect(traj, prob.forcing, prob.mu))))
        ratio = defects[0] / defects[1]
        assert 1.4 <= ratio <= 2.9


class TestResidual:
    def test_exact_shear_samples(self):
        times = np.arange(0, 251) * 1e-3
        fields = tuple(
            shear_field(ELL, 4, shear_decay_amplitude(float(t), MU, ELL)) for t in times
        )
        traj = FieldTrajectory(times, fields)
        res = residual(traj, None, None, MU)  # rhs absent: finite differences
        assert float(np.max(res)) <= 1e-8

    def test_zero_everything(self):
        zero = vector_from_modes(ELL, 4, {})
        traj = FieldTrajectory(np.array([0.0, 0.1, 0.2]), (zero, zero, zero))
        assert np.max(residual(traj, None, None, MU)) == 0.0

    def test_solver_output_with_recovered_pressure(self, shear_run):
        pressures = [recover_pressure(None, u) for u in shear_run.fields]
        res = residual(shear_run, pressures, None, MU, use_stored_rhs=True)
        assert float(np.max(res)) <= 1e-10

    def test_fd_residual_second_order(self):
        prob = two_shell_problem()
        values = []
        for dt in (2e-3, 1e-3):
            times = np.arange(0, round(0.1 / dt) + 1) * dt
            fields = tuple(prob.velocity(float(t)) for t in times)
            pressures = [prob.pressure(float(t)) for t in times]
            traj = FieldTrajectory(times, fields)
            res = residual(traj, pressures, prob.forcing, prob.mu, use_stored_rhs=False)
            values.append(float(np.max(res)))
        assert 3.0 <= values[0] / values[1] <= 5.5


class TestTwoSchemeAgreement:
    def test_single_pair(self, rng):
        u0 = smooth_random_divfree(ELL, 5, rng, amplitude=0.3)
        runs = {}
        for scheme in ("imex_euler", "if_rk4"):
            cfg = SolverConfig(
                mu=0.2,
                horizon=0.1,
                cutoff=5,
                dt=1e-3,
                scheme=scheme,
                attach_error_estimate=True,
            )
            runs[scheme] = solve_navier_stokes(None, u0, cfg)
        diff = max(
            l2_norm_exact(a - b)
            for a, b in zip(runs["imex_euler"].fields, runs["if_rk4"].fields)
        )
        bound = 2.0 * (
            2.0 * runs["imex_euler"].error_estimate
            + (16.0 / 15.0) * runs["if_rk4"].error_estimate
        )
        assert diff <= bound
