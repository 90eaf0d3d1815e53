import dataclasses
import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest

import torusns.galerkin as galerkin
import torusns.operators as operators
from torusns.eigenbasis import build_basis, load_basis, project_coefficients, save_basis
from torusns.fields import (
    SpectralVectorField,
    bandwidth_of,
    random_vector_field,
    vector_from_modes,
    wave_cubes,
    write_field,
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
    _convect_stack,
    _fast_len,
    _sample_stack,
    _self_convect_stack,
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


def _counted_kernels(monkeypatch):
    """Patch the solver's divergence-form kernel and the advective one; the
    two returned lists collect the arguments of their calls."""
    logs = []
    for module, name in ((galerkin, "_self_convect_stack"), (operators, "_convect_stack")):
        log, kernel = [], getattr(module, name)

        def counted(*args, log=log, kernel=kernel):
            log.append(args)
            return kernel(*args)

        monkeypatch.setattr(module, name, counted)
        logs.append(log)
    return logs


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
        # FieldTrajectory.at and sampled forcing use one rule, and so does a
        # sampled drift's stage: a time just below a sample returns it
        # bitwise, a lone sample is constant, a time beyond the span by more
        # than 1e-9 raises
        times = np.array([0.0, 0.1, 0.2])
        ws = [leray_project(random_vector_field(ELL, 4, rng, amplitude=0.3)) for _ in times]
        traj = FieldTrajectory(times, tuple(ws))
        forcing = galerkin._forcing_function(traj, ELL, 0.2, lambda g: g.coeff_stack())
        callers = [
            (traj.at, [w.coeff_stack() for w in ws], lambda x: x.coeff_stack()),
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
        lone_forcing = galerkin._forcing_function(lone, ELL, 5.0, lambda g: g)
        for t in (0.0, 1e-10, 0.3, 5.0):
            assert lone.at(t) is ws[0]
            assert lone_forcing(t) is ws[0]
        # a lone drift sample is the steady drift, matrix and all
        lone_op, steady_op = (assemble_linearized(w, basis4, MU) for w in (lone, ws[0]))
        assert np.array_equal(lone_op.matrix, steady_op.matrix)
        assert assemble_linearized(traj, basis4, MU).matrix is None

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

    def test_against_scipy(self, basis4):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(7)
        inputs = [rng.standard_normal((25, 25)) * scale for scale in (0.1, 1.0, 10.0)]
        for norm in 10.0 ** np.arange(-3, 4):  # ||a||_1 from 1e-3 to 1e3
            a = rng.standard_normal((25, 25))
            inputs.append(a * (norm / np.linalg.norm(a, 1)))
        # strongly non-normal: a Jordan-like block with a large superdiagonal
        inputs.append(-np.eye(20) + np.diag(np.full(19, 3.0), 1))
        # the closed form's augmented [[-A, g], [0, 0]] at M = 4
        w = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.3))
        a = assemble_linearized(w, basis4, MU).matrix
        aug = np.zeros((len(a) + 1, len(a) + 1))
        aug[:-1, :-1], aug[:-1, -1] = -a, rng.standard_normal(len(a))
        inputs += [aug * 0.005, aug * 2.0]
        for a in inputs:
            ours = matrix_exponential(a)
            ref = scipy_linalg.expm(a)
            assert np.max(np.abs(ours - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_paterson_stockmeyer_products(self):
        # the highest Taylor degree that k = 1, ..., 9 matrix products reach
        reach = [2, 4, 6, 9, 12, 16, 20, 25, 30]
        for m in range(2, 31):
            total, squarings, _, _ = galerkin._taylor_plan(1.0, m)
            assert total - squarings == next(k for k, top in enumerate(reach, 1) if m <= top)
        # the linearized benchmark's ||h B||_1: no squaring, degree 8, 4 products
        assert min(galerkin._taylor_plan(0.059, m) for m in range(1, 31)) == (4, 0, 8, 2)

    def test_action_plan(self):
        # the linearized benchmark's ||h B||_1: degree 8, one substep, 8 matvecs
        assert galerkin._action_plan(0.059, math.inf) == (8, 1)
        # multiples of theta_30, where norm / theta_30 may round down to s
        multiples = galerkin._TAYLOR_DEGREES[30][0] * np.arange(1, 100)
        for norm in [*np.logspace(-6, 3, 46), *multiples]:
            m, s = galerkin._action_plan(norm, math.inf)
            assert not galerkin._remainder_too_large(norm / s, m)
            # the closed form sends long runs to the dense walk on this inequality
            assert galerkin._exponential_plan(norm)[0] < m * s
            for k in range(1, 31):
                fewer = math.ceil(m * s / k) - 1  # the most substeps with fewer products
                assert fewer < 1 or galerkin._remainder_too_large(norm / fewer, k)
            assert galerkin._action_plan(norm, m * s - 1) is None

    def test_taylor_degree_table(self):
        # theta_m is the last eta that meets the remainder bound
        for m in range(1, 31):
            theta = galerkin._TAYLOR_DEGREES[m][0]
            assert not galerkin._remainder_too_large(theta, m)
            assert galerkin._remainder_too_large(np.nextafter(theta, math.inf), m)

    @pytest.mark.parametrize("norm", [1.3e8, 1e20, 1e300, 1.7e308])
    def test_action_plan_at_large_norms(self, norm):
        # no plan fits a budget of the exponential's products at these norms
        budget = galerkin._exponential_plan(norm)[0] * 1e3
        assert galerkin._action_plan(norm, budget) is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            matrix_exponential(np.array([[0.0, bad], [0.0, 0.0]]))

    def test_diagonal_closed_form(self):
        a = np.diag([0.5, -1.0, 2.0])
        assert np.max(np.abs(matrix_exponential(a) - np.diag(np.exp([0.5, -1.0, 2.0])))) <= 1e-14


class TestAssembly:
    def test_zero_drift_is_diagonal_diffusion(self, basis4):
        op = assemble_linearized(SpectralZero(), basis4, MU)
        kappa2 = (2 * math.pi / ELL) ** 2
        expected = MU * kappa2 * basis4.m
        assert np.max(np.abs(op.matrix - np.diag(expected))) == 0.0

    def test_constant_drift_transport_blocks(self):
        basis1 = build_basis(ELL, 1)
        c = np.array([0.3, -0.7, 0.2])
        w = vector_from_modes(ELL, 1, {(0, 0, 0): tuple(c)})
        op = assemble_linearized(w, basis1, MU)
        wpart = op.matrix - np.diag(op.diffusion)
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
        wpart = op.matrix - np.diag(op.diffusion)
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
            ("curl_free_last", "coupling-form identity.*basis field is not solenoidal"),
            # a sampled drift forms no identity: c_b . k_b = 0 is checked instead
            ("curl_free_sampled", r"basis field is not solenoidal: c_b \. k_b is not 0"),
            ("two_pairs", r"single \+-k pair"),
        ],
    )
    def test_malformed_basis_field_rejected(
        self, basis4, rng, tmp_path, monkeypatch, swap, message
    ):
        w = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.4))
        # entry 5 is row 8, after the three constants
        if swap.startswith("curl_free"):
            # its mode is swapped for the first curl-free one: amplitude parallel to k
            row = 8 if swap == "curl_free" else basis4.dim - 1
            kvec, coef = basis4.kvec.copy(), basis4.coef.copy()
            kvec[row], coef[row] = basis4.gradient.kvec[0], basis4.gradient.coef[0]
            bad = lambda: dataclasses.replace(basis4, kvec=kvec, coef=coef)
        if swap == "curl_free_last":
            # 3-row blocks, the last one rows 63-66.  The drift's one pair
            # p = +-(2, 0, -1) couples the curl-free column k_b = (0, 0, 1)
            # only to the rows at k_a = k_b + p = (2, 0, 0), rows 63-65, so
            # only the last block sees the defect
            assert basis4.dim == 67 and (basis4.kvec[63:] == (2, 0, 0)).all()
            monkeypatch.setattr(galerkin, "_ASSEMBLY_BLOCK_BYTES", 3 * 16 * basis4.dim)
            w = vector_from_modes(ELL, 5, {(2, 0, -1): (0, 1, 0)})
        if swap == "curl_free_sampled":
            w = FieldTrajectory(np.array([0.0, 0.1]), (w, w * 0.5))
        if swap == "two_pairs":
            # a basis dump whose block of entry 5 holds two +-k pairs
            fields = list(basis4.fields())
            block = io.StringIO()
            write_field((fields[8] + fields[12]) * math.sqrt(0.5), block)
            save_basis(basis4, tmp_path / "basis.txt")
            parts = (tmp_path / "basis.txt").read_text().split("BASIS ")
            parts[9] = parts[9].split("\n", 1)[0] + "\n" + block.getvalue()
            (tmp_path / "mixed.txt").write_text("BASIS ".join(parts))
            bad = lambda: load_basis(tmp_path / "mixed.txt")
        with pytest.raises(ValueError, match=message):
            assemble_linearized(w, bad(), MU)

    @pytest.mark.parametrize("cutoff", [4, 9])
    def test_row_blocks_bitwise(self, basis4, rng, monkeypatch, cutoff):
        basis = basis4 if cutoff == 4 else build_basis(ELL, 9)
        w = leray_project(random_vector_field(ELL, cutoff, rng, amplitude=0.3))
        # permuted rows give the permuted matrix, bit for bit
        perm = rng.permutation(basis.dim)
        permuted = dataclasses.replace(
            basis, **{f: getattr(basis, f)[perm] for f in ("kvec", "coef", "m", "j")}
        )
        got = assemble_linearized(w, permuted, MU).matrix
        # the smallest blocks (two rows: one row would take BLAS's matrix-vector
        # kernel), 7-row blocks (7 divides neither 67 nor 247) and one block
        mats = []
        for budget in (1, 7 * 16 * basis.dim, 16 * basis.dim**2):
            monkeypatch.setattr(galerkin, "_ASSEMBLY_BLOCK_BYTES", budget)
            mats.append(assemble_linearized(w, basis, MU).matrix)
        for m in mats[1:]:
            assert np.array_equal(m, mats[0])
        assert np.array_equal(got, mats[0][perm][:, perm])

    def test_assembly_peak_memory(self, rng):
        basis = build_basis(ELL, 16)
        w = smooth_random_divfree(ELL, 16, rng, amplitude=0.3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            op = assemble_linearized(w, basis, MU)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # 44.8 MB when every (dim, dim) intermediate was formed whole; the
        # matrix itself is 2.1 MB at dim 515
        assert peak <= 4 * op.matrix.nbytes

    @pytest.mark.parametrize("drift", ["cutoff4", "cutoff9", "wide", "trajectory", "zero"])
    def test_matches_grid_assembly(self, rng, drift):
        basis = build_basis(ELL, 9 if drift == "cutoff9" else 4)
        w_cutoff = 9 if drift in ("cutoff9", "wide") else 4
        w = leray_project(random_vector_field(ELL, w_cutoff, rng, amplitude=0.3))
        if drift == "trajectory":  # a lone sample: a steady drift
            w = FieldTrajectory(np.zeros(1), (w,))
        elif drift == "zero":
            w = w * 0.0
        op = assemble_linearized(w, basis, MU)
        [expected] = _grid_coupling(w, basis)
        err = np.max(np.abs(op.matrix - np.diag(op.diffusion) - expected))
        assert err <= 1e-13 * np.max(np.abs(expected))

    def test_wide_drift_entries_exact(self, basis4, rng):
        # drift modes above the basis cutoff still couple the basis fields
        from torusns.fields import embed
        from torusns.operators import convect, inner_l2

        w = leray_project(random_vector_field(ELL, 9, rng, amplitude=0.3))
        op = assemble_linearized(w, basis4, MU)
        wpart = op.matrix - np.diag(op.diffusion)
        fields = list(basis4.fields())
        for i, j in [(3, 10), (0, 5), (20, 21)]:
            row, col = fields[i], fields[j]
            cole = embed(col, 9)
            expected = inner_l2(convect(w, cole, out_cutoff=25), embed(row, 25)) + inner_l2(
                convect(cole, w, out_cutoff=25), embed(row, 25)
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
    fields = list(basis.fields())
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

    fields = list(basis.fields())
    out = np.zeros((len(fields), len(fields)))
    for j, col in enumerate(fields):
        moved = convect(w, col)
        for i, row in enumerate(fields):
            out[i, j] = inner_l2(moved, row)
    return out


class TestLinearizedSolve:
    def test_pure_decay_closed_form(self, basis4):
        op = assemble_linearized(SpectralZero(), basis4, MU)
        u0 = list(basis4.fields())[3]  # shell m = 1 eigenfield, after the constants
        cfg = SolverConfig(mu=MU, horizon=1.0, cutoff=4, dt=1e-3, scheme="if_rk4")
        traj = solve_linearized(op, None, u0, cfg)
        lam = MU * (2 * math.pi / ELL) ** 2
        coeffs = np.array([project_coefficients(u, basis4)[3] for u in traj.fields])
        assert np.max(np.abs(coeffs - np.exp(-lam * traj.times))) <= 1e-9

    def test_constant_forcing_steady_state(self, basis4):
        op = assemble_linearized(SpectralZero(), basis4, MU)
        forcing = list(basis4.fields())[3] * 0.8
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
        assert _linear_step_halving(op, None, c0, cfg) <= 1e-8

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
            res = dcdt + op.matrix @ coeffs[i]
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

    @staticmethod
    def _sampled_problem(basis):
        rng = np.random.default_rng(43)
        w0, w1 = (leray_project(random_vector_field(ELL, 4, rng, amplitude=0.3)) for _ in range(2))
        drift = FieldTrajectory(np.array([0.0, 0.03, 0.1]), (w0, w1, w0 * -0.5))
        g = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.4))
        forcing = FieldTrajectory(np.array([0.0, 0.05, 0.1]), (g, g * -0.5, g * 0.25))
        return assemble_linearized(drift, basis, MU), forcing, rng.standard_normal(basis.dim)

    @pytest.mark.parametrize("scheme", ["if_rk4", "imex_euler"])
    def test_rhs_samples_are_the_ode_rhs(self, basis4, scheme):
        from torusns.eigenbasis import reconstruct
        from torusns.galerkin import _forcing_function, _integrate_linear

        op, forcing, c0 = self._sampled_problem(basis4)
        cfg = SolverConfig(mu=MU, horizon=0.1, cutoff=4, dt=4e-3, scheme=scheme)
        traj = solve_linearized(op, forcing, c0, cfg)
        gfun = _forcing_function(forcing, ELL, 0.1, lambda g: project_coefficients(g, basis4))
        coeffs = _integrate_linear(op, gfun, c0, cfg)[1]
        rhs = np.stack([r.coeffs for r in traj.rhs])
        at = _dense_per_sample(op)
        ref = np.stack(
            [reconstruct(basis4, gfun(t) - at(t) @ c).coeffs for t, c in zip(traj.times, coeffs)]
        )
        for u, c in zip(traj.fields, coeffs):
            assert np.array_equal(u.coeffs, reconstruct(basis4, c).coeffs)
        assert np.max(np.abs(rhs - ref)) <= 1e-15 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("scheme, per_step", [("if_rk4", 4), ("imex_euler", 1)])
    def test_operator_evaluations_per_solve(self, basis4, monkeypatch, scheme, per_step):
        calls = []
        stage = galerkin._ns_stage

        def counted(stacks, *args):
            calls.append(len(stacks))
            return stage(stacks, *args)

        monkeypatch.setattr(galerkin, "_ns_stage", counted)
        op, forcing, c0 = self._sampled_problem(basis4)
        cfg = SolverConfig(mu=MU, horizon=0.1, cutoff=4, dt=4e-3, scheme=scheme)
        solve_linearized(op, forcing, c0, cfg)
        # one kernel call per stage, on (w(t), v): the stages of every step
        # plus k1 at the final time; the stored rhs samples reuse the k1 values
        assert calls == [2] * (1 + per_step * cfg.nsteps)

    def test_closed_form_requires_autonomous(self, basis4, rng):
        w0 = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.2))
        drift = FieldTrajectory(np.array([0.0, 1.0]), (w0, w0 * 0.5))
        op = assemble_linearized(drift, basis4, MU)
        with pytest.raises(ValueError, match="autonomous"):
            linearized_closed_form(op, None, np.zeros(basis4.dim), [0.1])


def _closed_form_per_time(op, f_const, c0, times, expm=matrix_exponential):
    """The closed form with one augmented exponential per output time."""
    a = op.matrix
    dim = a.shape[0]
    g = np.zeros(dim) if f_const is None else f_const
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = -a
    aug[:dim, dim] = g
    out = np.empty((len(times), dim))
    for i, t in enumerate(times):
        phi = expm(aug * t)
        out[i] = phi[:dim, :dim] @ c0 + phi[:dim, dim]
    return out


def _step_halving(f, u0, cfg):
    """A Navier-Stokes run and its step-halving estimate (Hairer, Norsett &
    Wanner 1993, II.4): the largest L2 distance between a sample and the
    sample of the run at dt/2 at that time."""
    coarse = solve_navier_stokes(f, u0, cfg)
    fine = solve_navier_stokes(f, u0, dataclasses.replace(cfg, dt=cfg.dt_effective / 2))
    return coarse, max(l2_norm_exact(a - b) for a, b in zip(coarse.fields, fine.fields[::2]))


def _linear_step_halving(op, f, c0, cfg):
    """The step-halving estimate of a linearized run from the solver's own
    coefficients: the largest difference of one basis coefficient between a
    sample and the sample of the run at dt/2 at that time."""
    from torusns.fields import truncate
    from torusns.galerkin import _forcing_function, _integrate_linear

    basis = op.basis
    gfun = _forcing_function(
        f, basis.ell, cfg.horizon, lambda g: project_coefficients(truncate(g, basis.cutoff), basis)
    )
    coarse = _integrate_linear(op, gfun, c0, cfg)[1]
    fine = _integrate_linear(op, gfun, c0, dataclasses.replace(cfg, dt=cfg.dt_effective / 2))[1]
    return float(max(np.max(np.abs(a - b)) for a, b in zip(coarse, fine[::2])))


def _dense_per_sample(op):
    """t -> A(t) of the dense per-sample reference: each drift sample is
    assembled as a steady operator, and the matrices are interpolated by the
    solver's rule.  ``op`` is assembled at viscosity MU."""
    matrices = [assemble_linearized(w, op.basis, MU).matrix for w in op.drift.fields]
    return lambda t: galerkin._interpolate(op.drift.times, matrices, t)


def _integrate_linear_dense(op, gfun, c0, config):
    """The integrator with a dense A(t) - diag(diffusion) formed at every
    stage, A(t) that of :func:`_dense_per_sample`."""
    nsteps, dt = config.nsteps, config.dt_effective
    diff, at = op.diffusion, _dense_per_sample(op)

    def gee(c, t):
        return gfun(t) - (at(t) - np.diag(diff)) @ c

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


@pytest.fixture(scope="module")
def benchmark_problem():
    """The linearized benchmark's regime: M = 16, a full-support drift, no forcing."""
    basis = build_basis(ELL, 16)
    rng = np.random.default_rng(11)
    op = assemble_linearized(smooth_random_divfree(ELL, 16, rng, amplitude=0.3), basis, MU)
    c0 = project_coefficients(smooth_random_divfree(ELL, 16, rng, amplitude=1.0), basis)
    return op, c0, _solver_times(0.02, 5e-3)


def _on_both_paths(monkeypatch, *args):
    """linearized_closed_form(*args) with the dense walk and the Taylor action forced."""
    out = {}
    for path, cost in (("dense", 0.0), ("action", math.inf)):
        monkeypatch.setattr(galerkin, "_PRODUCT_COST", cost)
        out[path] = linearized_closed_form(*args)
    return out


_FORCED = pytest.mark.parametrize("forced", [False, True])
_CLOSED_FORM_TIMES = pytest.mark.parametrize(
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


class TestClosedForm:
    @_FORCED
    @_CLOSED_FORM_TIMES
    def test_matches_per_time_exponentials(self, drift_problem, monkeypatch, forced, times):
        op, c0, g = drift_problem
        f_const = g if forced else None
        ref = _closed_form_per_time(op, f_const, c0, times)
        for path, got in _on_both_paths(monkeypatch, op, f_const, c0, times).items():
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), path

    @_FORCED
    @_CLOSED_FORM_TIMES
    def test_matches_scipy_per_time_exponentials(self, drift_problem, monkeypatch, forced, times):
        # an exponential independent of matrix_exponential
        expm = pytest.importorskip("scipy.linalg").expm
        op, c0, g = drift_problem
        f_const = g if forced else None
        ref = _closed_form_per_time(op, f_const, c0, times, expm)
        for path, got in _on_both_paths(monkeypatch, op, f_const, c0, times).items():
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), path

    def test_benchmark_regime_matches_scipy(self, benchmark_problem, monkeypatch):
        expm = pytest.importorskip("scipy.linalg").expm
        op, c0, times = benchmark_problem
        ref = _closed_form_per_time(op, None, c0, times, expm)
        for path, got in _on_both_paths(monkeypatch, op, None, c0, times).items():
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), path

    def test_benchmark_regime_takes_no_exponential(self, benchmark_problem, monkeypatch):
        def refused(a):
            raise AssertionError("matrix_exponential called")

        monkeypatch.setattr(galerkin, "matrix_exponential", refused)
        op, c0, times = benchmark_problem
        linearized_closed_form(op, None, c0, times)

    def test_zero_operator_returns_initial_coefficients(self, drift_problem, monkeypatch):
        op, c0, _ = drift_problem
        zero = dataclasses.replace(op, matrix=np.zeros_like(op.matrix))
        times = _solver_times(0.02, 5e-3)
        for path, got in _on_both_paths(monkeypatch, zero, np.zeros(len(c0)), c0, times).items():
            assert np.array_equal(got, np.tile(c0, (len(times), 1))), path

    def test_nonfinite_operator_or_forcing_rejected(self, drift_problem, monkeypatch):
        op, c0, g = drift_problem
        bad_g = g.copy()
        bad_g[3] = math.nan
        bad_op = dataclasses.replace(op, matrix=op.matrix.copy())
        bad_op.matrix[2, 5] = math.inf
        for cost in (0.0, math.inf):
            monkeypatch.setattr(galerkin, "_PRODUCT_COST", cost)
            for args in ((op, bad_g), (bad_op, g)):
                with pytest.raises(ValueError, match="non-finite"):
                    linearized_closed_form(*args, c0, [0.0, 0.01])

    def test_bad_shapes_rejected(self, drift_problem):
        op, c0, g = drift_problem
        shape = rf"must have shape \({len(c0)},\)"
        with pytest.raises(ValueError, match="f_const " + shape):
            linearized_closed_form(op, g[:1], c0, [0.0, 0.01])
        with pytest.raises(ValueError, match="c0 " + shape):
            linearized_closed_form(op, g, c0[:-1], [0.0, 0.01])

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

    @pytest.mark.parametrize("scale, t", [(1.0, 1e9), (1e300, 1e-3)])
    def test_large_norms_take_the_dense_walk(self, drift_problem, monkeypatch, scale, t):
        # ||h B||_1 of 1e11 and 1e298: one exponential, no Taylor action
        calls = []

        def counted(a):
            calls.append(a.shape)
            return matrix_exponential(a)

        monkeypatch.setattr(galerkin, "matrix_exponential", counted)
        op, c0, g = drift_problem
        lam = (1.0 + op.diffusion) * scale  # c(t) = g / lam + exp(-t lam)(c0 - g / lam)
        heat = dataclasses.replace(op, matrix=np.diag(lam))
        got = linearized_closed_form(heat, g, c0, [0.0, t])
        assert len(calls) == 1
        assert np.max(np.abs(got[1] - g / lam)) <= 1e-13 * np.max(np.abs(g / lam))

    @pytest.mark.parametrize(
        "times",
        [[0.0, 0.2, 0.1], [-0.1, 0.0], [0.0, math.nan], [0.0, math.inf], [[0.0, 0.1]]],
        ids=["decreasing", "negative", "nan", "inf", "2d"],
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
        ref = _integrate_linear_dense(op, gfun, c0, cfg)
        times, got, _ = _integrate_linear(op, gfun, c0, cfg)
        assert np.array_equal(times, _solver_times(0.1, 4e-3))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("scheme", ["if_rk4", "imex_euler"])
    @pytest.mark.parametrize("w_cutoff", [1, 4, 9, 17])
    def test_sampled_drift_matches_dense_per_sample(self, basis4, scheme, w_cutoff):
        # drifts below, at and above M = 4; at 17 > 4M the stage cuts the
        # drift to shell 16, whose modes k_a -+ k_b hold every coupling
        from torusns.galerkin import _forcing_function, _integrate_linear

        rng = np.random.default_rng(53 + w_cutoff)
        ws = [leray_project(random_vector_field(ELL, w_cutoff, rng, amplitude=0.3)) for _ in "abc"]
        drift = FieldTrajectory(np.array([0.0, 0.04, 0.1]), tuple(ws))
        op = assemble_linearized(drift, basis4, MU)
        assert op.matrix is None
        g = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.4))
        forcing = FieldTrajectory(np.array([0.0, 0.1]), (g, g * 0.25))
        gfun = _forcing_function(forcing, ELL, 0.1, lambda g: project_coefficients(g, basis4))
        c0 = rng.standard_normal(basis4.dim)
        cfg = SolverConfig(mu=MU, horizon=0.1, cutoff=4, dt=4e-3, scheme=scheme)
        ref = _integrate_linear_dense(op, gfun, c0, cfg)
        got = _integrate_linear(op, gfun, c0, cfg)[1]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_sampled_drift_peak_memory(self):
        # 101 drift samples at M = 9, dim 247: the per-sample dense matrices
        # alone were 49 MB; the stage keeps the drift's own coefficients
        basis = build_basis(ELL, 9)
        rng = np.random.default_rng(59)
        w = smooth_random_divfree(ELL, 9, rng, amplitude=0.3)
        times = np.linspace(0.0, 0.1, 101)
        drift = FieldTrajectory(times, tuple(w * math.cos(20.0 * t) for t in times))
        c0 = rng.standard_normal(basis.dim)
        cfg = SolverConfig(mu=MU, horizon=0.1, cutoff=9, dt=1e-2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solve_linearized(assemble_linearized(drift, basis, MU), None, c0, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


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
        from torusns.fields import truncate

        u0 = truncate(prob.initial, 4)
        cfg = SolverConfig(mu=prob.mu, horizon=0.1, cutoff=4, dt=1e-3, scheme="if_rk4")
        traj = solve_navier_stokes(prob.forcing, u0, cfg)
        worst = max(
            l2_norm_exact(u - prob.velocity(float(t)))
            for t, u in zip(traj.times, traj.fields)
        )
        assert worst <= 1e-8

    def test_sampled_forcing_matches_callable(self):
        prob = two_shell_problem()
        from torusns.fields import truncate

        dt = 2e-3
        u0 = truncate(prob.initial, 4)
        cfg = SolverConfig(mu=prob.mu, horizon=0.1, cutoff=4, dt=dt, scheme="if_rk4")
        by_callable = solve_navier_stokes(prob.forcing, u0, cfg)
        fine = np.arange(0, round(0.1 / (dt / 2)) + 1) * (dt / 2)
        sampled = FieldTrajectory(
            fine, tuple(truncate(prob.forcing(float(t)), 4) for t in fine)
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
        with pytest.warns(RuntimeWarning, match="CFL") as record:
            solve_navier_stokes(None, u0, cfg)
        # the warning cites the caller of solve_navier_stokes
        assert record[0].filename == __file__

    @pytest.mark.parametrize("scheme", ["if_rk4", "imex_euler"])
    def test_error_estimate_is_step_halving_distance(self, scheme):
        prob = two_shell_problem()
        from torusns.fields import truncate

        u0 = truncate(prob.initial, 4)
        plain = SolverConfig(mu=prob.mu, horizon=0.07, cutoff=4, dt=1e-2, scheme=scheme)
        assert plain.nsteps % 2 and plain.nsteps % 3
        coarse = solve_navier_stokes(prob.forcing, u0, plain)
        fine = solve_navier_stokes(
            prob.forcing, u0, dataclasses.replace(plain, dt=plain.dt_effective / 2)
        )
        # the dt/2 run takes twice the steps and samples every coarse time
        assert len(fine) == 2 * len(coarse) - 1
        assert np.allclose(fine.times[::2], coarse.times, rtol=0.0, atol=1e-15)

    def test_error_estimate_attached(self):
        prob = two_shell_problem()
        from torusns.fields import truncate

        u0 = truncate(prob.initial, 4)
        cfg = SolverConfig(mu=prob.mu, horizon=0.1, cutoff=4, dt=2e-3, scheme="imex_euler")
        traj, estimate = _step_halving(prob.forcing, u0, cfg)
        err = max(
            l2_norm_exact(u - prob.velocity(float(t)))
            for t, u in zip(traj.times, traj.fields)
        )
        # first-order scheme: estimate is about half the true error
        assert err <= 3.0 * estimate


def _solver_transport(v):
    """The solver's transport term div(v (x) v), as a field."""
    return v.with_coeffs(_self_convect_stack((v.coeffs,), v.ell, v.cutoff))


def _field_loop(force, u0, cfg, transport=_solver_transport):
    """Every step of the field-at-a-time loop the array loop replaced, with
    the same arithmetic; steady forcing, no CFL check, no step doubling."""
    lam = wave_cubes(bandwidth_of(cfg.cutoff))[3] * (2.0 * math.pi / u0.ell) ** 2
    h = cfg.dt_effective

    def nonlinear(v):
        return leray_project(force - transport(v)).coeff_stack()

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
    @pytest.mark.parametrize("runs", [1])
    @pytest.mark.parametrize("forced", [False, True])
    def test_matches_field_operators_bitwise(self, rng, monkeypatch, scheme, runs, forced):
        """Every step is stored, from ``runs`` = 1 march at dt_effective."""
        marches = []
        march = galerkin._march
        monkeypatch.setattr(galerkin, "_march", lambda *a: marches.append(a[4]) or march(*a))
        u0 = smooth_random_divfree(ELL, 4, rng, amplitude=0.5)
        f = random_vector_field(ELL, 4, rng, amplitude=0.3) if forced else None
        cfg = SolverConfig(mu=MU, horizon=0.02, cutoff=4, dt=2e-3, scheme=scheme)
        traj = solve_navier_stokes(f, u0, cfg)
        force = f if forced else SpectralVectorField.zero(ELL, 4)
        stored = _field_loop(force, u0, cfg)
        # the advective reference: the same loop on (u . grad) u
        advective = _field_loop(force, u0, cfg, transport=self_convection)
        assert marches == [cfg.dt_effective] * runs
        assert len(traj) == len(stored) == cfg.nsteps + 1
        for u, rhs, ref, adv in zip(traj.fields, traj.rhs, stored, advective):
            assert np.array_equal(u.coeff_stack(), ref.coeff_stack())
            expected = laplacian(u) * MU + leray_project(force - _solver_transport(u))
            assert np.array_equal(rhs.coeff_stack(), expected.coeff_stack())
            assert np.max(np.abs(u.coeffs - adv.coeffs)) <= 1e-14 * np.max(np.abs(adv.coeffs))
            old_rhs = laplacian(u) * MU + leray_project(force - self_convection(u))
            assert np.max(np.abs(rhs.coeffs - old_rhs.coeffs)) <= 1e-14 * np.max(
                np.abs(old_rhs.coeffs)
            )

    @pytest.mark.parametrize(
        "scheme, tolerance, per_step",
        [("if_rk4", None, 4), ("imex_euler", None, 1)],
    )
    @pytest.mark.parametrize("runs", [1])
    def test_kernel_calls_per_solve(self, rng, monkeypatch, scheme, tolerance, per_step, runs):
        calls, advective = _counted_kernels(monkeypatch)
        u0 = smooth_random_divfree(ELL, 4, rng, amplitude=0.5)
        cfg = SolverConfig(mu=MU, horizon=0.02, cutoff=4, dt=2e-3, scheme=scheme)
        solve_navier_stokes(None, u0, cfg)
        # a solve is one run: one call for the t = 0 rhs sample, then per
        # step the stages after k1 and N(u_{n+1}), also the next step's k1
        assert len(calls) == runs * (1 + per_step * cfg.nsteps)
        # the divergence form never falls back to the advective kernel here
        assert len(advective) == 0


class TestStageWorkspace:
    """The stage's grids live in a per-run workspace: reusing it changes no
    bit, and a warm stage allocates little beyond its result."""

    def test_no_history(self, rng):
        us = {c: leray_project(random_vector_field(ELL, c, rng)).coeffs for c in (25, 20, 16)}
        f = leray_project(random_vector_field(ELL, 16, rng, amplitude=0.3)).coeffs
        fresh = galerkin._ns_stage((us[16],), f, ELL, 16, {}).tobytes()
        ws = {}
        # bandwidth 5; bandwidth 4 at a second cutoff (20) and at a second
        # ell; a chain call on (u, d_t u), which samples 6 components
        for stacks, g, ell, cutoff in [
            ((us[25],), np.zeros_like(us[25]), ELL, 25),
            ((us[20],), np.zeros_like(us[20]), ELL, 20),
            ((us[16],), f, 3.3, 16),
            ((us[16], 0.5 * us[16]), f, ELL, 16),
        ]:
            got = galerkin._ns_stage(stacks, g, ell, cutoff, ws).tobytes()
            assert got == galerkin._ns_stage(stacks, g, ell, cutoff, {}).tobytes()
            assert galerkin._ns_stage((us[16],), f, ELL, 16, ws).tobytes() == fresh

    def test_warm_stage_allocation(self, rng):
        u = smooth_random_divfree(ELL, 36, rng, amplitude=0.5).coeffs
        f = np.zeros_like(u)
        ws = {}
        galerkin._ns_stage((u,), f, ELL, 36, ws)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            galerkin._ns_stage((u,), f, ELL, 36, ws)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # about 2 MB when every stage allocated its grids, 0.42 MB with the
        # grids in the workspace, 0.32 MB measured with the run's constants
        # there too (the result is 0.1 MB, hermitianize's temporaries 0.2 MB);
        # the bound leaves a 20% margin
        assert peak < 0.38e6


class TestEnergyIdentity:
    def test_shear_defect_small(self, shear_run):
        defect = energy_identity_defect(shear_run, None, MU)
        assert float(np.max(defect)) <= 1e-6

    def test_imex_defect_scales_linearly(self):
        prob = two_shell_problem()
        from torusns.fields import truncate

        u0 = truncate(prob.initial, 4)
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
        res = residual(traj, None, MU)  # rhs absent: finite differences
        assert float(np.max(res)) <= 1e-8

    def test_zero_everything(self):
        zero = vector_from_modes(ELL, 4, {})
        traj = FieldTrajectory(np.array([0.0, 0.1, 0.2]), (zero, zero, zero))
        assert np.max(residual(traj, None, MU)) == 0.0

    @pytest.mark.parametrize("run", ["shear", "two_shell"])
    def test_solver_output_with_recovered_pressure(self, run, request, monkeypatch):
        if run == "shear":
            traj, forcing, mu = request.getfixturevalue("shear_run"), None, MU
        else:
            from torusns.fields import truncate

            prob = two_shell_problem()
            cfg = SolverConfig(mu=prob.mu, horizon=0.05, cutoff=4, dt=1e-3, scheme="if_rk4")
            traj = solve_navier_stokes(prob.forcing, truncate(prob.initial, 4), cfg)
            forcing, mu = prob.forcing, prob.mu
        calls, advective = _counted_kernels(monkeypatch)
        res = residual(traj, forcing, mu)
        # d_t u is the stored rhs, which this re-evaluates stage by stage
        assert float(np.max(res)) == 0.0
        assert len(calls) == len(traj)
        assert len(advective) == 0

    @pytest.mark.parametrize("evaluate", ["recover_pressure", "residual"])
    def test_non_solenoidal_input_raises(self, evaluate, rng):
        u = random_vector_field(ELL, 4, rng)
        with pytest.raises(ValueError, match="divergence-free"):
            if evaluate == "recover_pressure":
                recover_pressure(None, u)
            else:
                residual(FieldTrajectory(np.array([0.0, 0.1, 0.2]), (u, u, u)), None, MU)

    def test_fd_residual_second_order(self):
        prob = two_shell_problem()
        values = []
        for dt in (2e-3, 1e-3):
            times = np.arange(0, round(0.1 / dt) + 1) * dt
            fields = tuple(prob.velocity(float(t)) for t in times)
            traj = FieldTrajectory(times, fields)
            res = residual(traj, prob.forcing, prob.mu)
            values.append(float(np.max(res)))
        assert 3.0 <= values[0] / values[1] <= 5.5


class TestTwoSchemeAgreement:
    def test_single_pair(self, rng):
        u0 = smooth_random_divfree(ELL, 5, rng, amplitude=0.3)
        runs, estimates = {}, {}
        for scheme in ("imex_euler", "if_rk4"):
            cfg = SolverConfig(mu=0.2, horizon=0.1, cutoff=5, dt=1e-3, scheme=scheme)
            runs[scheme], estimates[scheme] = _step_halving(None, u0, cfg)
        diff = max(
            l2_norm_exact(a - b)
            for a, b in zip(runs["imex_euler"].fields, runs["if_rk4"].fields)
        )
        bound = 2.0 * (2.0 * estimates["imex_euler"] + (16.0 / 15.0) * estimates["if_rk4"])
        assert diff <= bound


def _digest(arrays, *floats):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    for x in floats:
        h.update(np.float64(x).tobytes())
    return h.hexdigest()


class TestGoldenDigests:
    """sha256 of the coefficient bytes of seeded runs, pinned to the values
    of the step loops that each solver carried before they shared one
    stepper.  The digests assume numpy's pocketfft and an IEEE double BLAS
    with deterministic dot products, as in the tier-1 environment.

    ``NS`` is the Navier-Stokes run on the advective kernel (u . grad) u,
    which the loop used before the divergence form; ``NS_DIV`` is the same
    run on the solver's kernel div(u (x) u).  ``LINEAR`` is a linearized run
    with a sampled drift, on its kernel stage; the dense per-sample stage it
    replaced gave coefficients within 1.2e-16 of these, relative to the
    largest."""

    NS = {
        "if_rk4": "2e03060230921dd45075c7d8165a6514e9911f87550b6ae65e56602cdf68e2e8",
        "imex_euler": "5f2c5d23dccab4e377ebffe6efe245b33378f3ce2ba9cda2a22e71c52b2d085e",
    }
    NS_DIV = {
        "if_rk4": "f2d188fcf21e2b24da09493b508419f6302d86f5ff068e342a705b7e0e0b9dfe",
        "imex_euler": "c73ea3e28299dd55af151109c621d4af1b8b58ed023ee70f830d349c4dec24eb",
    }
    LINEAR = {
        "if_rk4": "db945fe09978bd279b404410086d949a1ccff12b9fd162d0127daf21afa23a1b",
        "imex_euler": "dc8af0c0cbf79137cb6e65e5e3d5f2deca066ea4340755541a8bac4235099fe4",
    }

    @pytest.mark.parametrize("scheme", ["if_rk4", "imex_euler"])
    def test_navier_stokes_run(self, monkeypatch, scheme):
        ell = 3.3
        rng = np.random.default_rng(4409)
        u0 = smooth_random_divfree(ell, 5, rng, amplitude=0.6)
        f = leray_project(random_vector_field(ell, 3, rng, amplitude=0.3))
        # at this mu and dt, 1 + (dt mu) lam and 1 + dt (mu lam) differ in 8 modes
        cfg = SolverConfig(mu=0.37, horizon=0.03, cutoff=5, dt=3e-3, scheme=scheme)

        def digest(traj):
            return _digest(
                [traj.times] + [u.coeffs for u in traj.fields] + [r.coeffs for r in traj.rhs]
            )

        traj = solve_navier_stokes(f, u0, cfg)
        assert digest(traj) == self.NS_DIV[scheme]
        # on the advective kernel nothing else in the loop moved
        with monkeypatch.context() as m:
            m.setattr(
                galerkin,
                "_self_convect_stack",
                lambda s, ell, cut, ws: _convect_stack(s[0], s[0], ell, cut),
            )
            advective = solve_navier_stokes(f, u0, cfg)
        assert digest(advective) == self.NS[scheme]
        for a, b in zip(traj.fields + traj.rhs, advective.fields + advective.rhs):
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-14 * np.max(np.abs(b.coeffs))

    @pytest.mark.parametrize("scheme", ["if_rk4", "imex_euler"])
    def test_linearized_run(self, basis4, scheme):
        rng = np.random.default_rng(4421)
        w0, w1 = (leray_project(random_vector_field(ELL, 4, rng, amplitude=0.3)) for _ in range(2))
        drift = FieldTrajectory(np.array([0.0, 0.04, 0.1]), (w0, w1, w0 * -0.5))
        op = assemble_linearized(drift, basis4, MU)
        g = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.4))
        forcing = FieldTrajectory(np.array([0.0, 0.1]), (g, g * 0.25))
        c0 = rng.standard_normal(basis4.dim)
        cfg = SolverConfig(mu=MU, horizon=0.1, cutoff=4, dt=4e-3, scheme=scheme)
        traj = solve_linearized(op, forcing, c0, cfg)
        estimate = _linear_step_halving(op, forcing, c0, cfg)
        got = _digest([traj.times] + [u.coeffs for u in traj.fields], estimate)
        assert got == self.LINEAR[scheme]
