import math

import numpy as np
import pytest

from torusns import estimates, galerkin, operators
from torusns.eigenbasis import build_basis
from torusns.estimates import (
    BochnerScaleNorm,
    PerovInput,
    bochner_scale_norm,
    energy_certificate,
    lps_admissible,
    lps_norm,
    perov_bound,
)
from torusns.fields import (
    SpectralVectorField,
    random_scalar_field,
    random_vector_field,
    truncate,
    vector_from_modes,
)
from torusns.galerkin import (
    FieldTrajectory,
    SolverConfig,
    energy_identity_defect,
    load_trajectory,
    save_trajectory,
    solve_navier_stokes,
    trapezoid,
)
from torusns.helmholtz import leray_project
from torusns.operators import (
    div,
    grad,
    grad_norm,
    hs_norm,
    l2_norm_exact,
    laplacian,
    lp_norm,
    norm_table,
    symmetrized_convection,
)
from torusns.problems import shear_field, taylor_green_field, two_shell_problem

ELL = 2.0 * math.pi
MU = 0.1
T_RUN = 0.5


@pytest.fixture(scope="module")
def shear_run():
    cfg = SolverConfig(mu=MU, horizon=T_RUN, cutoff=4, dt=1e-3, scheme="if_rk4")
    return solve_navier_stokes(None, shear_field(ELL, 4, 1.0), cfg)


class TestPerov:
    def test_validation(self):
        t = np.linspace(0, 1, 11)
        with pytest.raises(ValueError, match="nonnegative"):
            PerovInput(1.0, 1.0, t, -np.ones_like(t), np.zeros_like(t))
        with pytest.raises(ValueError, match="increasing"):
            PerovInput(1.0, 1.0, t[::-1], np.ones_like(t), np.zeros_like(t))
        with pytest.raises(ValueError, match="gamma"):
            PerovInput(1.0, 1.5, t, np.ones_like(t), np.zeros_like(t))

    def test_constant_bound_without_growth(self):
        t = np.linspace(0, 3, 31)
        out = perov_bound(PerovInput(2.5, 1.0, t, np.zeros_like(t), np.zeros_like(t)))
        assert np.array_equal(out, np.full_like(t, 2.5))

    def test_exponential_closed_form(self):
        t = np.linspace(0, 2, 201)
        out = perov_bound(PerovInput(3.0, 1.0, t, 0.7 * np.ones_like(t), np.zeros_like(t)))
        assert np.max(np.abs(out - 3.0 * np.exp(0.7 * t))) <= 1e-10

    def test_quadratic_closed_form(self):
        t = np.linspace(0, 2, 201)
        out = perov_bound(PerovInput(1.0, 0.5, t, np.zeros_like(t), np.ones_like(t)))
        assert np.max(np.abs(out - (1.0 + t / 2.0) ** 2)) <= 1e-10

    def test_square_root_ode_attains_bound(self):
        # Y' = Y^(1/2), Y(0) = 1 solved by brute-force fine stepping
        fine = np.linspace(0, 2, 20001)
        y = np.empty_like(fine)
        y[0] = 1.0
        h = fine[1] - fine[0]
        for i in range(len(fine) - 1):
            k1 = math.sqrt(y[i])
            k2 = math.sqrt(y[i] + 0.5 * h * k1)
            k3 = math.sqrt(y[i] + 0.5 * h * k2)
            k4 = math.sqrt(y[i] + h * k3)
            y[i + 1] = y[i] + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        coarse = fine[::100]
        bound = perov_bound(
            PerovInput(1.0, 0.5, coarse, np.zeros_like(coarse), np.ones_like(coarse))
        )
        samples = y[::100]
        assert np.all(samples <= bound * (1 + 1e-9))
        assert np.max(np.abs(samples - bound)) <= 1e-6

    def test_dominates_discrete_admissible_samples(self):
        rng = np.random.default_rng(99)
        t = np.linspace(0, 1, 51)
        dt = np.diff(t)
        for _ in range(100):
            a = rng.uniform(0.1, 3.0)
            b = rng.uniform(0, 2.0, size=t.shape)
            c = rng.uniform(0, 2.0, size=t.shape)
            theta = rng.uniform(0, 0.95, size=t.shape)
            y = np.empty_like(t)
            y[0] = theta[0] * a
            integral = 0.0
            for i in range(1, len(t)):
                prev = b[i - 1] * y[i - 1] + c[i - 1]
                num = theta[i] * (
                    a + integral + 0.5 * dt[i - 1] * (prev + c[i])
                )
                den = 1.0 - theta[i] * 0.5 * dt[i - 1] * b[i]
                y[i] = num / den
                integral += 0.5 * dt[i - 1] * (prev + b[i] * y[i] + c[i])
            # discrete admissibility: Y_i <= A + trapz(B Y + C) up to t_i
            from torusns.galerkin import cumulative_trapezoid

            check = a + cumulative_trapezoid(b * y + c, t)
            assert np.all(y <= check * (1 + 1e-12))
            bound = perov_bound(PerovInput(a, 1.0, t, b, c))
            assert np.all(y <= bound * (1 + 1e-10))

    def test_dominates_ode_subsolutions(self):
        rng = np.random.default_rng(5)
        coarse = np.linspace(0, 1, 41)
        for _ in range(20):
            a = rng.uniform(0.5, 2.0)
            bval = rng.uniform(0, 1.5)
            cval = rng.uniform(0, 1.5)
            rho = rng.uniform(0.2, 1.0)
            fine = np.linspace(0, 1, 4001)
            h = fine[1] - fine[0]
            y = a * rho
            samples = [y]
            for i in range(len(fine) - 1):
                y = y + h * rho * (bval * y + cval * math.sqrt(max(y, 0.0)))
                samples.append(y)
            samples = np.array(samples)[::100]
            bound = perov_bound(
                PerovInput(
                    a, 0.5, coarse, bval * np.ones_like(coarse), cval * np.ones_like(coarse)
                )
            )
            assert np.all(samples <= bound * (1 + 1e-6))


class TestEnergyCertificate:
    def test_zero_everything(self):
        zero = vector_from_modes(ELL, 4, {})
        traj = FieldTrajectory(np.array([0.0, 0.5, 1.0]), (zero, zero, zero))
        cert = energy_certificate(traj, None, MU)
        assert cert.lhs_squared == 0.0 and cert.rhs_squared == 0.0
        assert cert.passed and cert.ratio == 0.0

    def test_shear_ratio_closed_form(self, shear_run):
        cert = energy_certificate(shear_run, None, MU)
        lam = MU * (2 * math.pi / ELL) ** 2
        expected = 1.0 + (1.0 - math.exp(-2 * lam * T_RUN)) / 2.0
        assert cert.ratio == pytest.approx(expected, abs=1e-4)
        assert cert.factor == pytest.approx(1 + 2 * math.sqrt(2), rel=1e-15)
        assert cert.passed

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_lp_in_time_bounded_by_sup(self, shear_run, p):
        l2s = np.array([l2_norm_exact(u) for u in shear_run.fields])
        lhs = trapezoid(l2s**p, shear_run.times) ** (1.0 / p)
        rhs = T_RUN ** (1.0 / p) * float(np.max(l2s))
        assert lhs <= rhs * (1 + 1e-9)

    def test_drift_factor_formula(self, shear_run):
        w = vector_from_modes(ELL, 4, {(0, 0, 0): (0.5, 0.0, 0.0)})
        cert = energy_certificate(shear_run, None, MU, w=w)
        integral = 0.25 * T_RUN  # ||w||_inf^2 = 0.25, constant in time
        expected = (
            1.0
            + 2.0 * math.sqrt(2.0) * math.exp(integral / MU)
            + 4.0 / MU * integral * math.exp(2.0 * integral / MU)
        )
        assert cert.factor == pytest.approx(expected, rel=1e-12)

    def test_drift_sup_norm_on_resolving_grid(self, shear_run, rng):
        # bandwidth 8 needs 17 points: the 16-point grid is raised to 17
        w = random_vector_field(ELL, 64, rng, amplitude=0.002)
        table = norm_table(shear_run.fields, 16)
        cert = energy_certificate(shear_run, None, MU, w=w, norms=table)
        integral = T_RUN * lp_norm(w, math.inf, 17) ** 2
        expected = (
            1.0
            + 2.0 * math.sqrt(2.0) * math.exp(integral / MU)
            + 4.0 / MU * integral * math.exp(2.0 * integral / MU)
        )
        assert cert.factor == pytest.approx(expected, rel=1e-12)

    def test_drift_without_table_takes_the_run_grid(self, shear_run):
        # the run's quadrature grid (16) raised to 17 for bandwidth 8, as in
        # the CLI, not the drift's own quadrature grid (18)
        rng = np.random.default_rng(11)
        w = leray_project(random_vector_field(ELL, 64, rng, amplitude=0.01))
        cert = energy_certificate(shear_run, None, MU, w=w)
        table = norm_table(shear_run.fields, operators._quadrature_grid(2))
        assert cert == energy_certificate(shear_run, None, MU, w=w, norms=table)
        integral = T_RUN * lp_norm(w, math.inf, 17) ** 2
        expected = (
            1.0
            + 2.0 * math.sqrt(2.0) * math.exp(integral / MU)
            + 4.0 / MU * integral * math.exp(2.0 * integral / MU)
        )
        assert cert.factor == pytest.approx(expected, rel=1e-12)

    def test_steady_drift_is_sampled_once(self, monkeypatch, shear_run):
        w = vector_from_modes(ELL, 4, {(0, 0, 0): (0.5, 0.0, 0.0)})
        table = norm_table(shear_run.fields, 16)
        calls = []
        real = operators._sample_stack
        monkeypatch.setattr(operators, "_sample_stack", lambda *a: calls.append(1) or real(*a))
        energy_certificate(shear_run, None, MU, w=w, norms=table)
        assert len(calls) == 1

    def test_sampled_drift_must_cover_the_horizon(self, shear_run):
        w = vector_from_modes(ELL, 4, {(0, 0, 0): (0.5, 0.0, 0.0)})
        short = FieldTrajectory(np.array([0.0, 0.5 * T_RUN]), (w, w))
        with pytest.raises(ValueError, match="drift samples do not cover"):
            energy_certificate(shear_run, None, MU, w=short)
        # a constant drift sampled over the run certifies what the steady one does
        covering = FieldTrajectory(np.array([0.0, T_RUN]), (w, w))
        steady = energy_certificate(shear_run, None, MU, w=w)
        assert energy_certificate(shear_run, None, MU, w=covering) == steady

    def test_drift_factor_beyond_float_range_is_infinite(self, shear_run):
        # I/mu = 0.25 T / 1e-300: exp overflows, so no finite bound exists
        w = vector_from_modes(ELL, 4, {(0, 0, 0): (0.5, 0.0, 0.0)})
        cert = energy_certificate(shear_run, None, 1e-300, w=w)
        assert cert.factor == math.inf
        assert cert.passed

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowed_sides_do_not_pass(self, shear_run):
        # inf <= factor * inf holds in floating point but certifies nothing
        huge = FieldTrajectory(
            shear_run.times,
            tuple(u * 1e300 for u in shear_run.fields),
            tuple(r * 1e300 for r in shear_run.rhs),
        )
        both = energy_certificate(huge, None, MU)
        assert both.lhs_squared == math.inf and both.rhs_squared == math.inf
        assert not both.passed
        rhs_only = energy_certificate(shear_run, shear_field(ELL, 4, 1e300), MU)
        assert math.isfinite(rhs_only.lhs_squared) and rhs_only.rhs_squared == math.inf
        assert not rhs_only.passed

    @pytest.mark.parametrize("steady", [False, True])
    def test_fitted_forcing_takes_one_dual_norm(self, monkeypatch, shear_run, rng, steady):
        f = random_vector_field(ELL, 4, rng) if steady else None
        fitted = f if steady else SpectralVectorField.zero(ELL, 4)
        dual = [estimates.dual_norm(fitted)] * len(shear_run)
        expected = (
            l2_norm_exact(shear_run.initial) ** 2
            + (2.0 / MU) * trapezoid(np.array(dual) ** 2, shear_run.times)
            + trapezoid(np.array(dual), shear_run.times) ** 2
        )
        calls = []
        real = estimates.dual_norm
        monkeypatch.setattr(estimates, "dual_norm", lambda *a: calls.append(1) or real(*a))
        assert energy_certificate(shear_run, f, MU).rhs_squared == expected
        assert len(calls) == 1

    def test_rhs_blind_to_gradient_part_of_forcing(self, shear_run, rng):
        f = random_vector_field(ELL, 4, rng)
        cert_full = energy_certificate(shear_run, f, MU)
        cert_proj = energy_certificate(shear_run, leray_project(f), MU)
        assert cert_full.rhs_squared == pytest.approx(
            cert_proj.rhs_squared, rel=1e-12
        )


class TestLps:
    def test_admissibility_arithmetic(self):
        assert lps_admissible(4, 6)
        assert lps_admissible(2, math.inf)
        assert lps_admissible(3, 9)
        assert not lps_admissible(2, 6)
        assert not lps_admissible(math.inf, 3)
        assert not lps_admissible(1.5, 12)

    def test_constant_field_closed_form(self):
        c = vector_from_modes(ELL, 4, {(0, 0, 0): (0.7, 0.0, 0.0)})
        traj = FieldTrajectory(np.linspace(0, 2, 21), tuple([c] * 21))
        rep = lps_norm(traj, 4.0, 6.0, 16)
        expected = 0.7 * ELL ** (3.0 / 6.0) * 2.0 ** (1.0 / 4.0)
        assert rep.value == pytest.approx(expected, rel=1e-10)
        assert rep.admissible

    def test_sup_in_time(self, shear_run):
        rep = lps_norm(shear_run, math.inf, 6.0, 16)
        assert rep.value == pytest.approx(lp_norm(shear_run.fields[0], 6.0, 16), rel=1e-12)

    def test_monotone_in_horizon(self, shear_run):
        half = FieldTrajectory(shear_run.times[:251], shear_run.fields[:251])
        v_half = lps_norm(half, 4.0, 6.0, 16).value
        v_full = lps_norm(shear_run, 4.0, 6.0, 16).value
        assert v_half <= v_full

    def test_homogeneous_degree_one(self, shear_run):
        scaled = FieldTrajectory(
            shear_run.times,
            tuple(u * 2.5 for u in shear_run.fields),
            tuple(r * 2.5 for r in shear_run.rhs),
        )
        v1 = lps_norm(shear_run, 4.0, 6.0, 16).value
        v2 = lps_norm(scaled, 4.0, 6.0, 16).value
        assert v2 == pytest.approx(2.5 * v1, rel=1e-12)

    def test_exponent_validation(self, shear_run):
        with pytest.raises(ValueError, match=">= 1"):
            lps_norm(shear_run, 0.5, 6.0, 16)
        with pytest.raises(ValueError, match="space exponent"):
            lps_norm(shear_run, 4.0, 1.0, 16)

    def test_nan_exponents_rejected(self, shear_run):
        with pytest.raises(ValueError, match=">= 1"):
            lps_norm(shear_run, math.nan, 6.0, 16)
        with pytest.raises(ValueError, match="space exponent"):
            lps_norm(shear_run, 4.0, math.nan, 16)
        # infinity stays a valid exponent in time and in space
        assert math.isfinite(lps_norm(shear_run, math.inf, math.inf, 16).value)


class TestNormTable:
    EXPONENTS = (3.0, 4.5, 6.0, math.inf)

    @pytest.mark.parametrize("cutoff, grid", [(4, 16), (6, 24), (6, 9)])
    def test_equals_single_field_norms(self, rng, cutoff, grid):
        # divergence-carrying random fields, so every column is nonzero
        fields = [random_vector_field(ELL, cutoff, rng) for _ in range(4)]
        table = norm_table(fields, grid, self.EXPONENTS)
        for i, u in enumerate(fields):
            for r in self.EXPONENTS:
                assert table.lp[r][i] == lp_norm(u, r, grid)
            assert table.linf[i] == lp_norm(u, math.inf, grid)
            assert table.l2[i] == l2_norm_exact(u)
            for j in range(3):
                assert table.grad[j][i] == grad_norm(u, j)
            assert table.hs(1)[i] == hs_norm(u, 1)
            assert table.hs(2)[i] == hs_norm(u, 2)
            assert table.div[i] == l2_norm_exact(div(u))

    def test_without_grid_only_exact_norms(self, rng):
        fields = [random_vector_field(ELL, 4, rng) for _ in range(2)]
        table = norm_table(fields)
        assert table.lp == {}
        assert table.l2 == tuple(l2_norm_exact(u) for u in fields)

    def test_rejects_exponent_below_one(self, rng):
        with pytest.raises(ValueError, match=">= 1"):
            norm_table([random_vector_field(ELL, 4, rng)], 16, (0.5,))

    @pytest.mark.parametrize("s_exp", [4.0, 2.0, math.inf])
    @pytest.mark.parametrize("r_exp", [6.0, math.inf])
    def test_lps_norm_unchanged(self, shear_run, s_exp, r_exp):
        # the per-sample loop lps_norm ran before it read the norm table
        spatial = np.array([lp_norm(u, r_exp, 16) for u in shear_run.fields])
        if math.isinf(s_exp):
            expected = float(np.max(spatial))
        else:
            expected = float(trapezoid(spatial**s_exp, shear_run.times) ** (1.0 / s_exp))
        assert lps_norm(shear_run, s_exp, r_exp, 16).value == expected

    def test_energy_consumers_read_the_table(self, shear_run):
        table = norm_table(shear_run.fields, 16, (6.0,))
        assert energy_certificate(shear_run, None, MU, norms=table) == (
            energy_certificate(shear_run, None, MU)
        )
        assert np.array_equal(
            energy_identity_defect(shear_run, None, MU, norms=table),
            energy_identity_defect(shear_run, None, MU),
        )
        # the lhs as it was summed before the table
        sup_u = max(l2_norm_exact(u) for u in shear_run.fields)
        grad_sq = np.array([grad_norm(u, 1) ** 2 for u in shear_run.fields])
        lhs2 = sup_u**2 + MU * trapezoid(grad_sq, shear_run.times)
        assert energy_certificate(shear_run, None, MU, norms=table).lhs_squared == lhs2


def _symmetrized_chain(traj, s, mu, f_series):
    """The derivative chain as it was built from symmetrized products, as
    coefficient stacks."""
    from torusns.galerkin import _trajectory_forcing

    lookups = None
    if f_series is not None:
        lookups = [_trajectory_forcing(fj, traj) for fj in f_series]
    chain = [list(traj.fields)]
    if s >= 1 and traj.rhs is not None and (f_series is None or len(f_series) >= 1):
        chain.append(list(traj.rhs))
    zero = SpectralVectorField.zero(traj.ell, traj.cutoff)
    while len(chain) <= s:
        j = len(chain) - 1
        nxt = []
        for i, t in enumerate(traj.times):
            transport = None
            for l in range(j + 1):
                term = symmetrized_convection(chain[l][i], chain[j - l][i]) * (
                    0.5 * math.comb(j, l)
                )
                transport = term if transport is None else transport + term
            fj = lookups[j](float(t)) if lookups is not None else zero
            nxt.append(laplacian(chain[j][i]) * mu + leray_project(fj - transport))
        chain.append(nxt)
    return [[u.coeffs for u in order] for order in chain[: s + 1]]


@pytest.fixture(scope="module")
def manufactured_run():
    prob = two_shell_problem()
    cfg = SolverConfig(mu=prob.mu, horizon=0.02, cutoff=4, dt=2e-3, scheme="if_rk4")
    traj = solve_navier_stokes(prob.forcing, truncate(prob.initial, 4), cfg)
    return traj, prob.mu, [prob.forcing_derivative(j) for j in range(4)]


class TestChainKernelCalls:
    def _both(self, monkeypatch, traj, k, s, mu, f_series=None):
        new = bochner_scale_norm(traj, k, s, mu, f_series=f_series).value
        with monkeypatch.context() as mp:
            mp.setattr(estimates, "_time_derivative_chain", _symmetrized_chain)
            old = bochner_scale_norm(traj, k, s, mu, f_series=f_series).value
        return new, old

    def test_first_order_bitwise_on_loaded_trajectory(self, monkeypatch, rng, tmp_path):
        u = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.5))
        traj = FieldTrajectory(np.linspace(0.0, 0.1, 6), tuple(u * (1 - i / 10) for i in range(6)))
        save_trajectory(traj, tmp_path / "run.traj")
        loaded = load_trajectory(tmp_path / "run.traj")
        assert loaded.rhs is None
        for k in (0, 1):
            new, old = self._both(monkeypatch, loaded, k, 1, MU)
            assert new == old

    @pytest.mark.parametrize("s", [2, 3])
    def test_higher_orders_within_roundoff(self, monkeypatch, shear_run, manufactured_run, s):
        short = FieldTrajectory(shear_run.times[:21], shear_run.fields[:21], shear_run.rhs[:21])
        traj, mu, series = manufactured_run
        assert short.rhs is not None and traj.rhs is not None
        for run, run_mu, f_series in ((short, MU, None), (traj, mu, series)):
            new, old = self._both(monkeypatch, run, 1, s, run_mu, f_series)
            assert abs(new - old) <= 1e-14 * old

    @pytest.mark.parametrize("stored_rhs, s, generated", [(False, 3, (0, 1, 2)), (True, 3, (1, 2))])
    def test_one_kernel_call_per_term(self, monkeypatch, manufactured_run, stored_rhs, s, generated):
        traj, mu, series = manufactured_run
        if not stored_rhs:
            traj = FieldTrajectory(traj.times, traj.fields)
        calls, advective = [], []
        real = estimates._ns_stage
        monkeypatch.setattr(estimates, "_ns_stage", lambda *a: calls.append(a) or real(*a))
        real_advective = operators._convect_stack
        monkeypatch.setattr(
            operators, "_convect_stack", lambda *a: advective.append(1) or real_advective(*a)
        )
        estimates._time_derivative_chain(traj, s, mu, series)
        # one stage per sample and generated order, each on all orders below
        # it; a stored rhs is checked first by one more stage at sample 0
        assert len(calls) == len(generated) * len(traj) + stored_rhs
        orders = sorted(len(stacks) - 1 for stacks, *_ in calls[stored_rhs:])
        assert orders == sorted(generated * len(traj))
        assert advective == []

    @pytest.mark.parametrize("cutoff", [4, 9, 16])
    def test_generated_first_derivative_is_solver_rhs(self, rng, tmp_path, cutoff):
        u0 = leray_project(random_vector_field(ELL, cutoff, rng, amplitude=0.5))
        cfg = SolverConfig(mu=MU, horizon=6e-3, cutoff=cutoff, dt=2e-3, scheme="if_rk4")
        run = solve_navier_stokes(None, u0, cfg)
        save_trajectory(run, tmp_path / "run.traj")
        loaded = load_trajectory(tmp_path / "run.traj")
        assert loaded.rhs is None
        chain = estimates._time_derivative_chain(loaded, 1, MU, None)
        for generated, stored in zip(chain[1], run.rhs, strict=True):
            assert np.array_equal(generated, stored.coeffs)

    @pytest.mark.parametrize("k, s", [(0, 1), (1, 2)])
    def test_non_solenoidal_samples_rejected(self, rng, k, s):
        u = leray_project(random_vector_field(ELL, 4, rng, amplitude=0.5))
        gradient = grad(random_scalar_field(ELL, 4, rng, amplitude=0.5))
        traj = FieldTrajectory(
            np.linspace(0.0, 0.1, 4), tuple((u + gradient) * (1 - i / 10) for i in range(4))
        )
        with pytest.raises(ValueError, match="must be divergence-free"):
            bochner_scale_norm(traj, k, s, MU)
        # no derivative is generated at s = 0
        assert bochner_scale_norm(traj, k, 0, MU).value > 0.0

    def test_linearized_rhs_rejected_beyond_first_order(self):
        # the drift-linearized equation's rhs is not d_t u of Navier-Stokes,
        # so d_t^2 u cannot be generated from it
        op = galerkin.assemble_linearized(taylor_green_field(ELL, 4, 0.3), build_basis(ELL, 4), MU)
        cfg = SolverConfig(mu=MU, horizon=0.02, cutoff=4, dt=1e-3, scheme="if_rk4")
        traj = galerkin.solve_linearized(op, None, shear_field(ELL, 4, 1.0), cfg)
        assert traj.rhs is not None
        assert math.isfinite(bochner_scale_norm(traj, 1, 1, MU).value)
        with pytest.raises(ValueError, match="stored rhs samples are not d_t u"):
            bochner_scale_norm(traj, 1, 2, MU)

    def test_solver_rhs_passes_the_stored_rhs_check(self, shear_run, manufactured_run):
        traj, mu, series = manufactured_run
        for run, run_mu, f_series in ((shear_run, MU, None), (traj, mu, series)):
            assert math.isfinite(bochner_scale_norm(run, 0, 2, run_mu, f_series).value)
        # the same run read with another viscosity is another equation
        with pytest.raises(ValueError, match="stored rhs samples are not d_t u"):
            bochner_scale_norm(shear_run, 0, 2, 2 * MU)


class TestBochner:
    def test_zero_trajectory(self):
        zero = vector_from_modes(ELL, 4, {})
        traj = FieldTrajectory(np.array([0.0, 0.5]), (zero, zero))
        assert bochner_scale_norm(traj, 2, 1, MU).value == 0.0

    def test_base_case_is_energy_seminorm(self, shear_run):
        bn = bochner_scale_norm(shear_run, 0, 0, MU)
        sup = max(l2_norm_exact(u) for u in shear_run.fields)
        integral = trapezoid(
            np.array([grad_norm(u, 1) ** 2 for u in shear_run.fields]), shear_run.times
        )
        assert bn.value == pytest.approx(math.sqrt(sup**2 + MU * integral), rel=1e-12)

    def test_shear_closed_form(self, shear_run):
        bn = bochner_scale_norm(shear_run, 0, 1, MU)
        lam = MU * (2 * math.pi / ELL) ** 2
        kap = 2 * math.pi / ELL
        s_sq = 0.5 * ELL**3
        growth = 1.0 + (1.0 - math.exp(-2 * lam * T_RUN)) / 2.0
        closed = math.sqrt(s_sq * growth * (1 + kap**2 + kap**4 + lam**2))
        assert bn.value == pytest.approx(closed, rel=1e-6)

    def test_monotone_in_indices(self, shear_run):
        values = {
            (k, s): bochner_scale_norm(shear_run, k, s, MU).value
            for k in (0, 1)
            for s in (0, 1)
        }
        assert values[(1, 0)] >= values[(0, 0)]
        assert values[(0, 1)] >= values[(0, 0)]
        assert values[(1, 1)] >= values[(1, 0)]
        assert values[(1, 1)] >= values[(0, 1)]

    def test_depth_error(self, shear_run):
        forcing = vector_from_modes(ELL, 4, {(0, 0, 0): (0.1, 0.0, 0.0)})
        with pytest.raises(ValueError, match="derivative depth"):
            bochner_scale_norm(shear_run, 0, 2, MU, f_series=[forcing])

    def test_forced_run_with_derivatives(self):
        prob = two_shell_problem()
        from torusns.fields import truncate

        u0 = truncate(prob.initial, 4)
        cfg = SolverConfig(mu=prob.mu, horizon=0.05, cutoff=4, dt=1e-3)
        traj = solve_navier_stokes(prob.forcing, u0, cfg)
        series = [prob.forcing_derivative(j) for j in range(2)]
        b1 = bochner_scale_norm(traj, 0, 1, prob.mu, f_series=series)
        b2 = bochner_scale_norm(traj, 0, 2, prob.mu, f_series=series)
        assert math.isfinite(b2.value)
        assert b2.value >= b1.value
        assert isinstance(b1, BochnerScaleNorm)

    def test_derivative_chain_against_analytic_derivatives(self):
        # the binomial recursion through the evolution equation must
        # reproduce the manufactured solution's analytic d_t and d_t^2
        from torusns.estimates import _time_derivative_chain
        from torusns.fields import truncate

        prob = two_shell_problem()
        u0 = truncate(prob.initial, 4)
        cfg = SolverConfig(mu=prob.mu, horizon=0.05, cutoff=4, dt=1e-3, scheme="if_rk4")
        traj = solve_navier_stokes(prob.forcing, u0, cfg)
        series = [prob.forcing_derivative(j) for j in range(2)]
        chain = _time_derivative_chain(traj, 2, prob.mu, series)
        for order in (1, 2):
            exact_fn = prob.velocity_derivative(order)
            for i in (0, len(traj) // 2, len(traj) - 1):
                t = float(traj.times[i])
                exact = truncate(exact_fn(t), 4)
                scale = l2_norm_exact(exact)
                assert l2_norm_exact(exact.with_coeffs(chain[order][i]) - exact) <= 1e-7 * scale

