import math

import numpy as np
import pytest

from torusns.estimates import (
    BochnerScaleNorm,
    PerovInput,
    bochner_scale_norm,
    energy_certificate,
    gn_report,
    lps_admissible,
    lps_norm,
    nonlinear_term_bound_report,
    perov_bound,
)
from torusns.fields import random_vector_field, vector_from_modes
from torusns.galerkin import FieldTrajectory, SolverConfig, solve_navier_stokes, trapezoid
from torusns.helmholtz import leray_project
from torusns.operators import grad_norm, l2_norm_exact, lp_norm
from torusns.problems import shear_field, two_shell_problem

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
        cert = energy_certificate(traj, None, zero, MU)
        assert cert.lhs_squared == 0.0 and cert.rhs_squared == 0.0
        assert cert.passed and cert.ratio == 0.0

    def test_shear_ratio_closed_form(self, shear_run):
        cert = energy_certificate(shear_run, None, None, MU)
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
        cert = energy_certificate(shear_run, None, None, MU, w=w)
        integral = 0.25 * T_RUN  # ||w||_inf^2 = 0.25, constant in time
        expected = (
            1.0
            + 2.0 * math.sqrt(2.0) * math.exp(integral / MU)
            + 4.0 / MU * integral * math.exp(2.0 * integral / MU)
        )
        assert cert.factor == pytest.approx(expected, rel=1e-12)

    def test_drift_factor_beyond_float_range_is_infinite(self, shear_run):
        # I/mu = 0.25 T / 1e-300: exp overflows, so no finite bound exists
        w = vector_from_modes(ELL, 4, {(0, 0, 0): (0.5, 0.0, 0.0)})
        cert = energy_certificate(shear_run, None, None, 1e-300, w=w)
        assert cert.factor == math.inf
        assert cert.passed

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowed_sides_do_not_pass(self, shear_run):
        # inf <= factor * inf holds in floating point but certifies nothing
        huge = shear_run.scaled(1e300)
        both = energy_certificate(huge, None, None, MU)
        assert both.lhs_squared == math.inf and both.rhs_squared == math.inf
        assert not both.passed
        rhs_only = energy_certificate(shear_run, None, shear_run.initial * 1e300, MU)
        assert math.isfinite(rhs_only.lhs_squared) and rhs_only.rhs_squared == math.inf
        assert not rhs_only.passed

    def test_rhs_blind_to_gradient_part_of_forcing(self, shear_run, rng):
        f = random_vector_field(ELL, 4, rng)
        cert_full = energy_certificate(shear_run, f, None, MU)
        cert_proj = energy_certificate(shear_run, leray_project(f), None, MU)
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
        scaled = shear_run.scaled(2.5)
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
        from torusns.fields import truncate_vector

        u0 = truncate_vector(prob.initial, 4)
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
        from torusns.fields import truncate_vector

        prob = two_shell_problem()
        u0 = truncate_vector(prob.initial, 4)
        cfg = SolverConfig(mu=prob.mu, horizon=0.05, cutoff=4, dt=1e-3, scheme="if_rk4")
        traj = solve_navier_stokes(prob.forcing, u0, cfg)
        series = [prob.forcing_derivative(j) for j in range(2)]
        chain = _time_derivative_chain(traj, 2, prob.mu, series)
        for order in (1, 2):
            exact_fn = prob.velocity_derivative(order)
            for i in (0, len(traj) // 2, len(traj) - 1):
                t = float(traj.times[i])
                exact = truncate_vector(exact_fn(t), 4)
                scale = l2_norm_exact(exact)
                assert l2_norm_exact(chain[order][i] - exact) <= 1e-7 * scale


class TestGagliardoNirenberg:
    def test_constant_field_ratio_zero(self):
        c = vector_from_modes(ELL, 4, {(0, 0, 0): (1.0, 2.0, 0.0)})
        out = gn_report(c, 1, 2, 2.0, 2.0, 2.0, 1.0, 0.5, 1.0, 1.0, 16)
        assert out["lhs"] == 0.0 and out["ratio"] == 0.0

    def test_valid_exponents_give_finite_ratio(self, rng):
        # 1/3 = 0 + (1/2)(1/2 - 1/3) + (1/2)(1/2)
        ratios = []
        for _ in range(20):
            u = random_vector_field(ELL, 6, rng)
            out = gn_report(u, 0, 1, 3.0, 2.0, 2.0, 1.0, 0.5, 1.0, 1.0, 24)
            assert math.isfinite(out["ratio"]) and out["ratio"] >= 0
            ratios.append(out["ratio"])
        assert max(ratios) < 10.0

    def test_polarization_violation_rejected(self, rng):
        u = random_vector_field(ELL, 4, rng)
        with pytest.raises(ValueError, match="inadmissible exponents"):
            gn_report(u, 1, 1, 3.0, 2.0, 2.0, 1.0, 0.5, 1.0, 1.0, 16)

    def test_balance_violation_rejected(self, rng):
        u = random_vector_field(ELL, 4, rng)
        with pytest.raises(ValueError, match="inadmissible exponents"):
            gn_report(u, 0, 1, 3.5, 2.0, 2.0, 1.0, 0.5, 1.0, 1.0, 16)


class TestNonlinearTermBound:
    def test_constant_field(self):
        c = vector_from_modes(ELL, 4, {(0, 0, 0): (1.0, -1.0, 0.5)})
        out = nonlinear_term_bound_report(c, 1, 4.0, 6.0, 0.5, 16)
        assert out["lhs"] == 0.0
        assert set(out["rhs_terms"]) == {
            "laplacian_term",
            "lps_weighted_gradient",
            "l2_lr_product",
            "l2_term",
        }

    def test_shear_field(self):
        out = nonlinear_term_bound_report(shear_field(ELL, 4, 1.0), 0, 4.0, 6.0, 1.0, 16)
        assert out["lhs"] == 0.0

    def test_fitted_constant_stable_across_batches(self):
        def batch(seed):
            rng = np.random.default_rng(seed)
            ratios = []
            for _ in range(25):
                u = leray_project(random_vector_field(ELL, 6, rng, amplitude=0.5))
                out = nonlinear_term_bound_report(u, 1, 4.0, 6.0, 1.0, 24)
                total = sum(out["rhs_terms"].values())
                ratios.append(out["lhs"] / total)
            return float(np.mean(ratios))

        c1, c2 = batch(11), batch(12)
        assert abs(c1 - c2) <= 0.2 * max(c1, c2)
