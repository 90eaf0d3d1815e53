import math

import numpy as np
import pytest

from torusns.fields import (
    random_scalar_field,
    random_vector_field,
    vector_from_modes,
)
from torusns.helmholtz import (
    decompose,
    derivative_commutation_defect,
    dual_norm,
    gradient_potential,
    leray_project,
    recover_pressure,
)
from torusns.operators import (
    div,
    grad,
    hs_norm,
    inner_l2,
    l2_norm_exact,
    rot,
    self_convection,
)
from torusns.problems import two_shell_problem


class TestLerayProjection:
    def test_divfree_input_unchanged(self, ell, rng):
        u = leray_project(random_vector_field(ell, 6, rng))
        again = leray_project(u)
        assert l2_norm_exact(again - u) <= 1e-14 * l2_norm_exact(u)

    def test_gradient_field_killed(self, ell, rng):
        phi = random_scalar_field(ell, 6, rng, zero_mean=True)
        assert l2_norm_exact(leray_project(grad(phi))) <= 1e-14 * hs_norm(phi, 1)

    def test_single_mode_example(self, ell):
        u = vector_from_modes(ell, 4, {(1, 0, 0): (1.0, 1.0, 0.0)})
        pu = leray_project(u)
        assert pu.components[0].coefficient((1, 0, 0)) == 0.0
        assert pu.components[1].coefficient((1, 0, 0)) == 1.0
        assert pu.components[2].coefficient((1, 0, 0)) == 0.0

    def test_mean_preserved(self, ell):
        u = vector_from_modes(ell, 4, {(0, 0, 0): (1.0, 2.0, 3.0)})
        pu = leray_project(u)
        assert l2_norm_exact(pu - u) == 0.0

    def test_output_divergence_free_in_coefficients(self, ell, rng):
        for _ in range(10):
            u = random_vector_field(ell, 6, rng)
            pu = leray_project(u)
            assert np.max(np.abs(div(pu).coeffs)) <= 1e-14 * np.max(
                np.abs(pu.coeff_stack())
            )

    def test_self_adjoint_and_orthogonal(self, ell, rng):
        for _ in range(10):
            u = random_vector_field(ell, 6, rng)
            v = random_vector_field(ell, 6, rng)
            lhs = inner_l2(leray_project(u), v)
            rhs = inner_l2(u, leray_project(v))
            assert abs(lhs - rhs) <= 1e-13 * l2_norm_exact(u) * l2_norm_exact(v)
            pu = leray_project(u)
            assert abs(inner_l2(pu, u - pu)) <= 1e-13 * l2_norm_exact(u) ** 2


class TestDerivativeCommutation:
    def test_zero_field(self, ell):
        z = vector_from_modes(ell, 4, {})
        assert derivative_commutation_defect(z, 1) == 0.0

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_random_fields(self, ell, rng, j):
        for _ in range(5):
            u = random_vector_field(ell, 6, rng)
            assert derivative_commutation_defect(u, j) <= 1e-13 * hs_norm(u, 1)

    def test_gradient_field(self, ell, rng):
        g = grad(random_scalar_field(ell, 6, rng, zero_mean=True))
        assert derivative_commutation_defect(g, 2) <= 1e-13 * hs_norm(g, 1)

    def test_direction_validated(self, ell, rng):
        with pytest.raises(ValueError, match="direction"):
            derivative_commutation_defect(random_vector_field(ell, 4, rng), 0)


class TestDecomposition:
    def test_parts_and_potential(self, ell, rng):
        for _ in range(5):
            u = random_vector_field(ell, 6, rng)
            d = decompose(u)
            scale = l2_norm_exact(u)
            assert l2_norm_exact(d.solenoidal + d.gradient_part - u) <= 1e-13 * scale
            assert np.max(np.abs(div(d.solenoidal).coeffs)) <= 1e-14 * scale
            assert np.max(np.abs(rot(d.gradient_part).coeff_stack())) <= 1e-13 * scale
            assert d.potential.mean == 0.0
            assert l2_norm_exact(grad(d.potential) - d.gradient_part) <= 1e-13 * scale


class TestPressureRecovery:
    def test_zero_data(self, ell):
        u = vector_from_modes(ell, 4, {(0, 0, 0): (1.0, 0.0, 0.0)})
        p = recover_pressure(None, u)
        assert l2_norm_exact(p) == 0.0

    def test_inverts_known_potential(self, ell, rng):
        phi = random_scalar_field(ell, 6, rng, zero_mean=True)
        u = vector_from_modes(ell, 6, {})
        p = recover_pressure(grad(phi), u)
        assert l2_norm_exact(p - phi) <= 1e-13 * l2_norm_exact(phi)

    def test_shear_field_has_no_pressure(self, ell):
        shear = vector_from_modes(ell, 4, {(0, 1, 0): (-0.5j, 0.0, 0.0)})
        p = recover_pressure(None, shear)
        assert l2_norm_exact(p) == 0.0

    def test_gradient_matches_rough_part(self, ell, rng):
        u = leray_project(random_vector_field(ell, 4, rng))
        f = random_vector_field(ell, 4, rng)
        p = recover_pressure(f, u)
        residual = f - self_convection(u)
        rough = residual - leray_project(residual)
        assert l2_norm_exact(grad(p) - rough) <= 1e-12 * l2_norm_exact(f)

    def test_manufactured_pressure(self):
        # the two-shell problem's forcing carries grad p* and a nonzero transport term
        prob = two_shell_problem()
        scale = l2_norm_exact(prob.pressure_terms[0][1])
        for t in np.linspace(0.0, 0.5, 11):
            p = recover_pressure(prob.forcing(t), prob.velocity(t))
            assert l2_norm_exact(p - prob.pressure(t)) <= 1e-13 * scale


class TestDualNorm:
    def test_constant_field(self, ell):
        f = vector_from_modes(ell, 4, {(0, 0, 0): (1.5, 0.0, 0.0)})
        assert dual_norm(f) == pytest.approx(1.5 * ell**1.5, rel=1e-14)

    def test_gradient_field_vanishes(self, ell, rng):
        g = grad(random_scalar_field(ell, 6, rng, zero_mean=True))
        assert dual_norm(g) <= 1e-13 * hs_norm(g, 0)

    def test_unit_mode_weight(self):
        ell = 2 * math.pi
        amp = 1.0 / math.sqrt(2.0 * ell**3)
        f = vector_from_modes(ell, 4, {(0, 1, 0): (amp, 0.0, 0.0)})
        assert l2_norm_exact(f) == pytest.approx(1.0, rel=1e-13)
        assert dual_norm(f) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)

    def test_projection_invisible(self, ell, rng):
        f = random_vector_field(ell, 6, rng)
        assert dual_norm(leray_project(f)) == pytest.approx(
            dual_norm(f), abs=1e-12 * dual_norm(f) + 1e-300
        )

    def test_supremizer(self, ell, rng):
        from torusns.fields import wave_cubes

        f = random_vector_field(ell, 6, rng)
        value = dual_norm(f)
        # no random divergence-free direction exceeds the norm
        for _ in range(1000):
            v = leray_project(random_vector_field(ell, 6, rng))
            pairing = abs(inner_l2(f, v)) / hs_norm(v, 1)
            assert pairing <= value * (1.0 + 1e-10)
        # the weighted projection attains it
        proj = leray_project(f)
        ksq = wave_cubes(proj.bandwidth)[3].astype(float)
        weight = 1.0 / (1.0 + ksq * (2 * math.pi / ell) ** 2)
        vstar = proj.with_stack(proj.coeff_stack() * weight)
        attained = abs(inner_l2(f, vstar)) / hs_norm(vstar, 1)
        assert attained == pytest.approx(value, rel=1e-12)


def test_gradient_potential_roundtrip(ell, rng):
    phi = random_scalar_field(ell, 6, rng, zero_mean=True)
    assert l2_norm_exact(gradient_potential(grad(phi)) - phi) <= 1e-13 * l2_norm_exact(phi)
