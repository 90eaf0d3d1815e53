import math

import numpy as np
import pytest

from torusns.fields import (
    bandwidth_of,
    embed_vector as embed,
    hermitianize,
    random_scalar_field,
    random_vector_field,
    scalar_from_modes,
    vector_from_modes,
    SpectralVectorField,
    truncate_vector,
)
from torusns.operators import (
    _spectrum_stack,
    convect,
    div,
    dj_norm,
    grad,
    grad_norm,
    hs_norm,
    inner_l2,
    l2_norm_exact,
    laplacian,
    lp_norm,
    multi_indices,
    neg_laplacian_pow,
    partial_derivative,
    rot,
    sample_values,
    self_convection,
    sobolev_norm,
    symmetrized_convection,
)
from torusns.helmholtz import leray_project


class TestSobolevNorm:
    def test_zero_field(self, ell):
        assert sobolev_norm(scalar_from_modes(ell, 4, {}), 3.0) == 0.0

    def test_single_mode(self, ell):
        # c_{+-(1,0,0)} = 1/2, s = 2: (2 (1+1)^2 / 4)^(1/2) = sqrt(2)
        f = scalar_from_modes(ell, 4, {(1, 0, 0): 0.5})
        assert sobolev_norm(f, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_brute_force_oracle(self, ell, rng):
        f = random_scalar_field(ell, 6, rng)
        expected = math.sqrt(
            sum((1 + k.shell) ** 3 * abs(c) ** 2 for k, c in f.modes())
        )
        assert sobolev_norm(f, 3.0) == pytest.approx(expected, rel=1e-13)

    def test_vector_sums_components(self, ell, rng):
        v = random_vector_field(ell, 4, rng)
        expected = math.sqrt(sum(sobolev_norm(c, 2.0) ** 2 for c in v.components))
        assert sobolev_norm(v, 2.0) == pytest.approx(expected, rel=1e-13)


class TestL2:
    def test_constant(self, ell):
        f = scalar_from_modes(ell, 4, {(0, 0, 0): 3.0})
        assert l2_norm_exact(f) == pytest.approx(3.0 * ell**1.5, rel=1e-14)

    def test_sine_mode(self, ell):
        f = scalar_from_modes(ell, 4, {(0, 1, 0): -0.5j})
        assert l2_norm_exact(f) == pytest.approx(ell**1.5 / math.sqrt(2), rel=1e-14)

    def test_inner_consistent_with_norm(self, ell, rng):
        for _ in range(5):
            f = random_vector_field(ell, 6, rng)
            assert inner_l2(f, f) == pytest.approx(l2_norm_exact(f) ** 2, rel=1e-14)

    def test_mismatched_period(self, ell, rng):
        f = random_scalar_field(ell, 4, rng)
        g = random_scalar_field(1.0, 4, rng)
        with pytest.raises(ValueError, match="incompatible domains"):
            inner_l2(f, g)


class TestVectorCalculus:
    def test_grad_of_constant_vanishes(self, ell):
        f = scalar_from_modes(ell, 4, {(0, 0, 0): 2.5})
        assert l2_norm_exact(grad(f)) == 0.0

    def test_rot_grad_and_div_rot(self, ell, rng):
        p = random_scalar_field(ell, 6, rng)
        v = random_vector_field(ell, 6, rng)
        assert l2_norm_exact(rot(grad(p))) == 0.0
        assert l2_norm_exact(div(rot(v))) <= 1e-13 * hs_norm(v, 2)

    def test_vector_laplacian_identity(self, ell, rng):
        for _ in range(10):
            v = random_vector_field(ell, 6, rng)
            lhs = rot(rot(v)) * (-1.0) + grad(div(v))
            scale = np.max(np.abs(laplacian(v).coeff_stack())) + 1e-30
            defect = np.max(np.abs((lhs - laplacian(v)).coeff_stack()))
            assert defect <= 1e-13 * scale

    def test_laplacian_single_mode_multiplier(self, ell):
        f = scalar_from_modes(ell, 9, {(2, 1, 2): 1.0 + 1.0j})
        out = laplacian(f)
        mult = -(9) * (2 * math.pi / ell) ** 2
        assert out.coefficient((2, 1, 2)) == pytest.approx(mult * (1 + 1j), rel=1e-14)

    def test_div_grad_is_laplacian(self, ell, rng):
        p = random_scalar_field(ell, 6, rng)
        assert l2_norm_exact(div(grad(p)) - laplacian(p)) <= 1e-13 * hs_norm(p, 2)


class TestNegLaplacianPow:
    def test_identity_at_zero(self, ell, rng):
        f = random_scalar_field(ell, 4, rng)
        assert neg_laplacian_pow(f, 0.0) is f

    def test_single_mode_multiplier(self):
        f = scalar_from_modes(2 * math.pi, 4, {(1, 1, 0): 1.0})
        out = neg_laplacian_pow(f, 1.0)
        assert out.coefficient((1, 1, 0)) == pytest.approx(2.0, rel=1e-14)

    def test_negative_power_needs_zero_mean(self, ell, rng):
        f = random_scalar_field(ell, 4, rng)  # generic nonzero mean
        with pytest.raises(ValueError, match="not invertible on constants"):
            neg_laplacian_pow(f, -1.0)
        g = random_scalar_field(ell, 4, rng, zero_mean=True)
        h = neg_laplacian_pow(neg_laplacian_pow(g, -1.0), 1.0)
        assert l2_norm_exact(h - g) <= 1e-13 * l2_norm_exact(g)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_matches_summed_derivative_norms(self, ell, rng, j):
        u = random_scalar_field(ell, 6, rng, zero_mean=True)
        # sum over derivative words of length j, i.e. multi-indices weighted
        # by the multinomial count j!/alpha!
        total = 0.0
        for alpha in multi_indices(j):
            mult = math.factorial(j) // (
                math.factorial(alpha[0]) * math.factorial(alpha[1]) * math.factorial(alpha[2])
            )
            total += mult * l2_norm_exact(partial_derivative(u, alpha)) ** 2
        assert grad_norm(u, j) == pytest.approx(math.sqrt(total), rel=1e-12)


class TestGridTransforms:
    def test_constant_samples(self, ell):
        f = scalar_from_modes(ell, 4, {(0, 0, 0): 1.75})
        assert np.max(np.abs(sample_values(f, 8) - 1.75)) == 0.0

    def test_sine_closed_form(self, ell):
        f = scalar_from_modes(ell, 4, {(0, 1, 0): -0.5j})
        vals = sample_values(f, 8)
        x = np.arange(8) * ell / 8
        assert np.max(np.abs(vals[0, :, 0] - np.sin(2 * np.pi * x / ell))) <= 1e-13

    def test_round_trip(self, ell, rng):
        f = random_scalar_field(ell, 6, rng)
        scale = np.max(np.abs(f.coeffs))
        for n in (5, 8, 9):  # any grid of at least 2B+1 points
            back = hermitianize(_spectrum_stack(sample_values(f, n)[None], f.bandwidth)[0])
            assert np.max(np.abs(back - f.coeffs)) <= 1e-13 * scale

    def test_pointwise_samples_exact_even_undersampled(self, ell):
        # sampling identities: exact point values on any grid
        f = scalar_from_modes(ell, 9, {(3, 0, 0): 0.5})
        vals = sample_values(f, 4)
        x = np.arange(4) * ell / 4
        assert np.max(np.abs(vals[:, 0, 0] - np.cos(3 * x))) <= 1e-14


class TestLpNorms:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
    def test_constant_vector(self, ell, p):
        f = vector_from_modes(ell, 4, {(0, 0, 0): (2.0, 0.0, 0.0)})
        assert lp_norm(f, p, 16) == pytest.approx(2.0 * ell ** (3.0 / p), rel=1e-13)

    def test_constant_sup(self, ell):
        f = vector_from_modes(ell, 4, {(0, 0, 0): (2.0, 0.0, 0.0)})
        assert lp_norm(f, math.inf, 16) == pytest.approx(2.0, rel=1e-14)

    def test_p2_matches_exact(self, ell, rng):
        v = random_vector_field(ell, 6, rng)
        assert lp_norm(v, 2.0, 32) == pytest.approx(l2_norm_exact(v), rel=1e-10)

    def test_sine_sup(self, ell):
        f = vector_from_modes(ell, 4, {(0, 1, 0): (-0.5j, 0.0, 0.0)})
        assert lp_norm(f, math.inf, 64) == pytest.approx(1.0, abs=1e-3)

    def test_p_below_one_rejected(self, ell, rng):
        with pytest.raises(ValueError, match="p >= 1"):
            lp_norm(random_scalar_field(ell, 4, rng), 0.5, 16)

    @pytest.mark.parametrize("q,q1,q2", [(1.0, 2.0, 2.0), (2.0, 4.0, 4.0), (1.5, 3.0, 3.0)])
    def test_hoelder_inequality(self, ell, rng, q, q1, q2):
        n = 32
        cell = (ell / n) ** 3
        for _ in range(5):
            a = random_scalar_field(ell, 6, rng)
            b = random_scalar_field(ell, 6, rng)
            prod = np.abs(sample_values(a, n) * sample_values(b, n))
            lhs = (cell * np.sum(prod**q)) ** (1.0 / q)
            rhs = lp_norm(a, q1, n) * lp_norm(b, q2, n)
            assert lhs <= rhs * (1.0 + 1e-6)


class TestConvection:
    def test_constant_field_transports_nothing(self, ell):
        c = vector_from_modes(ell, 4, {(0, 0, 0): (1.0, -2.0, 0.5)})
        assert l2_norm_exact(self_convection(c)) == 0.0

    def test_shear_self_transport_vanishes(self, ell):
        shear = vector_from_modes(ell, 4, {(0, 1, 0): (-0.5j, 0.0, 0.0)})
        assert l2_norm_exact(self_convection(shear)) == 0.0

    def test_matches_brute_force_convolution(self, ell, rng):
        w = random_vector_field(ell, 8, rng, amplitude=0.7)
        u = random_vector_field(ell, 8, rng, amplitude=0.9)
        fast = convect(w, u)
        slow = _brute_convect(w, u, 8)
        assert l2_norm_exact(fast - slow) <= 1e-12 * l2_norm_exact(slow)

    @pytest.mark.parametrize("cutoff,out_cutoff", [(9, None), (25, None), (16, 49)])
    def test_brute_force_oracle_on_threshold_grids(self, ell, rng, cutoff, out_cutoff):
        # The kernel grid 2B + K + 1 is 5-smooth here (10, 16 and 16 points)
        # and so is the grid one point smaller, so an off-by-one in the grid
        # rule aliases.  (16, 49) keeps bandwidth K = 7, between B = 4 and 2B.
        w = _sparse_vector_field(ell, cutoff, rng)
        u = _sparse_vector_field(ell, cutoff, rng)
        assert l2_norm_exact(div(w)) > 0.0 and l2_norm_exact(div(u)) > 0.0
        fast = convect(w, u, out_cutoff=out_cutoff)
        slow = _brute_convect(w, u, out_cutoff or cutoff)
        assert l2_norm_exact(fast - slow) <= 1e-12 * l2_norm_exact(slow)

    def test_larger_grid_changes_nothing(self, ell, rng):
        # the full product (4B+1 grid), truncated, is the Galerkin product
        # (3B+1 grid): the kept modes do not depend on the grid
        w = random_vector_field(ell, 9, rng)
        u = random_vector_field(ell, 9, rng)
        base = convect(w, u).coeff_stack()
        full = convect(w, u, out_cutoff=3 * (2 * bandwidth_of(9)) ** 2)
        truncated = truncate_vector(full, 9).coeff_stack()
        assert np.max(np.abs(truncated - base)) <= 1e-14 * np.max(np.abs(base))

    def test_skew_symmetry(self, ell, rng):
        for _ in range(10):
            w = leray_project(random_vector_field(ell, 6, rng))
            u = random_vector_field(ell, 6, rng)
            val = abs(inner_l2(convect(w, u), u))
            assert val <= 1e-10 * l2_norm_exact(w) * l2_norm_exact(u) * grad_norm(u, 1)

    def test_transport_integration_by_parts(self, ell, rng):
        # (w . grad u, v) = -(u, w . grad v) for solenoidal w
        for _ in range(5):
            w = leray_project(random_vector_field(ell, 4, rng))
            u = random_vector_field(ell, 4, rng)
            v = random_vector_field(ell, 4, rng)
            lhs = inner_l2(convect(w, u, out_cutoff=16), embed(v, 16))
            rhs = -inner_l2(embed(u, 16), convect(w, v, out_cutoff=16))
            scale = l2_norm_exact(w) * l2_norm_exact(u) * grad_norm(v, 1) + 1e-30
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_convection_of_drift_pairing(self, ell, rng):
        # (u . grad w, u) = -(w, u . grad u) for solenoidal u, w
        for _ in range(5):
            u = leray_project(random_vector_field(ell, 4, rng))
            w = leray_project(random_vector_field(ell, 4, rng))
            lhs = inner_l2(convect(u, w, out_cutoff=16), embed(u, 16))
            rhs = -inner_l2(embed(w, 16), convect(u, u, out_cutoff=16))
            scale = l2_norm_exact(w) * l2_norm_exact(u) * grad_norm(u, 1) + 1e-30
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_symmetric_term_doubles_self_transport(self, ell, rng):
        u = random_vector_field(ell, 6, rng)
        b = symmetrized_convection(u, u)
        d = self_convection(u)
        assert np.max(np.abs((b - 2.0 * d).coeff_stack())) == 0.0

    def test_cutoff_mismatch_rejected(self, ell, rng):
        w = random_vector_field(ell, 4, rng)
        u = random_vector_field(ell, 6, rng)
        with pytest.raises(ValueError, match="mismatched ell/cutoff"):
            convect(w, u)

    def test_outputs_stay_real(self, ell, rng):
        w = leray_project(random_vector_field(ell, 6, rng))
        u = random_vector_field(ell, 6, rng)
        assert convect(w, u).hermitian_defect() == 0.0


def _sparse_vector_field(ell, cutoff, rng, density=0.1):
    """Random real field on a sparse +-k symmetric mode set containing +-B e_i.

    The axis extremes make the product reach |k_i| = 2B, where an undersized
    grid aliases; sparsity keeps the brute-force triple loop cheap.
    """
    bw = bandwidth_of(cutoff)
    side = 2 * bw + 1
    mask = rng.random((side,) * 3) < density
    mask[2 * bw, bw, bw] = mask[bw, 2 * bw, bw] = mask[bw, bw, 2 * bw] = True
    mask |= mask[::-1, ::-1, ::-1]
    v = random_vector_field(ell, cutoff, rng)
    return v.with_stack(v.coeff_stack() * mask)


def _brute_convect(w, u, out_cutoff):
    """Independent oracle: triple loop over stored modes."""
    bw_out = bandwidth_of(out_cutoff)
    side = 2 * bw_out + 1
    out = np.zeros((3, side, side, side), dtype=complex)
    fac = 2j * np.pi / u.ell
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


def test_dj_norm_max_over_multiindices(ell, rng):
    u = random_scalar_field(ell, 4, rng)
    manual = max(
        lp_norm(partial_derivative(u, a), 3.0, 16) for a in multi_indices(2)
    )
    assert dj_norm(u, 2, 3.0, 16) == pytest.approx(manual, rel=1e-13)
