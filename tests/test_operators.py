import math

import numpy as np
import pytest

from torusns.fields import (
    bandwidth_of,
    embed,
    hermitianize,
    random_scalar_field,
    random_vector_field,
    scalar_from_modes,
    vector_from_modes,
    truncate,
)
import torusns.operators as operators
from torusns import cli
from torusns.operators import (
    _convect_stack,
    _quadrature_grid,
    _sample_stack,
    _self_convect_stack,
    _spectrum_stack,
    convect,
    div,
    grad,
    grad_norm,
    hs_norm,
    inner_l2,
    l2_norm_exact,
    laplacian,
    lp_norm,
    multi_indices,
    norm_table,
    partial_derivative,
    rot,
    sample_values,
    self_convection,
    symmetrized_convection,
)
from torusns.helmholtz import _project_stack, leray_project
from torusns.problems import shear_field, taylor_green_field


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


class TestGradNorm:
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

    def test_undersampled_grid_rejected(self, ell, rng):
        # bandwidth 3 needs 7 points; a grid of 2B = 6 cannot resolve it
        f = random_vector_field(ell, 9, rng)
        with pytest.raises(ValueError, match="need n >= 7"):
            sample_values(f, 6)
        with pytest.raises(ValueError, match="need n >= 7"):
            lp_norm(f, 4.0, 6)
        with pytest.raises(ValueError, match="need n >= 7"):
            norm_table([f], 6)


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
        slow = cli._brute_convect(w, u, 8)
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
        slow = cli._brute_convect(w, u, out_cutoff or cutoff)
        assert l2_norm_exact(fast - slow) <= 1e-12 * l2_norm_exact(slow)

    def test_larger_grid_changes_nothing(self, ell, rng):
        # the full product (4B+1 grid), truncated, is the Galerkin product
        # (3B+1 grid): the kept modes do not depend on the grid
        w = random_vector_field(ell, 9, rng)
        u = random_vector_field(ell, 9, rng)
        base = convect(w, u).coeff_stack()
        full = convect(w, u, out_cutoff=3 * (2 * bandwidth_of(9)) ** 2)
        truncated = truncate(full, 9).coeff_stack()
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


class TestDivergenceForm:
    """The solver's kernel div(u (x) u) against the advective kernel and the
    brute-force convolution, on solenoidal u."""

    @pytest.mark.parametrize("ell", [2.0 * math.pi, 3.3])
    @pytest.mark.parametrize("cutoff", [4, 9, 16, 36])
    def test_matches_oracles_on_solenoidal_fields(self, rng, ell, cutoff):
        # sparse at M = 36, where the full brute-force loop takes seconds; the
        # axis extremes +-B e_i are kept, so the product reaches |k_i| = 2B
        density = 0.2 if cutoff == 36 else 1.0
        u = leray_project(_sparse_vector_field(ell, cutoff, rng, density))
        bw = bandwidth_of(cutoff)
        fast = _project_stack(_self_convect_stack((u.coeffs,), ell, cutoff), bw)
        slow = leray_project(cli._brute_convect(u, u)).coeffs
        advective = _project_stack(_convect_stack(u.coeffs, u.coeffs, ell, cutoff), bw)
        assert np.linalg.norm(fast - slow) <= 1e-13 * np.linalg.norm(slow)
        assert np.linalg.norm(fast - advective) <= 1e-15 * np.linalg.norm(advective)

    @pytest.mark.parametrize("field", [shear_field, taylor_green_field])
    def test_overflow_falls_back_to_advective_kernel(self, monkeypatch, ell, field):
        # u_i u_j overflows, so the divergence form is nan, while the
        # advective product of these fields on the M = 3 grid is exactly 0
        u = field(ell, 3, 1e300).coeffs
        expected = _convect_stack(u, u, ell, 3)
        assert np.all(np.isfinite(expected))
        calls = []
        monkeypatch.setattr(
            operators, "_convect_stack", lambda *a: calls.append(a) or _convect_stack(*a)
        )
        got = _self_convect_stack((u,), ell, 3)
        assert len(calls) == 1
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("ell", [2.0 * math.pi, 3.3])
    @pytest.mark.parametrize("cutoff", [4, 9, 16])
    @pytest.mark.parametrize("order", [1, 2])
    def test_chain_orders_match_oracles(self, rng, ell, cutoff, order):
        # order j of the Bochner chain: div(sum_l C(j,l) u_l (x) u_(j-l)) on
        # solenoidal u_l; sparse at M = 16 to keep the brute-force loop cheap
        density = 0.3 if cutoff == 16 else 1.0
        us = [leray_project(_sparse_vector_field(ell, cutoff, rng, density)) for _ in range(order + 1)]
        fast = _self_convect_stack([u.coeffs for u in us], ell, cutoff)
        advective = sum(
            math.comb(order, l) * _convect_stack(us[l].coeffs, us[order - l].coeffs, ell, cutoff)
            for l in range(order + 1)
        )
        slow = sum(
            math.comb(order, l) * cli._brute_convect(us[l], us[order - l]).coeffs
            for l in range(order + 1)
        )
        assert np.linalg.norm(fast - advective) <= 1e-13 * np.linalg.norm(advective)
        assert np.linalg.norm(fast - slow) <= 1e-13 * np.linalg.norm(slow)

    @pytest.mark.parametrize("field", [shear_field, taylor_green_field])
    def test_overflow_falls_back_to_advective_sum(self, monkeypatch, ell, field):
        # at j = 1 the fallback is (u0 . grad) u1 + (u1 . grad) u0, summed from
        # its first term as the chain summed it
        u0 = field(ell, 3, 1e300).coeffs
        u1 = u0 * -0.5
        expected = _convect_stack(u0, u1, ell, 3) + 1 * _convect_stack(u1, u0, ell, 3)
        assert np.all(np.isfinite(expected))
        calls = []
        monkeypatch.setattr(
            operators, "_convect_stack", lambda *a: calls.append(a) or _convect_stack(*a)
        )
        got = _self_convect_stack((u0, u1), ell, 3)
        assert len(calls) == 2
        assert got.tobytes() == expected.tobytes()


def _rfftn_spectrum(values, keep, ws=None):
    """The unpruned spectrum: ``rfftn`` of every sample, then the kept modes;
    the kernel's workspace ``ws`` is not used."""
    n = values.shape[-1]
    spectrum = np.fft.rfftn(values, axes=(1, 2, 3), norm="forward")
    side = 2 * keep + 1
    out = np.empty((values.shape[0], side, side, side), dtype=np.complex128)
    for src1, dst1 in operators._axis_slices(keep, n):
        for src2, dst2 in operators._axis_slices(keep, n):
            out[:, dst1, dst2, keep:] = spectrum[:, src1, src2, : keep + 1]
    out[..., :keep] = np.conj(out[:, ::-1, ::-1, 2 * keep : keep : -1])
    return out


class TestPrunedSpectrum:
    """The forward transform pruned to the kept modes against ``rfftn``."""

    @pytest.mark.parametrize("components", [1, 3, 6, 12])
    @pytest.mark.parametrize("keep", [1, 2, 6, 8])
    def test_bitwise_equal_to_rfftn(self, rng, components, keep):
        kernel_n = operators._dealias_grid(np.zeros((3,) + (2 * keep + 1,) * 3), keep**2)[3]
        for n in sorted({2 * keep + 1, 2 * keep + 2, kernel_n}):
            values = rng.standard_normal((components, n, n, n))
            # bytes, not array_equal, which would pass a signed zero that flipped
            got = _spectrum_stack(values, keep)
            assert got.tobytes() == _rfftn_spectrum(values, keep).tobytes()

    @pytest.mark.parametrize("ell", [2.0 * math.pi, 3.3])
    @pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 9, 16, 36])
    def test_kernels_bitwise_unchanged(self, monkeypatch, rng, ell, cutoff):
        u = leray_project(random_vector_field(ell, cutoff, rng)).coeffs
        w = random_vector_field(ell, cutoff, rng).coeffs
        pruned = [_self_convect_stack((u,), ell, cutoff), _convect_stack(w, u, ell, cutoff)]
        monkeypatch.setattr(operators, "_spectrum_stack", _rfftn_spectrum)
        full = [_self_convect_stack((u,), ell, cutoff), _convect_stack(w, u, ell, cutoff)]
        assert all(np.array_equal(a, b) for a, b in zip(pruned, full))


def _irfftn_samples(stack, n):
    """The unpruned inverse: the k3 >= 0 half of each cube in an n x n x (n//2+1)
    array, then ``irfftn``."""
    bw = (stack.shape[1] - 1) // 2
    buf = np.zeros((stack.shape[0], n, n, n // 2 + 1), dtype=np.complex128)
    for dst1, src1 in operators._axis_slices(bw, n):
        for dst2, src2 in operators._axis_slices(bw, n):
            buf[:, dst1, dst2, : bw + 1] = stack[:, src1, src2, bw:]
    return np.fft.irfftn(buf, s=(n, n, n), axes=(1, 2, 3), norm="forward")


class TestPrunedInverse:
    """The inverse transform pruned to the lines that carry modes against ``irfftn``."""

    @pytest.mark.parametrize("cutoff", [3, 5, 9, 16, 25, 36, 49])
    def test_bitwise_equal_to_irfftn(self, rng, cutoff):
        vectors = [random_vector_field(3.3, cutoff, rng).coeffs for _ in range(4)]
        bw = bandwidth_of(cutoff)
        kernel_n = operators._dealias_grid(vectors[0], cutoff)[3]
        # 1 and 3 components, the Bochner chain's 6 (u, d_t u) and the
        # general kernel's 12 (w and the nine derivatives of u)
        scalar = random_scalar_field(3.3, cutoff, rng).coeffs[None]
        stacks = [scalar, vectors[0], np.concatenate(vectors[:2]), np.concatenate(vectors)]
        # 2B+1 and 2B+3 are odd; the kernel's and the quadrature's grids
        for n in sorted({2 * bw + 1, 2 * bw + 2, 2 * bw + 3, kernel_n, _quadrature_grid(bw)}):
            for stack in stacks:
                assert _sample_stack(stack, n).tobytes() == _irfftn_samples(stack, n).tobytes()

    def test_workspace_keeps_no_history(self, rng):
        # one n = 16 grid samples bandwidth 5 (cutoff 25), then bandwidth 4 (cutoff 16)
        ws = {}
        for cutoff in (25, 16, 25):
            u = random_vector_field(3.3, cutoff, rng).coeffs
            assert _sample_stack(u, 16, ws).tobytes() == _irfftn_samples(u, 16).tobytes()


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
