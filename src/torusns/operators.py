"""Differential operators, norms, grid transforms and dealiased products.

Every differential operator acts as a Fourier multiplier on the coefficient
cube (d/dx_j -> i (2 pi / ell) k_j), so the vector-calculus identities

    rot grad = 0,   div rot = 0,   -rot rot + grad div = Laplacian

hold exactly at coefficient level.  Quadratic products are evaluated
pseudo-spectrally on a grid padded far enough that the retained coefficients
are the exact convolution (no aliasing); truncating the result to the input
cutoff therefore yields the exact Galerkin projection of the product.  For
inputs of axis bandwidth B and retained modes |k_i| <= K the smallest such
grid has n >= 2B + K + 1 points per axis: 3B+1 for the Galerkin projection
(the 3/2 rule), 4B+1 for the full product.  Fields are real, so grid
transforms are real FFTs (``rfftn``/``irfftn``) over the k3 >= 0 half of the
coefficient cube; the other half is its conjugate reflection.

L2 norms and inner products are exact Parseval sums.  L^p norms for p != 2
are rectangle-rule quadrature on a user-chosen grid, and the L^infinity norm
is a grid maximum; these are documented sampling approximations.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (
    Field,
    SpectralScalarField,
    SpectralVectorField,
    align_scalar,
    align_vector,
    bandwidth_of,
    shell_mask,
    wave_cubes,
    wave_index_axes,
)

__all__ = [
    "grad",
    "div",
    "rot",
    "laplacian",
    "partial_derivative",
    "neg_laplacian_pow",
    "sobolev_norm",
    "l2_norm_exact",
    "inner_l2",
    "grad_norm",
    "hs_norm",
    "lp_norm",
    "dj_norm",
    "convect",
    "self_convection",
    "symmetrized_convection",
    "multi_indices",
]


def _wavenumber_factor(u: Field) -> float:
    return 2.0 * math.pi / u.ell


def _apply_multiplier(u: SpectralScalarField, mult: np.ndarray) -> SpectralScalarField:
    return u.with_coeffs(u.coeffs * mult)


def grad(p: SpectralScalarField) -> SpectralVectorField:
    """Gradient of a scalar field."""
    k1, k2, k3, _ = wave_cubes(p.bandwidth)
    fac = 1j * _wavenumber_factor(p)
    return SpectralVectorField(
        tuple(_apply_multiplier(p, fac * k) for k in (k1, k2, k3))
    )


def div(u: SpectralVectorField) -> SpectralScalarField:
    """Divergence of a vector field."""
    k1, k2, k3, _ = wave_cubes(u.bandwidth)
    fac = 1j * _wavenumber_factor(u)
    out = fac * (
        k1 * u.components[0].coeffs
        + k2 * u.components[1].coeffs
        + k3 * u.components[2].coeffs
    )
    return SpectralScalarField(u.ell, u.cutoff, out)


def rot(u: SpectralVectorField) -> SpectralVectorField:
    """Curl of a vector field."""
    k1, k2, k3, _ = wave_cubes(u.bandwidth)
    fac = 1j * _wavenumber_factor(u)
    c1, c2, c3 = (c.coeffs for c in u.components)
    out = np.stack(
        [
            fac * (k2 * c3 - k3 * c2),
            fac * (k3 * c1 - k1 * c3),
            fac * (k1 * c2 - k2 * c1),
        ]
    )
    return SpectralVectorField.from_stack(u.ell, u.cutoff, out)


def laplacian(u: Field) -> Field:
    """Laplacian, same rank as the input."""
    ksq = wave_cubes(u.bandwidth)[3]
    mult = -(_wavenumber_factor(u) ** 2) * ksq
    if isinstance(u, SpectralScalarField):
        return _apply_multiplier(u, mult)
    return u.with_stack(u.coeff_stack() * mult)


def partial_derivative(u: Field, alpha: tuple[int, int, int]) -> Field:
    """Mixed partial d^alpha for a multi-index alpha = (a1, a2, a3)."""
    k1, k2, k3, _ = wave_cubes(u.bandwidth)
    fac = 1j * _wavenumber_factor(u)
    mult = (fac * k1) ** alpha[0] * (fac * k2) ** alpha[1] * (fac * k3) ** alpha[2]
    if isinstance(u, SpectralScalarField):
        return _apply_multiplier(u, mult)
    return u.with_stack(u.coeff_stack() * mult)


def neg_laplacian_pow(u: Field, r: float) -> Field:
    """Fractional power of the negative Laplacian.

    Multiplies mode k != 0 by ((k, k) (2 pi / ell)^2)^r.  The zero mode is
    preserved for r = 0 and mapped to 0 otherwise; for r < 0 the field must
    have zero mean since the operator is not invertible on constants.
    """
    bw = u.bandwidth
    ksq = wave_cubes(bw)[3]
    if r == 0:
        return u
    mean = u.mean if isinstance(u, SpectralScalarField) else max(
        abs(c.mean) for c in u.components
    )
    if r < 0 and abs(mean) > 0:
        raise ValueError("not invertible on constants: zero mode must vanish for r < 0")
    lam = ksq.astype(np.float64) * _wavenumber_factor(u) ** 2
    mult = np.zeros_like(lam)
    nz = ksq > 0
    mult[nz] = lam[nz] ** r
    if isinstance(u, SpectralScalarField):
        return _apply_multiplier(u, mult)
    return u.with_stack(u.coeff_stack() * mult)


# ---------------------------------------------------------------------------
# Exact norms and inner products (Parseval sums).
# ---------------------------------------------------------------------------


def _coeff_stack(u: Field) -> np.ndarray:
    if isinstance(u, SpectralScalarField):
        return u.coeffs[None]
    return u.coeff_stack()


def sobolev_norm(u: Field, s: float) -> float:
    """Coefficient-weighted Sobolev norm (sum_k (1 + (k,k))^s |c_k|^2)^(1/2).

    Vector fields sum the squares of the three components.  This is the
    dimensionless sequence norm; for the H^s(Q) norm carrying the ell^3
    Parseval factor and physical wavenumbers see :func:`hs_norm`.
    """
    ksq = wave_cubes(u.bandwidth)[3]
    weight = (1.0 + ksq.astype(np.float64)) ** s
    total = float(np.sum(weight * np.abs(_coeff_stack(u)) ** 2))
    return math.sqrt(total)


def l2_norm_exact(u: Field) -> float:
    """Exact L2(Q) norm, ||u||^2 = ell^3 sum_k |c_k|^2."""
    total = float(np.sum(np.abs(_coeff_stack(u)) ** 2))
    return math.sqrt(u.ell**3 * total)


def inner_l2(u: Field, v: Field) -> float:
    """Exact L2(Q) inner product of two real fields of the same rank."""
    if u.ell != v.ell:
        raise ValueError("incompatible domains: fields have different periods")
    if u.ncomponents != v.ncomponents:
        raise ValueError("cannot pair fields of different rank")
    if u.cutoff != v.cutoff:
        u, v = (align_scalar if isinstance(u, SpectralScalarField) else align_vector)(u, v)
    return float(np.real(np.sum(_coeff_stack(u) * np.conj(_coeff_stack(v))))) * u.ell**3


def grad_norm(u: Field, j: float) -> float:
    """||(-Laplacian)^(j/2) u||_{L2}; equals (sum_{|a|=j} ||d^a u||^2)^(1/2).

    For integer j this matches the summed derivative seminorm obtained by
    integration by parts; j = 0 gives the plain L2 norm (mean included).
    """
    ksq = wave_cubes(u.bandwidth)[3].astype(np.float64)
    lam = ksq * _wavenumber_factor(u) ** 2
    weight = lam**j if j > 0 else np.ones_like(lam)
    total = float(np.sum(weight * np.abs(_coeff_stack(u)) ** 2))
    return math.sqrt(u.ell**3 * total)


def hs_norm(u: Field, s: int) -> float:
    """Physical Sobolev norm (sum_{j<=s} ||(-Lap)^(j/2) u||^2_{L2})^(1/2)."""
    return math.sqrt(sum(grad_norm(u, j) ** 2 for j in range(s + 1)))


def multi_indices(order: int) -> list[tuple[int, int, int]]:
    """All 3d multi-indices of modulus ``order``."""
    return [
        (a, b, order - a - b)
        for a in range(order + 1)
        for b in range(order - a + 1)
    ]


# ---------------------------------------------------------------------------
# Grid sampling and spectra.
# ---------------------------------------------------------------------------


def _fft_indices(bandwidth: int, n: int) -> np.ndarray:
    return wave_index_axes(bandwidth) % n


def _axis_slices(bw: int, n: int) -> tuple[tuple[slice, slice], ...]:
    """(FFT-axis, centered-axis) slice pairs of wavenumbers 0..bw and -bw..-1.

    Needs n >= 2 bw + 1, so that the two ranges do not overlap mod n.
    """
    return (
        (slice(0, bw + 1), slice(bw, 2 * bw + 1)),
        (slice(n - bw, n), slice(0, bw)),
    )


def _sample_stack(stack: np.ndarray, n: int) -> np.ndarray:
    """Exact point samples of the fields in ``stack`` on the n^3 grid.

    For n >= 2B+1 only the k3 >= 0 half of each cube is placed and a real
    inverse transform (``irfftn``) fills in the conjugate half.  Smaller
    grids accumulate coefficients sharing a residue mod n, which reproduces
    the exact point values of the truncated Fourier sum even on
    undersampled grids.
    """
    bw = (stack.shape[1] - 1) // 2
    if n >= 2 * bw + 1:
        buf = np.zeros((stack.shape[0], n, n, n // 2 + 1), dtype=np.complex128)
        for dst1, src1 in _axis_slices(bw, n):
            for dst2, src2 in _axis_slices(bw, n):
                buf[:, dst1, dst2, : bw + 1] = stack[:, src1, src2, bw:]
        return np.fft.irfftn(buf, s=(n, n, n), axes=(1, 2, 3), norm="forward")
    idx = _fft_indices(bw, n)
    bufs = np.zeros((stack.shape[0], n, n, n), dtype=np.complex128)
    i1, i2, i3 = np.meshgrid(idx, idx, idx, indexing="ij")
    for c in range(stack.shape[0]):
        np.add.at(bufs[c], (i1, i2, i3), stack[c])
    return np.real(np.fft.ifftn(bufs, axes=(1, 2, 3), norm="forward"))


def _spectrum_stack(values: np.ndarray, keep: int) -> np.ndarray:
    """Centered coefficients |k_i| <= keep of the real samples ``values``.

    ``values`` has shape (C, n, n, n) with n >= 2 keep + 1.  A real forward
    transform (``rfftn``) gives the k3 >= 0 half; the k3 < 0 half is its
    conjugate reflection, c_{-k} = conj(c_k).
    """
    n = values.shape[-1]
    spectrum = np.fft.rfftn(values, axes=(1, 2, 3), norm="forward")
    side = 2 * keep + 1
    out = np.empty((values.shape[0], side, side, side), dtype=np.complex128)
    for src1, dst1 in _axis_slices(keep, n):
        for src2, dst2 in _axis_slices(keep, n):
            out[:, dst1, dst2, keep:] = spectrum[:, src1, src2, : keep + 1]
    out[..., :keep] = np.conj(out[:, ::-1, ::-1, 2 * keep : keep : -1])
    return out


def sample_values(u: Field, n: int) -> np.ndarray:
    """Point samples on the uniform n^3 grid; shape (n,n,n) or (3,n,n,n)."""
    vals = _sample_stack(_coeff_stack(u), n)
    return vals[0] if isinstance(u, SpectralScalarField) else vals


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (friendly FFT size)."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _convect_stack(w: np.ndarray, u: np.ndarray, ell: float, out_cutoff: int) -> np.ndarray:
    """Array kernel of :func:`convect` on (3, 2B+1, 2B+1, 2B+1) coefficient
    stacks; returns the symmetrized, shell-masked stack at ``out_cutoff``."""
    bw = (u.shape[1] - 1) // 2
    out_bw = bandwidth_of(out_cutoff)
    keep = min(out_bw, 2 * bw)
    n = _fast_len(max(2 * bw + keep + 1, 4))
    k1, k2, k3, _ = wave_cubes(bw)
    grad_mult = 1j * (2.0 * math.pi / ell) * np.stack((k1, k2, k3))
    # w and the nine derivatives of u, built in place: no copy of du
    src = np.empty((12, *k1.shape), dtype=np.complex128)
    src[:3] = w
    np.multiply(u[:, None], grad_mult[None], out=src[3:].reshape(3, 3, *k1.shape))
    vals = _sample_stack(src, n)
    prod = np.einsum("jxyz,ijxyz->ixyz", vals[:3], vals[3:].reshape(3, 3, n, n, n))
    side = 2 * out_bw + 1
    coeffs = np.zeros((3, side, side, side), dtype=np.complex128)
    lo, hi = out_bw - keep, out_bw + keep + 1
    coeffs[:, lo:hi, lo:hi, lo:hi] = _spectrum_stack(prod, keep)
    coeffs = 0.5 * (coeffs + np.conj(coeffs[:, ::-1, ::-1, ::-1]))
    np.copyto(coeffs, 0.0, where=~shell_mask(out_bw, out_cutoff))
    return coeffs


def convect(
    w: SpectralVectorField, u: SpectralVectorField, out_cutoff: int | None = None
) -> SpectralVectorField:
    """Convective derivative (w . grad) u, dealiased.

    The retained coefficients are the exact Galerkin truncation of the
    product; no aliasing error enters.  Inputs must share ell and cutoff.

    With axis bandwidth B the product has modes |k_i| <= 2B.  On an n-point
    axis a product mode k' lands on a kept mode k only if |k' - k| >= n, so
    keeping |k_i| <= K is exact once n >= 2B + K + 1: n = 3B+1 for the
    default ``out_cutoff`` (the 3/2 rule) and 4B+1 only when the full
    product (K = 2B) is requested; the kernel always takes the smallest such
    5-smooth n.  w and the nine derivatives of u are sampled with one real
    inverse transform, the three products are analysed with one real forward
    transform.
    """
    if w.ell != u.ell or w.cutoff != u.cutoff:
        raise ValueError("mismatched ell/cutoff between drift and field")
    if out_cutoff is None:
        out_cutoff = u.cutoff
    coeffs = _convect_stack(w.coeff_stack(), u.coeff_stack(), u.ell, out_cutoff)
    return SpectralVectorField.from_stack(u.ell, out_cutoff, coeffs)


def self_convection(
    u: SpectralVectorField, out_cutoff: int | None = None
) -> SpectralVectorField:
    """Nonlinear transport term (u . grad) u."""
    return convect(u, u, out_cutoff)


def symmetrized_convection(
    w: SpectralVectorField, u: SpectralVectorField, out_cutoff: int | None = None
) -> SpectralVectorField:
    """Symmetric bilinear term (w . grad) u + (u . grad) w."""
    return convect(w, u, out_cutoff) + convect(u, w, out_cutoff)


# ---------------------------------------------------------------------------
# Lebesgue norms by quadrature.
# ---------------------------------------------------------------------------


def _pointwise_magnitude(u: Field, n: int) -> np.ndarray:
    vals = sample_values(u, n)
    if isinstance(u, SpectralScalarField):
        return np.abs(vals)
    return np.sqrt(np.sum(vals**2, axis=0))


def lp_norm(u: Field, p: float, n: int) -> float:
    """L^p(Q) norm by rectangle-rule quadrature on the n^3 grid.

    Vector fields use the pointwise Euclidean magnitude.  For p = infinity
    the grid maximum of the magnitude is returned.  Except at p = 2 (where
    the quadrature converges to the exact Parseval value) these are sampling
    approximations whose accuracy is controlled by n.
    """
    if p < 1:
        raise ValueError("L^p norms require p >= 1")
    mag = _pointwise_magnitude(u, n)
    if math.isinf(p):
        return float(np.max(mag))
    cell = (u.ell / n) ** 3
    return float((cell * np.sum(mag**p)) ** (1.0 / p))


def dj_norm(u: Field, j: int, p: float, n: int) -> float:
    """max_{|alpha| = j} ||d^alpha u||_{L^p}, the derivative-set L^p seminorm."""
    if j == 0:
        return lp_norm(u, p, n)
    return max(lp_norm(partial_derivative(u, alpha), p, n) for alpha in multi_indices(j))
