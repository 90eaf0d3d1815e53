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

:func:`convect` keeps the advective form (w . grad) u: 12 inverse real FFTs
(w and the nine derivatives of u), 3 forward.  The solver's u is solenoidal,
so it takes div(u (x) u) (Zang 1991, Appl. Numer. Math. 7:27): 3 inverse, 6
forward, and the advective form where u_i u_j overflows; on the Bochner
chain's u_l = d_t^l u it takes div(sum_l C(j,l) u_l (x) u_(j-l)), 3(j+1)
inverse, 6 forward.  Both kernels prune the forward transform to the kept
modes |k_i| <= K, the pruned form of the 3/2 rule (Canuto, Hussaini,
Quarteroni & Zang, Spectral Methods, 2006): x3 is transformed and cut to
k3 <= K, x2 is transformed and cut to |k2| <= K, and x1 is transformed on
those lines only; the inverse is pruned to the lines that carry modes.  Each
pass runs along the last, contiguous axis of its buffer (the layouts are in
:func:`_sample_stack` and :func:`_spectrum_stack`), and numpy transforms
each line on its own, so the results are bitwise those of ``rfftn`` and
``irfftn``.  Buffers and constants live in a per-run workspace.

L2 norms and inner products are exact Parseval sums.  L^p norms for p != 2
are rectangle-rule quadrature on a user-chosen grid of at least 2B+1 points,
and the L^infinity norm is a grid maximum; these are documented sampling
approximations.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .fields import (
    Field,
    SpectralScalarField,
    SpectralVectorField,
    align,
    bandwidth_of,
    hermitianize,
    projection_cubes,
    shell_mask,
    wave_cubes,
)

__all__ = [
    "grad",
    "div",
    "rot",
    "laplacian",
    "partial_derivative",
    "l2_norm_exact",
    "inner_l2",
    "grad_norm",
    "hs_norm",
    "lp_norm",
    "NormTable",
    "norm_table",
    "convect",
    "self_convection",
    "symmetrized_convection",
    "multi_indices",
]


def _wavenumber_factor(u: Field) -> float:
    return 2.0 * math.pi / u.ell


def grad(p: SpectralScalarField) -> SpectralVectorField:
    """Gradient of a scalar field."""
    k = np.stack(wave_cubes(p.bandwidth)[:3])
    fac = 1j * _wavenumber_factor(p)
    return SpectralVectorField(p.ell, p.cutoff, p.coeffs * (fac * k))


def _div_stack(coeffs: np.ndarray, ell: float) -> np.ndarray:
    """Coefficients of div u for the coefficient array ``coeffs`` of u."""
    k1, k2, k3, _ = wave_cubes((coeffs.shape[1] - 1) // 2)
    return 1j * (2.0 * math.pi / ell) * (k1 * coeffs[0] + k2 * coeffs[1] + k3 * coeffs[2])


def div(u: SpectralVectorField) -> SpectralScalarField:
    """Divergence of a vector field."""
    return SpectralScalarField(u.ell, u.cutoff, _div_stack(u.coeffs, u.ell))


def rot(u: SpectralVectorField) -> SpectralVectorField:
    """Curl of a vector field."""
    k1, k2, k3, _ = wave_cubes(u.bandwidth)
    fac = 1j * _wavenumber_factor(u)
    c1, c2, c3 = u.coeffs
    out = np.stack(
        [
            fac * (k2 * c3 - k3 * c2),
            fac * (k3 * c1 - k1 * c3),
            fac * (k1 * c2 - k2 * c1),
        ]
    )
    return u.with_coeffs(out)


def _laplacian_symbol(ell: float, bw: int) -> np.ndarray:
    """-(2 pi / ell)^2 |k|^2, the Laplacian's multiplier, on the bandwidth-bw cube."""
    return -((2.0 * math.pi / ell) ** 2) * wave_cubes(bw)[3]


def laplacian(u: Field) -> Field:
    """Laplacian, same rank as the input."""
    return u.with_coeffs(u.coeffs * _laplacian_symbol(u.ell, u.bandwidth))


def partial_derivative(u: Field, alpha: tuple[int, int, int]) -> Field:
    """Mixed partial d^alpha for a multi-index alpha = (a1, a2, a3)."""
    k1, k2, k3, _ = wave_cubes(u.bandwidth)
    fac = 1j * _wavenumber_factor(u)
    mult = (fac * k1) ** alpha[0] * (fac * k2) ** alpha[1] * (fac * k3) ** alpha[2]
    return u.with_coeffs(u.coeffs * mult)


# ---------------------------------------------------------------------------
# Exact norms and inner products (Parseval sums).
# ---------------------------------------------------------------------------


def _l2_norm(coeffs: np.ndarray, ell: float) -> float:
    """Exact L2(Q) norm of the field of period ell with array ``coeffs``."""
    return math.sqrt(ell**3 * float(np.sum(np.abs(coeffs) ** 2)))


def l2_norm_exact(u: Field) -> float:
    """Exact L2(Q) norm, ||u||^2 = ell^3 sum_k |c_k|^2."""
    return _l2_norm(u.coeffs, u.ell)


def _require_divfree(u: SpectralVectorField, what: str) -> None:
    scale = l2_norm_exact(u) + 1e-30
    if _l2_norm(_div_stack(u.coeffs, u.ell), u.ell) > 1e-10 * scale * (1.0 + u.bandwidth):
        raise ValueError(f"{what} must be divergence-free")


def inner_l2(u: Field, v: Field) -> float:
    """Exact L2(Q) inner product of two real fields of the same rank."""
    u, v = align(u, v)
    return float(np.real(np.sum(u.coeffs * np.conj(v.coeffs)))) * u.ell**3


def grad_norm(u: Field, j: float) -> float:
    """||(-Laplacian)^(j/2) u||_{L2}; equals (sum_{|a|=j} ||d^a u||^2)^(1/2).

    For integer j this matches the summed derivative seminorm obtained by
    integration by parts; j = 0 gives the plain L2 norm (mean included).
    """
    lam = -_laplacian_symbol(u.ell, u.bandwidth)
    weight = lam**j if j > 0 else np.ones_like(lam)
    total = float(np.sum(weight * np.abs(u.coeffs) ** 2))
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


def _axis_slices(bw: int, n: int) -> tuple[tuple[slice, slice], ...]:
    """(FFT-axis, centered-axis) slice pairs of wavenumbers 0..bw and -bw..-1.

    Needs n >= 2 bw + 1, so that the two ranges do not overlap mod n.
    """
    return (
        (slice(0, bw + 1), slice(bw, 2 * bw + 1)),
        (slice(n - bw, n), slice(0, bw)),
    )


def _buffer(ws: dict, name: str, shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
    """The workspace array ``name`` of ``shape``, made anew when the one held
    has another shape; the shape carries every size (C, n, B, K) it is cut to."""
    buf = ws.get(name)
    if buf is None or buf.shape != shape:
        buf = ws[name] = np.empty(shape, dtype)
    return buf


def _sample_stack(stack: np.ndarray, n: int, ws: dict | None = None) -> np.ndarray:
    """Exact point samples of the fields in ``stack`` on the n^3 grid.

    Only the k3 >= 0 half of each cube is placed.  The inverse is pruned in
    ``irfftn``'s axis order, bitwise equal to it, each pass along the last
    axis of its buffer: k1 on the (2B+1)(B+1) lines that carry modes, laid
    out (C, k2, k3, k1), k2 on n(B+1) lines, (C, x1, k3, k2), and a real
    transform of k3 from its B+1 columns, copied to (C, x1, x2, k3).  Every
    pass writes into the workspace ``ws``, reused at every stage of a run (a
    fresh one when None), the samples included; no workspace array reaches a
    caller of the kernels, ``sample_values`` or ``norm_table``.  The grid
    must resolve the bandwidth B of the stack, n >= 2B+1.
    """
    bw = (stack.shape[1] - 1) // 2
    if n < 2 * bw + 1:
        raise ValueError(
            f"a grid of {n} points cannot sample bandwidth {bw}; need n >= {2 * bw + 1}"
        )
    ws = {} if ws is None else ws
    c = stack.shape[0]
    lines = _buffer(ws, "lines", (c, 2 * bw + 1, bw + 1, n))
    lines[..., bw + 1 : n - bw] = 0.0
    for dst1, src1 in _axis_slices(bw, n):
        lines[..., dst1] = stack[:, src1, :, bw:].transpose(0, 2, 3, 1)
    np.fft.ifft(lines, axis=3, norm="forward", out=lines)
    grid = _buffer(ws, "grid", (c, n, bw + 1, n))
    grid[..., bw + 1 : n - bw] = 0.0
    for dst2, src2 in _axis_slices(bw, n):
        grid[..., dst2] = lines[:, src2].transpose(0, 3, 2, 1)
    np.fft.ifft(grid, axis=3, norm="forward", out=grid)
    columns = _buffer(ws, "columns", (c, n, n, bw + 1))
    np.copyto(columns, grid.transpose(0, 1, 3, 2))
    samples = _buffer(ws, "samples", (c, n, n, n), np.float64)
    return np.fft.irfft(columns, n, axis=3, norm="forward", out=samples)


def _spectrum_stack(values: np.ndarray, keep: int, ws: dict | None = None) -> np.ndarray:
    """Centered coefficients |k_i| <= keep of the real samples ``values``.

    ``values`` has shape (C, n, n, n) with n >= 2 keep + 1.  The forward
    transform is pruned to the kept modes in ``rfftn``'s axis order, each
    pass along the last axis of its buffer: a real transform of x3, kept at
    k3 <= keep and copied to (C, x1, k3, x2); x2, kept at |k2| <= keep and
    copied to (C, k2, k3, x1); x1 on those lines only.  Each kept
    coefficient is bitwise that of ``rfftn``.  The k3 < 0 half is the
    conjugate reflection, c_{-k} = conj(c_k).  Every pass writes into the
    workspace ``ws`` (a fresh one when None), the returned array included.
    """
    ws = {} if ws is None else ws
    c, n = values.shape[0], values.shape[-1]
    half = _buffer(ws, "half", (c, n, n, n // 2 + 1))
    np.fft.rfft(values, axis=3, norm="forward", out=half)
    rows = _buffer(ws, "rows", (c, n, keep + 1, n))
    np.copyto(rows, half[..., : keep + 1].transpose(0, 1, 3, 2))
    np.fft.fft(rows, axis=3, norm="forward", out=rows)
    side = 2 * keep + 1
    kept = _buffer(ws, "kept", (c, side, keep + 1, n))
    for src2, dst2 in _axis_slices(keep, n):
        kept[:, dst2] = rows[..., src2].transpose(0, 3, 2, 1)
    np.fft.fft(kept, axis=3, norm="forward", out=kept)
    out = _buffer(ws, "spectrum", (c, side, side, side))
    for src1, dst1 in _axis_slices(keep, n):
        out[:, dst1, :, keep:] = kept[..., src1].transpose(0, 3, 1, 2)
    np.conjugate(out[:, ::-1, ::-1, 2 * keep : keep : -1], out=out[..., :keep])
    return out


def sample_values(u: Field, n: int) -> np.ndarray:
    """Point samples on the uniform n^3 grid; shape (n,n,n) or (3,n,n,n)."""
    vals = _sample_stack(u.coeffs.reshape(u.ncomponents, *u.coeffs.shape[-3:]), n)
    return vals.reshape(u.lead + vals.shape[1:])


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


def _quadrature_grid(bw: int) -> int:
    """Default points per axis of the L^p and L^inf quadrature grid for
    fields of axis bandwidth ``bw``."""
    return _fast_len(max(2 * bw + 1, 16))


def _dealias_grid(u: np.ndarray, out_cutoff: int) -> tuple[int, int, int, int]:
    """(B, out_bw, K, n) for products of the bandwidth-B stack u kept at
    ``out_cutoff``: K = min(out_bw, 2B), n the smallest 5-smooth n >= 2B + K + 1."""
    bw = (u.shape[1] - 1) // 2
    out_bw = bandwidth_of(out_cutoff)
    keep = min(out_bw, 2 * bw)
    return bw, out_bw, keep, _fast_len(max(2 * bw + keep + 1, 4))


_Plan = namedtuple("_Plan", "key grid fac cubes div outside")  # see _plan


def _plan(ws: dict, stack: np.ndarray, ell: float, out_cutoff: int) -> _Plan:
    """The constants of products kept at ``out_cutoff``, built into ``ws`` once
    per (bandwidth, cutoff, ell): the sizes of :func:`_dealias_grid`, 2 pi i /
    ell, the projection's cubes, the divergence's k_m per tensor row and the
    modes outside the shell."""
    key = (stack.shape[1], out_cutoff, ell)
    if getattr(ws.get("plan"), "key", None) != key:
        grid = _dealias_grid(stack, out_cutoff)
        div = np.repeat(projection_cubes(grid[2])[0][:, None], 3, 1)
        cubes, outside = projection_cubes(grid[1]), ~shell_mask(grid[1], out_cutoff)
        ws["plan"] = _Plan(key, grid, 1j * (2.0 * math.pi / ell), cubes, div, outside)
    return ws["plan"]


def _to_shell(spectrum: np.ndarray, plan: _Plan) -> np.ndarray:
    """The (3, 2K+1, 2K+1, 2K+1) ``spectrum`` of a product in the plan's
    output cube, Hermitian-symmetrized and shell-masked, a fresh array."""
    keep, out_bw = (spectrum.shape[1] - 1) // 2, plan.grid[1]
    coeffs = np.zeros((3,) + (2 * out_bw + 1,) * 3, dtype=np.complex128)
    lo, hi = out_bw - keep, out_bw + keep + 1
    coeffs[:, lo:hi, lo:hi, lo:hi] = spectrum
    coeffs = hermitianize(coeffs)
    np.copyto(coeffs, 0.0, where=plan.outside)
    return coeffs


def _convect_stack(
    w: np.ndarray, u: np.ndarray, ell: float, out_cutoff: int, ws: dict | None = None
) -> np.ndarray:
    """Array kernel of :func:`convect` on (3, 2B+1, 2B+1, 2B+1) coefficient
    stacks; returns the symmetrized, shell-masked stack at ``out_cutoff``,
    a fresh array, with its grids in the workspace ``ws``."""
    ws = {} if ws is None else ws
    plan = _plan(ws, u, ell, out_cutoff)
    bw, _, keep, n = plan.grid
    grad_mult = plan.fac * np.stack(wave_cubes(bw)[:3])
    # w and the nine derivatives of u, built in place: no copy of du
    src = _buffer(ws, "stacks", (12, *u.shape[1:]))
    src[:3] = w
    np.multiply(u[:, None], grad_mult[None], out=src[3:].reshape(3, 3, *u.shape[1:]))
    vals = _sample_stack(src, n, ws)
    prod = _buffer(ws, "products", (3, n, n, n), np.float64)
    np.einsum("jxyz,ijxyz->ixyz", vals[:3], vals[3:].reshape(3, 3, n, n, n), out=prod)
    return _to_shell(_spectrum_stack(prod, keep, ws), plan)


# a symmetric tensor is held as its six entries i <= j; row i of it is _ROWS[i]
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_ROWS = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


def _self_convect_stack(stacks, ell: float, out_cutoff: int, ws: dict | None = None) -> np.ndarray:
    """div(sum_l C(j,l) u_l (x) u_(j-l)) for the stacks (u_0, ..., u_j), a
    symmetric tensor, with 3(j+1) inverse and 6 forward real FFTs.  For
    solenoidal u_l it is sum_l C(j,l) (u_l . grad) u_(j-l), the advective sum
    of :func:`_convect_stack`, to which it falls back where it overflows.
    The result is a fresh array; the grids are in the workspace ``ws``."""
    ws = {} if ws is None else ws
    j = len(stacks) - 1
    plan = _plan(ws, stacks[0], ell, out_cutoff)
    _, _, keep, n = plan.grid
    stack = stacks[0] if j == 0 else np.concatenate(
        stacks, out=_buffer(ws, "stacks", (3 * (j + 1), *stacks[0].shape[1:]))
    )
    vals = _sample_stack(stack, n, ws).reshape(j + 1, 3, n, n, n)
    prod = _buffer(ws, "products", (6, n, n, n), np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        for p, (a, b) in enumerate(_PAIRS):
            np.multiply(vals[0, a], vals[j, b], out=prod[p])
            for l in range(1, j + 1):
                prod[p] += math.comb(j, l) * (vals[l, a] * vals[j - l, b])
        spec = _spectrum_stack(prod, keep, ws)
        # terms[m, i] = spec[_ROWS[i][m]], _ROWS being symmetric, and row i of
        # div sums k_m terms[m, i] over m; take's mode "raise" would copy
        terms = np.take(spec, _ROWS, 0, _buffer(ws, "terms", plan.div.shape), "clip")
        np.multiply(plan.div, terms, out=terms)
        div_uu = np.add(terms[0], terms[1], out=terms[0])
        div_uu += terms[2]
        coeffs = _to_shell(np.multiply(plan.fac, div_uu, out=div_uu), plan)
    if not np.all(np.isfinite(coeffs)):  # summed from its first term, keeping -0.0
        coeffs = _convect_stack(stacks[0], stacks[j], ell, out_cutoff, ws)
        for l in range(1, j + 1):
            term = _convect_stack(stacks[l], stacks[j - l], ell, out_cutoff, ws)
            coeffs = coeffs + math.comb(j, l) * term
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
    coeffs = _convect_stack(w.coeffs, u.coeffs, u.ell, out_cutoff)
    return SpectralVectorField(u.ell, out_cutoff, coeffs)


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
    if u.ncomponents == 1:  # |x|, which sqrt(x**2) is not for subnormal x
        return np.abs(vals)
    return np.sqrt(np.sum(vals**2, axis=0))


def _check_lp_exponent(p: float) -> None:
    if p < 1:
        raise ValueError("L^p norms require p >= 1")


def _lp_quadrature(mag: np.ndarray, p: float, cell: float) -> float:
    """L^p norm of the sampled magnitudes ``mag`` on cells of volume ``cell``."""
    if math.isinf(p):
        return float(np.max(mag))
    return float((cell * np.sum(mag**p)) ** (1.0 / p))


def lp_norm(u: Field, p: float, n: int) -> float:
    """L^p(Q) norm by rectangle-rule quadrature on the n^3 grid.

    Vector fields use the pointwise Euclidean magnitude.  For p = infinity
    the grid maximum of the magnitude is returned.  Except at p = 2 (where
    the quadrature converges to the exact Parseval value) these are sampling
    approximations whose accuracy is controlled by n.  The grid must resolve
    the field, n >= 2B+1 for axis bandwidth B; a coarser grid raises
    ``ValueError``.
    """
    _check_lp_exponent(p)
    return _lp_quadrature(_pointwise_magnitude(u, n), p, (u.ell / n) ** 3)


@dataclass(frozen=True)
class NormTable:
    """Norms of every field of a sequence, bitwise those of the one-field
    functions: ``grad[j][i]`` is ``grad_norm(fields[i], j)``, j = 0, 1, 2
    (j = 0 is the exact L2 norm), ``div[i]`` is ``l2_norm_exact(div(fields[i]))``
    and ``lp[r][i]`` is ``lp_norm(fields[i], r, grid)``.  ``grid`` is the
    grid_n the fields were sampled on, None without one; the energy
    certificate takes a drift's L^inf on it (on the fields' default
    quadrature grid when None), raised to 2B+1 for a drift of bandwidth B."""

    grad: tuple[tuple[float, ...], ...]
    div: tuple[float, ...]
    lp: dict[float, tuple[float, ...]]
    grid: int | None

    @property
    def l2(self) -> tuple[float, ...]:
        return self.grad[0]

    @property
    def linf(self) -> tuple[float, ...]:
        return self.lp[math.inf]

    def hs(self, s: int) -> list[float]:
        """``hs_norm(field, s)`` of every field, s <= 2."""
        return [math.sqrt(sum(g**2 for g in col[: s + 1])) for col in zip(*self.grad)]


def norm_table(fields, grid_n: int | None = None, exponents=()) -> NormTable:
    """The :class:`NormTable` of fields sharing ell and cutoff.

    The exact norms come from one |c|^2 array per field.  Given ``grid_n``,
    each field is sampled once on the grid_n^3 grid, and ``lp`` holds the
    L^r for r = infinity and every r in ``exponents``, from that one sample.
    """
    rs = list(dict.fromkeys([*exponents, math.inf])) if grid_n is not None else []
    for r in rs:
        _check_lp_exponent(r)
    u0 = fields[0]
    lam = -_laplacian_symbol(u0.ell, u0.bandwidth)
    weights, volume = (1.0, lam, lam**2), u0.ell**3
    rows = []
    for u in fields:
        power = np.abs(u.coeffs) ** 2
        row = [math.sqrt(volume * float(np.sum(w * power))) for w in weights]
        row.append(_l2_norm(_div_stack(u.coeffs, u.ell), u.ell))
        if rs:
            mag = _pointwise_magnitude(u, grid_n)
            row += [_lp_quadrature(mag, r, (u.ell / grid_n) ** 3) for r in rs]
        rows.append(row)
    cols = tuple(zip(*rows))
    return NormTable(cols[:3], cols[3], dict(zip(rs, cols[4:])), grid_n)
