"""Helmholtz (Leray) projection, dual-space norms and pressure recovery.

The projection onto divergence-free fields acts mode by mode: the mean is
kept, and for k != 0 the amplitude is replaced by its component orthogonal
to k,

    c_k  ->  c_k - k (k . c_k) / (k, k).

The complementary part is a gradient; its zero-mean potential is recovered
by inverting the gradient on each mode.  Projection, decomposition and the
derivative-commutation identity are exact at coefficient level.  Pressure
recovery takes the transport term of a divergence-free velocity in the
solver's divergence form, one kernel call per field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import SpectralScalarField, SpectralVectorField, projection_cubes, wave_cubes
from .operators import _require_divfree, _self_convect_stack, grad_norm, partial_derivative

__all__ = [
    "leray_project",
    "ProjectionDecomposition",
    "decompose",
    "gradient_potential",
    "recover_pressure",
    "dual_norm",
    "derivative_commutation_defect",
]


def _project_stack(stack: np.ndarray, bandwidth: int, cubes=None) -> np.ndarray:
    """P of a coefficient stack, a fresh array; ``cubes`` default to ``projection_cubes``."""
    k, inv_ksq = projection_cubes(bandwidth) if cubes is None else cubes
    terms = k * stack
    corr = np.add(terms[0], terms[1])
    corr += terms[2]
    corr *= inv_ksq
    for i in range(3):
        np.multiply(k[i], corr, out=terms[i])
    return np.subtract(stack, terms, out=terms)


def leray_project(u: SpectralVectorField) -> SpectralVectorField:
    """Orthogonal projection onto divergence-free fields (mean preserved)."""
    return u.with_coeffs(_project_stack(u.coeffs, u.bandwidth))


@dataclass(frozen=True)
class ProjectionDecomposition:
    """Split u = solenoidal + gradient_part with gradient_part = grad(potential).

    The solenoidal part is exactly divergence-free in coefficients, the
    gradient part is curl-free, and the potential has zero mean.
    """

    solenoidal: SpectralVectorField
    gradient_part: SpectralVectorField
    potential: SpectralScalarField


def decompose(u: SpectralVectorField) -> ProjectionDecomposition:
    sol = leray_project(u)
    gradient_part = u - sol
    return ProjectionDecomposition(sol, gradient_part, gradient_potential(gradient_part))


def gradient_potential(g: SpectralVectorField) -> SpectralScalarField:
    """Zero-mean p with grad(p) equal to the curl-free field g.

    Mode formula: p_k = (ell / (2 pi i)) (k . g_k) / (k, k) for k != 0; the
    zero mode of p is fixed to 0 (zero-mean gauge).  The mean of g is
    ignored, since constants are not gradients.
    """
    k1, k2, k3, ksq = wave_cubes(g.bandwidth)
    g1, g2, g3 = g.coeffs
    kdotg = k1 * g1 + k2 * g2 + k3 * g3
    coeffs = np.zeros(ksq.shape, dtype=np.complex128)
    nz = ksq > 0
    coeffs[nz] = (g.ell / (2.0j * math.pi)) * kdotg[nz] / ksq[nz]
    return SpectralScalarField(g.ell, g.cutoff, coeffs)


def recover_pressure(
    f: SpectralVectorField | None, u: SpectralVectorField
) -> SpectralScalarField:
    """Pressure of the momentum balance: zero-mean p with

        grad(p) = (I - P)(f - (u . grad) u)

    for divergence-free u, whose transport term is taken as the solver's
    div(u (x) u).  A u that is not divergence-free raises ``ValueError``.
    """
    _require_divfree(u, "the velocity whose pressure is recovered")
    residual = -_self_convect_stack((u.coeffs,), u.ell, u.cutoff)
    if f is not None:
        if f.ell != u.ell or f.cutoff != u.cutoff:
            raise ValueError("mismatched ell/cutoff between forcing and velocity")
        residual = f.coeffs + residual
    return gradient_potential(u.with_coeffs(residual - _project_stack(residual, u.bandwidth)))


def dual_norm(f: SpectralVectorField) -> float:
    """Negative-order norm of the divergence-free dual pairing,

        ||f|| = ( ell^3 sum_k (1 + (k,k)(2 pi/ell)^2)^(-1) |c_k(Pf)|^2 )^(1/2),

    exactly the supremum of |(f, v)_{L2}| / ||v||_{H1} over divergence-free
    v, with ||v||_{H1}^2 = ||v||^2 + ||grad v||^2.
    """
    proj = _project_stack(f.coeffs, f.bandwidth)
    ksq = wave_cubes(f.bandwidth)[3].astype(np.float64)
    weight = (1.0 + ksq * (2.0 * math.pi / f.ell) ** 2) ** -1.0
    total = float(np.sum(weight * np.abs(proj) ** 2))
    return math.sqrt(f.ell**3 * total)


def derivative_commutation_defect(u: SpectralVectorField, j: int) -> float:
    """||d_j(Pu) - P(d_j u)||_{L2}; zero up to roundoff for every field."""
    if j not in (1, 2, 3):
        raise ValueError("derivative direction j must be 1, 2 or 3")
    alpha = tuple(1 if i == j - 1 else 0 for i in range(3))
    lhs = partial_derivative(leray_project(u), alpha)
    rhs = leray_project(partial_derivative(u, alpha))
    return grad_norm(lhs - rhs, 0)
