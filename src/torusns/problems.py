"""Benchmark problems with known behavior, shared by the CLI and the tests.

Includes the single-mode shear decay (exact heat closed form, the transport
term vanishes identically), the Taylor-Green vortex, and two manufactured
setups with analytically known forcing:

  * a two-shell velocity with sinusoidal time factors and a nonzero
    zero-mean pressure, used for temporal convergence studies;
  * a shell-wise heat decay of a field with exponentially decaying
    coefficients, which solves the full nonlinear equations with forcing
    f = (u . grad) u and zero pressure; used for spatial refinement studies
    against a closed-form truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .eigenbasis import build_basis, reconstruct
from .fields import (
    SpectralVectorField,
    embed,
    random_vector_field,
    scalar_from_modes,
    truncate,
    vector_from_modes,
    wave_cubes,
)
from .galerkin import FieldTrajectory, SolverConfig, solve_navier_stokes
from .helmholtz import leray_project
from .operators import convect, grad, l2_norm_exact

__all__ = [
    "shear_field",
    "shear_decay_amplitude",
    "taylor_green_field",
    "ManufacturedProblem",
    "two_shell_problem",
    "analytic_decay_problem",
    "smooth_random_divfree",
    "temporal_order_study",
    "observed_order",
]


def shear_field(ell: float, cutoff: int, amplitude: float = 1.0) -> SpectralVectorField:
    """u = a sin(2 pi x2 / ell) e1; divergence-free, transport-free."""
    return vector_from_modes(ell, cutoff, {(0, 1, 0): (-0.5j * amplitude, 0.0, 0.0)})


def shear_decay_amplitude(t: float, mu: float, ell: float, amplitude: float = 1.0) -> float:
    """Closed-form amplitude a exp(-mu (2 pi/ell)^2 t) of the decaying shear mode."""
    return amplitude * math.exp(-mu * (2.0 * math.pi / ell) ** 2 * t)


def taylor_green_field(ell: float, cutoff: int, amplitude: float = 1.0) -> SpectralVectorField:
    """Taylor-Green vortex on the torus (shell 3, divergence-free).

    u = A (sin kx cos ky cos kz, -cos kx sin ky cos kz, 0) with k = 2 pi/ell.
    """
    if cutoff < 3:
        raise ValueError("Taylor-Green needs cutoff >= 3")
    modes: dict[tuple[int, int, int], tuple[complex, complex, complex]] = {}
    # sin a cos b cos c = sum over signs s2, s3 of (1/(8i)) (e^{i(a+s2 b+s3 c)} - c.c.)
    for s2 in (1, -1):
        for s3 in (1, -1):
            k = (1, s2, s3)
            c1 = amplitude / 8.0 * (-1j)  # sin in x1, cos elsewhere
            c2 = -amplitude / 8.0 * (-1j) * s2  # -cos sin cos pattern
            modes[k] = (c1, c2, 0.0)
    return vector_from_modes(ell, cutoff, modes)


class SinusoidalFactor:
    """g(t) = const + amp sin(omega t + phase), with analytic derivatives."""

    def __init__(self, const: float = 0.0, amp: float = 0.0, omega: float = 0.0, phase: float = 0.0):
        self.const = const
        self.amp = amp
        self.omega = omega
        self.phase = phase

    def __call__(self, t: float, order: int = 0) -> float:
        if order == 0:
            return self.const + self.amp * math.sin(self.omega * t + self.phase)
        return (
            self.amp
            * self.omega**order
            * math.sin(self.omega * t + self.phase + order * math.pi / 2.0)
        )


class ProductFactor:
    """Product of two time factors; derivatives by the Leibniz rule."""

    def __init__(self, f1, f2):
        self.f1 = f1
        self.f2 = f2

    def __call__(self, t: float, order: int = 0) -> float:
        return sum(
            math.comb(order, l) * self.f1(t, l) * self.f2(t, order - l)
            for l in range(order + 1)
        )


class ExponentialFactor:
    """g(t) = exp(rate t)."""

    def __init__(self, rate: float):
        self.rate = rate

    def __call__(self, t: float, order: int = 0) -> float:
        return self.rate**order * math.exp(self.rate * t) if order else math.exp(self.rate * t)


class _TermGroup:
    """Sum of factor(t) * field terms with the fields pre-stacked."""

    def __init__(self, terms):
        self.factors = tuple(f for f, _ in terms)
        fields = [x for _, x in terms]
        self.template = fields[0]
        self.stack = np.stack([f.coeffs for f in fields])

    def __call__(self, t: float, order: int = 0):
        weights = np.array([f(t, order) for f in self.factors])
        return self.template.with_coeffs(np.tensordot(weights, self.stack, axes=1))


@dataclass(frozen=True)
class ManufacturedProblem:
    """Prescribed solution (u*, p*) and the forcing making it exact.

    ``velocity_terms`` and ``forcing_terms`` are tuples of (time factor,
    spatial field); evaluation sums factor(t) * field.  All fields of a
    group share one cutoff, chosen large enough to hold every product mode
    that a solver at the study cutoffs can see.
    """

    ell: float
    mu: float
    velocity_terms: tuple
    pressure_terms: tuple
    forcing_terms: tuple

    def _group(self, name: str, terms) -> "_TermGroup | None":
        cache = self.__dict__.setdefault("_groups", {})
        if name not in cache:
            cache[name] = _TermGroup(terms) if terms else None
        return cache[name]

    def velocity(self, t: float) -> SpectralVectorField:
        return self._group("velocity", self.velocity_terms)(t)

    def pressure(self, t: float):
        group = self._group("pressure", self.pressure_terms)
        return None if group is None else group(t)

    def forcing(self, t: float) -> SpectralVectorField:
        return self._group("forcing", self.forcing_terms)(t)

    def forcing_derivative(self, order: int) -> Callable[[float], SpectralVectorField]:
        group = self._group("forcing", self.forcing_terms)
        return lambda t: group(t, order)

    def velocity_derivative(self, order: int) -> Callable[[float], SpectralVectorField]:
        group = self._group("velocity", self.velocity_terms)
        return lambda t: group(t, order)

    @property
    def initial(self) -> SpectralVectorField:
        return self.velocity(0.0)


def two_shell_problem(ell: float = 2.0 * math.pi, mu: float = 0.1) -> ManufacturedProblem:
    """Two-shell manufactured solution with sinusoidal time factors.

    u* = g1(t) U1 + g2(t) U2 with U1 the shear mode (shell 1) and U2 a
    divergence-free shell-2 mode; p* = h(t) P0 is zero-mean.  The forcing
    f = du*/dt - mu Lap u* + (u* . grad) u* + grad p* is exact in closed
    form, so a solver at any cutoff >= 2 reproduces u* up to time
    discretization error.
    """
    a1, a2, ap, omega = 0.5, 0.35, 0.2, 20.0
    cutoff_u = 2
    u1 = shear_field(ell, cutoff_u, a1)
    amp = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    u2 = vector_from_modes(ell, cutoff_u, {(1, 1, 0): tuple(0.5 * a2 * amp)})
    p0 = scalar_from_modes(ell, cutoff_u, {(1, 0, 0): 0.5 * ap})

    g1 = SinusoidalFactor(const=1.0, amp=0.5, omega=omega)
    g2 = SinusoidalFactor(const=0.0, amp=1.0, omega=omega, phase=math.pi / 2.0)  # cos
    h = SinusoidalFactor(const=0.0, amp=1.0, omega=omega)

    # transport products at full accuracy (all modes of the convolution kept)
    full_cut = 3 * (2 * u1.bandwidth) ** 2
    d11 = convect(u1, u1, out_cutoff=full_cut)
    d22 = convect(u2, u2, out_cutoff=full_cut)
    b12 = convect(u1, u2, out_cutoff=full_cut) + convect(u2, u1, out_cutoff=full_cut)

    cutoff = full_cut
    u1e, u2e = embed(u1, cutoff), embed(u2, cutoff)
    lap_fac = -((2.0 * math.pi / ell) ** 2)
    velocity_terms = ((g1, u1e), (g2, u2e))
    pressure_terms = ((h, p0),)

    def shifted(factor: SinusoidalFactor) -> SinusoidalFactor:
        # derivative of a sinusoid is a sinusoid a quarter period ahead
        return SinusoidalFactor(0.0, factor.amp * factor.omega, factor.omega, factor.phase + math.pi / 2.0)

    forcing_terms = (
        (shifted(g1), u1e),
        (shifted(g2), u2e),
        (g1, u1e * (-mu * lap_fac * 1.0)),  # -mu Lap U1 = mu (2pi/ell)^2 m U1, m = 1
        (g2, u2e * (-mu * lap_fac * 2.0)),  # m = 2
        (ProductFactor(g1, g1), embed(d11, cutoff)),
        (ProductFactor(g1, g2), embed(b12, cutoff)),
        (ProductFactor(g2, g2), embed(d22, cutoff)),
        (h, embed(grad(p0), cutoff)),
    )
    return ManufacturedProblem(ell, mu, velocity_terms, pressure_terms, forcing_terms)


def analytic_decay_problem(
    ell: float = 2.0 * math.pi,
    mu: float = 0.2,
    truth_cutoff: int = 16,
    amplitude: float = 0.15,
    forcing_cutoff: int = 12,
) -> ManufacturedProblem:
    """Shell-wise heat decay of an exponentially decaying coefficient field.

    With V = sum_m V_m (V_m supported on shell m, weights ~ exp(-m))
    the field u*(t) = sum_m exp(-mu m (2 pi/ell)^2 t) V_m satisfies
    du*/dt = mu Lap u*, so (u*, p* = 0) solves the nonlinear equations with
    f = (u* . grad) u*.  The forcing is expanded over shell pairs, each with
    its own exponential time factor, and kept up to ``forcing_cutoff``.
    """
    basis = build_basis(ell, truth_cutoff)
    ms, js = basis.m.tolist(), basis.j.tolist()
    coeffs = np.array([
        amplitude * math.exp(-m) * math.cos(1.7 * j + 0.3 * m) if m else 0.0
        for m, j in zip(ms, js)
    ])
    lam = mu * (2.0 * math.pi / ell) ** 2
    shell_fields = {
        m: reconstruct(basis, np.where(basis.m == m, coeffs, 0.0)) for m in sorted(set(ms) - {0})
    }

    velocity_terms = tuple(
        (ExponentialFactor(-lam * m), embed(f, truth_cutoff))
        for m, f in shell_fields.items()
    )
    forcing_terms = []
    for m1, f1 in shell_fields.items():
        for m2, f2 in shell_fields.items():
            prod = convect(f1, f2, out_cutoff=forcing_cutoff)
            if l2_norm_exact(prod) == 0.0:
                continue
            forcing_terms.append(
                (ExponentialFactor(-lam * (m1 + m2)), embed(prod, forcing_cutoff))
            )
    return ManufacturedProblem(ell, mu, velocity_terms, (), tuple(forcing_terms))


def smooth_random_divfree(
    ell: float, cutoff: int, rng: np.random.Generator, amplitude: float = 0.1
) -> SpectralVectorField:
    """Random divergence-free field with exponentially damped shells."""
    raw = random_vector_field(ell, cutoff, rng, amplitude=amplitude, zero_mean=True)
    ksq = wave_cubes(raw.bandwidth)[3].astype(np.float64)
    damp = np.exp(-0.5 * ksq)
    return leray_project(raw.with_coeffs(raw.coeffs * damp))


# ---------------------------------------------------------------------------
# Convergence studies.
# ---------------------------------------------------------------------------


def _max_l2_deviation(traj: FieldTrajectory, target: Callable[[float], SpectralVectorField]) -> float:
    return max(
        l2_norm_exact(u - target(float(t))) for t, u in zip(traj.times, traj.fields)
    )


def temporal_order_study(
    scheme: str,
    dts: Sequence[float],
    problem: ManufacturedProblem,
    cutoff: int = 4,
    horizon: float = 0.5,
) -> list[tuple[float, float]]:
    """Max-in-time L2 error against the manufactured solution per step size."""
    u0 = truncate(problem.initial, cutoff)
    out = []
    for dt in dts:
        config = SolverConfig(
            mu=problem.mu, horizon=horizon, cutoff=cutoff, dt=dt, scheme=scheme
        )
        traj = solve_navier_stokes(problem.forcing, u0, config)
        out.append((dt, _max_l2_deviation(traj, problem.velocity)))
    return out


def observed_order(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(dt)."""
    dts = np.log([p[0] for p in points])
    errs = np.log([max(p[1], 1e-300) for p in points])
    return float(np.polyfit(dts, errs, 1)[0])
