"""Evaluators for the a-priori inequalities on computed trajectories.

All time suprema are maxima over the stored samples and all time integrals
are trapezoid sums; the quadrature error is folded into the tolerances of
the callers.  The evaluators are pure and safe for parallel batch use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .fields import SpectralVectorField, truncate, wave_cubes
from .galerkin import (
    FieldTrajectory,
    Forcing,
    _forcing_function,
    _ns_stage,
    cumulative_trapezoid,
    trapezoid,
)
from .helmholtz import dual_norm, leray_project
from .operators import (
    NormTable,
    convect,
    l2_norm_exact,
    laplacian,
    multi_indices,
    norm_table,
    _quadrature_grid,
)

__all__ = [
    "PerovInput",
    "perov_bound",
    "EnergyCertificate",
    "energy_certificate",
    "LpsReport",
    "lps_admissible",
    "lps_norm",
    "lps_report",
    "BochnerScaleNorm",
    "bochner_scale_norm",
]


@dataclass(frozen=True)
class PerovInput:
    """Data of the integral inequality Y <= A + int (B Y + C Y^(1-gamma)).

    ``b_samples`` and ``c_samples`` are nonnegative functions sampled on the
    strictly increasing ``times`` grid; gamma in (0, 1], with gamma = 1 the
    classical linear (Gronwall) case.
    """

    a_const: float
    gamma: float
    times: np.ndarray
    b_samples: np.ndarray
    c_samples: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        b = np.asarray(self.b_samples, dtype=np.float64)
        c = np.asarray(self.c_samples, dtype=np.float64)
        if times.ndim != 1 or len(times) < 1:
            raise ValueError("times must be a nonempty 1d grid")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if b.shape != times.shape or c.shape != times.shape:
            raise ValueError("samples must align with the time grid")
        if self.a_const < 0 or np.any(b < 0) or np.any(c < 0):
            raise ValueError("Perov data must be nonnegative")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "b_samples", b)
        object.__setattr__(self, "c_samples", c)


def perov_bound(inp: PerovInput) -> np.ndarray:
    """Upper bound for Y at every grid point.

    gamma = 1:      A exp(int B) + int_a^t C(s) exp(int_s^t B) ds
    gamma in (0,1): ( A^g exp(g int B)
                      + g int_a^t C(s) exp(g int_s^t B) ds )^(1/g)

    Inner integrals by trapezoid quadrature on the input grid.
    """
    g = inp.gamma
    cum_b = cumulative_trapezoid(inp.b_samples, inp.times)
    if g == 1.0:
        inner = cumulative_trapezoid(inp.c_samples * np.exp(-cum_b), inp.times)
        return np.exp(cum_b) * (inp.a_const + inner)
    inner = cumulative_trapezoid(inp.c_samples * np.exp(-g * cum_b), inp.times)
    return (inp.a_const**g * np.exp(g * cum_b) + g * np.exp(g * cum_b) * inner) ** (
        1.0 / g
    )


@dataclass(frozen=True)
class EnergyCertificate:
    """Evaluated sides of the basic energy estimate.

    lhs_squared = ||u||^2_{C(I,L2)} + mu ||grad u||^2_{L2(I,L2)};
    rhs_squared = ||u0||^2 + (2/mu) ||f||^2_{L2(I,V1')} + ||f||^2_{L1(I,V1')};
    ``factor`` is the certified multiplicative constant (1 + 2 sqrt(2) for a
    vanishing drift) and ``passed`` records lhs_squared <= factor *
    rhs_squared, and is False when either side is not finite.  ``ratio``
    is the raw quotient, reported for the strict factor-one reading, which
    is not asserted.
    """

    lhs_squared: float
    rhs_squared: float
    factor: float
    ratio: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "lhs2": self.lhs_squared,
            "rhs2": self.rhs_squared,
            "factor": self.factor,
            "ratio": self.ratio,
            "pass": self.passed,
        }


def energy_certificate(
    traj: FieldTrajectory,
    f: Forcing,
    u0: SpectralVectorField | None,
    mu: float,
    w: FieldTrajectory | SpectralVectorField | None = None,
    grid_n: int | None = None,
    *,
    norms: NormTable | None = None,
) -> EnergyCertificate:
    """Evaluate both sides of the a-priori energy estimate on a trajectory.

    With a drift w the factor is
        1 + 2 sqrt(2) exp(I/mu) + (4/mu) I exp(2 I/mu),
    I = int_0^T ||w||^2_{L-infinity} dt; with w = None it reduces to
    1 + 2 sqrt(2).  The sup norm of w is a grid maximum on ``grid_n`` points,
    raised to 2B+1 for a drift of axis bandwidth B that the grid cannot
    resolve.
    ``norms`` is the trajectory's norm table, tabulated here when omitted.
    """
    if u0 is None:
        u0 = traj.initial
    if norms is None:
        norms = norm_table(traj.fields)
    times = traj.times
    forcing = _forcing_function(
        f, traj.ell, traj.horizon, partial(truncate, cutoff=traj.cutoff)
    )
    sup_u = max(norms.l2)
    grad_sq = np.array([g**2 for g in norms.grad[1]])
    lhs2 = sup_u**2 + mu * trapezoid(grad_sq, times)

    if f is None or isinstance(f, SpectralVectorField):  # fitted once: one dual norm
        dual = np.full(len(times), dual_norm(forcing(0.0), 1))
    else:
        dual = np.array([dual_norm(forcing(float(t)), 1) for t in times])
    rhs2 = (
        l2_norm_exact(u0) ** 2
        + (2.0 / mu) * trapezoid(dual**2, times)
        + trapezoid(dual, times) ** 2
    )

    if w is None:
        factor = 1.0 + 2.0 * math.sqrt(2.0)
    else:
        if isinstance(w, SpectralVectorField):
            w = FieldTrajectory(np.array([0.0, traj.horizon]), (w, w))
        bw = w.fields[0].bandwidth
        n = _quadrature_grid(bw) if grid_n is None else max(grid_n, 2 * bw + 1)
        sup_sq = np.array([x**2 for x in norm_table(w.fields, n).linf])
        integral = trapezoid(sup_sq, w.times)
        try:
            factor = (
                1.0
                + 2.0 * math.sqrt(2.0) * math.exp(integral / mu)
                + (4.0 / mu) * integral * math.exp(2.0 * integral / mu)
            )
        except OverflowError:  # I/mu beyond the float range: no finite bound
            factor = math.inf

    if rhs2 == 0.0:
        ratio = 0.0 if lhs2 == 0.0 else math.inf
    else:
        ratio = lhs2 / rhs2
    passed = (
        math.isfinite(lhs2)
        and math.isfinite(rhs2)
        and lhs2 <= factor * rhs2 * (1.0 + 1e-12) + 1e-300
    )
    return EnergyCertificate(lhs2, rhs2, factor, ratio, passed)


@dataclass(frozen=True)
class LpsReport:
    """Mixed-norm value ||u||_{L^s(I, L^r)} with the admissibility flag
    2/s + 3/r = 1, 2 <= s < infinity, 3 < r <= infinity."""

    s_exponent: float
    r_exponent: float
    admissible: bool
    value: float

    def to_dict(self) -> dict:
        return {
            "s": self.s_exponent,
            "r": self.r_exponent,
            "admissible": self.admissible,
            "value": self.value,
        }


def lps_admissible(s_exponent: float, r_exponent: float) -> bool:
    if not (2 <= s_exponent and not math.isinf(s_exponent)):
        return False
    if not (3 < r_exponent):
        return False
    three_over_r = 0.0 if math.isinf(r_exponent) else 3.0 / r_exponent
    return abs(2.0 / s_exponent + three_over_r - 1.0) <= 1e-12


def _check_lps_exponents(s_exponent: float, r_exponent: float) -> None:
    if not s_exponent >= 1:
        raise ValueError("time exponent must be >= 1 (or infinity)")
    if not r_exponent > 1:
        raise ValueError("space exponent must lie in (1, infinity]")


def lps_report(
    norms: NormTable, times: np.ndarray, s_exponent: float, r_exponent: float
) -> LpsReport:
    """Time-quadrature of the tabulated spatial L^r norms to the power s."""
    _check_lps_exponents(s_exponent, r_exponent)
    spatial = np.array(norms.lp[r_exponent])
    if math.isinf(s_exponent):
        value = float(np.max(spatial))
    else:
        value = float(trapezoid(spatial**s_exponent, times) ** (1.0 / s_exponent))
    return LpsReport(s_exponent, r_exponent, lps_admissible(s_exponent, r_exponent), value)


def lps_norm(
    traj: FieldTrajectory, s_exponent: float, r_exponent: float, n: int
) -> LpsReport:
    """Time-quadrature of the spatial L^r norm to the power s."""
    _check_lps_exponents(s_exponent, r_exponent)
    table = norm_table(traj.fields, n, (r_exponent,))
    return lps_report(table, traj.times, s_exponent, r_exponent)


@dataclass(frozen=True)
class BochnerScaleNorm:
    """Value of the parabolic-scale norm

        ( sum_{i<=k} sum_{|alpha|+2j<=2s} ||d_x^alpha d_t^j u||^2_{i,mu,T} )^(1/2)

    with ||v||^2_{i,mu,T} = sup_t ||grad^i v||^2 + mu int ||grad^(i+1) v||^2.
    """

    k: int
    s: int
    value: float

    def to_dict(self) -> dict:
        return {"k": self.k, "s": self.s, "value": self.value}


def _time_derivative_chain(
    traj: FieldTrajectory, s: int, mu: float, f_series, norms: NormTable | None = None
) -> list[list[SpectralVectorField]]:
    """Trajectories of d_t^j u for j = 0..s via the evolution equation.

    d_t^(j+1) u = mu Lap d_t^j u
                  + P( d_t^j f - sum_l C(j,l) (d_t^l u . grad) d_t^(j-l) u ),

    one kernel call per term: the sum is symmetric in l <-> j-l, so it equals
    the symmetrized form 1/2 sum_l C(j,l) B(d_t^l u, d_t^(j-l) u).  A
    generated d_t u of a sample that is solenoidal at roundoff, with
    ||div u|| <= 1e-13 ||grad u|| in ``norms`` (the trajectory's norm table,
    tabulated here when omitted and needed), is the solver's rhs sample: the
    transport term in divergence form, :func:`galerkin._ns_stage`.  Other
    samples and higher orders keep the advective kernel.
    """
    if f_series is None:
        lookups = None
    else:
        if len(f_series) < s:
            raise ValueError(
                f"requested s={s} exceeds available derivative depth "
                f"{len(f_series)} of the forcing"
            )
        fit = partial(truncate, cutoff=traj.cutoff)
        lookups = [_forcing_function(fj, traj.ell, traj.horizon, fit) for fj in f_series]
    chain: list[list[SpectralVectorField]] = [list(traj.fields)]
    if s >= 1 and traj.rhs is not None and (f_series is None or len(f_series) >= 1):
        # stored rhs samples are exactly d_t u for solver output
        chain.append(list(traj.rhs))
    zero = SpectralVectorField.zero(traj.ell, traj.cutoff)
    while len(chain) <= s:
        j = len(chain) - 1
        if j == 0:
            if norms is None:
                norms = norm_table(traj.fields)
            solenoidal = [d <= 1e-13 * g for d, g in zip(norms.div, norms.grad[1])]
        nxt = []
        for i, t in enumerate(traj.times):
            u = chain[j][i]
            fj = lookups[j](float(t)) if lookups is not None else zero
            if j == 0 and solenoidal[i]:
                # on arrays, as the solver forms its rhs sample
                stage = _ns_stage(u.coeffs, fj.coeffs, traj.ell, traj.cutoff)
                nxt.append(u.with_coeffs(laplacian(u).coeffs * float(mu) + stage))
            else:
                transport = None
                for l in range(j + 1):
                    term = convect(chain[l][i], chain[j - l][i]) * float(math.comb(j, l))
                    transport = term if transport is None else transport + term
                nxt.append(laplacian(u) * mu + leray_project(fj - transport))
        chain.append(nxt)
    return chain[: s + 1]


def bochner_scale_norm(
    traj: FieldTrajectory,
    k: int,
    s: int,
    mu: float,
    f_series: Sequence[Forcing] | None = None,
    *,
    norms: NormTable | None = None,
) -> BochnerScaleNorm:
    """Evaluate the parabolic-scale norm of a trajectory.

    ``f_series`` lists the forcing and its time derivatives (element j is
    d_t^j f); None means the run is unforced.  Time derivatives of u beyond
    the stored rhs samples are generated spectrally from the evolution
    equation, never by finite differences.  A generated d_t u takes the
    solver's divergence-form kernel on every sample whose ||div u|| is at
    most 1e-13 ||grad u||, and the advective kernel elsewhere.  ``norms`` is
    the trajectory's norm table, which that test reads; it is tabulated here
    when omitted and d_t u is generated.
    """
    if k < 0 or s < 0:
        raise ValueError("indices k and s must be nonnegative")
    chain = _time_derivative_chain(traj, s, mu, f_series, norms)
    ell = traj.ell
    bw = traj.fields[0].bandwidth
    k1, k2, k3, ksq = wave_cubes(bw)
    kappa2 = (2.0 * math.pi / ell) ** 2
    lam = (ksq * kappa2).ravel().astype(np.float64)
    axis_sq = [(k.astype(np.float64) ** 2 * kappa2).ravel() for k in (k1, k2, k3)]
    # per derivative order: |c|^2 summed over components, per sample
    power = [
        np.stack([np.sum(np.abs(u.coeffs) ** 2, axis=0).ravel() for u in lst])
        for lst in chain
    ]
    total = 0.0
    for j in range(s + 1):
        for order in range(0, 2 * s - 2 * j + 1):
            for alpha in multi_indices(order):
                a1, a2, a3 = (x**a for x, a in zip(axis_sq, alpha))
                mult = a1 * a2 * a3
                for i in range(k + 1):
                    w_sup = lam**i * mult  # 0^0 = 1 keeps the mean at i = 0
                    sup_val = float(np.max(power[j] @ w_sup))
                    w_int = lam ** (i + 1) * mult
                    int_val = trapezoid(power[j] @ w_int, traj.times)
                    total += ell**3 * (sup_val + mu * int_val)
    return BochnerScaleNorm(k, s, math.sqrt(total))
