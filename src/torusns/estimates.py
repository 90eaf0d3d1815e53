"""Evaluators for the a-priori inequalities on computed trajectories.

All time suprema are maxima over the stored samples and all time integrals
are trapezoid sums; the quadrature error is folded into the tolerances of
the callers.  The evaluators are pure and safe for parallel batch use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import SpectralVectorField, wave_cubes
from .galerkin import (
    FieldTrajectory,
    Forcing,
    _ns_stage,
    _require_cover,
    _trajectory_forcing,
    cumulative_trapezoid,
    trapezoid,
)
from .helmholtz import dual_norm
from .operators import (
    NormTable,
    _laplacian_symbol,
    _require_divfree,
    lp_norm,
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
    mu: float,
    w: FieldTrajectory | SpectralVectorField | None = None,
    *,
    norms: NormTable | None = None,
) -> EnergyCertificate:
    """Evaluate both sides of the a-priori energy estimate on a trajectory.

    u0 is the first sample.  With a drift w the factor is
        1 + 2 sqrt(2) exp(I/mu) + 4 (I/mu) exp(2 I/mu),
    I = int_0^T ||w||^2_{L-infinity} dt; with w = None it reduces to
    1 + 2 sqrt(2).  ``norms`` is the trajectory's norm table, tabulated here
    (without a grid) when omitted.  The sup norm of w is a grid maximum on
    the table's grid, or on the run's default quadrature grid when the table
    has none, raised to 2B+1 for a drift of axis bandwidth B that the grid
    cannot resolve.  A steady w is sampled once; a sampled w must cover the
    horizon.
    """
    if norms is None:
        norms = norm_table(traj.fields)
    times = traj.times
    forcing = _trajectory_forcing(f, traj)
    sup_u = max(norms.l2)
    grad_sq = np.array([g**2 for g in norms.grad[1]])
    lhs2 = sup_u**2 + mu * trapezoid(grad_sq, times)

    if f is None or isinstance(f, SpectralVectorField):  # fitted once: one dual norm
        dual = np.full(len(times), dual_norm(forcing(0.0)))
    else:
        dual = np.array([dual_norm(forcing(float(t))) for t in times])
    rhs2 = (
        norms.l2[0] ** 2
        + 2.0 * trapezoid(dual**2, times) / mu
        + trapezoid(dual, times) ** 2
    )

    if w is None:
        factor = 1.0 + 2.0 * math.sqrt(2.0)
    else:
        steady = isinstance(w, SpectralVectorField)
        grid = norms.grid or _quadrature_grid(traj.fields[0].bandwidth)
        n = max(grid, 2 * (w if steady else w.fields[0]).bandwidth + 1)
        if steady:  # T a^2 is bitwise the trapezoid (T/2)(a^2 + a^2)
            integral = traj.horizon * lp_norm(w, math.inf, n) ** 2
        else:
            _require_cover(w.times, traj.horizon, "drift")
            sup_sq = np.array([lp_norm(x, math.inf, n) ** 2 for x in w.fields])
            integral = trapezoid(sup_sq, w.times)
        try:
            factor = (
                1.0
                + 2.0 * math.sqrt(2.0) * math.exp(integral / mu)
                + 4.0 * integral / mu * math.exp(2.0 * integral / mu)
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
    traj: FieldTrajectory, s: int, mu: float, f_series
) -> list[list[np.ndarray]]:
    """Coefficient stacks of d_t^j u for j = 0..s via the evolution equation,

    d_t^(j+1) u = mu Lap d_t^j u
                  + P( d_t^j f - div sum_l C(j,l) d_t^l u (x) d_t^(j-l) u ),

    one solver stage, :func:`galerkin._ns_stage`, per sample and order.  The
    stored rhs samples are d_t u; see :func:`bochner_scale_norm` for when
    generating an order raises ``ValueError``.
    """
    if f_series is not None and len(f_series) < s:
        raise ValueError(
            f"requested s={s} exceeds available derivative depth {len(f_series)} of the forcing"
        )
    lookups = [_trajectory_forcing(fj, traj) for fj in f_series or ()]
    chain = [[u.coeffs for u in traj.fields]]
    if s >= 1 and traj.rhs is not None:
        # stored rhs samples are exactly d_t u for solver output
        chain.append([r.coeffs for r in traj.rhs])
    if len(chain) > s:
        return chain[: s + 1]
    for u in traj.fields:
        _require_divfree(u, "a trajectory sample whose time derivatives are generated")
    lapmult = _laplacian_symbol(traj.ell, traj.fields[0].bandwidth)
    zero = np.zeros_like(chain[0][0])
    ws = {}  # the kernel's grids, reused by every stage of this chain

    def next_order(stacks, j: int, t: float) -> np.ndarray:
        """d_t^(j+1) u at time t from the stacks (d_t^l u)_(l <= j) there."""
        fj = lookups[j](t).coeffs if lookups else zero
        return (stacks[j] * lapmult) * float(mu) + _ns_stage(stacks, fj, traj.ell, traj.cutoff, ws)

    if len(chain) == 2:  # the stored rhs must be this equation's d_t u
        rhs0 = chain[1][0]
        dtu0 = next_order([chain[0][0]], 0, float(traj.times[0]))
        if np.max(np.abs(dtu0 - rhs0)) > 1e-12 * np.max(np.abs(rhs0)):
            raise ValueError(
                "the stored rhs samples are not d_t u of the Navier-Stokes equation "
                "with this mu and forcing, so higher time derivatives cannot be generated"
            )
    for j in range(len(chain) - 1, s):  # zip(*chain): the orders so far, per sample
        chain.append([next_order(c, j, float(t)) for c, t in zip(zip(*chain), traj.times)])
    return chain


def bochner_scale_norm(
    traj: FieldTrajectory,
    k: int,
    s: int,
    mu: float,
    f_series: Sequence[Forcing] | None = None,
) -> BochnerScaleNorm:
    """Evaluate the parabolic-scale norm of a trajectory.

    ``f_series`` lists the forcing and its time derivatives (element j is
    d_t^j f); None means the run is unforced.  Time derivatives of u beyond
    the stored rhs samples are generated spectrally from the Navier-Stokes
    equation by the solver's stage, never by finite differences.  That
    raises ``ValueError`` for a sample that is not divergence-free, and for
    a stored rhs that is not this equation's d_t u at the first sample (as
    of a drift-linearized run), to 1e-12 of its largest coefficient.
    """
    if k < 0 or s < 0:
        raise ValueError("indices k and s must be nonnegative")
    chain = _time_derivative_chain(traj, s, mu, f_series)
    ell, bw = traj.ell, traj.fields[0].bandwidth
    k1, k2, k3, _ = wave_cubes(bw)
    kappa2 = (2.0 * math.pi / ell) ** 2
    lam = -_laplacian_symbol(ell, bw).ravel()
    axis_sq = [(k.astype(np.float64) ** 2 * kappa2).ravel() for k in (k1, k2, k3)]
    # per derivative order: |c|^2 summed over components, per sample
    power = [np.stack([np.sum(np.abs(c) ** 2, axis=0).ravel() for c in lst]) for lst in chain]
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
