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

from .fields import SpectralVectorField, truncate_vector, wave_cubes
from .galerkin import (
    FieldTrajectory,
    Forcing,
    _forcing_function,
    cumulative_trapezoid,
    trapezoid,
)
from .helmholtz import dual_norm, leray_project
from .operators import (
    dj_norm,
    grad_norm,
    l2_norm_exact,
    laplacian,
    lp_norm,
    multi_indices,
    self_convection,
    symmetrized_convection,
    _fast_len,
)

__all__ = [
    "PerovInput",
    "perov_bound",
    "EnergyCertificate",
    "energy_certificate",
    "LpsReport",
    "lps_admissible",
    "lps_norm",
    "BochnerScaleNorm",
    "bochner_scale_norm",
    "gn_report",
    "nonlinear_term_bound_report",
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
) -> EnergyCertificate:
    """Evaluate both sides of the a-priori energy estimate on a trajectory.

    With a drift w the factor is
        1 + 2 sqrt(2) exp(I/mu) + (4/mu) I exp(2 I/mu),
    I = int_0^T ||w||^2_{L-infinity} dt; with w = None it reduces to
    1 + 2 sqrt(2).  The sup norm of w is a grid maximum on ``grid_n``.
    """
    if u0 is None:
        u0 = traj.initial
    times = traj.times
    forcing = _forcing_function(
        f, traj.ell, traj.horizon, partial(truncate_vector, cutoff=traj.cutoff)
    )
    sup_u = max(l2_norm_exact(u) for u in traj.fields)
    grad_sq = np.array([grad_norm(u, 1) ** 2 for u in traj.fields])
    lhs2 = sup_u**2 + mu * trapezoid(grad_sq, times)

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
        if grid_n is None:
            grid_n = _fast_len(max(2 * w.fields[0].bandwidth + 1, 16))
        sup_sq = np.array([lp_norm(x, math.inf, grid_n) ** 2 for x in w.fields])
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


def lps_norm(
    traj: FieldTrajectory, s_exponent: float, r_exponent: float, n: int
) -> LpsReport:
    """Time-quadrature of the spatial L^r norm to the power s."""
    if not s_exponent >= 1:
        raise ValueError("time exponent must be >= 1 (or infinity)")
    if not r_exponent > 1:
        raise ValueError("space exponent must lie in (1, infinity]")
    spatial = np.array([lp_norm(u, r_exponent, n) for u in traj.fields])
    if math.isinf(s_exponent):
        value = float(np.max(spatial))
    else:
        value = float(trapezoid(spatial**s_exponent, traj.times) ** (1.0 / s_exponent))
    return LpsReport(s_exponent, r_exponent, lps_admissible(s_exponent, r_exponent), value)


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
) -> list[list[SpectralVectorField]]:
    """Trajectories of d_t^j u for j = 0..s via the evolution equation.

    d_t^(j+1) u = mu Lap d_t^j u
                  + P( d_t^j f - 1/2 sum_l C(j,l) B(d_t^l u, d_t^(j-l) u) ).
    """
    if f_series is None:
        lookups = None
    else:
        if len(f_series) < s:
            raise ValueError(
                f"requested s={s} exceeds available derivative depth "
                f"{len(f_series)} of the forcing"
            )
        fit = partial(truncate_vector, cutoff=traj.cutoff)
        lookups = [_forcing_function(fj, traj.ell, traj.horizon, fit) for fj in f_series]
    chain: list[list[SpectralVectorField]] = [list(traj.fields)]
    if s >= 1 and traj.rhs is not None and (f_series is None or len(f_series) >= 1):
        # stored rhs samples are exactly d_t u for solver output
        chain.append(list(traj.rhs))
    zero = SpectralVectorField.zero(traj.ell, traj.cutoff)
    while len(chain) <= s:
        j = len(chain) - 1
        nxt = []
        for i, t in enumerate(traj.times):
            transport = None
            for l in range(j + 1):
                term = symmetrized_convection(chain[l][i], chain[j - l][i]) * (
                    0.5 * math.comb(j, l)
                )
                transport = term if transport is None else transport + term
            fj = lookups[j](float(t)) if lookups is not None else zero
            nxt.append(laplacian(chain[j][i]) * mu + leray_project(fj - transport))
        chain.append(nxt)
    return chain[: s + 1]


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
    the stored rhs samples are generated spectrally from the evolution
    equation, never by finite differences.
    """
    if k < 0 or s < 0:
        raise ValueError("indices k and s must be nonnegative")
    chain = _time_derivative_chain(traj, s, mu, f_series)
    ell = traj.ell
    bw = traj.fields[0].bandwidth
    k1, k2, k3, ksq = wave_cubes(bw)
    kappa2 = (2.0 * math.pi / ell) ** 2
    lam = (ksq * kappa2).ravel().astype(np.float64)
    axis_sq = [
        (k1.astype(np.float64) ** 2 * kappa2).ravel(),
        (k2.astype(np.float64) ** 2 * kappa2).ravel(),
        (k3.astype(np.float64) ** 2 * kappa2).ravel(),
    ]
    # per derivative order: |c|^2 summed over components, per sample
    power = [
        np.stack([np.sum(np.abs(u.coeff_stack()) ** 2, axis=0).ravel() for u in lst])
        for lst in chain
    ]
    total = 0.0
    for j in range(s + 1):
        for order in range(0, 2 * s - 2 * j + 1):
            for alpha in multi_indices(order):
                mult = (
                    axis_sq[0] ** alpha[0]
                    * axis_sq[1] ** alpha[1]
                    * axis_sq[2] ** alpha[2]
                )
                for i in range(k + 1):
                    w_sup = lam**i * mult  # 0^0 = 1 keeps the mean at i = 0
                    sup_val = float(np.max(power[j] @ w_sup))
                    w_int = lam ** (i + 1) * mult
                    int_val = trapezoid(power[j] @ w_int, traj.times)
                    total += ell**3 * (sup_val + mu * int_val)
    return BochnerScaleNorm(k, s, math.sqrt(total))


def gn_report(
    u,
    j0: int,
    k0: int,
    p0: float,
    q0: float,
    r0: float,
    s0: float,
    a: float,
    c1: float,
    c2: float,
    n: int,
) -> dict:
    """Interpolation-inequality diagnostic: evaluates

        lhs = ||grad^j0 u||_{L^p0}
        rhs = c1 ||grad^k0 u||^a_{L^r0} ||u||^(1-a)_{L^q0} + c2 ||u||_{L^s0}

    after checking the exponent condition
        1/p0 = j0/3 + a (1/r0 - k0/3) + (1-a)/q0,   j0/k0 <= a <= 1.

    The sharp constants are not known numerically, so only the ratio is
    reported; no pass/fail status is attached.
    """
    if min(p0, q0, r0) < 1 or s0 < 1:
        raise ValueError("inadmissible exponents: Lebesgue exponents must be >= 1")
    if k0 < 1 or j0 < 0:
        raise ValueError("inadmissible exponents: need k0 >= 1 and j0 >= 0")
    if not (j0 / k0 <= a + 1e-12 and 0 <= a <= 1):
        raise ValueError("inadmissible exponents: need j0/k0 <= a <= 1")

    def recip(x: float) -> float:
        return 0.0 if math.isinf(x) else 1.0 / x

    balance = j0 / 3.0 + a * (recip(r0) - k0 / 3.0) + (1.0 - a) * recip(q0)
    if abs(recip(p0) - balance) > 1e-12:
        raise ValueError("inadmissible exponents: dimensional balance violated")
    lhs = dj_norm(u, j0, p0, n)
    rhs = c1 * dj_norm(u, k0, r0, n) ** a * lp_norm(u, q0, n) ** (1.0 - a) + c2 * lp_norm(
        u, s0, n
    )
    if lhs == 0.0:
        ratio = 0.0
    elif rhs == 0.0:
        ratio = math.inf
    else:
        ratio = lhs / rhs
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio}


def nonlinear_term_bound_report(
    u: SpectralVectorField,
    k: int,
    s_exponent: float,
    r_exponent: float,
    eps: float,
    n: int,
) -> dict:
    """Left side and the four right-side quantities of the transport-term
    derivative estimate; constants are unspecified, so this is a diagnostic
    for empirical constant fitting, without a pass/fail verdict.

    lhs = ||(-Lap)^(k/2) (u . grad) u||^2_{L2}, with the product kept at
    full accuracy (not truncated to the input cutoff).
    """
    full_cut = 3 * (2 * u.bandwidth) ** 2
    transport = self_convection(u, out_cutoff=full_cut)
    lhs = grad_norm(transport, k) ** 2
    l2 = l2_norm_exact(u)
    lr = lp_norm(u, r_exponent, n)
    terms = {
        "laplacian_term": eps * grad_norm(u, k + 2) ** 2,
        "lps_weighted_gradient": lr**s_exponent * grad_norm(u, k + 1) ** 2,
        "l2_lr_product": l2**2 * lr**2,
        "l2_term": l2**2,
    }
    return {"lhs": lhs, "rhs_terms": terms}
