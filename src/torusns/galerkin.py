"""Faedo-Galerkin time integration on the shell-truncated spaces.

Two problems are integrated:

  * the drift-linearized momentum equation, reduced to the real ODE system
    dc/dt + A(t) c = f(t) over the divergence-free eigenbasis, where
    A(t) = diag(mu m (2 pi/ell)^2) + W(t) couples the modes through the
    drift w; for autonomous A the matrix-exponential solution is available
    as an independent cross-check;

  * the nonlinear equation in evolution form,
    du/dt = mu Lap u + P(f - (u . grad) u),
    advanced in coefficient space with the diffusion handled exactly by an
    integrating factor (IF_RK4) or implicitly (IMEX_EULER), the transport
    term dealiased and the Leray projection applied at every stage.  The
    loop works on coefficient stacks and evaluates the transport kernel
    4 times per IF_RK4 step and once per IMEX_EULER step, plus once for
    the t = 0 rhs sample: N(u_{n+1}) = P(f(t_{n+1}) - (u_{n+1} . grad) u_{n+1})
    is the stored rhs sample (when stored) and the next step's k1.

Forcing may be supplied as a steady field, a time-sampled trajectory
(mid-step values by linear interpolation), or a callable t -> field
(evaluated exactly at the stage times); sampled forcing and sampled
drifts share one interpolation rule, :func:`_interpolate`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .eigenbasis import DivFreeBasis, project_coefficients, reconstruct
from .fields import (
    _FMT,
    SpectralScalarField,
    SpectralVectorField,
    bandwidth_of,
    embed_vector,
    line_number,
    next_line,
    parse_field_block,
    truncate_vector,
    wave_cubes,
    write_field,
)
from .operators import (
    _convect_stack,
    _fast_len,
    div,
    grad,
    grad_norm,
    inner_l2,
    l2_norm_exact,
    laplacian,
    lp_norm,
    self_convection,
)
from .helmholtz import _project_stack

__all__ = [
    "SolverAbort",
    "SolverConfig",
    "FieldTrajectory",
    "LinearizedOperator",
    "assemble_linearized",
    "solve_linearized",
    "linearized_closed_form",
    "solve_navier_stokes",
    "residual",
    "energy_identity_defect",
    "matrix_exponential",
    "save_trajectory",
    "load_trajectory",
    "cumulative_trapezoid",
    "trapezoid",
]

SCHEMES = ("imex_euler", "if_rk4")


class SolverAbort(RuntimeError):
    """Raised when an integration cannot continue (blow-up, rejected step)."""


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration parameters.

    Attributes
    ----------
    mu : viscosity, positive and finite.
    horizon : final time T, positive and finite.
    cutoff : spectral shell cutoff M of the Galerkin space.
    dt : time step, positive and finite (the actual step is T/N with
        N = round(T/dt), which must be a finite number).
    scheme : 'imex_euler' or 'if_rk4'.
    step_tolerance : when set, every step is checked by step doubling and
        the run aborts if the local error estimate exceeds this value.
    attach_error_estimate : when True the integration is repeated at dt/2
        and the maximal L2 deviation is attached to the trajectory.
    store_every : keep every n-th step in the returned trajectory.

    The transport products always use the smallest alias-free grid, and a
    run warns once (RuntimeWarning) when the advective CFL number
    ||u||_inf dt (2 pi/ell) max|k| exceeds 0.5.
    """

    mu: float
    horizon: float
    cutoff: int
    dt: float
    scheme: str = "if_rk4"
    step_tolerance: float | None = None
    attach_error_estimate: bool = False
    store_every: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.mu < math.inf:
            raise ValueError("viscosity mu must be positive and finite")
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon T must be positive and finite")
        if not 0 < self.dt < math.inf:
            raise ValueError("time step dt must be positive and finite")
        if not math.isfinite(self.horizon / self.dt):
            raise ValueError("the step count T/dt is not a finite number")
        if self.dt > self.horizon * (1 + 1e-12):
            raise ValueError("time step dt must not exceed the horizon")
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        scheme = self.scheme.lower()
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        object.__setattr__(self, "scheme", scheme)
        if self.store_every < 1:
            raise ValueError("store_every must be a positive integer")

    @property
    def nsteps(self) -> int:
        return max(1, round(self.horizon / self.dt))

    @property
    def dt_effective(self) -> float:
        return self.horizon / self.nsteps


@dataclass(frozen=True)
class FieldTrajectory:
    """Time samples of a vector field on [0, T], optionally with du/dt."""

    times: np.ndarray
    fields: tuple[SpectralVectorField, ...]
    rhs: tuple[SpectralVectorField, ...] | None = None
    error_estimate: float | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        if times.ndim != 1 or len(times) != len(self.fields):
            raise ValueError("times and fields must have matching lengths")
        if len(times) < 1:
            raise ValueError("a trajectory needs at least one sample")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        if abs(times[0]) > 1e-12 * max(1.0, abs(times[-1])):
            raise ValueError("trajectories start at t = 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        f0 = self.fields[0]
        for f in self.fields:
            if f.ell != f0.ell or f.cutoff != f0.cutoff:
                raise ValueError("all trajectory fields must share ell and cutoff")
        if self.rhs is not None and len(self.rhs) != len(self.fields):
            raise ValueError("rhs samples must align with the fields")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "fields", tuple(self.fields))
        if self.rhs is not None:
            object.__setattr__(self, "rhs", tuple(self.rhs))

    @property
    def ell(self) -> float:
        return self.fields[0].ell

    @property
    def cutoff(self) -> int:
        return self.fields[0].cutoff

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.fields)

    @property
    def initial(self) -> SpectralVectorField:
        return self.fields[0]

    @property
    def final(self) -> SpectralVectorField:
        return self.fields[-1]

    def at(self, t: float) -> SpectralVectorField:
        """Linear interpolation in coefficient space (rule of :func:`_interpolate`)."""
        return _interpolate(self.times, self.fields, t)

    def scaled(self, factor: float) -> "FieldTrajectory":
        return FieldTrajectory(
            self.times,
            tuple(f * factor for f in self.fields),
            None if self.rhs is None else tuple(f * factor for f in self.rhs),
        )


Forcing = (
    SpectralVectorField
    | FieldTrajectory
    | Callable[[float], SpectralVectorField]
    | None
)


def trapezoid(values: np.ndarray, times: np.ndarray) -> float:
    """Trapezoid quadrature over a (possibly nonuniform) time grid."""
    values = np.asarray(values, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if len(values) < 2:
        return 0.0
    dt = np.diff(times)
    return float(np.sum(0.5 * dt * (values[1:] + values[:-1])))


def cumulative_trapezoid(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    out = np.zeros_like(values)
    if len(values) > 1:
        dt = np.diff(times)
        out[1:] = np.cumsum(0.5 * dt * (values[1:] + values[:-1]))
    return out


# ---------------------------------------------------------------------------
# Sampled data in time and forcing lookup.
# ---------------------------------------------------------------------------


def _interpolate(times: np.ndarray, samples, t: float):
    """Linear interpolation at time t of ``samples`` (arrays or fields) taken
    at the increasing ``times``.

    A lone sample is constant.  Otherwise a time more than 1e-9 outside the
    span [times[0], T] raises ValueError, and a time at a sample or at most
    1e-12 max(1, T) below it returns that sample itself.
    """
    if len(times) == 1:
        return samples[0]
    last = times[-1]
    if t < times[0] - 1e-9 or t > last + 1e-9 * max(1.0, last):
        raise ValueError(f"time {t} outside the sampled span [{times[0]}, {last}]")
    i = int(np.searchsorted(times, t))
    if i < len(times) and abs(times[i] - t) <= 1e-12 * max(1.0, last):
        return samples[i]
    i = min(max(i, 1), len(times) - 1)
    theta = (t - times[i - 1]) / (times[i] - times[i - 1])
    return (1 - theta) * samples[i - 1] + theta * samples[i]


def _require_cover(times: np.ndarray, horizon: float, what: str) -> None:
    if len(times) > 1 and times[-1] < horizon * (1 - 1e-9):
        raise ValueError(f"{what} samples do not cover the integration horizon")


def _forcing_function(
    f: Forcing, ell: float, horizon: float, fit: Callable[[SpectralVectorField], object]
) -> Callable[[float], object]:
    """Normalize the forcing input to t -> fit(f(t)).

    ``fit`` turns a forcing field of period ell into what the caller works
    with: a truncated field, a coefficient stack or basis coefficients.
    Absent forcing is the zero field; absent and steady forcing are fitted
    once.  Sampled forcing is interpolated by :meth:`FieldTrajectory.at` and
    must cover [0, horizon]; a callable is evaluated at every t.
    """

    def checked(field: SpectralVectorField):
        if field.ell != ell:
            raise ValueError("incompatible domains: forcing period differs")
        return fit(field)

    if f is None:
        f = SpectralVectorField.zero(ell, 0)
    if isinstance(f, SpectralVectorField):
        steady = checked(f)
        return lambda t: steady
    if isinstance(f, FieldTrajectory):
        _require_cover(f.times, horizon, "forcing")
        return lambda t: checked(f.at(t))
    if callable(f):
        return lambda t: checked(f(t))
    raise TypeError(f"unsupported forcing specification: {type(f)!r}")


def _require_divfree(u: SpectralVectorField, what: str) -> None:
    scale = l2_norm_exact(u) + 1e-30
    if l2_norm_exact(div(u)) > 1e-10 * scale * (1.0 + u.bandwidth):
        raise ValueError(f"{what} must be divergence-free")


# ---------------------------------------------------------------------------
# Nonlinear solver.
# ---------------------------------------------------------------------------


def solve_navier_stokes(
    f: Forcing, u0: SpectralVectorField, config: SolverConfig
) -> FieldTrajectory:
    """Integrate du/dt = mu Lap u + P(f - (u . grad) u) on shells <= cutoff.

    The returned trajectory is divergence-free at every sample and carries
    the evolution right-hand side as rhs samples.  Aborts with
    :class:`SolverAbort` on suspected blow-up (non-finite or exploding
    coefficients) and, when ``step_tolerance`` is set, on step rejection.
    """
    traj = _integrate_ns(f, u0, config)
    if config.attach_error_estimate:
        fine = _integrate_ns(
            f, u0, replace(config, dt=config.dt_effective / 2, attach_error_estimate=False)
        )
        est = _trajectory_deviation(traj, fine)
        traj = FieldTrajectory(traj.times, traj.fields, traj.rhs, error_estimate=est)
    return traj


def _trajectory_deviation(coarse: FieldTrajectory, fine: FieldTrajectory) -> float:
    stride = (len(fine) - 1) // (len(coarse) - 1) if len(coarse) > 1 else 1
    return max(
        l2_norm_exact(coarse.fields[i] - fine.fields[i * stride])
        for i in range(len(coarse))
    )


def _integrate_ns(
    f: Forcing, u0: SpectralVectorField, config: SolverConfig
) -> FieldTrajectory:
    ell, cutoff = u0.ell, config.cutoff
    if u0.cutoff > cutoff:
        raise ValueError(
            f"initial field cutoff {u0.cutoff} exceeds solver cutoff {cutoff}"
        )
    _require_divfree(u0, "initial field")
    u = embed_vector(u0, cutoff)
    forcing = _forcing_function(
        f, ell, config.horizon, lambda g: truncate_vector(g, cutoff).coeff_stack()
    )

    mu = config.mu
    bw = bandwidth_of(cutoff)
    ksq = wave_cubes(bw)[3].astype(np.float64)
    lam = ksq * (2.0 * math.pi / ell) ** 2
    # the multiplier of operators.laplacian, for the stored rhs samples
    lapmult = -((2.0 * math.pi / ell) ** 2) * wave_cubes(bw)[3]
    dt = config.dt_effective
    nsteps = config.nsteps
    e_half = np.exp(-mu * lam * dt / 2.0)
    e_full = e_half * e_half
    imex_denom = 1.0 + dt * mu * lam
    blowup_scale = 1e8 * (l2_norm_exact(u) + 1.0)
    cfl_grid = _fast_len(max(2 * bw + 1, 8))
    warned_cfl = False

    def nonlinear(c: np.ndarray, t: float) -> np.ndarray:
        """P(f(t) - (u . grad) u) for the coefficient stack c of u."""
        return _project_stack(forcing(t) - _convect_stack(c, c, ell, cutoff), bw)

    def step(c: np.ndarray, k1: np.ndarray, t: float, h: float) -> np.ndarray:
        """Advance c from t by h; k1 is nonlinear(c, t)."""
        if config.scheme == "imex_euler":
            return (c + h * k1) / (imex_denom if h == dt else 1.0 + h * mu * lam)
        eh = e_half if h == dt else np.exp(-mu * lam * h / 2.0)
        ef = e_full if h == dt else eh * eh
        k2 = nonlinear(eh * (c + 0.5 * h * k1), t + 0.5 * h)
        k3 = nonlinear(eh * c + 0.5 * h * k2, t + 0.5 * h)
        k4 = nonlinear(ef * c + h * eh * k3, t + h)
        return ef * c + (h / 6.0) * (ef * k1 + 2.0 * eh * (k2 + k3) + k4)

    def wrap(stack: np.ndarray) -> SpectralVectorField:
        return SpectralVectorField.from_stack(ell, cutoff, stack)

    c = u.coeff_stack()
    # N = nonlinear(c, t) at the current time: the rhs sample's transport
    # part and the next step's k1
    N = nonlinear(c, 0.0)
    times = [0.0]
    fields = [u]
    rhs_samples = [wrap((c * lapmult) * float(mu) + N)]
    for n in range(nsteps):
        t = n * dt
        if not warned_cfl and n % 25 == 0:
            umax = lp_norm(wrap(c), math.inf, cfl_grid)
            if umax * dt * (2.0 * math.pi / ell) * bw > 0.5:
                warnings.warn(
                    f"advective CFL number exceeds 0.5 at t={t:.6g}; "
                    "results may be inaccurate",
                    RuntimeWarning,
                    stacklevel=2,
                )
                warned_cfl = True
        c_next = step(c, N, t, dt)
        if config.step_tolerance is not None:
            h = dt / 2.0
            mid = step(c, N, t, h)
            half = step(mid, nonlinear(mid, t + h), t + h, h)
            est = float(np.max(np.abs(c_next - half)))
            if est > config.step_tolerance:
                raise SolverAbort(
                    f"step rejected at t={t:.6g}: local error estimate "
                    f"{est:.3e} exceeds tolerance {config.step_tolerance:.3e}"
                )
        c = c_next
        norm = math.sqrt(ell**3 * float(np.sum(np.abs(c) ** 2)))  # l2_norm_exact
        if not np.all(np.isfinite(c)) or norm > blowup_scale:
            raise SolverAbort(f"blow-up suspected at t={(n + 1) * dt:.6g}")
        tn = (n + 1) * dt
        N = nonlinear(c, tn)
        if (n + 1) % config.store_every == 0 or n + 1 == nsteps:
            times.append(tn)
            fields.append(wrap(c))
            rhs_samples.append(wrap((c * lapmult) * float(mu) + N))
    return FieldTrajectory(np.array(times), tuple(fields), tuple(rhs_samples))


# ---------------------------------------------------------------------------
# Linearized problem: assembly and integration over the eigenbasis.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearizedOperator:
    """Dense Galerkin matrices A(t) of the drift-linearized problem.

    ``matrices[i]`` is the full matrix at ``times[i]`` including the diagonal
    diffusion part ``diffusion`` = mu m (2 pi/ell)^2; the drift coupling is
    ``matrices[i] - diag(diffusion)``.
    """

    basis: DivFreeBasis
    mu: float
    times: np.ndarray
    matrices: np.ndarray
    diffusion: np.ndarray

    def drift_part(self, i: int) -> np.ndarray:
        return self.matrices[i] - np.diag(self.diffusion)

    def at(self, t: float) -> np.ndarray:
        """Full matrix at time t (rule of :func:`_interpolate`)."""
        return _interpolate(self.times, self.matrices, t)


def _basis_modes(basis: DivFreeBasis) -> tuple[np.ndarray, np.ndarray]:
    """k_b and c_b = c_{k_b} of every divergence-free basis field, k_b the
    larger of its +-k pair; c_b is halved at k_b = 0, a pair of one mode,
    so that a sum over both signs of k_b counts that mode once."""
    side = 2 * bandwidth_of(basis.cutoff) + 1
    center = side**3 // 2
    half = basis._divfree_matrix.reshape(basis.dim, 3, side**3)[:, :, center:]
    support = np.any(half != 0, axis=1)
    if np.any(support.sum(axis=1) != 1):
        raise ValueError("every basis field must be a single +-k pair")
    rep = np.argmax(support, axis=1)
    kvec = np.stack(np.unravel_index(center + rep, (side,) * 3), axis=1) - side // 2
    coef = half[np.arange(basis.dim), :, rep]
    coef[rep == 0] /= 2
    return kvec.astype(np.float64), coef


def assemble_linearized(
    w: FieldTrajectory | SpectralVectorField,
    basis: DivFreeBasis,
    mu: float,
    check_tol: float = 1e-11,
) -> LinearizedOperator:
    """Galerkin matrices of the drift coupling plus diagonal diffusion.

    Entry (a, b) of the coupling is (w . grad v_b, v_a) + (v_b . grad w, v_a),
    summed in Fourier space over the triads r = p + q, r = +-k_a, q = +-k_b:
    each basis field is one +-k pair, so only the drift modes k_a -+ k_b
    enter.  The identity (v_b . grad w, v_a) + (w, v_b . grad v_a) =
    -((div v_b) w, v_a) = 0 is checked, which rejects a basis field that is
    not solenoidal; a drift that is not solenoidal is rejected by its
    divergence.
    """
    if isinstance(w, SpectralVectorField):
        w = FieldTrajectory(np.zeros(1), (w,))
    times, samples = w.times, w.fields
    for s in samples:
        if s.ell != basis.ell:
            raise ValueError("incompatible domains: drift period differs from basis")
        _require_divfree(s, "drift field")

    kvec, coef = _basis_modes(basis)
    conj = coef.conj()
    # |k_a +- k_b|^2 <= 4 M: drift modes beyond that never couple the basis
    w_cutoff = 4 * basis.cutoff
    side = 2 * bandwidth_of(w_cutoff) + 1
    # flat position in the centered cube is linear in k (mixed radix)
    lin = (kvec @ np.array([side * side, side, 1.0])).astype(np.intp)
    at_diff = side**3 // 2 + lin[:, None] - lin[None, :]
    at_sum = side**3 // 2 + lin[:, None] + lin[None, :]
    # [a, b] entries: c_b . conj c_a, conj c_b . conj c_a, c_b . k_a; and c_b . k_b
    gram, gram_bar, ka_cb = conj @ coef.T, conj @ conj.T, kvec @ coef.T
    kb_cb = np.einsum("bj,bj->b", kvec, coef)
    # the four sign pairs of (r, q) come in conjugate pairs, so an entry is
    # 2 Re of the terms at (k_a, k_b) and (k_a, -k_b), each i kappa ell^3 X:
    # entry = -2 kappa ell^3 Im X
    fac = -4.0 * math.pi * basis.ell**2
    matrices = np.empty((len(times), basis.dim, basis.dim))
    for it, wt in enumerate(samples):
        wflat = truncate_vector(wt, w_cutoff).coeff_stack().reshape(3, -1)
        w_diff, w_sum = wflat[:, at_diff], wflat[:, at_sum]
        wd_ca = np.einsum("jab,aj->ab", w_diff, conj)
        ws_ca = np.einsum("jab,aj->ab", w_sum, conj)
        # (w . grad v_b, v_a): (w_p . q)(c_q . conj c_a)
        t1 = fac * np.imag(
            np.einsum("jab,bj->ab", w_diff, kvec) * gram
            - np.einsum("jab,bj->ab", w_sum, kvec) * gram_bar
        )
        # (v_b . grad w, v_a): (c_q . p)(w_p . conj c_a)
        t2 = fac * np.imag((ka_cb - kb_cb) * wd_ca + np.conj(ka_cb + kb_cb) * ws_ca)
        # (w, v_b . grad v_a): -(c_q . r)(w_p . conj c_a)
        s2 = -fac * np.imag(ka_cb * wd_ca + np.conj(ka_cb) * ws_ca)
        scale = max(1.0, float(np.max(np.abs(t1)) + np.max(np.abs(t2))))
        defect = float(np.max(np.abs(t2 + s2)))
        if defect > check_tol * scale:
            raise ValueError(
                f"coupling-form identity violated (defect {defect:.3e}); "
                "a basis field is not solenoidal"
            )
        matrices[it] = t1 + t2
    diffusion = mu * basis.shell_values() * (2.0 * math.pi / basis.ell) ** 2
    matrices += np.diag(diffusion)[None, :, :]
    return LinearizedOperator(basis, mu, times, matrices, diffusion)


def solve_linearized(
    op: LinearizedOperator,
    f: Forcing,
    u0: SpectralVectorField,
    config: SolverConfig,
) -> FieldTrajectory:
    """Integrate dc/dt + A(t) c = f(t) over the eigenbasis coefficients.

    A step-halving convergence estimate is attached to the trajectory.  For
    autonomous operators compare against :func:`linearized_closed_form`.
    A drift sampled at several times must cover the horizon.
    """
    basis = op.basis
    _require_cover(op.times, config.horizon, "drift")
    _require_divfree(u0, "initial field")
    c0 = project_coefficients(u0, basis)
    gfun = _forcing_function(
        f,
        basis.ell,
        config.horizon,
        lambda g: project_coefficients(truncate_vector(g, basis.cutoff), basis),
    )
    coarse_times, coarse = _integrate_linear(op, gfun, c0, config, config.dt_effective)
    fine_times, fine = _integrate_linear(op, gfun, c0, config, config.dt_effective / 2)
    est = float(np.max(np.abs(coarse - fine[::2])))

    fields = tuple(reconstruct(basis, c) for c in coarse)
    rhs = tuple(
        reconstruct(basis, gfun(t) - op.at(t) @ c) for t, c in zip(coarse_times, coarse)
    )
    return FieldTrajectory(coarse_times, fields, rhs, error_estimate=est)


def _integrate_linear(
    op: LinearizedOperator,
    gfun: Callable[[float], np.ndarray],
    c0: np.ndarray,
    config: SolverConfig,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    nsteps = max(1, round(config.horizon / dt))
    dt = config.horizon / nsteps
    diff = op.diffusion
    eh = np.exp(-diff * dt / 2.0)
    ef = eh * eh

    def gee(c: np.ndarray, t: float) -> np.ndarray:
        # the drift part (A(t) - diag(diff)) c, without forming the matrix
        return gfun(t) - op.at(t) @ c + diff * c

    c = c0.copy()
    out = [c0.copy()]
    times = [0.0]
    for nstep in range(nsteps):
        t = nstep * dt
        if config.scheme == "imex_euler":
            c = (c + dt * gee(c, t)) / (1.0 + dt * diff)
        else:
            k1 = gee(c, t)
            k2 = gee(eh * (c + 0.5 * dt * k1), t + 0.5 * dt)
            k3 = gee(eh * c + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = gee(ef * c + dt * eh * k3, t + dt)
            c = ef * c + (dt / 6.0) * (ef * k1 + 2.0 * eh * (k2 + k3) + k4)
        if not np.all(np.isfinite(c)):
            raise SolverAbort(f"blow-up suspected at t={(nstep + 1) * dt:.6g}")
        times.append((nstep + 1) * dt)
        out.append(c.copy())
    return np.array(times), np.stack(out)


def matrix_exponential(a: np.ndarray, tol: float = 1e-16) -> np.ndarray:
    """exp(a) by scaling and squaring with a truncated Taylor series.

    The series is summed until the term norm falls below ``tol`` relative to
    the partial sum (well beyond 1e-12 accuracy for the scaled matrix).
    """
    a = np.asarray(a, dtype=np.float64)
    dim = a.shape[0]
    norm = float(np.linalg.norm(a, 1))
    nsq = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    scaled = a / 2.0**nsq
    result = np.eye(dim)
    term = np.eye(dim)
    for k in range(1, 60):
        term = term @ scaled / k
        result = result + term
        if np.linalg.norm(term, 1) <= tol * max(1.0, np.linalg.norm(result, 1)):
            break
    for _ in range(nsq):
        result = result @ result
    return result


def linearized_closed_form(
    op: LinearizedOperator,
    f_const: np.ndarray | None,
    c0: np.ndarray,
    times: Sequence[float],
) -> np.ndarray:
    """Matrix-exponential solution for an autonomous operator.

    c(t) = exp(-t A) c0 + int_0^t exp(-(t - s) A) g ds for constant g is the
    top of z(t) = exp(t B) [c0; 1] with the augmented matrix
    B = [[-A, g], [0, 0]].  By the semigroup property the times are walked in
    order from t = 0: each spacing h = t_i - t_(i-1) advances z by
    Phi(h) = exp(h B), one matrix-vector product.  Phi is recomputed only
    when h differs from the spacing it was computed for by more than a few
    ulp of t_i, so the uniform times of the solver, jittered by roundoff,
    cost one exponential; a repeated time costs nothing.  The times must be
    finite and nondecreasing from 0.
    """
    if len(op.times) != 1:
        raise ValueError("closed form requires an autonomous (single-sample) operator")
    times = np.asarray(times, dtype=np.float64)
    if not np.all(np.isfinite(times)):
        raise ValueError("closed-form times must be finite")
    steps = np.diff(times, prepend=0.0)
    if np.any(steps < 0):
        raise ValueError("closed-form times must be nondecreasing from t = 0")
    a = op.matrices[0]
    dim = a.shape[0]
    out = np.empty((len(times), dim))
    g = np.zeros(dim) if f_const is None else np.asarray(f_const, dtype=np.float64)
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = -a
    aug[:dim, dim] = g
    z = np.append(np.asarray(c0, dtype=np.float64), 1.0)
    phi, phi_step = None, math.nan
    for i, (t, h) in enumerate(zip(times, steps)):
        if h > 0:
            if not abs(h - phi_step) <= 4 * np.spacing(t):
                phi, phi_step = matrix_exponential(aug * h), h
            z = phi @ z
        out[i] = z[:dim]
    return out


# ---------------------------------------------------------------------------
# Residuals and the discrete energy identity.
# ---------------------------------------------------------------------------


def _time_derivatives(traj: FieldTrajectory) -> list[SpectralVectorField]:
    """Second-order finite differences of the trajectory samples."""
    times = traj.times
    if len(times) < 3:
        raise ValueError("finite-difference time derivative needs >= 3 samples")
    stacks = [f.coeff_stack() for f in traj.fields]
    out = []
    for i in range(len(times)):
        if i == 0:
            t0, t1, t2 = times[0], times[1], times[2]
            w0, w1, w2 = _fd_weights(t0, t0, t1, t2)
            d = w0 * stacks[0] + w1 * stacks[1] + w2 * stacks[2]
        elif i == len(times) - 1:
            t0, t1, t2 = times[-3], times[-2], times[-1]
            w0, w1, w2 = _fd_weights(t2, t0, t1, t2)
            d = w0 * stacks[-3] + w1 * stacks[-2] + w2 * stacks[-1]
        else:
            t0, t1, t2 = times[i - 1], times[i], times[i + 1]
            w0, w1, w2 = _fd_weights(t1, t0, t1, t2)
            d = w0 * stacks[i - 1] + w1 * stacks[i] + w2 * stacks[i + 1]
        out.append(SpectralVectorField.from_stack(traj.ell, traj.cutoff, d))
    return out


def _fd_weights(t: float, t0: float, t1: float, t2: float) -> tuple[float, float, float]:
    # derivative of the quadratic interpolant through (t0, t1, t2) at t
    w0 = (2 * t - t1 - t2) / ((t0 - t1) * (t0 - t2))
    w1 = (2 * t - t0 - t2) / ((t1 - t0) * (t1 - t2))
    w2 = (2 * t - t0 - t1) / ((t2 - t0) * (t2 - t1))
    return w0, w1, w2


def residual(
    traj: FieldTrajectory,
    pressure: Sequence[SpectralScalarField] | None,
    f: Forcing,
    mu: float,
    use_stored_rhs: bool = True,
) -> np.ndarray:
    """Momentum-equation residual per sample,

        || du/dt - mu Lap u + (u . grad) u + grad p - f ||_{L2}.

    du/dt comes from the stored rhs samples when present (and
    ``use_stored_rhs``), otherwise from second-order finite differences.
    """
    forcing = _forcing_function(
        f, traj.ell, traj.horizon, partial(truncate_vector, cutoff=traj.cutoff)
    )
    if use_stored_rhs and traj.rhs is not None:
        dtu = list(traj.rhs)
    else:
        dtu = _time_derivatives(traj)
    out = np.empty(len(traj))
    for i, (t, u) in enumerate(zip(traj.times, traj.fields)):
        r = dtu[i] - laplacian(u) * mu + self_convection(u) - forcing(float(t))
        if pressure is not None:
            r = r + grad(pressure[i])
        out[i] = l2_norm_exact(r)
    return out


def energy_identity_defect(
    traj: FieldTrajectory, f: Forcing, mu: float
) -> np.ndarray:
    """Defect of the discrete energy balance at every sample,

        | 1/2 ||u(t)||^2 + mu int_0^t ||grad u||^2 - 1/2 ||u0||^2
          - int_0^t (f, u) |,

    with trapezoid time quadrature.
    """
    forcing = _forcing_function(
        f, traj.ell, traj.horizon, partial(truncate_vector, cutoff=traj.cutoff)
    )
    energy = np.array([0.5 * l2_norm_exact(u) ** 2 for u in traj.fields])
    enstrophy = np.array([grad_norm(u, 1) ** 2 for u in traj.fields])
    work = np.array(
        [inner_l2(forcing(float(t)), u) for t, u in zip(traj.times, traj.fields)]
    )
    return np.abs(
        energy
        + mu * cumulative_trapezoid(enstrophy, traj.times)
        - energy[0]
        - cumulative_trapezoid(work, traj.times)
    )


# ---------------------------------------------------------------------------
# Trajectory files.
# ---------------------------------------------------------------------------


def save_trajectory(traj: FieldTrajectory, path) -> None:
    """Write 'TRAJ 1 <ell> <cutoff> <N>' and one field block per sample."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            f"TRAJ 1 {_FMT.format(traj.ell)} {traj.cutoff} {len(traj)}\n"
        )
        for t, u in zip(traj.times, traj.fields):
            fh.write(f"T {_FMT.format(float(t))}\n")
            write_field(u, fh)


def load_trajectory(path) -> FieldTrajectory:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    header, pos = next_line(text, 0)
    if len(header) != 5 or header[0] != "TRAJ" or header[1] != "1":
        raise ValueError("not a TRAJ version 1 file")
    ell, cutoff, count = float(header[2]), int(header[3]), int(header[4])
    if count < 1:
        raise ValueError(f"TRAJ sample count must be at least 1, got {count}")
    times = []
    fields = []
    for i in range(count):
        parts, end = next_line(text, pos)
        if len(parts) != 2 or parts[0] != "T":
            raise ValueError(
                f"expected time marker {i + 1} of {count} at line {line_number(text, pos)}"
            )
        times.append(float(parts[1]))
        field, pos = parse_field_block(text, end)
        if not isinstance(field, SpectralVectorField):
            raise ValueError("trajectory blocks must be vector fields")
        if field.ell != ell or field.cutoff != cutoff:
            raise ValueError(
                f"block {i + 1} has ell {field.ell!r} and cutoff {field.cutoff}, "
                f"but the TRAJ header says ell {ell!r} and cutoff {cutoff}"
            )
        fields.append(field)
    if next_line(text, pos)[0]:
        raise ValueError(
            f"trailing content after the {count} samples at line {line_number(text, pos)}"
        )
    return FieldTrajectory(np.array(times), tuple(fields))
