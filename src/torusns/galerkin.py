"""Faedo-Galerkin time integration on the shell-truncated spaces.

Two problems are integrated:

  * the drift-linearized momentum equation, reduced to the real ODE system
    dc/dt + A(t) c = f(t) over the divergence-free eigenbasis, where
    A(t) = diag(mu m (2 pi/ell)^2) + W(t) couples the modes through the
    drift w; for autonomous A the matrix-exponential solution is available
    as an independent cross-check, :func:`linearized_closed_form`, which
    applies the exponential to the state by a Taylor action on short runs
    and forms it once on long ones;

  * the nonlinear equation in evolution form,
    du/dt = mu Lap u + P(f - (u . grad) u),
    on coefficient stacks, the transport term dealiased in divergence form
    div(u (x) u) and the Leray projection applied at every stage.

Both are dc/dt = -rate c + stage(c, t) with a diagonal rate, advanced by one
stepper, :func:`_march`, with IF_RK4 or IMEX_EULER: 4 stage evaluations per
IF_RK4 step and 1 per IMEX_EULER step, plus 1 at t = 0, as stage(c_n, t_n) is
both step n's k1 and the stored rhs sample's source.

Forcing may be supplied as a steady field, a time-sampled trajectory
(mid-step values by linear interpolation), or a callable t -> field
(evaluated exactly at the stage times); sampled forcing and sampled
drifts share one interpolation rule, :func:`_interpolate`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .eigenbasis import DivFreeBasis, project_coefficients, reconstruct
from .fields import (
    _FMT,
    _write_block,
    SpectralVectorField,
    bandwidth_of,
    embed,
    line_number,
    next_line,
    parse_field_block,
    truncate,
)
from .operators import (
    NormTable,
    _fast_len,
    _l2_norm,
    _laplacian_symbol,
    _plan,
    _require_divfree,
    _self_convect_stack,
    inner_l2,
    l2_norm_exact,
    lp_norm,
    norm_table,
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
    """Raised when an integration cannot continue (suspected blow-up)."""


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
    attach_error_estimate : when True the solver integrates again at
        dt_effective/2 and attaches the largest distance, in the solver's
        own norm, between samples of the two runs at equal times.

    Both solvers store every step.  :func:`solve_linearized` takes mu and
    the cutoff from the operator.  The transport products always use the
    smallest alias-free grid, and a Navier-Stokes run warns once
    (RuntimeWarning) when the advective CFL number ||u||_inf dt (2 pi/ell)
    max|k| exceeds 0.5.
    """

    mu: float
    horizon: float
    cutoff: int
    dt: float
    scheme: str = "if_rk4"
    attach_error_estimate: bool = False

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


def _trajectory_forcing(f: Forcing, traj: FieldTrajectory) -> Callable[[float], SpectralVectorField]:
    """The forcing as the evaluators of ``traj`` read it: t -> f(t) truncated
    to the run's cutoff, over the run's horizon."""
    return _forcing_function(f, traj.ell, traj.horizon, partial(truncate, cutoff=traj.cutoff))


def _step_halving(integrate: Callable, config: SolverConfig, distance: Callable):
    """integrate(dt_effective)'s samples and, only if ``config`` asks, the
    step-halving estimate (Hairer, Norsett & Wanner 1993, II.4): the largest
    ``distance`` between a sample and the dt/2 run's sample at that time."""
    coarse = integrate(config.dt_effective)
    if not config.attach_error_estimate:
        return *coarse, None
    fine = integrate(config.dt_effective / 2)[1]
    return *coarse, float(max(distance(a, b) for a, b in zip(coarse[1], fine[::2])))


# ---------------------------------------------------------------------------
# Nonlinear solver.
# ---------------------------------------------------------------------------


def solve_navier_stokes(
    f: Forcing, u0: SpectralVectorField, config: SolverConfig
) -> FieldTrajectory:
    """Integrate du/dt = mu Lap u + P(f - (u . grad) u) on shells <= cutoff.

    The transport term is taken as div(u (x) u), which differs from
    (u . grad) u by u div u, at roundoff: every stage input is solenoidal.
    The returned trajectory is divergence-free at every sample and carries
    the evolution right-hand side as rhs samples.  Aborts with
    :class:`SolverAbort` on suspected blow-up (non-finite or exploding
    coefficients).  Its step-halving distance is the L2 norm.
    """
    cutoff = config.cutoff
    if u0.cutoff > cutoff:
        raise ValueError(f"initial field cutoff {u0.cutoff} exceeds solver cutoff {cutoff}")
    _require_divfree(u0, "initial field")
    u = embed(u0, cutoff)
    forcing = _forcing_function(f, u.ell, config.horizon, lambda g: truncate(g, cutoff).coeffs)
    integrate = partial(_integrate_ns, forcing, u, config)
    times, coeffs, rhs, est = _step_halving(integrate, config, lambda a, b: _l2_norm(a - b, u.ell))
    fields, rhs = tuple(map(u.with_coeffs, coeffs)), tuple(map(u.with_coeffs, rhs))
    return FieldTrajectory(times, fields, rhs, error_estimate=est)


def _march(
    mu: float, lam: np.ndarray, stage: Callable, c0: np.ndarray, dt: float, nsteps: int, scheme: str
) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """Advance dc/dt = -mu lam c + stage(c, t) from c(0) = c0 by nsteps steps of dt.

    IF_RK4 is the integrating-factor RK4 of Cox & Matthews (2002, J. Comput.
    Phys. 176:430), exact in the diagonal term; IMEX_EULER takes that term
    implicitly.  Yields (t_n, c_n, stage(c_n, t_n)) for n = 0..nsteps, the
    stage value being step n's k1; raises :class:`SolverAbort` on a
    non-finite coefficient.  mu and lam stay apart so that 1 + dt mu lam
    rounds as the Navier-Stokes loop always has; a ready rate passes mu = 1.
    """
    denom = 1.0 + dt * mu * lam
    eh = np.exp(-mu * lam * dt / 2.0)
    ef = eh * eh
    c = c0
    for n in range(nsteps + 1):
        t = n * dt
        k1 = stage(c, t)
        yield t, c, k1
        if n == nsteps:
            return
        if scheme == "imex_euler":
            c = (c + dt * k1) / denom
        else:
            k2 = stage(eh * (c + 0.5 * dt * k1), t + 0.5 * dt)
            k3 = stage(eh * c + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = stage(ef * c + dt * eh * k3, t + dt)
            c = ef * c + (dt / 6.0) * (ef * k1 + 2.0 * eh * (k2 + k3) + k4)
        if not np.all(np.isfinite(c)):
            raise SolverAbort(f"blow-up suspected at t={(n + 1) * dt:.6g}")


def _ns_stage(stacks, f: np.ndarray, ell: float, cutoff: int, ws: dict) -> np.ndarray:
    """P(f - div(sum_l C(j,l) u_l (x) u_(j-l))) for the stacks (u_0, ..., u_j)
    of solenoidal fields and the forcing stack f, on the kernel's workspace
    ``ws``.  The solver's stage is that of (c,); its stored rhs sample d_t c
    is (c * lapmult) * mu plus this, a fresh array."""
    transport = _self_convect_stack(stacks, ell, cutoff, ws)
    rest = np.subtract(f, transport, out=transport)
    return _project_stack(rest, bandwidth_of(cutoff), _plan(ws, stacks[0], ell, cutoff).cubes)


def _integrate_ns(forcing: Callable, u: SpectralVectorField, config: SolverConfig, dt: float):
    """Times, coefficient stacks and rhs samples d_t c from u at the steps
    T/round(T/dt); ``forcing`` is t -> the forcing stack at u's cutoff."""
    ell, mu, bw = u.ell, config.mu, u.bandwidth
    lapmult = _laplacian_symbol(ell, bw)
    nsteps = max(1, round(config.horizon / dt))
    dt = config.horizon / nsteps
    blowup_scale = 1e8 * (l2_norm_exact(u) + 1.0)
    cfl_grid = _fast_len(max(2 * bw + 1, 8))
    warned_cfl = False
    ws = {}  # the kernel's grids, reused by every stage of this integration

    def nonlinear(c: np.ndarray, t: float) -> np.ndarray:
        return _ns_stage((c,), forcing(t), ell, u.cutoff, ws)

    samples = []
    steps = _march(mu, -lapmult, nonlinear, u.coeffs, dt, nsteps, config.scheme)
    # N = nonlinear(c, t) is the rhs sample's transport part
    for n, (t, c, N) in enumerate(steps):
        if _l2_norm(c, ell) > blowup_scale:
            raise SolverAbort(f"blow-up suspected at t={t:.6g}")
        samples.append((t, c, (c * lapmult) * float(mu) + N))
        if not warned_cfl and n % 25 == 0 and n < nsteps:
            umax = lp_norm(u.with_coeffs(c), math.inf, cfl_grid)
            if umax * dt * (2.0 * math.pi / ell) * bw > 0.5:
                msg = f"advective CFL number exceeds 0.5 at t={t:.6g}; results may be inaccurate"
                # skips this frame, _step_halving and solve_navier_stokes
                warnings.warn(msg, RuntimeWarning, stacklevel=4)
                warned_cfl = True
    return tuple(zip(*samples))


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
    times: np.ndarray
    matrices: np.ndarray
    diffusion: np.ndarray

    def at(self, t: float) -> np.ndarray:
        """Full matrix at time t (rule of :func:`_interpolate`)."""
        return _interpolate(self.times, self.matrices, t)


# byte budget of one (rows, dim) complex temporary of the assembly, so
# that its temporaries do not grow with dim^2
_ASSEMBLY_BLOCK_BYTES = 256 * 1024


def assemble_linearized(
    w: FieldTrajectory | SpectralVectorField,
    basis: DivFreeBasis,
    mu: float,
) -> LinearizedOperator:
    """Galerkin matrices of the drift coupling plus diagonal diffusion.

    Entry (a, b) of the coupling is (w . grad v_b, v_a) + (v_b . grad w, v_a),
    summed in Fourier space over the triads r = p + q, r = +-k_a, q = +-k_b:
    each basis field is one +-k pair, so only the drift modes k_a -+ k_b
    enter.  The identity (v_b . grad w, v_a) + (w, v_b . grad v_a) =
    -((div v_b) w, v_a) = 0 is checked to 1e-11, which rejects a basis field
    that is not solenoidal; a drift that is not solenoidal is rejected by its
    divergence.

    The matrices are built a block of rows at a time, the rows sized so that
    a (rows, dim) complex temporary fits a fixed byte budget.  The drift is
    gathered once per distinct k_b, which the polarizations of a pair share,
    and spread over the columns by one gather; every entry takes the same
    arithmetic whatever the blocks, so the bits do not depend on them.
    """
    if isinstance(w, SpectralVectorField):
        w = FieldTrajectory(np.zeros(1), (w,))
    times, samples = w.times, w.fields
    for s in samples:
        if s.ell != basis.ell:
            raise ValueError("incompatible domains: drift period differs from basis")
        _require_divfree(s, "drift field")

    kvec, coef = basis.kvec, basis.coef
    conj = coef.conj()
    # |k_a +- k_b|^2 <= 4 M: drift modes beyond that never couple the basis
    w_cutoff = 4 * basis.cutoff
    side = 2 * bandwidth_of(w_cutoff) + 1
    # flat position in the centered cube is linear in k (mixed radix)
    lin = kvec @ np.array([side * side, side, 1])
    # the polarizations of a pair share k_b: the drift is gathered at the
    # distinct k_b (ulin, ukvec) and spread over the columns by ucol
    ulin, first, ucol = np.unique(lin, return_index=True, return_inverse=True)
    ukvec = kvec[first]
    # [b] entries: c_b . k_b
    kb_cb = np.einsum("bj,bj->b", kvec, coef)
    # the four sign pairs of (r, q) come in conjugate pairs, so an entry is
    # 2 Re of the terms at (k_a, k_b) and (k_a, -k_b), each i kappa ell^3 X:
    # entry = -2 kappa ell^3 Im X
    fac = -4.0 * math.pi * basis.ell**2
    # a one-row block would take BLAS's matrix-vector kernel, which rounds
    # the grams differently: blocks have two rows or more, the last one
    # taking a single leftover row
    rows = max(2, _ASSEMBLY_BLOCK_BYTES // (16 * basis.dim))
    bounds = [*range(0, basis.dim - 1, rows), basis.dim]
    matrices = np.empty((len(times), basis.dim, basis.dim))
    for it, wt in enumerate(samples):
        wflat = truncate(wt, w_cutoff).coeffs.reshape(3, -1)
        # block maxima folded by np.maximum, which keeps a nan as np.max does
        t1_max = t2_max = defect = 0.0
        for r in map(slice, bounds, bounds[1:]):
            at_diff = side**3 // 2 + lin[r, None] - ulin
            at_sum = side**3 // 2 + lin[r, None] + ulin
            # the drift modes w_p at p = k_a - k_b and k_a + k_b, contracted
            # one component at a time with k_b and with conj c_a
            wd_kb, ws_kb, wd_ca, ws_ca = (np.zeros(at_diff.shape, complex) for _ in range(4))
            for j in range(3):
                for at, to_kb, to_ca in ((at_diff, wd_kb, wd_ca), (at_sum, ws_kb, ws_ca)):
                    w_p = wflat[j, at]
                    to_kb += w_p * ukvec[:, j]
                    to_ca += w_p * conj[r, j, None]
            wd_kb, ws_kb, wd_ca, ws_ca = (x[:, ucol] for x in (wd_kb, ws_kb, wd_ca, ws_ca))
            # [a, b] entries: c_b . conj c_a, conj c_b . conj c_a, c_b . k_a
            gram, gram_bar, ka_cb = conj[r] @ coef.T, conj[r] @ conj.T, kvec[r] @ coef.T
            # (w . grad v_b, v_a): (w_p . q)(c_q . conj c_a)
            t1 = fac * np.imag(wd_kb * gram - ws_kb * gram_bar)
            # (v_b . grad w, v_a): (c_q . p)(w_p . conj c_a)
            t2 = fac * np.imag((ka_cb - kb_cb) * wd_ca + np.conj(ka_cb + kb_cb) * ws_ca)
            # (w, v_b . grad v_a): -(c_q . r)(w_p . conj c_a)
            s2 = -fac * np.imag(ka_cb * wd_ca + np.conj(ka_cb) * ws_ca)
            t1_max = np.maximum(t1_max, np.max(np.abs(t1)))
            t2_max = np.maximum(t2_max, np.max(np.abs(t2)))
            defect = np.maximum(defect, np.max(np.abs(t2 + s2)))
            matrices[it, r] = t1 + t2
        scale = max(1.0, float(t1_max + t2_max))
        if defect > 1e-11 * scale:
            raise ValueError(
                f"coupling-form identity violated (defect {defect:.3e}); "
                "a basis field is not solenoidal"
            )
    diffusion = mu * basis.m * (2.0 * math.pi / basis.ell) ** 2
    matrices.reshape(len(times), -1)[:, :: basis.dim + 1] += diffusion  # the diagonals
    return LinearizedOperator(basis, times, matrices, diffusion)


def solve_linearized(
    op: LinearizedOperator,
    f: Forcing,
    u0: SpectralVectorField | np.ndarray,
    config: SolverConfig,
) -> FieldTrajectory:
    """Integrate dc/dt + A(t) c = f(t) over the eigenbasis coefficients.

    ``u0`` is the initial field or its coefficients over ``op.basis``.  The
    step-halving estimate is attached only when ``config`` asks for it; its
    distance is the largest difference of one basis coefficient.
    For autonomous operators compare against :func:`linearized_closed_form`.
    A drift sampled at several times must cover the horizon.
    """
    basis = op.basis
    _require_cover(op.times, config.horizon, "drift")
    if isinstance(u0, SpectralVectorField):
        _require_divfree(u0, "initial field")
        u0 = project_coefficients(u0, basis)
    c0 = np.asarray(u0, dtype=np.float64)
    gfun = _forcing_function(
        f,
        basis.ell,
        config.horizon,
        lambda g: project_coefficients(truncate(g, basis.cutoff), basis),
    )
    integrate = partial(_integrate_linear, op, gfun, c0, config)
    times, coeffs, rhs, est = _step_halving(integrate, config, lambda a, b: np.max(np.abs(a - b)))
    fields = tuple(reconstruct(basis, c) for c in coeffs)
    rhs = tuple(reconstruct(basis, r) for r in rhs)
    return FieldTrajectory(times, fields, rhs, error_estimate=est)


def _integrate_linear(
    op: LinearizedOperator, gfun: Callable, c0: np.ndarray, config: SolverConfig, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, coefficients and rhs samples g(t) - A(t) c at the steps T/round(T/dt)."""
    nsteps = max(1, round(config.horizon / dt))
    diff = op.diffusion

    def gee(c: np.ndarray, t: float) -> np.ndarray:
        # g minus the drift part (A(t) - diag(diff)) c, without forming it
        return gfun(t) - op.at(t) @ c + diff * c

    steps = _march(1.0, diff, gee, c0, config.horizon / nsteps, nsteps, config.scheme)
    times, coeffs, stages = (np.array(x) for x in zip(*steps))
    return times, coeffs, stages - diff * coeffs


def _remainder_too_large(eta: float, m: int) -> bool:
    """Whether the degree-m Taylor remainder bound on eta exceeds 2^-53."""
    return eta ** (m + 1) > math.factorial(m + 1) * 2.0**-53 * (1.0 - eta / (m + 2))


def _largest_eta(m: int) -> float:
    """The largest eta whose degree-m remainder bound is at most 2^-53."""
    bound = math.factorial(m + 1) * 2.0**-53
    eta = bound ** (1.0 / (m + 1))
    # the fixed point of eta^(m+1) = bound (1 - eta/(m+2)), a fast
    # contraction, then the last ulps on the test itself
    for _ in range(6):
        eta = (bound * (1.0 - eta / (m + 2))) ** (1.0 / (m + 1))
    while _remainder_too_large(eta, m):
        eta = math.nextafter(eta, 0.0)
    while not _remainder_too_large(math.nextafter(eta, math.inf), m):
        eta = math.nextafter(eta, math.inf)
    return eta


# Per Taylor degree m = 1 .. 30: theta_m, the largest eta meeting the
# remainder bound, and (products, s) of Paterson-Stockmeyer, the block size
# s of fewest products, s - 1 for X^2 .. X^s and ceil(m/s) - 1 for Horner
_TAYLOR_DEGREES = [None] + [
    (_largest_eta(m), *min((s - 1 + m // s - (m % s == 0), s) for s in range(1, m + 1)))
    for m in range(1, 31)
]
_THETA_MAX = max(theta for theta, _, _ in _TAYLOR_DEGREES[1:])


def _taylor_plan(norm: float, m: int) -> tuple[int, int, int, int]:
    """(products, q, m, s): the degree-m plan of :func:`matrix_exponential`."""
    bound = math.factorial(m + 1) * 2.0**-53
    q = max(0, math.ceil(math.log2(norm) - math.log2(bound) / (m + 1)))
    while _remainder_too_large(math.ldexp(norm, -q), m):
        q += 1
    _, products, s = _TAYLOR_DEGREES[m]
    return q + products, q, m, s


def _exponential_plan(norm: float) -> tuple[int, int, int, int]:
    """(products, q, m, s) of :func:`matrix_exponential` for ||a||_1 = norm > 0."""
    return min(_taylor_plan(norm, m) for m in range(1, 31))


def _action_plan(norm: float, budget: float) -> tuple[int, int] | None:
    """(m, s): the Taylor action's degree and substeps for ||h B||_1 = norm.

    Of the pairs with m <= 30 whose remainder bound on eta = norm / s is at
    most 2^-53, the one with the fewest matrix-vector products m s; None
    when those are more than budget.  s is ceil(norm / theta_m), or one
    more where that quotient rounded down, so no norm needs a search.
    """
    if norm > budget * _THETA_MAX:  # then every m s >= norm / theta_m > budget
        return None
    best = (math.inf, 0, 0)
    for m in range(1, 31):
        if m >= best[0]:  # s >= 1: no higher degree takes fewer products
            break
        s = max(1, math.ceil(norm / _TAYLOR_DEGREES[m][0]))
        s += _remainder_too_large(norm / s, m)  # when norm / theta_m rounded down
        best = min(best, (m * s, m, s))
    return best[1:] if best[0] <= budget else None


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a Taylor polynomial.

    Before any product the squarings q and the degree m are chosen from
    ||a||_1: of the pairs whose remainder bound eta^(m+1)/(m+1)! /
    (1 - eta/(m+2)) on eta = ||a||_1 / 2^q is at most 2^-53, the one with
    the fewest matrix products, then the fewest squarings.  The polynomial
    in X = a / 2^q takes s - 1 products for X^2 .. X^s and ceil(m/s) - 1 for
    Horner's rule in X^s (Paterson-Stockmeyer, s the cheapest block size);
    q squarings follow.  At ||a||_1 = 0.06: q = 0, m = 8, 4 products.
    """
    a = np.asarray(a, dtype=np.float64)
    norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        raise ValueError("matrix exponential of a non-finite matrix")
    if norm == 0.0:
        return np.eye(len(a))
    _, q, m, s = _exponential_plan(norm)
    powers = [None, np.ldexp(a, -q)]  # X^i at i = 1 .. s; the identity is added on the diagonal
    for _ in range(s - 1):
        powers.append(powers[-1] @ powers[1])
    c = [1.0 / math.factorial(k) for k in range(m + 1)]
    r = (m - 1) // s  # the top block, c_rs .. c_m, reaches X^s when s divides m
    result, diagonal = np.zeros(a.shape), np.diag_indices(len(a))
    for j in range(r, -1, -1):
        if j < r:
            result = result @ powers[s]
        for i in range(1, (m - r * s if j == r else s - 1) + 1):
            result += c[j * s + i] * powers[i]
        result[diagonal] += c[j * s]
    for _ in range(q):
        result = result @ result
    return result


# One matrix product of order n costs about n / 7 matrix-vector products at
# n = 516 and n / 12 at n = 1852 (one BLAS thread); the closed form takes the
# Taylor action while its matrix-vector products cost at most this share of
# n times the products of one exponential.
_PRODUCT_COST = 1 / 8


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
    order from t = 0, each positive spacing h = t_i - t_(i-1) advancing z by
    exp(h B); a repeated time costs nothing.  The times must be finite,
    nondecreasing from 0 and one-dimensional.

    One plan (m, s) is made per call, at the largest spacing, where
    eta = ||B||_1 h / s is largest: of the pairs with m <= 30 whose Taylor
    remainder bound eta^(m+1)/(m+1)! / (1 - eta/(m+2)) is at most 2^-53, the
    one with the fewest matrix-vector products m s.  Each degree's s is
    ceil(||B||_1 h / theta_m), theta_m the largest eta meeting the bound
    (tabulated at import), so planning takes no search at any norm.
    ||B||_1 is the larger of the largest column sum of |A| and sum |g|,
    taken without forming B.
    Over n positive spacings of a (dim + 1)-order B, with P the matrix
    products of :func:`matrix_exponential` at the largest spacing:

      * if n m s <= P (dim + 1) _PRODUCT_COST, with _PRODUCT_COST = 1/8, the
        Taylor action: s substeps of tau = h / s, each Horner's rule
        y <- c + (tau / k)(g - A y) for k = m, ..., 1 on the state c (the
        last entry of z stays 1);

      * otherwise the dense walk: Phi(h) = exp(h B) from
        :func:`matrix_exponential` and one matrix-vector product per
        spacing.  Phi is recomputed only when h differs from the spacing it
        was computed for by more than a few ulp of t_i, so the uniform times
        of the solver, jittered by roundoff, cost one exponential.

    As m s > P at every norm, a run of more than (dim + 1) _PRODUCT_COST
    positive spacings takes the dense walk without a plan.  So does a short
    run whose ||B||_1 h is too large for any m s to fit (for one spacing,
    above about 9 at dim 67 and 470 at dim 1852); the exponential meets it
    with about log2 ||B||_1 h squarings.  The choice depends on these
    counts only, so the result is deterministic.  A non-finite A or g raises
    ValueError on either path.
    """
    if len(op.times) != 1:
        raise ValueError("closed form requires an autonomous (single-sample) operator")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1:
        raise ValueError(f"closed-form times must be one-dimensional, got shape {times.shape}")
    if not np.all(np.isfinite(times)):
        raise ValueError("closed-form times must be finite")
    steps = np.diff(times, prepend=0.0)
    if np.any(steps < 0):
        raise ValueError("closed-form times must be nondecreasing from t = 0")
    a = op.matrices[0]
    dim = a.shape[0]
    g = np.zeros(dim) if f_const is None else np.asarray(f_const, dtype=np.float64)
    c0 = np.asarray(c0, dtype=np.float64)
    for name, x in (("f_const", g), ("c0", c0)):
        if x.shape != (dim,):
            raise ValueError(f"closed-form {name} must have shape ({dim},), got {x.shape}")
    out = np.empty((len(times), dim))
    n = np.count_nonzero(steps)
    # P < m s at every norm: degree m by Horner after ceil(log2 s) squarings
    # is one of matrix_exponential's plans.  So longer runs take the dense
    # walk without a plan, and its exponential rejects a non-finite A or g.
    if n <= (dim + 1) * _PRODUCT_COST:
        norm_a, norm_g = float(np.linalg.norm(a, 1)), float(np.abs(g).sum())
        if not math.isfinite(norm_a + norm_g):
            raise ValueError("closed form of a non-finite operator or forcing")
        norm = max(norm_a, norm_g) * float(steps.max(initial=0.0))  # ||h B||_1, largest h
        if norm == 0.0:  # no time passes, or exp(h B) is the identity
            out[:] = c0
            return out
        plan = None
        if math.isfinite(norm):  # else the exponential of h B rejects it
            budget = _exponential_plan(norm)[0] * (dim + 1) * _PRODUCT_COST / n
            plan = _action_plan(norm, budget)
        if plan is not None:
            m, s = plan
            c = c0
            for i, h in enumerate(steps):
                for _ in range(s if h > 0 else 0):
                    y = c
                    for k in range(m, 0, -1):
                        y = c + (h / s / k) * (g - a @ y)
                    c = y
                out[i] = c
            return out
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = -a
    aug[:dim, dim] = g
    z = np.append(c0, 1.0)
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


def _time_derivatives(traj: FieldTrajectory) -> Iterator[np.ndarray]:
    """Second-order finite differences of the samples' stacks, each made as it is reached."""
    times = traj.times
    if len(times) < 3:
        raise ValueError("finite-difference time derivative needs >= 3 samples")
    stacks = [f.coeffs for f in traj.fields]
    for i in range(len(times)):
        # the three samples centred on i, shifted inwards at the two ends
        lo = min(max(i - 1, 0), len(times) - 3)
        w0, w1, w2 = _fd_weights(times[i], *times[lo : lo + 3])
        yield w0 * stacks[lo] + w1 * stacks[lo + 1] + w2 * stacks[lo + 2]


def _fd_weights(t: float, t0: float, t1: float, t2: float) -> tuple[float, float, float]:
    # derivative of the quadratic interpolant through (t0, t1, t2) at t
    w0 = (2 * t - t1 - t2) / ((t0 - t1) * (t0 - t2))
    w1 = (2 * t - t0 - t2) / ((t1 - t0) * (t1 - t2))
    w2 = (2 * t - t0 - t1) / ((t2 - t0) * (t2 - t1))
    return w0, w1, w2


def residual(traj: FieldTrajectory, f: Forcing, mu: float) -> np.ndarray:
    """Momentum-equation residual per sample of a divergence-free trajectory,

        || du/dt - mu Lap u + (u . grad) u + grad p - f ||_{L2}

    with grad p = (I - P)(f - (u . grad) u): du/dt minus the solver's stage
    mu Lap u + P(f - div(u (x) u)), one kernel call per sample.  du/dt is the
    stored rhs when present, so the residual of solver output is 0 by
    construction; otherwise second-order finite differences, the independent
    check.  A sample that is not divergence-free raises ``ValueError``.
    """
    forcing = _trajectory_forcing(f, traj)
    dtu = [r.coeffs for r in traj.rhs] if traj.rhs is not None else _time_derivatives(traj)
    lapmult = _laplacian_symbol(traj.ell, traj.fields[0].bandwidth)
    ws = {}  # the kernel's grids, reused by every sample
    out = np.empty(len(traj))
    for i, (t, u, d) in enumerate(zip(traj.times, traj.fields, dtu)):
        _require_divfree(u, "a sample whose momentum residual is taken")
        c = u.coeffs
        stage = _ns_stage((c,), forcing(float(t)).coeffs, traj.ell, traj.cutoff, ws)
        out[i] = _l2_norm(d - ((c * lapmult) * float(mu) + stage), traj.ell)
    return out


def energy_identity_defect(
    traj: FieldTrajectory, f: Forcing, mu: float, *, norms: NormTable | None = None
) -> np.ndarray:
    """Defect of the discrete energy balance at every sample,

        | 1/2 ||u(t)||^2 + mu int_0^t ||grad u||^2 - 1/2 ||u0||^2
          - int_0^t (f, u) |,

    with trapezoid time quadrature.  ``norms`` is the trajectory's norm
    table, tabulated here when omitted.
    """
    if norms is None:
        norms = norm_table(traj.fields)
    forcing = _trajectory_forcing(f, traj)
    energy = np.array([0.5 * x**2 for x in norms.l2])
    enstrophy = np.array([g**2 for g in norms.grad[1]])
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
        prev = None  # consecutive samples that share a support share their row template
        for t, u in zip(traj.times, traj.fields):
            fh.write(f"T {_FMT.format(float(t))}\n")
            prev = _write_block(u, fh, prev)


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
