"""Real orthonormal eigenfields of the Laplacian on the torus.

Shell m collects all wave vectors with (k, k) = m.  For every +-k pair the
six-dimensional real span of the pair's vector modes splits into

  * four divergence-free fields: two real amplitude vectors a1, a2 spanning
    the plane orthogonal to k, each combined with cos and sin of the phase
    (k, x) 2 pi / ell, and
  * two curl-free fields: the amplitude k/|k| with cos and sin.

Together with the constant fields e1, e2, e3 these form an L2(Q)-orthonormal
system spanning the whole truncated space, with

    rot rot v = -Lap v = m (2 pi/ell)^2 v        (divergence-free fields)
    grad div w = Lap w = -m (2 pi/ell)^2 w       (curl-free fields).

The amplitude frame is deterministic: a1 is the Gram-Schmidt normalization
of the unit axis least aligned with k, and a2 = k/|k| x a1.  Entries are
ordered lexicographically in (shell, representative wave vector,
polarization), so coefficient vectors are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (
    SpectralVectorField,
    WaveVector,
    bandwidth_of,
    embed,
    line_number,
    next_line,
    parse_field_block,
    vector_from_modes,
    write_field,
)

__all__ = [
    "Shell",
    "enumerate_shells",
    "DivFreeBasis",
    "build_basis",
    "project_coefficients",
    "gradient_coefficients",
    "reconstruct",
    "save_basis",
    "load_basis",
]


@dataclass(frozen=True)
class Shell:
    """All wave vectors of a fixed shell value m = (k, k) > 0."""

    m: int
    wave_vectors: tuple[WaveVector, ...]

    def pair_representatives(self) -> list[WaveVector]:
        """Canonical representative of each +-k pair, sorted."""
        reps = [k for k in self.wave_vectors if tuple(k) > tuple(-k)]
        reps.sort(key=tuple)
        return reps


def enumerate_shells(max_shell: int) -> list[Shell]:
    """Shells m <= max_shell that are representable as a sum of three squares."""
    shells = []
    for m in range(1, max_shell + 1):
        vectors = []
        bw = math.isqrt(m)
        for k1 in range(-bw, bw + 1):
            for k2 in range(-bw, bw + 1):
                rem = m - k1 * k1 - k2 * k2
                if rem < 0:
                    continue
                k3 = math.isqrt(rem)
                if k3 * k3 != rem:
                    continue
                vectors.append(WaveVector(k1, k2, k3))
                if k3 != 0:
                    vectors.append(WaveVector(k1, k2, -k3))
        if vectors:
            vectors.sort(key=tuple)
            shells.append(Shell(m, tuple(vectors)))
    return shells


def _amplitude_frame(k: WaveVector) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal real amplitude vectors spanning the plane normal to k."""
    kv = np.array(k, dtype=np.float64)
    khat = kv / np.linalg.norm(kv)
    seed_axis = int(np.argmin(np.abs(kv)))
    seed = np.zeros(3)
    seed[seed_axis] = 1.0
    a1 = seed - np.dot(seed, khat) * khat
    a1 /= np.linalg.norm(a1)
    a2 = np.cross(khat, a1)
    return a1, a2


def _pair_field(
    ell: float, cutoff: int, k: WaveVector, amplitude: np.ndarray, phase: str
) -> SpectralVectorField:
    # cos: c_{+-k} = a/2,  sin: c_k = -i a/2, c_{-k} = conj; both scaled to unit L2
    scale = math.sqrt(2.0 / ell**3) / 2.0
    if phase == "cos":
        c = amplitude * scale
    else:
        c = -1j * amplitude * scale
    return vector_from_modes(ell, cutoff, {tuple(k): tuple(c)}, conjugate_pairs=True)


@dataclass(frozen=True)
class DivFreeBasis:
    """Orthonormal basis of the shell-truncated fields on the torus.

    ``constants`` are the normalized constant fields; ``entries`` hold the
    divergence-free eigenfields as (m, j, field) with j counting within the
    shell; ``gradient_entries`` hold the curl-free companions.
    """

    ell: float
    cutoff: int
    constants: tuple[SpectralVectorField, ...]
    entries: tuple[tuple[int, int, SpectralVectorField], ...]
    gradient_entries: tuple[tuple[int, int, SpectralVectorField], ...]

    def divfree_fields(self) -> list[SpectralVectorField]:
        """Constants followed by the divergence-free eigenfields, in order."""
        return list(self.constants) + [f for _, _, f in self.entries]

    def gradient_fields(self) -> list[SpectralVectorField]:
        return [f for _, _, f in self.gradient_entries]

    def all_fields(self) -> list[SpectralVectorField]:
        return self.divfree_fields() + self.gradient_fields()

    def shell_values(self) -> np.ndarray:
        """Shell value m per divergence-free index (0 for the constants)."""
        return np.array([0, 0, 0] + [m for m, _, _ in self.entries], dtype=np.float64)

    @property
    def dim(self) -> int:
        return 3 + len(self.entries)

    @cached_property
    def _divfree_matrix(self) -> np.ndarray:
        return _flat_matrix(self.divfree_fields())

    @cached_property
    def _gradient_matrix(self) -> np.ndarray:
        return _flat_matrix(self.gradient_fields())


def _flat_matrix(fields: list[SpectralVectorField]) -> np.ndarray:
    return np.stack([f.coeffs.ravel() for f in fields])


def build_basis(ell: float, cutoff: int) -> DivFreeBasis:
    """Construct the orthonormal basis through shell ``cutoff``."""
    if cutoff < 1:
        raise ValueError("basis cutoff must be at least 1")
    norm_const = ell ** (-1.5)
    constants = tuple(
        vector_from_modes(
            ell,
            cutoff,
            {(0, 0, 0): tuple(norm_const if i == j else 0.0 for i in range(3))},
        )
        for j in range(3)
    )
    entries = []
    gradient_entries = []
    for shell in enumerate_shells(cutoff):
        j_div = 0
        j_grad = 0
        for k in shell.pair_representatives():
            a1, a2 = _amplitude_frame(k)
            khat = np.array(k, dtype=np.float64)
            khat /= np.linalg.norm(khat)
            for amp in (a1, a2):
                for phase in ("cos", "sin"):
                    j_div += 1
                    entries.append(
                        (shell.m, j_div, _pair_field(ell, cutoff, k, amp, phase))
                    )
            for phase in ("cos", "sin"):
                j_grad += 1
                gradient_entries.append(
                    (shell.m, j_grad, _pair_field(ell, cutoff, k, khat, phase))
                )
    return DivFreeBasis(ell, cutoff, constants, tuple(entries), tuple(gradient_entries))


def _coefficients(u: SpectralVectorField, basis: DivFreeBasis, matrix: np.ndarray) -> np.ndarray:
    if u.ell != basis.ell:
        raise ValueError("incompatible domains: field and basis periods differ")
    if u.cutoff > basis.cutoff:
        raise ValueError(
            f"field cutoff {u.cutoff} exceeds basis cutoff {basis.cutoff}"
        )
    flat = embed(u, basis.cutoff).coeffs.ravel()
    # Re(conj(B) x) = Re(B conj(x)) with the same products up to exact sign
    # flips, so the values are those of conj(B) @ x, without copying B
    return np.real(matrix @ flat.conj()) * basis.ell**3


def project_coefficients(u: SpectralVectorField, basis: DivFreeBasis) -> np.ndarray:
    """Coefficients of u in the divergence-free system {e_j} u {v_{m,j}}.

    Reconstructing from these coefficients gives the Leray projection of u
    truncated to the basis cutoff.
    """
    return _coefficients(u, basis, basis._divfree_matrix)


def gradient_coefficients(u: SpectralVectorField, basis: DivFreeBasis) -> np.ndarray:
    """Coefficients of u against the curl-free fields w_{m,j}."""
    return _coefficients(u, basis, basis._gradient_matrix)


def reconstruct(basis: DivFreeBasis, coeffs: np.ndarray) -> SpectralVectorField:
    """Linear combination sum_i c_i b_i over the divergence-free system."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (basis.dim,):
        raise ValueError(f"expected {basis.dim} coefficients, got {coeffs.shape}")
    flat = coeffs @ basis._divfree_matrix
    side = 2 * bandwidth_of(basis.cutoff) + 1
    return SpectralVectorField(basis.ell, basis.cutoff, flat.reshape(3, side, side, side))


def save_basis(basis: DivFreeBasis, path) -> None:
    """Dump the basis: 'BASIS m j' index lines (m = 0 for the constants) and
    'BASIS-GRAD m j' lines, each followed by a TORUSFIELD block."""
    with open(path, "w", encoding="ascii") as fh:
        for j, f in enumerate(basis.constants, start=1):
            fh.write(f"BASIS 0 {j}\n")
            write_field(f, fh)
        for m, j, f in basis.entries:
            fh.write(f"BASIS {m} {j}\n")
            write_field(f, fh)
        for m, j, f in basis.gradient_entries:
            fh.write(f"BASIS-GRAD {m} {j}\n")
            write_field(f, fh)


def load_basis(path) -> DivFreeBasis:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    constants = []
    entries = []
    gradient_entries = []
    pos = 0
    while True:
        parts, end = next_line(text, pos)
        if not parts:
            break
        if len(parts) != 3 or parts[0] not in ("BASIS", "BASIS-GRAD"):
            raise ValueError(f"expected BASIS index line at line {line_number(text, pos)}")
        kind, m, j = parts[0], int(parts[1]), int(parts[2])
        field, pos = parse_field_block(text, end)
        if not isinstance(field, SpectralVectorField):
            raise ValueError("basis entries must be vector fields")
        if kind == "BASIS" and m == 0:
            constants.append(field)
        elif kind == "BASIS":
            entries.append((m, j, field))
        else:
            gradient_entries.append((m, j, field))
    if len(constants) != 3:
        raise ValueError("basis dump must contain the three constant fields")
    ell = constants[0].ell
    cutoff = constants[0].cutoff
    return DivFreeBasis(ell, cutoff, tuple(constants), tuple(entries), tuple(gradient_entries))
