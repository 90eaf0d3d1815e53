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
polarization), so coefficient vectors are reproducible.  Each field is one
+-k pair, so the basis is held as (k_b, c_b) arrays: projection is a gather
at +-k_b, reconstruction a scatter, and no dense field is stored.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .fields import (
    SpectralVectorField,
    bandwidth_of,
    embed,
    line_number,
    next_line,
    parse_field_block,
    vector_from_modes,
    wave_cubes,
    write_field,
)

__all__ = [
    "PairFields",
    "DivFreeBasis",
    "build_basis",
    "project_coefficients",
    "gradient_coefficients",
    "reconstruct",
    "save_basis",
    "load_basis",
]


@dataclass(frozen=True)
class PairFields:
    """Real fields c_b e^{i (k_b, x) 2 pi/ell} + conj, one +-k pair each, held
    as arrays: ``kvec`` (n, 3) holds k_b, the larger of the pair, ``coef``
    (n, 3) the complex amplitude c_b, ``m`` the shell and ``j`` the index in
    the shell.  A field at k_b = 0 is a pair of one mode, so its c_b is
    halved: every sum over both signs of k_b then counts that mode once.
    """

    ell: float
    cutoff: int
    kvec: np.ndarray
    coef: np.ndarray
    m: np.ndarray
    j: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.kvec)

    def fields(self) -> Iterator[SpectralVectorField]:
        """The fields themselves, built one at a time (c_b doubled back at k_b = 0)."""
        full = np.where(self.kvec.any(axis=1)[:, None], self.coef, 2 * self.coef)
        for k, c in zip(self.kvec.tolist(), full):
            yield vector_from_modes(self.ell, self.cutoff, {tuple(k): tuple(c)})

    def indexed(self) -> Iterator[tuple[int, int, SpectralVectorField]]:
        """(m, j, field) of every field, built one at a time."""
        return zip(self.m.tolist(), self.j.tolist(), self.fields())


@dataclass(frozen=True)
class DivFreeBasis(PairFields):
    """Orthonormal basis of the shell-truncated fields on the torus.

    Its own rows are the constant fields (rows 0-2, k_b = 0, m = 0) and the
    divergence-free eigenfields; ``gradient`` holds the curl-free companions.
    """

    gradient: PairFields


def _frozen(kvec, coef, m, j) -> tuple[np.ndarray, ...]:
    """Read-only kvec (n, 3), coef (n, 3), m and j arrays."""
    arrays = (
        np.asarray(kvec, dtype=np.int64).reshape(-1, 3),
        np.asarray(coef, dtype=np.complex128).reshape(-1, 3),
        np.asarray(m, dtype=np.int64),
        np.asarray(j, dtype=np.int64),
    )
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _columns(rows: list) -> tuple[np.ndarray, ...]:
    """Read-only kvec, coef, m and j arrays of (k, c, m, j) rows."""
    return _frozen(*zip(*rows)) if rows else _frozen((), (), (), ())


def _polarized(k: np.ndarray, m: np.ndarray, n: np.ndarray, amps: np.ndarray) -> tuple:
    """kvec, coef, m and j of the fields amps[i, p], polarization p of pair
    i; n is the index of pair i in its shell."""
    p = amps.shape[1]
    j = p * n[:, None] + np.arange(1, p + 1)
    return np.repeat(k, p, axis=0), amps.reshape(-1, 3), np.repeat(m, p), j.ravel()


def build_basis(ell: float, cutoff: int) -> DivFreeBasis:
    """Construct the orthonormal basis through shell ``cutoff``."""
    if cutoff < 1:
        raise ValueError("basis cutoff must be at least 1")
    # C order over the centered cube is lexicographic in k, so the larger of
    # each +-k pair is in the second half past k = 0; sorted stably by shell
    k1, k2, k3, ksq = (a.ravel()[a.size // 2 + 1 :] for a in wave_cubes(bandwidth_of(cutoff)))
    order = np.argsort(ksq, kind="stable")
    order = order[ksq[order] <= cutoff]
    k, m = np.column_stack((k1, k2, k3))[order], ksq[order]
    n = np.arange(len(m)) - np.searchsorted(m, m)  # index of each pair in its shell
    khat = k / np.sqrt(m)[:, None]
    # a1: the unit axis least aligned with k, made orthogonal to k; a2 = khat x a1.
    # a1 is normalized row by row with np.linalg.norm's own sum v.dot(v):
    # np.sum, einsum and norm(axis=1) round differently in the last bit
    axis = np.argmin(np.abs(k), axis=1)
    a1 = np.eye(3)[axis] - khat[np.arange(len(k)), axis][:, None] * khat
    a1 /= np.array([math.sqrt(v.dot(v)) for v in a1])[:, None]
    a2 = np.cross(khat, a1)
    # cos: c_{+-k} = a/2,  sin: c_k = -i a/2, c_{-k} = conj; both scaled to unit L2
    scale = math.sqrt(2.0 / ell**3) / 2.0
    div = np.stack((a1 * scale, -1j * a1 * scale, a2 * scale, -1j * a2 * scale), axis=1)
    grad = np.stack((khat * scale, -1j * khat * scale), axis=1)
    # the constants e_j ell^(-3/2) are pairs of one mode, at k = 0: c_b is halved
    halved = ell ** (-1.5) / 2.0
    constants = (np.zeros((3, 3), int), np.eye(3) * halved, np.zeros(3, int), [1, 2, 3])
    div_rows = map(np.concatenate, zip(constants, _polarized(k, m, n, div)))
    grad_rows = _polarized(k, m, n, grad)
    gradient = PairFields(ell, cutoff, *_frozen(*grad_rows))
    return DivFreeBasis(ell, cutoff, *_frozen(*div_rows), gradient)


def _positions(kvec: np.ndarray, cutoff: int) -> np.ndarray:
    """Flat index of each k in the centered cube of ``cutoff``; -1 - index
    is that of -k."""
    side = 2 * bandwidth_of(cutoff) + 1
    return side**3 // 2 + kvec @ np.array([side * side, side, 1])


def _gather(u: SpectralVectorField, modes: PairFields) -> np.ndarray:
    if u.ell != modes.ell:
        raise ValueError("incompatible domains: field and basis periods differ")
    if u.cutoff > modes.cutoff:
        raise ValueError(f"field cutoff {u.cutoff} exceeds basis cutoff {modes.cutoff}")
    flat = embed(u, modes.cutoff).coeffs.reshape(3, -1)
    at = _positions(modes.kvec, modes.cutoff)
    # (u, b) = ell^3 Re sum over +-k_b of conj(b_k) . u_k
    terms = np.conj(modes.coef) * flat[:, at].T + modes.coef * flat[:, -1 - at].T
    return np.real(terms.sum(axis=1)) * modes.ell**3


def project_coefficients(u: SpectralVectorField, basis: DivFreeBasis) -> np.ndarray:
    """Coefficients of u in the divergence-free system {e_j} u {v_{m,j}}.

    Reconstructing from these coefficients gives the Leray projection of u
    truncated to the basis cutoff.
    """
    return _gather(u, basis)


def gradient_coefficients(u: SpectralVectorField, basis: DivFreeBasis) -> np.ndarray:
    """Coefficients of u against the curl-free fields w_{m,j}."""
    return _gather(u, basis.gradient)


def reconstruct(basis: DivFreeBasis, coeffs: np.ndarray) -> SpectralVectorField:
    """Linear combination sum_i c_i b_i over the divergence-free system."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (basis.dim,):
        raise ValueError(f"expected {basis.dim} coefficients, got {coeffs.shape}")
    side = 2 * bandwidth_of(basis.cutoff) + 1
    size = side**3
    at = _positions(basis.kvec, basis.cutoff)
    # component j of slot p is bin j size + p; each slot sums its direct
    # terms, then its conjugate terms (at -k_b), in row order, from 0
    slots = np.concatenate((at, size - 1 - at)) + size * np.arange(3)[:, None]
    terms = (coeffs[:, None] * basis.coef).T
    out = np.empty((3, side, side, side), dtype=np.complex128)
    for part, direct, mirrored in (
        (out.real, terms.real, terms.real),
        (out.imag, terms.imag, -terms.imag),
    ):
        weights = np.concatenate((direct, mirrored), axis=1)
        part[...] = np.bincount(slots.ravel(), weights.ravel(), 3 * size).reshape(part.shape)
    return SpectralVectorField(basis.ell, basis.cutoff, out)


def save_basis(basis: DivFreeBasis, path) -> None:
    """Dump the basis: 'BASIS m j' index lines (m = 0 for the constants) and
    'BASIS-GRAD m j' lines, each followed by a TORUSFIELD block."""
    with open(path, "w", encoding="ascii") as fh:
        for tag, modes in (("BASIS", basis), ("BASIS-GRAD", basis.gradient)):
            for m, j, f in modes.indexed():
                fh.write(f"{tag} {m} {j}\n")
                write_field(f, fh)


def _pair_of(field: SpectralVectorField) -> tuple[np.ndarray, np.ndarray] | None:
    """k_b and c_b of a field that is one +-k pair (c_b halved at k_b = 0)."""
    side = 2 * field.bandwidth + 1
    center = side**3 // 2
    half = field.coeffs.reshape(3, -1)[:, center:]
    support = np.flatnonzero(np.any(half != 0, axis=0))
    if len(support) != 1:
        return None
    rep = int(support[0])
    k = np.array(np.unravel_index(center + rep, (side,) * 3)) - side // 2
    return k, (half[:, rep] if rep else half[:, rep] / 2)


def load_basis(path) -> DivFreeBasis:
    """Read a :func:`save_basis` dump.  Every block must be one +-k pair with
    the ell and cutoff of the first block, and the three constants must be
    there; they become rows 0-2 in the order of the dump."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    rows = {"BASIS": [], "BASIS-GRAD": []}
    pos, shape = 0, None
    while True:
        parts, end = next_line(text, pos)
        if not parts:
            break
        if len(parts) != 3 or parts[0] not in rows:
            raise ValueError(f"expected BASIS index line at line {line_number(text, pos)}")
        field, pos = parse_field_block(text, end)
        if not isinstance(field, SpectralVectorField):
            raise ValueError("basis entries must be vector fields")
        shape = shape or (field.ell, field.cutoff)
        if (field.ell, field.cutoff) != shape:
            raise ValueError(
                f"the basis block at line {line_number(text, end)} has ell {field.ell!r} "
                f"and cutoff {field.cutoff}, the first block {shape[0]!r} and {shape[1]}"
            )
        pair = _pair_of(field)
        if pair is None:
            raise ValueError(f"basis block at line {line_number(text, end)}: not a single +-k pair")
        rows[parts[0]].append((*pair, int(parts[1]), int(parts[2])))
    div = sorted(rows["BASIS"], key=lambda row: row[2] != 0)
    if sum(row[2] == 0 for row in div) != 3:
        raise ValueError("basis dump must contain the three constant fields")
    return DivFreeBasis(*shape, *_columns(div), PairFields(*shape, *_columns(rows["BASIS-GRAD"])))
