"""Truncated Fourier representation of periodic fields on the 3-torus.

A real scalar field of period ``ell`` is stored through its Fourier
coefficients

    u(x) = sum_k c_k exp(i (k, x) 2 pi / ell),   c_k = ell^-3 int_Q u e^{-i(k,x)2pi/ell} dx,

where Q = (0, ell)^3 and k runs over integer wave vectors with shell value
(k, k) = k1^2 + k2^2 + k3^2 at most ``cutoff``.  With this normalization the
basis exponentials have squared L2(Q) norm ell^3, so Parseval reads
||u||_{L2}^2 = ell^3 sum |c_k|^2.

Coefficients live on a dense centered cube of side 2*B + 1 with
B = isqrt(cutoff) (the per-axis bandwidth); entries outside the shell
(k, k) <= cutoff are identically zero.  Real-valued fields obey the Hermitian
symmetry c_{-k} = conj(c_k).  The builders ``*_from_modes`` and ``random_*``,
the reader and the kernels produce it; the class constructors take a
coefficient array as given, and ``hermitian_defect()`` measures it.

Each field holds one read-only coefficient array: shape (2B+1,)*3 for a
scalar field and (3, 2B+1, 2B+1, 2B+1) for a vector field, whose leading
axis is the component.  Validation, the shell mask, embedding, truncation
and arithmetic act on the trailing three axes, so one code path serves both
ranks; ``coeff_stack()`` of a vector field is that array itself, not a copy.

Fields are immutable values; all operations on them are pure functions.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from typing import ClassVar, Iterator, Mapping, NamedTuple

import numpy as np

__all__ = [
    "WaveVector",
    "SpectralScalarField",
    "SpectralVectorField",
    "scalar_from_modes",
    "vector_from_modes",
    "random_scalar_field",
    "random_vector_field",
    "write_field",
    "read_field",
    "save_field",
    "load_field",
]


class WaveVector(NamedTuple):
    """Integer mode index k = (k1, k2, k3)."""

    k1: int
    k2: int
    k3: int

    @property
    def shell(self) -> int:
        """Shell value (k, k) = k1^2 + k2^2 + k3^2."""
        return self.k1 * self.k1 + self.k2 * self.k2 + self.k3 * self.k3

    def __neg__(self) -> "WaveVector":
        return WaveVector(-self.k1, -self.k2, -self.k3)


def bandwidth_of(cutoff: int) -> int:
    """Per-axis bandwidth B = isqrt(cutoff) of the shell truncation."""
    return math.isqrt(cutoff)


def wave_index_axes(bandwidth: int) -> np.ndarray:
    """Axis of admitted integer wavenumbers, -B..B."""
    return np.arange(-bandwidth, bandwidth + 1)


# Admitted torus periods: ell^3 and (2 pi / ell)^2 stay finite, nonzero floats.
_MIN_ELL, _MAX_ELL = 1e-100, 1e100

_CUBE_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}


def wave_cubes(bandwidth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return (K1, K2, K3, K_sq) integer cubes on the centered index layout."""
    cached = _CUBE_CACHE.get(bandwidth)
    if cached is None:
        ax = wave_index_axes(bandwidth)
        k1, k2, k3 = np.meshgrid(ax, ax, ax, indexing="ij")
        ksq = k1 * k1 + k2 * k2 + k3 * k3
        for a in (k1, k2, k3, ksq):
            a.setflags(write=False)
        cached = (k1, k2, k3, ksq)
        _CUBE_CACHE[bandwidth] = cached
    return cached


def shell_mask(bandwidth: int, cutoff: int) -> np.ndarray:
    """Boolean cube selecting modes with (k, k) <= cutoff."""
    return wave_cubes(bandwidth)[3] <= cutoff


def projection_cubes(bandwidth: int) -> tuple[np.ndarray, np.ndarray]:
    """Complex (K1, K2, K3) and 1/K_sq (0 at k = 0): the Leray projection's multipliers."""
    k1, k2, k3, ksq = wave_cubes(bandwidth)
    inv_ksq = np.divide(1.0, ksq, out=np.zeros(ksq.shape), where=ksq > 0)
    return np.stack((k1, k2, k3)).astype(np.complex128), inv_ksq.astype(np.complex128)


@dataclass(frozen=True)
class Field:
    """Real periodic field given by truncated Fourier coefficients.

    Attributes
    ----------
    ell : float
        Period of the torus (side of the fundamental cube Q).
    cutoff : int
        Maximal admitted shell (k, k).
    coeffs : np.ndarray
        Read-only complex array of shape ``lead + (2B+1,)*3``, centered
        layout over the trailing three axes: entry [..., B + k1, B + k2,
        B + k3] holds c_k.  ``lead`` is () for a scalar field and (3,) for a
        vector field.
    """

    ell: float
    cutoff: int
    coeffs: np.ndarray

    ncomponents: ClassVar[int]
    lead: ClassVar[tuple[int, ...]]

    def __post_init__(self) -> None:
        if not _MIN_ELL <= self.ell <= _MAX_ELL:
            raise ValueError(f"period ell must be finite and lie in [{_MIN_ELL:g}, {_MAX_ELL:g}]")
        if not (isinstance(self.cutoff, (int, np.integer)) and self.cutoff >= 0):
            raise ValueError("cutoff must be a nonnegative integer")
        cutoff = int(self.cutoff)
        bw = bandwidth_of(cutoff)
        shape = self.lead + (2 * bw + 1,) * 3
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.shape != shape:
            raise ValueError(
                f"coefficient array must have shape {shape} for cutoff {cutoff}, got {arr.shape}"
            )
        np.copyto(arr, 0.0, where=~shell_mask(bw, cutoff))
        arr.setflags(write=False)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "coeffs", arr)

    @property
    def bandwidth(self) -> int:
        return bandwidth_of(self.cutoff)

    def with_coeffs(self, coeffs: np.ndarray):
        """A field of the same type, ell and cutoff with other coefficients."""
        return type(self)(self.ell, self.cutoff, coeffs)

    def hermitian_defect(self) -> float:
        """Max |c_{-k} - conj(c_k)| over the array (0 for real fields)."""
        flipped = self.coeffs[..., ::-1, ::-1, ::-1]
        return float(np.max(np.abs(flipped - np.conj(self.coeffs))))

    @classmethod
    def zero(cls, ell: float, cutoff: int):
        side = 2 * bandwidth_of(cutoff) + 1
        return cls(ell, cutoff, np.zeros(cls.lead + (side,) * 3, dtype=np.complex128))

    def __add__(self, other):
        a, b = align(self, other)
        return a.with_coeffs(a.coeffs + b.coeffs)

    def __sub__(self, other):
        a, b = align(self, other)
        return a.with_coeffs(a.coeffs - b.coeffs)

    def __mul__(self, scalar: float):
        return self.with_coeffs(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self.with_coeffs(-self.coeffs)


class SpectralScalarField(Field):
    """Real periodic scalar field; ``coeffs`` has shape (2B+1,)*3."""

    ncomponents = 1
    lead = ()

    @property
    def mean(self) -> float:
        """Mean value over Q (the k = 0 coefficient)."""
        b = self.bandwidth
        return float(self.coeffs[b, b, b].real)

    def coefficient(self, k: tuple[int, int, int]) -> complex:
        """c_k, zero for modes outside the stored cube."""
        b = self.bandwidth
        if any(abs(int(ki)) > b for ki in k):
            return 0.0 + 0.0j
        return complex(self.coeffs[b + k[0], b + k[1], b + k[2]])

    def modes(self) -> Iterator[tuple[WaveVector, complex]]:
        """Iterate over (k, c_k) with c_k != 0."""
        b = self.bandwidth
        idx = np.argwhere(np.abs(self.coeffs) > 0.0)
        for i1, i2, i3 in idx:
            yield WaveVector(int(i1 - b), int(i2 - b), int(i3 - b)), complex(
                self.coeffs[i1, i2, i3]
            )


class SpectralVectorField(Field):
    """Real periodic vector field; ``coeffs`` has shape (3, 2B+1, 2B+1, 2B+1)."""

    ncomponents = 3
    lead = (3,)

    @property
    def components(self) -> tuple[SpectralScalarField, ...]:
        """The three scalar components, each a copy of one slice of ``coeffs``."""
        return tuple(SpectralScalarField(self.ell, self.cutoff, c) for c in self.coeffs)

    def coeff_stack(self) -> np.ndarray:
        """The read-only coefficient array itself, not a copy."""
        return self.coeffs

    with_stack = Field.with_coeffs


def align(a: Field, b: Field) -> tuple[Field, Field]:
    """Embed two fields of one rank into a common cutoff (shared ell required)."""
    if a.ell != b.ell:
        raise ValueError("incompatible domains: fields have different periods")
    if a.ncomponents != b.ncomponents:
        raise ValueError("cannot pair fields of different rank")
    cut = max(a.cutoff, b.cutoff)
    return embed(a, cut), embed(b, cut)


def embed(u: Field, cutoff: int) -> Field:
    """Re-express u on a cube of (larger or equal) cutoff without changing it."""
    if cutoff == u.cutoff:
        return u
    if cutoff < u.cutoff:
        raise ValueError("embed target cutoff smaller than field cutoff; truncate instead")
    bw_new = bandwidth_of(cutoff)
    bw_old = u.bandwidth
    side = 2 * bw_new + 1
    out = np.zeros(u.lead + (side,) * 3, dtype=np.complex128)
    lo, hi = bw_new - bw_old, bw_new + bw_old + 1
    out[..., lo:hi, lo:hi, lo:hi] = u.coeffs
    return type(u)(u.ell, cutoff, out)


def truncate(u: Field, cutoff: int) -> Field:
    """Drop modes with (k, k) > cutoff."""
    if cutoff >= u.cutoff:
        return embed(u, cutoff)
    bw_new = bandwidth_of(cutoff)
    bw_old = u.bandwidth
    lo, hi = bw_old - bw_new, bw_old + bw_new + 1
    return type(u)(u.ell, cutoff, u.coeffs[..., lo:hi, lo:hi, lo:hi])


def hermitianize(coeffs: np.ndarray) -> np.ndarray:
    """Symmetrize a centered coefficient array so c_{-k} = conj(c_k) exactly."""
    return 0.5 * (coeffs + np.conj(coeffs[..., ::-1, ::-1, ::-1]))


def _place_modes(lead: tuple[int, ...], cutoff: int, modes: Mapping) -> np.ndarray:
    """Coefficient array of shape lead + (2B+1,)*3 holding a sparse {k: c_k}
    map, the conjugate partners filled in."""
    bw = bandwidth_of(cutoff)
    out = np.zeros(lead + (2 * bw + 1,) * 3, dtype=np.complex128)
    explicit = set()
    for k, c in modes.items():
        kv = WaveVector(*map(int, k))
        if kv.shell > cutoff:
            raise ValueError(f"mode {tuple(kv)} lies outside shell cutoff {cutoff}")
        out[..., bw + kv.k1, bw + kv.k2, bw + kv.k3] = c
        explicit.add(tuple(kv))
    for k in explicit:
        neg = (-k[0], -k[1], -k[2])
        if neg not in explicit:
            out[..., bw + neg[0], bw + neg[1], bw + neg[2]] = np.conj(
                out[..., bw + k[0], bw + k[1], bw + k[2]]
            )
    return out


def scalar_from_modes(
    ell: float, cutoff: int, modes: Mapping[tuple[int, int, int], complex]
) -> SpectralScalarField:
    """Build a scalar field from a sparse {k: c_k} map.

    The coefficient at -k is filled in as conj(c_k) unless the map sets it
    explicitly, so a real field can be given by one representative of each
    +-k pair.
    """
    return SpectralScalarField(ell, cutoff, _place_modes((), cutoff, modes))


def vector_from_modes(
    ell: float, cutoff: int, modes: Mapping[tuple[int, int, int], tuple[complex, complex, complex]]
) -> SpectralVectorField:
    """Vector analogue of :func:`scalar_from_modes` with C^3 amplitudes."""
    return SpectralVectorField(ell, cutoff, _place_modes((3,), cutoff, modes))


def _random_coeffs(
    lead: tuple[int, ...], cutoff: int, rng: np.random.Generator, amplitude: float, zero_mean: bool
) -> np.ndarray:
    bw = bandwidth_of(cutoff)
    side = 2 * bw + 1
    # component by component, the real part's cube drawn before the imaginary part's
    draws = rng.standard_normal(lead + (2,) + (side,) * 3)
    raw = hermitianize(draws[..., 0, :, :, :] + 1j * draws[..., 1, :, :, :]) * amplitude
    if zero_mean:
        raw[..., bw, bw, bw] = 0.0
    return raw


def random_scalar_field(
    ell: float,
    cutoff: int,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    zero_mean: bool = False,
) -> SpectralScalarField:
    """Random real field with iid Gaussian coefficients inside the shell cutoff."""
    return SpectralScalarField(ell, cutoff, _random_coeffs((), cutoff, rng, amplitude, zero_mean))


def random_vector_field(
    ell: float,
    cutoff: int,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    zero_mean: bool = False,
) -> SpectralVectorField:
    """Three components drawn as by :func:`random_scalar_field`, x then y then z."""
    return SpectralVectorField(ell, cutoff, _random_coeffs((3,), cutoff, rng, amplitude, zero_mean))


# ---------------------------------------------------------------------------
# Text serialization.
#
# Format:  header line "TORUSFIELD 1 <ell> <cutoff> <ncomponents>", then one
# line "k1 k2 k3 comp re im" per stored mode with comp in 1..ncomponents.
# Only one representative of each +-k pair is stored (k = 0 counts as its own
# pair): the lexicographically larger of k and -k, i.e. k1 > 0, or k1 = 0 and
# k2 > 0, or k1 = k2 = 0 and k3 >= 0.  The missing partner is restored as the
# complex conjugate on read.  The writer omits modes with c_k = 0 and emits
# the rows component by component, each in increasing lexicographic order of
# k, with 17 significant digits so every float reads back exactly; these
# rules make the bytes a function of the field.  A block ends before the
# first non-blank line that starts with neither a digit nor a sign; the
# reader accepts its rows in any order, and rejects a header whose dense
# cube, ncomponents (2B+1)^3 coefficients, exceeds _MAX_COEFFS = 2^24.
# ---------------------------------------------------------------------------

_FMT = "{:.17g}"
_MAX_COEFFS = 2**24  # 256 MiB of complex128
# "%.17g" % x is the same text as _FMT.format(x) for every float
_ROW = "%d %d %d %d %.17g %.17g\n"
_ROW_DTYPE = np.dtype([("k", np.int64, (4,)), ("c", np.float64, (2,))])
# a line break, then a line whose first token cannot start an integer
_BLOCK_END = re.compile(r"\n[ \t]*[^\s0-9+-]")


def write_field(u: Field, stream: io.TextIOBase) -> None:
    stream.write(f"TORUSFIELD 1 {_FMT.format(u.ell)} {u.cutoff} {u.ncomponents}\n")
    b = u.bandwidth
    cube = (2 * b + 1,) * 3
    # C order over each centered cube is lexicographic in k, so the stored
    # representatives are the second half of the flattened cube, k = 0 first;
    # nonzero() walks the components in order, each half in C order
    center = (2 * b + 1) ** 3 // 2
    half = u.coeffs.reshape(u.ncomponents, -1)[:, center:]
    comp, idx = np.nonzero(np.abs(half) > 0)
    k1, k2, k3 = np.unravel_index(center + idx, cube)
    c = half[comp, idx]
    rows = np.column_stack((k1 - b, k2 - b, k3 - b, comp + 1, c.real, c.imag))
    stream.write(_ROW * len(rows) % tuple(rows.ravel().tolist()))


def next_line(text: str, pos: int) -> tuple[list[str], int]:
    """Tokens of the first non-blank line at or after offset ``pos`` of
    ``text`` and the offset just past that line; no tokens at the end."""
    while pos < len(text):
        eol = text.find("\n", pos)
        eol = len(text) if eol < 0 else eol + 1
        tokens = text[pos:eol].split()
        if tokens:
            return tokens, eol
        pos = eol
    return [], pos


def line_number(text: str, pos: int) -> int:
    """1-based number of the first non-blank line at or after offset ``pos``."""
    return text.count("\n", 0, next_line(text, pos)[1] - 1) + 1


def parse_field_block(text: str, pos: int) -> tuple[Field, int]:
    """Parse the TORUSFIELD block whose header is the first non-blank line at
    or after offset ``pos`` of ``text``.

    Returns the field and the offset of the first line after the block; used
    directly by composite formats (trajectory files, basis dumps).
    """
    header, start = next_line(text, pos)
    if len(header) != 5 or header[0] != "TORUSFIELD" or header[1] != "1":
        raise ValueError(f"expected TORUSFIELD 1 header at line {line_number(text, pos)}")
    ell = float(header[2])
    cutoff = int(header[3])
    ncomp = int(header[4])
    if ncomp not in (1, 3):
        raise ValueError(f"unsupported component count {ncomp}")
    bw = bandwidth_of(cutoff)
    side = 2 * bw + 1
    if ncomp * side**3 > _MAX_COEFFS:
        raise ValueError(f"cutoff {cutoff} needs more than {_MAX_COEFFS} coefficients")
    found = _BLOCK_END.search(text, start - 1)
    end = found.start() + 1 if found else len(text)
    body = text[start:end].splitlines()
    rows = np.zeros(0, dtype=_ROW_DTYPE)
    if any(map(str.strip, body)):
        try:
            rows = np.loadtxt(body, dtype=_ROW_DTYPE, comments=None, ndmin=1)
        except ValueError as exc:
            at = line_number(text, pos)
            raise ValueError(f"malformed mode line in the block at line {at}: {exc}") from None
    kv, comp = rows["k"][:, :3], rows["k"][:, 3]
    _reject(~np.isfinite(rows["c"]).all(axis=1), "non-finite coefficient", rows, text, pos)
    # the box test comes first: squares of indices outside it may overflow
    outside = ((kv < -bw) | (kv > bw)).any(axis=1) | ((kv * kv).sum(axis=1) > cutoff)
    _reject(outside, f"exceeds cutoff {cutoff}", rows, text, pos)
    _reject((comp < 1) | (comp > ncomp), "component index out of range", rows, text, pos)
    flat = np.ravel_multi_index(tuple((kv + bw).T), (side,) * 3)
    mirror = side**3 - 1 - flat
    # one key per component and +-k pair
    key = (comp - 1) * side**3 + np.maximum(flat, mirror)
    repeated = np.bincount(key)[key] > 1
    _reject(repeated, "duplicate mode (k or -k given twice)", rows, text, pos)
    coef = np.empty(len(rows), dtype=np.complex128)
    coef.real, coef.imag = rows["c"].T
    stacks = np.zeros((ncomp, side**3), dtype=np.complex128)
    stacks[comp - 1, mirror] = np.conj(coef)
    stacks[comp - 1, flat] = coef  # last, so k = 0 keeps c
    cls = SpectralScalarField if ncomp == 1 else SpectralVectorField
    return cls(ell, cutoff, stacks.reshape(cls.lead + (side,) * 3)), end


def _reject(bad: np.ndarray, what: str, rows: np.ndarray, text: str, pos: int) -> None:
    """Raise for the first row flagged in ``bad`` of the block parsed from ``pos``."""
    if bad.any():
        i = int(np.argmax(bad))
        for _ in range(i + 1):  # past the header and the rows before row i
            _, pos = next_line(text, pos)
        k = tuple(int(x) for x in rows["k"][i, :3])
        raise ValueError(
            f"{what}: mode {k}, component {rows['k'][i, 3]}, line {line_number(text, pos)}"
        )


def read_field(stream: io.TextIOBase) -> Field:
    text = stream.read()
    if not text.strip():
        raise ValueError("empty field stream")
    field, pos = parse_field_block(text, 0)
    if next_line(text, pos)[0]:
        raise ValueError("trailing content after field block")
    return field


def save_field(u: Field, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        write_field(u, fh)


def load_field(path) -> Field:
    with open(path, "r", encoding="ascii") as fh:
        return read_field(fh)
