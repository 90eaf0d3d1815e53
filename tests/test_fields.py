import io
import math
import re

import numpy as np
import pytest

from torusns.eigenbasis import build_basis, save_basis
from torusns.fields import (
    _FMT,
    SpectralScalarField,
    SpectralVectorField,
    WaveVector,
    load_field,
    random_scalar_field,
    random_vector_field,
    read_field,
    save_field,
    scalar_from_modes,
    truncate,
    embed,
    vector_from_modes,
    write_field,
)
from torusns.galerkin import FieldTrajectory, load_trajectory, save_trajectory


def test_wavevector_shell():
    assert WaveVector(1, -2, 2).shell == 9
    assert WaveVector(0, 0, 0).shell == 0
    assert tuple(-WaveVector(1, 0, -3)) == (-1, 0, 3)


def test_mask_enforced_outside_shell(ell):
    side = 2 * 2 + 1  # cutoff 4 -> bandwidth 2
    coeffs = np.ones((side, side, side), dtype=complex)
    f = SpectralScalarField(ell, 4, coeffs)
    # corner (2,2,2) has shell 12 > 4 and must be dropped
    assert f.coefficient((2, 2, 2)) == 0
    assert f.coefficient((2, 0, 0)) == 1


def test_from_modes_conjugate_completion(ell):
    f = scalar_from_modes(ell, 4, {(1, 0, 0): 1 + 2j})
    assert f.coefficient((-1, 0, 0)) == 1 - 2j
    assert f.hermitian_defect() == 0.0


def test_from_modes_rejects_outside_cutoff(ell):
    with pytest.raises(ValueError, match="outside shell cutoff"):
        scalar_from_modes(ell, 1, {(1, 1, 0): 1.0})


def test_constructor_rejects_wrong_shape(ell):
    # cutoff 4 has bandwidth 2, so a cube side of 5
    for cls, shape in [
        (SpectralVectorField, (5, 5, 5)),  # a scalar cube
        (SpectralVectorField, (2, 5, 5, 5)),  # two components
        (SpectralVectorField, (3, 3, 3, 3)),  # the cubes of cutoff 1
        (SpectralScalarField, (3, 5, 5, 5)),  # a vector array
        (SpectralScalarField, (5, 5, 6)),
    ]:
        with pytest.raises(ValueError, match="coefficient array must have shape"):
            cls(ell, 4, np.zeros(shape, dtype=complex))


def test_vector_field_is_one_read_only_array(ell, rng):
    v = random_vector_field(ell, 5, rng)
    assert v.coeffs.shape == (3, 5, 5, 5)
    assert v.coeff_stack() is v.coeffs
    assert not v.coeffs.flags.writeable
    for i, comp in enumerate(v.components):
        assert isinstance(comp, SpectralScalarField)
        assert (comp.ell, comp.cutoff) == (v.ell, v.cutoff)
        assert np.array_equal(comp.coeffs, v.coeffs[i])


def test_random_vector_field_draws_components_in_order(ell):
    v = random_vector_field(ell, 6, np.random.default_rng(11), amplitude=0.5, zero_mean=True)
    rng = np.random.default_rng(11)
    comps = [random_scalar_field(ell, 6, rng, amplitude=0.5, zero_mean=True) for _ in range(3)]
    assert np.array_equal(v.coeffs, np.stack([c.coeffs for c in comps]))


def test_algebra_aligns_cutoffs(ell):
    a = scalar_from_modes(ell, 1, {(1, 0, 0): 1.0})
    b = scalar_from_modes(ell, 4, {(2, 0, 0): 2.0})
    c = a + b
    assert c.cutoff == 4
    assert c.coefficient((1, 0, 0)) == 1.0
    assert c.coefficient((2, 0, 0)) == 2.0


def test_mismatched_period_raises(ell):
    a = scalar_from_modes(ell, 1, {(1, 0, 0): 1.0})
    b = scalar_from_modes(1.0, 1, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError, match="incompatible domains"):
        a + b


def test_embed_truncate_roundtrip(ell, rng):
    for f in (random_scalar_field(ell, 4, rng), random_vector_field(ell, 4, rng)):
        g = truncate(embed(f, 9), 4)
        assert type(g) is type(f)
        assert np.array_equal(f.coeffs, g.coeffs)


def test_random_fields_are_real(ell, rng):
    assert random_scalar_field(ell, 6, rng).hermitian_defect() == 0.0
    assert random_vector_field(ell, 6, rng).hermitian_defect() == 0.0
    assert random_scalar_field(ell, 6, rng, zero_mean=True).mean == 0.0


def test_fields_are_immutable(ell, rng):
    for f in (random_scalar_field(ell, 4, rng), random_vector_field(ell, 4, rng)):
        with pytest.raises((ValueError, RuntimeError)):
            f.coeffs[..., 0, 0, 0] = 1.0
        with pytest.raises(Exception):
            f.ell = 3.0


class TestSerialization:
    def test_roundtrip_scalar(self, ell, rng, tmp_path):
        f = random_scalar_field(ell, 6, rng)
        path = tmp_path / "f.field"
        save_field(f, path)
        g = load_field(path)
        assert isinstance(g, SpectralScalarField)
        assert g.ell == f.ell and g.cutoff == f.cutoff
        assert np.max(np.abs(g.coeffs - f.coeffs)) == 0.0

    def test_roundtrip_vector(self, ell, rng, tmp_path):
        f = random_vector_field(ell, 5, rng)
        path = tmp_path / "v.field"
        save_field(f, path)
        g = load_field(path)
        assert isinstance(g, SpectralVectorField)
        for a, b in zip(f.components, g.components):
            assert np.max(np.abs(a.coeffs - b.coeffs)) == 0.0

    def test_one_representative_per_pair(self, ell):
        f = scalar_from_modes(ell, 4, {(1, 0, 0): 1 + 1j, (0, 1, 0): 2.0})
        buf = io.StringIO()
        write_field(f, buf)
        lines = [l for l in buf.getvalue().splitlines() if l and not l.startswith("TORUSFIELD")]
        # two stored pairs, one line each
        assert len(lines) == 2
        ks = {tuple(int(x) for x in l.split()[:3]) for l in lines}
        for k in ks:
            assert tuple(-x for x in k) not in ks

    def test_duplicate_mode_rejected(self, ell):
        text = "TORUSFIELD 1 1.0 4 1\n1 0 0 1 1.0 0.0\n-1 0 0 1 1.0 0.0\n"
        with pytest.raises(ValueError, match="duplicate mode"):
            read_field(io.StringIO(text))

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="TORUSFIELD"):
            read_field(io.StringIO("NOPE 1 1.0 4 1\n"))

    def test_mode_outside_cutoff_rejected(self):
        text = "TORUSFIELD 1 1.0 1 1\n1 1 0 1 1.0 0.0\n"
        with pytest.raises(ValueError, match="exceeds cutoff"):
            read_field(io.StringIO(text))

    def test_full_precision_roundtrip(self, ell, tmp_path):
        value = 0.1234567890123456789 + math.pi * 1e-5j
        f = vector_from_modes(ell, 2, {(1, 1, 0): (value, -value, 0.0)})
        save_field(f, tmp_path / "p.field")
        g = load_field(tmp_path / "p.field")
        assert g.components[0].coefficient((1, 1, 0)) == f.components[0].coefficient((1, 1, 0))

    @pytest.mark.parametrize(
        "rows",
        [
            "1 0 0 1 1.0",  # five tokens
            "1 0 0 1 1.0 0.0 7",  # seven tokens
            "1.0 0 0 1 1.0 0.0",  # non-integer index
            "1 0 0 0 1.0 0.0",  # component below range
            "1 0 0 4 1.0 0.0",  # component above range
            "1 0 0 1 nan 0.0",
            "1 0 0 1 0.0 -inf",
            "1 0 0 1 1e400 0.0",  # overflows to inf
            "4611686018427387904 0 0 1 1.0 0.0",  # k1 = 2**62: k1**2 wraps in int64
            "1 0 0 2 1.0 0.0\n1 0 0 2 2.0 0.0",  # the same k twice
            "0 0 0 1 1.0 0.0\n0 0 0 1 1.0 0.0",  # k = 0 is its own pair
        ],
    )
    def test_malformed_rows_rejected(self, rows):
        with pytest.raises(ValueError):
            read_field(io.StringIO(f"TORUSFIELD 1 1.0 4 3\n1 1 0 3 0.5 0.5\n{rows}\n"))

    @pytest.mark.parametrize(
        "ell, cutoff, message",
        [
            ("inf", 4, "finite"),
            ("nan", 4, "finite"),
            ("1.0", 100000000, "coefficients"),  # a dense cube of 384 TB
            ("1.0", 7921, "coefficients"),  # B = 89: 3 * 179^3 > 2^24 coefficients
        ],
    )
    def test_malformed_header_rejected(self, ell, cutoff, message):
        with pytest.raises(ValueError, match=message):
            read_field(io.StringIO(f"TORUSFIELD 1 {ell} {cutoff} 3\n1 1 0 3 0.5 0.5\n"))


def _reference_write_field(u, stream):
    """The per-mode writer the array codec replaced, kept as its oracle."""
    comps = [u] if isinstance(u, SpectralScalarField) else list(u.components)
    stream.write(f"TORUSFIELD 1 {_FMT.format(u.ell)} {u.cutoff} {len(comps)}\n")
    for ci, comp in enumerate(comps, start=1):
        entries = [(k, c) for k, c in comp.modes() if tuple(k) >= tuple(-k)]
        entries.sort(key=lambda item: tuple(item[0]))
        for k, c in entries:
            stream.write(
                f"{k.k1} {k.k2} {k.k3} {ci} {_FMT.format(c.real)} {_FMT.format(c.imag)}\n"
            )


def _ragged_field(ell, cutoff, rng, vector):
    """Random field with zeroed modes and -0.0 real and imaginary parts."""
    stacks = []
    for _ in range(3 if vector else 1):
        c = random_scalar_field(ell, cutoff, rng).coeffs * 10.0 ** rng.integers(-300, 300)
        c = np.where(rng.random(c.shape) < 0.3, 0.0, c)
        ragged = np.empty_like(c)
        ragged.real = np.where(rng.random(c.shape) < 0.2, -0.0, c.real)
        ragged.imag = np.where(rng.random(c.shape) < 0.2, -0.0, c.imag)
        stacks.append(ragged)
    if vector:
        return SpectralVectorField(ell, cutoff, np.stack(stacks))
    return SpectralScalarField(ell, cutoff, stacks[0])


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("cutoff", [0, 1, 2, 5, 6, 36])
def test_writer_matches_reference(ell, rng, cutoff, vector):
    f = _ragged_field(ell, cutoff, rng, vector)
    new, ref = io.StringIO(), io.StringIO()
    write_field(f, new)
    _reference_write_field(f, ref)
    assert new.getvalue() == ref.getvalue()
    assert cutoff < 5 or " -0" in ref.getvalue()


@pytest.mark.parametrize(
    "bad, named",
    [
        ({(0, 1, 0): (0.0, math.nan, 1.0)}, "mode (0, 1, 0), component 2"),
        ({(1, -1, 0): (0.0, 1.0, -math.inf)}, "mode (1, -1, 0), component 3"),
        # the first in the file's row order is named: by component, then by k
        ({(1, 0, 0): (math.inf, 0.0, 0.0), (0, 1, 1): (0.0, math.nan, 0.0)},
         "mode (1, 0, 0), component 1"),
        ({(1, 0, 0): (math.inf, 0.0, 0.0), (0, 1, 1): (math.nan, 0.0, 0.0)},
         "mode (0, 1, 1), component 1"),
    ],
)
def test_writer_rejects_non_finite(ell, bad, named):
    modes = {(0, 0, 1): (0.5, 0.25j, 0.0), (1, 1, 0): (1.0, -1.0, 2.0), **bad}
    f = vector_from_modes(ell, 2, modes)
    out = io.StringIO()
    with pytest.raises(ValueError, match=re.escape(f"non-finite coefficient: {named}")):
        write_field(f, out)
    assert out.getvalue() == ""


def test_trajectory_shares_row_templates(ell, rng, tmp_path):
    first = _ragged_field(ell, 6, rng, True)
    support = first.coeffs != 0
    redraw = random_vector_field(ell, 6, rng).coeffs
    # the first support thrice, around two others, one with as many modes as
    # the first (its components' supports swapped); values differ each time
    fields = (
        first,
        SpectralVectorField(ell, 6, np.where(support, redraw, 0.0)),
        _ragged_field(ell, 6, rng, True),
        SpectralVectorField(ell, 6, np.where(support[[1, 0, 2]], redraw, 0.0)),
        SpectralVectorField(ell, 6, np.where(support, 3.0 * redraw, 0.0)),
    )
    for other in fields[2:4]:
        assert not np.array_equal(other.coeffs != 0, support)
    times = np.array([0.0, 0.125, 0.25, 0.375, 0.5])
    save_trajectory(FieldTrajectory(times, fields), tmp_path / "a.traj")
    ref = io.StringIO()
    ref.write(f"TRAJ 1 {_FMT.format(ell)} 6 5\n")
    for t, u in zip(times, fields):
        ref.write(f"T {_FMT.format(float(t))}\n")
        _reference_write_field(u, ref)
    assert (tmp_path / "a.traj").read_text() == ref.getvalue()


def test_basis_dump_matches_reference(ell, tmp_path):
    basis = build_basis(ell, 4)
    save_basis(basis, tmp_path / "basis.txt")
    ref = io.StringIO()
    for tag, modes in (("BASIS", basis), ("BASIS-GRAD", basis.gradient)):
        for m, j, f in modes.indexed():
            ref.write(f"{tag} {m} {j}\n")
            _reference_write_field(f, ref)
    assert (tmp_path / "basis.txt").read_text() == ref.getvalue()


def test_trajectory_write_read_write_identity(ell, rng, tmp_path):
    times = np.array([0.0, 0.25, 0.5])
    traj = FieldTrajectory(times, tuple(_ragged_field(ell, 6, rng, True) for _ in times))
    save_trajectory(traj, tmp_path / "a.traj")
    back = load_trajectory(tmp_path / "a.traj")
    save_trajectory(back, tmp_path / "b.traj")
    assert (tmp_path / "a.traj").read_bytes() == (tmp_path / "b.traj").read_bytes()
    again = load_trajectory(tmp_path / "b.traj")
    assert np.array_equal(back.times, again.times)
    for u, v in zip(back.fields, again.fields):
        assert np.array_equal(u.coeff_stack(), v.coeff_stack())
