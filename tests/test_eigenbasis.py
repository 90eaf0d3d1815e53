import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from torusns.eigenbasis import (
    _positions,
    build_basis,
    gradient_coefficients,
    load_basis,
    project_coefficients,
    reconstruct,
    save_basis,
)
from torusns.fields import (
    Field,
    SpectralVectorField,
    bandwidth_of,
    random_scalar_field,
    random_vector_field,
    truncate,
)
from torusns.helmholtz import leray_project
from torusns.operators import div, grad, grad_norm, l2_norm_exact, rot

ELL = 2.0 * math.pi


@pytest.fixture(scope="module")
def basis4():
    return build_basis(ELL, 4)


def _pairs_per_shell(basis) -> dict[int, int]:
    """Shell -> number of +-k pairs, read from the curl-free part (two
    fields per pair)."""
    shells, counts = np.unique(basis.gradient.m, return_counts=True)
    return dict(zip(shells.tolist(), (counts // 2).tolist()))


class TestShells:
    def test_small_shells(self):
        assert _pairs_per_shell(build_basis(ELL, 2)) == {1: 3, 2: 6}

    def test_seven_not_representable(self):
        assert list(_pairs_per_shell(build_basis(ELL, 8))) == [1, 2, 3, 4, 5, 6, 8]

    def test_empty_below_one(self):
        with pytest.raises(ValueError, match="at least 1"):
            build_basis(ELL, 0)

    def test_closed_under_negation(self):
        # the representatives and their negatives make up each shell exactly
        basis = build_basis(ELL, 6)
        cube = itertools.product(range(-2, 3), repeat=3)
        shells: dict[int, set] = {}
        for k in cube:
            shells.setdefault(k[0] ** 2 + k[1] ** 2 + k[2] ** 2, set()).add(k)
        for m in range(1, 7):
            reps = [tuple(k) for k in basis.gradient.kvec[basis.gradient.m == m].tolist()]
            assert len(reps) == 2 * len(set(reps))  # cos and sin of each pair
            reps = set(reps)
            negs = {(-a, -b, -c) for a, b, c in reps}
            assert not reps & negs
            assert reps | negs == shells[m]

    def test_pair_counts(self):
        assert _pairs_per_shell(build_basis(ELL, 6)) == {1: 3, 2: 6, 3: 4, 4: 3, 5: 12, 6: 12}


class TestBasisConstruction:
    def test_counts_per_shell(self, basis4):
        pairs = _pairs_per_shell(basis4)
        div_counts: dict[int, int] = {}
        grad_counts: dict[int, int] = {}
        for m, _, _ in basis4.indexed():
            div_counts[m] = div_counts.get(m, 0) + 1
        for m, _, _ in basis4.gradient.indexed():
            grad_counts[m] = grad_counts.get(m, 0) + 1
        assert div_counts[0] == 3 and 0 not in grad_counts  # the constants
        for m, p in pairs.items():
            assert div_counts[m] == 4 * p
            assert grad_counts[m] == 2 * p

    def test_gram_identity(self, basis4):
        fields = [*basis4.fields(), *basis4.gradient.fields()]
        mat = np.stack([f.coeff_stack().ravel() for f in fields])
        gram = np.real(mat.conj() @ mat.T) * ELL**3
        assert np.max(np.abs(gram - np.eye(len(fields)))) <= 1e-12

    def test_entries_divergence_and_curl_free(self, basis4):
        for _, _, f in basis4.indexed():
            assert np.max(np.abs(div(f).coeffs)) <= 1e-14
            assert f.hermitian_defect() == 0.0
        for _, _, f in basis4.gradient.indexed():
            assert np.max(np.abs(rot(f).coeff_stack())) <= 1e-14
            assert f.hermitian_defect() == 0.0

    def test_eigen_identities(self, basis4):
        kappa2 = (2 * math.pi / ELL) ** 2
        for m, _, f in basis4.indexed():  # the constants too: rot rot e_j = 0
            assert l2_norm_exact(rot(rot(f)) - f * (m * kappa2)) <= 1e-11
        for m, _, f in basis4.gradient.indexed():
            assert l2_norm_exact(grad(div(f)) + f * (m * kappa2)) <= 1e-11

    def test_deterministic_rebuild(self, basis4):
        other = build_basis(ELL, 4)
        for (m1, j1, f1), (m2, j2, f2) in zip(basis4.indexed(), other.indexed(), strict=True):
            assert (m1, j1) == (m2, j2)
            assert np.array_equal(f1.coeff_stack(), f2.coeff_stack())

    def test_cutoff_validated(self):
        with pytest.raises(ValueError, match="at least 1"):
            build_basis(ELL, 0)


class TestCoefficients:
    def test_basis_entry_gives_unit_vector(self, basis4):
        c = project_coefficients(list(basis4.fields())[3], basis4)  # after the constants
        expected = np.zeros(basis4.dim)
        expected[3] = 1.0
        assert np.max(np.abs(c - expected)) <= 1e-12

    def test_gradient_field_has_no_divfree_coefficients(self, basis4, rng):
        g = grad(random_scalar_field(ELL, 4, rng, zero_mean=True))
        c = project_coefficients(g, basis4)
        assert np.max(np.abs(c)) <= 1e-12 * grad_norm(g, 0)
        cg = gradient_coefficients(g, basis4)
        assert np.max(np.abs(cg)) > 0

    def test_reconstruction_equals_leray_projection(self, basis4, rng):
        u = random_vector_field(ELL, 4, rng)
        rec = reconstruct(basis4, project_coefficients(u, basis4))
        target = leray_project(u)
        assert l2_norm_exact(rec - target) <= 1e-12 * l2_norm_exact(u)

    def test_completeness_with_gradient_entries(self, basis4, rng):
        u = random_vector_field(ELL, 4, rng)
        rec = reconstruct(basis4, project_coefficients(u, basis4))
        gmat = np.stack([f.coeff_stack().ravel() for f in basis4.gradient.fields()])
        gco = gradient_coefficients(u, basis4)
        side = rec.components[0].coeffs.shape[0]
        grad_rec = SpectralVectorField(
            ELL, 4, (gco @ gmat).reshape(3, side, side, side)
        )
        assert l2_norm_exact(rec + grad_rec - u) <= 1e-12 * l2_norm_exact(u)

    def test_bessel_contraction(self, basis4, rng):
        u = random_vector_field(ELL, 4, rng)
        rec = reconstruct(basis4, project_coefficients(u, basis4))
        for order in (0, 1, 2):
            assert grad_norm(rec, order) <= grad_norm(u, order) * (1 + 1e-12)

    def test_truncation_projection(self, basis4, rng):
        # projecting a wider field onto a narrower basis is rejected;
        # the caller truncates explicitly
        u = random_vector_field(ELL, 9, rng)
        with pytest.raises(ValueError, match="exceeds basis cutoff"):
            project_coefficients(u, basis4)
        c = project_coefficients(truncate(u, 4), basis4)
        rec = reconstruct(basis4, c)
        target = truncate(leray_project(u), 4)
        assert l2_norm_exact(rec - target) <= 1e-12 * l2_norm_exact(u)

    @pytest.mark.parametrize("cutoff", [4, 9])
    def test_match_conjugated_matrix_product(self, rng, cutoff):
        # oracle: the conjugated matrix of the dense basis fields times the
        # coefficients; the gather sums the same nonzero products, in another order
        basis = build_basis(ELL, cutoff)
        for u in (random_vector_field(ELL, cutoff, rng), random_vector_field(ELL, 1, rng)):
            flat = truncate(u, cutoff).coeff_stack().ravel()
            for got, fields in (
                (project_coefficients(u, basis), basis.fields()),
                (gradient_coefficients(u, basis), basis.gradient.fields()),
            ):
                matrix = np.stack([f.coeffs.ravel() for f in fields])
                expected = np.real(matrix.conj() @ flat) * ELL**3
                assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("cutoff", [1, 4, 16, 36])
    def test_reconstruct_matches_scatter(self, rng, tmp_path, cutoff):
        # reference: the two complex scatters the per-slot sums replaced,
        # direct slots then conjugate slots, each in row order
        def scatter(basis, coeffs):
            side = 2 * bandwidth_of(basis.cutoff) + 1
            out = np.zeros((3, side**3), dtype=np.complex128)
            at = _positions(basis.kvec, basis.cutoff)
            terms = coeffs[:, None] * basis.coef
            np.add.at(out.T, at, terms)
            np.add.at(out.T, -1 - at, np.conj(terms))
            return out.reshape(3, side, side, side)

        built = build_basis(ELL, cutoff)
        save_basis(built, tmp_path / "basis.txt")
        perm = rng.permutation(built.dim)
        permuted = dataclasses.replace(
            built, **{k: getattr(built, k)[perm] for k in ("kvec", "coef", "m", "j")}
        )
        # a basis field's amplitude is real or imaginary, so a slot of it
        # sums at most two nonzero parts: random complex amplitudes make the
        # order of every slot's sum show in its bits
        shape = built.coef.shape
        scrambled = dataclasses.replace(
            permuted, coef=rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        signed = rng.standard_normal(built.dim)
        signed[::3], signed[1::5] = 0.0, -0.0
        for basis in (built, load_basis(tmp_path / "basis.txt"), permuted, scrambled):
            for coeffs in (rng.standard_normal(basis.dim), signed):
                got = reconstruct(basis, coeffs).coeffs
                assert got.tobytes() == scatter(basis, coeffs).tobytes()

    def test_divfree_iff_gradient_coefficients_vanish(self, basis4, rng):
        u = leray_project(random_vector_field(ELL, 4, rng))
        assert np.max(np.abs(gradient_coefficients(u, basis4))) <= 1e-13 * l2_norm_exact(u)
        g = grad(random_scalar_field(ELL, 4, rng, zero_mean=True))
        mixed = u + g
        assert np.max(np.abs(gradient_coefficients(mixed, basis4))) > 1e-6 * l2_norm_exact(g)


class TestModeArrays:
    """The basis is held as (k_b, c_b) arrays; its fields are derived."""

    # sha256 of the dump and of the fields' coefficient bytes at ell = 2 pi,
    # M = 4, taken from the dense-field construction this replaced
    DUMP = "f63e48269264a4f0c221164cb3963f6658a03defe2e7496caca7b97d05c46948"
    DIVFREE = "580715512d914f5a8162a1c2f77746445c7c21936bed5675005088736066b50c"
    GRADIENT = "7c0a9ad289b4528634ba3fb23ac6450f6475111ae92663f0e3f45fb313fb58e4"
    # sha256 of the kvec, coef, m and j bytes of the basis and of its
    # gradient part at ell = 2 pi, taken from the per-pair construction this
    # replaced
    ARRAYS = {
        16: (
            "b17cb3c43d76b913b344c53f0b18416f3d0669d82fdb6f818e195a2057e6804f",
            "8007004868015afb1b629bfad3ff23a3d6699c1aac414f0d5bc46c7aa042d1ee",
        ),
        36: (
            "b11e47525b6aebe00d5dab9fbdea2e10566b0e2309c70e82f7ae85a8f3edc5af",
            "7b7c0375d275e325cbbde55e0b726948911307648cf42368ffdfad0ea281b74c",
        ),
    }

    def test_dump_bytes_pinned(self, basis4, tmp_path):
        save_basis(basis4, tmp_path / "basis.txt")
        digest = hashlib.sha256((tmp_path / "basis.txt").read_bytes()).hexdigest()
        assert digest == self.DUMP

    def test_derived_fields_pinned(self, basis4):
        for fields, expected in (
            (basis4.fields(), self.DIVFREE),
            (basis4.gradient.fields(), self.GRADIENT),
        ):
            digest = hashlib.sha256()
            for f in fields:
                digest.update(f.coeffs.tobytes())
            assert digest.hexdigest() == expected

    @pytest.mark.parametrize("cutoff", sorted(ARRAYS))
    def test_arrays_pinned(self, cutoff):
        basis = build_basis(ELL, cutoff)
        for part, expected in zip((basis, basis.gradient), self.ARRAYS[cutoff]):
            digest = hashlib.sha256()
            for a in (part.kvec, part.coef, part.m, part.j):
                digest.update(a.tobytes())
            assert digest.hexdigest() == expected

    def test_small_and_builds_no_field(self, monkeypatch):
        built = []
        init = Field.__post_init__
        monkeypatch.setattr(Field, "__post_init__", lambda f: built.append(f) or init(f))
        basis = build_basis(ELL, 16)
        assert built == []
        held = [getattr(m, f.name) for m in (basis, basis.gradient) for f in dataclasses.fields(m)]
        assert sum(a.nbytes for a in held if isinstance(a, np.ndarray)) < 2**20
        # the fields are built on demand, and the count sees them
        assert len(list(basis.fields())) == len(built) == basis.dim == 515

    def test_arrays_read_only(self, basis4):
        with pytest.raises(ValueError):
            basis4.coef[3, 0] = 1.0


class TestDump:
    def test_roundtrip(self, basis4, tmp_path):
        path = tmp_path / "basis.txt"
        save_basis(basis4, path)
        loaded = load_basis(path)
        assert loaded.cutoff == basis4.cutoff and loaded.ell == basis4.ell
        assert loaded.dim == basis4.dim
        assert loaded.gradient.dim == basis4.gradient.dim
        for (m1, j1, f1), (m2, j2, f2) in zip(basis4.indexed(), loaded.indexed()):
            assert (m1, j1) == (m2, j2)
            assert np.max(np.abs(f1.coeff_stack() - f2.coeff_stack())) == 0.0

    def test_header_format(self, basis4, tmp_path):
        path = tmp_path / "basis.txt"
        save_basis(basis4, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "BASIS 0 1"
        assert any(line.startswith("BASIS 1 ") for line in lines)
        assert any(line.startswith("BASIS-GRAD ") for line in lines)

    @pytest.mark.parametrize("defect", ["ell", "two_pairs"])
    def test_inconsistent_block_rejected(self, basis4, tmp_path, defect):
        path = tmp_path / "basis.txt"
        save_basis(basis4, path)
        lines = path.read_text().splitlines()
        if defect == "ell":
            # the last block gets another period
            last = max(i for i, line in enumerate(lines) if line.startswith("TORUSFIELD"))
            lines[last] = "TORUSFIELD 1 3.0 4 3"
            message = "has ell 3.0 and cutoff 4"
        else:
            # a second mode joins the first constant
            lines.insert(2, "1 0 0 1 0.25 0")
            message = r"not a single \+-k pair"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            load_basis(path)
