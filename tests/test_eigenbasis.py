import math

import numpy as np
import pytest

from torusns.eigenbasis import (
    build_basis,
    enumerate_shells,
    gradient_coefficients,
    load_basis,
    project_coefficients,
    reconstruct,
    save_basis,
)
from torusns.fields import (
    SpectralVectorField,
    random_scalar_field,
    random_vector_field,
    truncate_vector,
)
from torusns.helmholtz import leray_project
from torusns.operators import div, grad, grad_norm, l2_norm_exact, rot

ELL = 2.0 * math.pi


@pytest.fixture(scope="module")
def basis4():
    return build_basis(ELL, 4)


class TestShells:
    def test_small_shells(self):
        shells = enumerate_shells(2)
        assert [(s.m, len(s.wave_vectors)) for s in shells] == [(1, 6), (2, 12)]

    def test_seven_not_representable(self):
        assert [s.m for s in enumerate_shells(8)] == [1, 2, 3, 4, 5, 6, 8]

    def test_empty_below_one(self):
        assert enumerate_shells(0) == []

    def test_closed_under_negation(self):
        for shell in enumerate_shells(6):
            vectors = set(map(tuple, shell.wave_vectors))
            assert {(-a, -b, -c) for a, b, c in vectors} == vectors
            assert all(a * a + b * b + c * c == shell.m for a, b, c in vectors)

    def test_pair_counts(self):
        shells = {s.m: len(s.pair_representatives()) for s in enumerate_shells(6)}
        assert shells == {1: 3, 2: 6, 3: 4, 4: 3, 5: 12, 6: 12}


class TestBasisConstruction:
    def test_counts_per_shell(self, basis4):
        pairs = {s.m: len(s.pair_representatives()) for s in enumerate_shells(4)}
        div_counts: dict[int, int] = {}
        grad_counts: dict[int, int] = {}
        for m, _, _ in basis4.entries:
            div_counts[m] = div_counts.get(m, 0) + 1
        for m, _, _ in basis4.gradient_entries:
            grad_counts[m] = grad_counts.get(m, 0) + 1
        for m, p in pairs.items():
            assert div_counts[m] == 4 * p
            assert grad_counts[m] == 2 * p

    def test_gram_identity(self, basis4):
        fields = basis4.all_fields()
        mat = np.stack([f.coeff_stack().ravel() for f in fields])
        gram = np.real(mat.conj() @ mat.T) * ELL**3
        assert np.max(np.abs(gram - np.eye(len(fields)))) <= 1e-12

    def test_entries_divergence_and_curl_free(self, basis4):
        for _, _, f in basis4.entries:
            assert np.max(np.abs(div(f).coeffs)) <= 1e-14
            assert f.hermitian_defect() == 0.0
        for _, _, f in basis4.gradient_entries:
            assert np.max(np.abs(rot(f).coeff_stack())) <= 1e-14
            assert f.hermitian_defect() == 0.0

    def test_eigen_identities(self, basis4):
        kappa2 = (2 * math.pi / ELL) ** 2
        for m, _, f in basis4.entries:
            assert l2_norm_exact(rot(rot(f)) - f * (m * kappa2)) <= 1e-11
        for m, _, f in basis4.gradient_entries:
            assert l2_norm_exact(grad(div(f)) + f * (m * kappa2)) <= 1e-11

    def test_deterministic_rebuild(self, basis4):
        other = build_basis(ELL, 4)
        for (m1, j1, f1), (m2, j2, f2) in zip(basis4.entries, other.entries):
            assert (m1, j1) == (m2, j2)
            assert np.array_equal(f1.coeff_stack(), f2.coeff_stack())

    def test_cutoff_validated(self):
        with pytest.raises(ValueError, match="at least 1"):
            build_basis(ELL, 0)


class TestCoefficients:
    def test_basis_entry_gives_unit_vector(self, basis4):
        c = project_coefficients(basis4.entries[0][2], basis4)
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
        gmat = np.stack([f.coeff_stack().ravel() for f in basis4.gradient_fields()])
        gco = gradient_coefficients(u, basis4)
        side = rec.components[0].coeffs.shape[0]
        grad_rec = SpectralVectorField.from_stack(
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
        c = project_coefficients(truncate_vector(u, 4), basis4)
        rec = reconstruct(basis4, c)
        target = truncate_vector(leray_project(u), 4)
        assert l2_norm_exact(rec - target) <= 1e-12 * l2_norm_exact(u)

    @pytest.mark.parametrize("cutoff", [4, 9])
    def test_match_conjugated_matrix_product_bitwise(self, rng, cutoff):
        # reference: the conjugated basis matrix times the coefficients
        basis = build_basis(ELL, cutoff)
        for u in (random_vector_field(ELL, cutoff, rng), random_vector_field(ELL, 1, rng)):
            flat = truncate_vector(u, cutoff).coeff_stack().ravel()
            for got, matrix in (
                (project_coefficients(u, basis), basis._divfree_matrix),
                (gradient_coefficients(u, basis), basis._gradient_matrix),
            ):
                assert np.array_equal(got, np.real(matrix.conj() @ flat) * ELL**3)

    def test_divfree_iff_gradient_coefficients_vanish(self, basis4, rng):
        u = leray_project(random_vector_field(ELL, 4, rng))
        assert np.max(np.abs(gradient_coefficients(u, basis4))) <= 1e-13 * l2_norm_exact(u)
        g = grad(random_scalar_field(ELL, 4, rng, zero_mean=True))
        mixed = u + g
        assert np.max(np.abs(gradient_coefficients(mixed, basis4))) > 1e-6 * l2_norm_exact(g)


class TestDump:
    def test_roundtrip(self, basis4, tmp_path):
        path = tmp_path / "basis.txt"
        save_basis(basis4, path)
        loaded = load_basis(path)
        assert loaded.cutoff == basis4.cutoff and loaded.ell == basis4.ell
        assert len(loaded.entries) == len(basis4.entries)
        assert len(loaded.gradient_entries) == len(basis4.gradient_entries)
        for (m1, j1, f1), (m2, j2, f2) in zip(basis4.entries, loaded.entries):
            assert (m1, j1) == (m2, j2)
            assert np.max(np.abs(f1.coeff_stack() - f2.coeff_stack())) == 0.0

    def test_header_format(self, basis4, tmp_path):
        path = tmp_path / "basis.txt"
        save_basis(basis4, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "BASIS 0 1"
        assert any(line.startswith("BASIS 1 ") for line in lines)
        assert any(line.startswith("BASIS-GRAD ") for line in lines)
