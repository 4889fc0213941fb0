"""The (A, B) invariants and the three contraction identities."""

import numpy as np
import pytest

from cayley_workbench.cayley import as_kform, phi0, phi_octonionic
from cayley_workbench.forms import (KForm, basis_vector, blade_masks, evaluate,
                                    form_to_coeffs, hodge, inner, lambda2_matrix,
                                    wedge)
from cayley_workbench.frame_identities import (REFERENCE_MAGNITUDES,
                                               batch_identity_lhs,
                                               batch_invariants,
                                               double_contraction,
                                               extract_coefficients,
                                               identity_coefficients, identity_lhs,
                                               identity_residual, invariants,
                                               pair_coords, pair_matrix,
                                               sample_frames)
from cayley_workbench.representations import wedge_star_matrix

P0 = phi0()
e = lambda i: basis_vector(8, i)

#: coefficients measured by the fits below; frozen here as the module's record
MEASURED_COEFFS = {1: (-3.0, -2.0), 2: (-4.0, 2.0), 3: (6.0, 7.0)}


class TestInvariants:
    def test_examples(self):
        for frame, want in (((e(1), e(2), e(1), e(2)), (1, 0)),
                            ((e(1), e(2), e(3), e(4)), (0, 1)),
                            ((e(1), e(2), e(3), e(5)), (0, 0))):
            got = invariants(frame, P0)
            assert (got.A, got.B) == want

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        u, v, y, w = rng.normal(size=(4, 8))
        a1 = invariants((u, v, y, w), P0)
        a2 = invariants((v, u, y, w), P0)
        a3 = invariants((u, v, w, y), P0)
        assert abs(a1.A + a2.A) < 1e-12 and abs(a1.B + a2.B) < 1e-12
        assert abs(a1.A + a3.A) < 1e-12 and abs(a1.B + a3.B) < 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        F = rng.normal(size=(8, 4, 8))
        A, B = batch_invariants(F, P0)
        for n in range(8):
            inv = invariants(tuple(F[n]), P0)
            assert abs(A[n] - inv.A) < 1e-12
            assert abs(B[n] - inv.B) < 1e-11


class TestIdentityValues:
    def test_contraction_convention(self):
        mu = double_contraction(e(1), e(2), P0)
        # interior(u, interior(v, .)) on the coordinate form
        assert dict(mu.blades()) == {(3, 4): -1, (5, 6): -1, (7, 8): -1}

    def test_integer_anchor_values(self):
        # (e1,e2,e1,e2) has (A,B) = (1,0); (e1,e2,e3,e4) has (A,B) = (0,1)
        assert identity_lhs(1, (e(1), e(2), e(1), e(2)), P0) == -3
        assert identity_lhs(1, (e(1), e(2), e(3), e(4)), P0) == -2
        assert identity_lhs(2, (e(1), e(2), e(1), e(2)), P0) == -4
        assert identity_lhs(2, (e(1), e(2), e(3), e(4)), P0) == 2
        assert identity_lhs(3, (e(1), e(2), e(1), e(2)), P0) == 6
        assert identity_lhs(3, (e(1), e(2), e(3), e(4)), P0) == 7

    def test_repeated_vector_kills_all_identities(self):
        for i in (1, 2, 3):
            assert identity_lhs(i, (e(1), e(1), e(3), e(4)), P0) == 0

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            identity_lhs(4, (e(1), e(2), e(3), e(4)), P0)

    def test_batch_matches_sparse_path(self):
        rng = np.random.default_rng(2)
        F = rng.normal(size=(6, 4, 8))
        for i in (1, 2, 3):
            L = batch_identity_lhs(i, F, P0)
            for n in range(6):
                direct = identity_lhs(i, tuple(F[n]), P0)
                assert abs(L[n] - direct) < 1e-10 * max(1.0, abs(direct))

    def test_multilinearity_in_pairs(self):
        rng = np.random.default_rng(3)
        u, v, y, w = rng.normal(size=(4, 8))
        for i in (1, 2, 3):
            a = identity_lhs(i, (u, v, y, w), P0)
            b = identity_lhs(i, (v, u, y, w), P0)
            c = identity_lhs(i, (u, v, w, y), P0)
            scaled = identity_lhs(i, (2 * u, v, y, w), P0)
            assert abs(a + b) < 1e-10 and abs(a + c) < 1e-10
            assert abs(scaled - 2 * a) < 1e-10


class TestExtraction:
    @pytest.mark.parametrize("i", (1, 2, 3))
    def test_magnitudes_and_signs(self, i):
        fit = extract_coefficients(i, 2000, 42, P0)
        assert fit.fit_residual < 1e-9
        assert (abs(fit.c_a), abs(fit.c_b)) == pytest.approx(REFERENCE_MAGNITUDES[i],
                                                             abs=1e-9)
        assert (fit.c_a, fit.c_b) == pytest.approx(MEASURED_COEFFS[i], abs=1e-9)

    @pytest.mark.parametrize("i", (1, 2, 3))
    def test_sample_independence(self, i):
        f1 = extract_coefficients(i, 1500, 11, P0)
        f2 = extract_coefficients(i, 1500, 2 ** 20, P0)
        assert abs(f1.c_a - f2.c_a) < 1e-9
        assert abs(f1.c_b - f2.c_b) < 1e-9

    @pytest.mark.parametrize("i", (1, 2, 3))
    def test_cayley_free_specialization(self, i):
        full = extract_coefficients(i, 1500, 5, P0)
        free = extract_coefficients(i, 1500, 6, P0, cayley_free=True)
        assert abs(free.c_a - full.c_a) < 1e-9
        assert free.fit_residual < 1e-9

    def test_cayley_free_sampler_kills_B(self):
        rng = np.random.default_rng(7)
        F = sample_frames(500, rng, cayley_free=True, phi=P0)
        _, B = batch_invariants(F, P0)
        assert float(np.max(np.abs(B))) < 1e-12

    def test_cayley_free_sampler_needs_phi(self):
        with pytest.raises(ValueError, match="cayley_free sampling needs phi"):
            sample_frames(10, np.random.default_rng(0), cayley_free=True)

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError):
            extract_coefficients(1, 5, 0, P0)


class TestResiduals:
    def test_residual_under_measured_coefficients(self):
        rng = np.random.default_rng(8)
        F = rng.normal(size=(2000, 4, 8))
        A, B = batch_invariants(F, P0)
        for i in (1, 2, 3):
            L = batch_identity_lhs(i, F, P0)
            c = MEASURED_COEFFS[i]
            assert float(np.max(np.abs(L - c[0] * A - c[1] * B))) < 1e-8

    def test_scalar_residual_api(self):
        frame = (e(1), e(2), e(3), e(4))
        for i in (1, 2, 3):
            assert identity_residual(i, frame, P0, MEASURED_COEFFS[i]) < 1e-12
        assert identity_residual(1, frame, P0, (0.0, 0.0)) == pytest.approx(2.0)

    def test_zero_frame(self):
        z = (0,) * 8
        assert identity_residual(1, (z, z, z, z), P0, MEASURED_COEFFS[1]) == 0

    def test_pair_coords_shape(self):
        rng = np.random.default_rng(9)
        U, V = rng.normal(size=(2, 10, 8))
        assert pair_coords(U, V).shape == (10, 28)


#: a dense integer 4-form on all 70 blades, neither self-dual nor Cayley
DENSE = KForm(8, 4, {m: int(c) for m, c in
                     zip(blade_masks(8, 4), np.random.default_rng(5).integers(-3, 4, 70))
                     if c})
PAIRS = [(a, b) for a in range(8) for b in range(a + 1, 8)]


def sparse_pair_matrix(phi, i):
    """Entry by entry on integer basis vectors: Phi itself for i = 0, else identity i."""
    es = [basis_vector(8, t + 1) for t in range(8)]
    M = np.zeros((28, 28))
    for p, (a, b) in enumerate(PAIRS):
        for q, (c, d) in enumerate(PAIRS):
            frame = (es[a], es[b], es[c], es[d])
            M[p, q] = float(evaluate(as_kform(phi), frame) if i == 0
                            else identity_lhs(i, frame, phi))
    return M


class TestPairMatrices:
    def test_dense_form_is_not_self_dual(self):
        assert hodge(DENSE) != DENSE
        assert inner(DENSE, hodge(DENSE)) != 0

    @pytest.mark.parametrize("phi", [P0, phi_octonionic(), DENSE],
                             ids=["phi0", "octonionic", "dense"])
    def test_closed_forms_match_sparse_reference(self, phi):
        for i in range(4):
            assert pair_matrix(phi, i).tobytes() == sparse_pair_matrix(phi, i).tobytes()

    def test_pair_matrix_index_range(self):
        with pytest.raises(ValueError):
            pair_matrix(P0, 4)

    @pytest.mark.parametrize("phi", [P0, phi_octonionic()], ids=["phi0", "octonionic"])
    def test_cayley_coefficients_are_proven_ints(self, phi):
        for i, want in MEASURED_COEFFS.items():
            c_a, c_b, residual = identity_coefficients(phi, i)
            assert (c_a, c_b, residual) == want + (0,)
            assert type(c_a) is int and type(c_b) is int and type(residual) is int

    def test_other_forms_get_float_fits(self):
        for i in (1, 2, 3):
            c_a, c_b, residual = identity_coefficients(DENSE, i)
            assert type(c_a) is float and type(c_b) is float
            assert residual > 0

    def test_wedge_star_matrix_is_lambda2_of_star(self):
        masks = blade_masks(8, 2)
        ref = np.zeros((28, 28))
        for col, m in enumerate(masks):
            ref[:, col] = form_to_coeffs(hodge(wedge(KForm(8, 2, {m: 1}), DENSE)), masks)
        assert np.array_equal(wedge_star_matrix(DENSE), lambda2_matrix(hodge(DENSE)))
        assert wedge_star_matrix(DENSE).tobytes() == ref.tobytes()
