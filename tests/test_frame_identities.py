"""The (A, B) invariants and the three contraction identities."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cayley_workbench.cayley import as_cayley, as_kform, phi0, phi_octonionic
from cayley_workbench.forms import (KForm, basis_vector, blade_masks, evaluate, flat,
                                    form_to_coeffs, hodge, inner, interior,
                                    lambda2_matrix, wedge)
from cayley_workbench.frame_identities import (REFERENCE_MAGNITUDES,
                                               batch_identity_lhs,
                                               batch_invariants,
                                               batch_pair_values,
                                               double_contraction,
                                               extract_coefficients,
                                               identity_coefficients, identity_lhs,
                                               identity_residual, invariants,
                                               pair_coords, pair_matrix,
                                               sample_frames)
from cayley_workbench.planes import PAIR_BLOCK, _pair_contraction
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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocked_cayley_free_sampler_matches_one_product(self, seed):
        # 20,000 frames span 79 blocks; each block's product rounds as the whole one did
        F = sample_frames(20000, np.random.default_rng(seed), cayley_free=True, phi=P0)
        G = np.random.default_rng(seed).normal(size=(20000, 4, 8))
        N = _pair_contraction(as_cayley(P0).tensor.reshape(64, 64), G[:, 0], G[:, 1])
        grad = np.einsum("ni,nij->nj", G[:, 2], N)
        gn = np.einsum("ni,ni->n", grad, grad)
        gn[gn == 0] = 1.0
        G[:, 3] -= (np.einsum("ni,ni->n", grad, G[:, 3]) / gn)[:, None] * grad
        assert 20000 > 78 * PAIR_BLOCK
        assert F.tobytes() == G.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_frames_are_the_gaussian_draw(self, seed):
        F = sample_frames(1000, np.random.default_rng(seed))
        assert np.array_equal(F, np.random.default_rng(seed).normal(size=(1000, 4, 8)))

    def test_cayley_free_sampler_needs_phi(self):
        with pytest.raises(ValueError, match="cayley_free sampling needs phi"):
            sample_frames(10, np.random.default_rng(0), cayley_free=True)

    def test_small_form_fits_its_proven_coefficients(self):
        # one draw, fitted as it comes: no conditioning test rejects a small form
        phi = as_cayley(1e-10 * P0.form)
        fit = extract_coefficients(1, 200, 0, phi)
        c_a, c_b, _ = identity_coefficients(phi, 1)
        assert (fit.c_a, fit.c_b) == pytest.approx((c_a, c_b), rel=1e-9)

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


def gather_pair_coords(U, V):
    """u_a v_b - u_b v_a as four strided gathers: the oracle for ``pair_coords``."""
    a, b = np.triu_indices(8, 1)
    return U[:, a] * V[:, b] - U[:, b] * V[:, a]


#: rows on either side of the block edges of the chunked kernels
EDGE_ROWS = (0, 1, 4094, 4095, 4096, 4097, 8191, 8192, 8193, 8999)


class TestPairKernels:
    def test_pair_coords_match_gathers_bit_for_bit(self):
        U, V = np.random.default_rng(11).normal(size=(2, 5000, 8))
        assert pair_coords(U, V).tobytes() == gather_pair_coords(U, V).tobytes()

    def test_pair_coords_exact_on_integer_frames(self):
        U, V = np.random.default_rng(12).integers(-2, 3, size=(2, 5000, 8)).astype(float)
        assert np.array_equal(pair_coords(U, V), gather_pair_coords(U, V))

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 9000])
    def test_chunked_values_are_exact_on_integer_frames(self, n):
        # entries -2..2 keep every product and sum an integer far below 2^53
        F = np.random.default_rng(n).integers(-2, 3, size=(n, 4, 8)).astype(float)
        values = batch_pair_values(F, P0, (0, 1, 2, 3))
        assert [v.shape for v in values] == [(n,)] * 5
        A, B, *lhs = values
        u, v, y, w = (F[:, k].astype(np.int64) for k in range(4))
        dot = lambda a, b: np.einsum("ni,ni->n", a, b)
        assert np.array_equal(A, dot(u, y) * dot(v, w) - dot(u, w) * dot(v, y))
        T = P0.tensor.astype(np.int64)
        assert np.array_equal(B, np.einsum("ijkl,ni,nj,nk,nl->n", T, u, v, y, w))
        for i, L in enumerate(lhs, 1):
            c_a, c_b, _ = identity_coefficients(P0, i)
            assert np.array_equal(L, c_a * A + c_b * B)
        for r in (r for r in EDGE_ROWS if r < n):
            frame = tuple(F[r])
            inv = invariants(frame, P0)
            assert (A[r], B[r]) == (inv.A, inv.B)
            assert [L[r] for L in lhs] == [identity_lhs(i, frame, P0) for i in (1, 2, 3)]

    def test_strided_view_gives_the_bytes_of_its_copy(self):
        X = np.random.default_rng(13).normal(size=(5000, 8, 4))
        view = np.swapaxes(X, 1, 2)
        got = batch_pair_values(view, P0, (0, 1, 2, 3))
        want = batch_pair_values(np.ascontiguousarray(view), P0, (0, 1, 2, 3))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_invariants_and_lhs_are_thin_callers(self):
        F = np.random.default_rng(14).normal(size=(100, 4, 8))
        A, B = batch_pair_values(F, P0, (0,))
        assert all(np.array_equal(g, w) for g, w in zip(batch_invariants(F, P0), (A, B)))
        assert np.array_equal(batch_identity_lhs(2, F, P0), batch_pair_values(F, P0, (2,))[1])
        # a product over more pair matrices may round a column differently, in the last bit
        A4, B4, _, L2, _ = batch_pair_values(F, P0, (0, 1, 2, 3))
        assert np.array_equal(A4, A)
        assert np.allclose(B4, B, rtol=1e-13, atol=1e-13)
        assert np.allclose(L2, batch_identity_lhs(2, F, P0), rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 8, 4), (3, 4), (3, 4, 7)])
    def test_rejects_other_layouts(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            batch_pair_values(np.zeros(shape), P0, (0,))


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


def exact_pair_value(phi, i, frame):
    """puv^T M_i pyw in exact arithmetic, from the integer entries of pair_matrix."""
    M = pair_matrix(phi, i)
    assert np.array_equal(M, np.rint(M))
    u, v, y, w = frame
    puv = [u[a] * v[b] - u[b] * v[a] for a, b in PAIRS]
    pyw = [y[a] * w[b] - y[b] * w[a] for a, b in PAIRS]
    return sum(puv[p] * int(M[p, q]) * pyw[q] for p in range(28) for q in range(28))


def eight_form_lhs(i, frame, phi):
    """The vol coefficient of the full 8-form of identity i, wedged term by term."""
    u, v, y, w = frame
    f = as_kform(phi)
    if i == 1:
        total = wedge(wedge(double_contraction(u, v, f), wedge(flat(y, 8), flat(w, 8))), f)
    elif i == 2:
        total = wedge(wedge(flat(u, 8), flat(v, 8)), wedge(interior(y, f), interior(w, f)))
    else:
        total = wedge(wedge(double_contraction(u, v, f), double_contraction(y, w, f)), f)
    return total.terms.get((1 << 8) - 1, 0)


class TestExactIdentityLhs:
    @pytest.mark.parametrize("phi", [P0, phi_octonionic(), DENSE],
                             ids=["phi0", "octonionic", "dense"])
    def test_integer_frames_give_the_exact_bilinear_value(self, phi):
        rng = np.random.default_rng(21)
        for _ in range(15):
            frame = [tuple(int(x) for x in row) for row in rng.integers(-3, 4, size=(4, 8))]
            for i in (1, 2, 3):
                got = identity_lhs(i, frame, phi)
                assert type(got) is int
                assert got == exact_pair_value(phi, i, frame) == eight_form_lhs(i, frame, phi)

    def test_float_frames_match_the_eight_form_to_rounding(self):
        # the inner product sums the same products in another order
        for frame in np.random.default_rng(23).normal(size=(20, 4, 8)):
            for i in (1, 2, 3):
                want = eight_form_lhs(i, tuple(frame), P0)
                assert abs(identity_lhs(i, tuple(frame), P0) - want) <= 1e-13 * max(1, abs(want))

    def test_fraction_frames_give_fractions(self):
        rng = np.random.default_rng(22)
        frame = [tuple(Fraction(int(n), int(d)) for n, d in zip(row, den))
                 for row, den in zip(rng.integers(-4, 5, size=(4, 8)),
                                     rng.integers(1, 6, size=(4, 8)))]
        for i in (1, 2, 3):
            got = identity_lhs(i, frame, P0)
            assert type(got) is Fraction and got != 0
            assert got == exact_pair_value(P0, i, frame)

    def test_float_zero_has_no_minus_sign(self):
        # identity 2 negates an inner product that cancels to +0.0 on this frame
        s = tuple(float(a + b) for a, b in zip(e(1), e(2)))
        frame = tuple(tuple(map(float, x)) for x in (e(1), e(2))) + (s, s)
        got = identity_lhs(2, frame, P0)
        assert got == 0 and math.copysign(1.0, got) == 1.0
