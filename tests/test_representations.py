"""Irreducible splittings, the stabilizer algebra, and Casimir spectra."""

from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from cayley_workbench import representations as reps
from cayley_workbench.cayley import ConventionMap, derivation_action, phi0
from cayley_workbench.forms import KForm, blade, blade_masks, coeffs_to_form, \
    form_to_coeffs, hodge, indices_of, wedge

P0 = phi0()
#: phi0 carried by a signed permutation: admissible, with another M
MOVED = ConventionMap((2, 1, 4, 3, 6, 5, 8, 7), (1, -1, 1, 1, -1, 1, 1, 1)).transport(P0.form)

#: Casimir eigenvalues in the trace-orthonormal normalization, recorded from
#: the construction itself (they are stable rationals: -21/8, -3, -5, -49/8, ...)
RECORDED_CASIMIR = {
    1: [(-21 / 8, 8)],
    2: [(-5.0, 21), (-3.0, 7)],
    3: [(-49 / 8, 48), (-21 / 8, 8)],
    4: [(-7.0, 27), (-6.0, 35), (-3.0, 7), (0.0, 1)],
    5: [(-49 / 8, 48), (-21 / 8, 8)],
    6: [(-5.0, 21), (-3.0, 7)],
    7: [(-21 / 8, 8)],
}


def comp_matrix(sb, label):
    masks = blade_masks(8, sb.degree)
    return np.array([form_to_coeffs(b, masks) for b in sb.components[label]])


class TestLambda2:
    def test_spectrum_multiplicities(self):
        M = reps.wedge_star_matrix(P0)
        vals = np.linalg.eigvalsh(M)
        assert int(np.sum(np.abs(vals - 3) < 1e-9)) == 7
        assert int(np.sum(np.abs(vals + 1) < 1e-9)) == 21

    def test_spectrum_exact_polynomial_identity(self):
        # (M - 3)(M + 1) = 0 over the integers: an exact certificate of the
        # eigenvalues that no floating eigensolver can fake
        M = np.rint(reps.wedge_star_matrix(P0)).astype(np.int64)
        assert np.array_equal(M, reps.wedge_star_matrix(P0))
        prod = (M - 3 * np.eye(28, dtype=np.int64)) @ (M + np.eye(28, dtype=np.int64))
        assert np.count_nonzero(prod) == 0

    def test_split_dims_and_eigen_residual(self):
        sb = reps.lambda2_split(P0)
        assert sb.dims() == {"2_7": 7, "2_21": 21}
        M = reps.wedge_star_matrix(P0)
        masks = blade_masks(8, 2)
        for label, lam in (("2_7", 3.0), ("2_21", -1.0)):
            for b in sb.components[label]:
                v = form_to_coeffs(b, masks)
                assert np.linalg.norm(M @ v - lam * v) < 1e-9

    def test_zero_form_operator_spectrum(self):
        M = reps.wedge_star_matrix(KForm.zero(8, 4))
        vals = np.linalg.eigvalsh(M)
        assert vals.shape == (28,)
        assert np.allclose(vals, 0)


class TestLambda3:
    def test_dims(self):
        sb = reps.lambda3_split(P0)
        assert sb.dims() == {"3_8": 8, "3_48": 48}

    def test_orthogonality(self):
        sb = reps.lambda3_split(P0)
        B8, B48 = comp_matrix(sb, "3_8"), comp_matrix(sb, "3_48")
        assert float(np.max(np.abs(B8 @ B48.T))) < 1e-10

    def test_hodge_image_is_degree5_piece(self):
        sb3 = reps.lambda3_split(P0)
        sb5 = reps.split(P0, 5)
        masks5 = blade_masks(8, 5)
        starred = np.array([form_to_coeffs(hodge(b), masks5)
                            for b in sb3.components["3_8"]])
        B5 = np.array([form_to_coeffs(b, masks5) for b in sb5.components["5_8"]])
        # equal projectors = equal subspaces
        assert np.linalg.norm(starred.T @ starred - B5.T @ B5) < 1e-9


class TestLambda4:
    def test_dims(self):
        sb = reps.lambda4_split(P0)
        assert sb.dims() == {"4_1": 1, "4_7": 7, "4_27": 27, "4_35": 35}

    def test_phi_spans_the_line(self):
        sb = reps.lambda4_split(P0)
        line = sb.components["4_1"][0]
        masks = blade_masks(8, 4)
        v = form_to_coeffs(line, masks)
        w = form_to_coeffs(P0.form, masks)
        w = w / np.linalg.norm(w)
        assert min(np.linalg.norm(v - w), np.linalg.norm(v + w)) < 1e-12

    def test_projection_examples(self):
        sb = reps.lambda4_split(P0)
        pr = reps.project(sb, P0.form, "4_1")
        assert float((pr - P0.form).norm_sq()) < 1e-20
        assert float(reps.project(sb, P0.form, "4_35").norm_sq()) < 1e-20

    def test_projection_completeness(self):
        sb = reps.lambda4_split(P0)
        rng = np.random.default_rng(0)
        a = coeffs_to_form(8, 4, rng.normal(size=70), blade_masks(8, 4))
        total = KForm.zero(8, 4)
        for label in sb.components:
            total = total + reps.project(sb, a, label)
        assert float((total - a).norm_sq()) ** 0.5 < 1e-10

    def test_unknown_label(self):
        sb = reps.lambda4_split(P0)
        with pytest.raises(KeyError):
            reps.project(sb, P0.form, "4_9")


class TestCasimir:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_spectrum_profile(self, k):
        spec = reps.casimir_spectrum(P0, k)
        want = RECORDED_CASIMIR[k]
        assert [m for _, m in spec] == [m for _, m in want]
        for (got, _), (ref, _) in zip(spec, want):
            assert abs(got - ref) < 1e-9

    def test_dimension_table_consistency(self):
        import math
        for k in range(9):
            dims = reps.DIMENSION_TABLE[k]
            assert sum(dims.values()) == math.comb(8, k)

    def test_casimir_symmetric(self):
        C = reps.casimir_matrix(P0, 2)
        assert np.linalg.norm(C - C.T) < 1e-12


def _generator(p, q):
    """E_pq = e_p (x) e_q - e_q (x) e_p as an exact integer matrix (1-based)."""
    X = [[0] * 8 for _ in range(8)]
    X[p - 1][q - 1], X[q - 1][p - 1] = 1, -1
    return X


@lru_cache(maxsize=None)
def _derivation_generators(k):
    """G[r] = matrix of E_pq (r-th pair p < q) acting on degree-k blades, one
    derivation_action call per blade."""
    masks = blade_masks(8, k)
    return np.array([[form_to_coeffs(derivation_action(_generator(p, q),
                                                       KForm(8, k, {m: 1})), masks)
                      for m in masks]
                     for p, q in combinations(range(1, 9), 2)]).transpose(0, 2, 1)


def _derivation_on_blade(X, mask):
    """Reference: the derivation of X on one blade, as a sparse dict.  Each factor
    dx^i is replaced by -sum_j X[i][j] dx^j, and dx^j is sorted into place with
    the sign of the transpositions."""
    acc = {}
    for pos, i in enumerate(indices_of(mask)):
        rest = mask ^ (1 << (i - 1))
        for j, c in enumerate(X[i - 1]):
            jbit = 1 << j
            if c == 0 or rest & jbit:
                continue
            below = (rest & (jbit - 1)).bit_count()
            acc[rest | jbit] = acc.get(rest | jbit, 0) + (c if (pos + below) % 2 else -c)
    return acc


def _generator_loop(k):
    """The int8 generator table filled one blade at a time, one
    ``_derivation_on_blade`` call per column."""
    masks = blade_masks(8, k)
    pos = {m: i for i, m in enumerate(masks)}
    out = np.zeros((28, len(masks), len(masks)), dtype=np.int8)
    for r, pq in enumerate(blade_masks(8, 2)):
        X = _generator(*indices_of(pq))
        for col, m in enumerate(masks):
            for mm, c in _derivation_on_blade(X, m).items():
                out[r, pos[mm], col] = c
    return out


def _trace_orthonormal_casimir(phi, k):
    """Sum of R(X)^2 over the spin(7) basis, each X scaled to tr(X^T X) = 1."""
    G = _derivation_generators(k)
    C = np.zeros(G.shape[1:])
    for X in reps.spin7_lie_algebra(phi):
        Xn = X / np.sqrt(np.trace(X.T @ X))
        R = np.einsum("r,rab->ab", Xn[np.triu_indices(8, 1)], G)
        C += R @ R
    return C


class TestCasimirClosedForm:
    @pytest.mark.parametrize("k", range(1, 8))
    @pytest.mark.parametrize("phi", [P0, MOVED], ids=["phi0", "moved"])
    def test_equals_trace_orthonormal_sum(self, phi, k):
        C = reps.casimir_matrix(phi, k)
        assert np.max(np.abs(C - _trace_orthonormal_casimir(phi, k))) < 1e-12

    @pytest.mark.parametrize("k", range(1, 8))
    def test_generator_table_matches_the_blade_loop(self, k):
        G = reps._generator_matrices(k)
        assert G.dtype == np.int8 and G.tobytes() == _generator_loop(k).tobytes()

    @pytest.mark.parametrize("k", range(1, 8))
    def test_eight_times_casimir_is_integral(self, k):
        C8 = 8 * reps.casimir_matrix(P0, k)
        assert np.array_equal(C8, np.rint(C8))

    @pytest.mark.parametrize("k", range(1, 8))
    def test_components_in_table_order(self, k):
        assert list(reps.split(P0, k).components) == list(reps.DIMENSION_TABLE[k])


class TestDefiningOperators:
    def test_48_is_the_wedge_kernel(self):
        for b in reps.split(P0, 3).components["3_48"]:
            assert float(wedge(b, P0.form).norm_sq()) ** 0.5 < 1e-12

    def test_8_is_spanned_by_star_of_vectors_wedge_phi(self):
        masks = blade_masks(8, 3)
        gen = np.array([form_to_coeffs(hodge(wedge(KForm(8, 1, {1 << i: 1}), P0.form)), masks)
                        for i in range(8)])
        q, _ = np.linalg.qr(gen.T)
        B8 = comp_matrix(reps.split(P0, 3), "3_8")
        assert np.linalg.norm(q @ q.T - B8.T @ B8) < 1e-12

    def test_self_dual_and_anti_self_dual_pieces(self):
        sb = reps.split(P0, 4)
        for label, sign in (("4_1", 1), ("4_7", 1), ("4_27", 1), ("4_35", -1)):
            for b in sb.components[label]:
                assert float((hodge(b) - sign * b).norm_sq()) ** 0.5 < 1e-12


class TestStabilizerAlgebra:
    def test_annihilates_phi(self):
        for X in reps.spin7_lie_algebra(P0):
            img = derivation_action(X, P0.form)
            assert float(img.norm_sq()) ** 0.5 < 1e-10

    def test_closes_under_commutator(self):
        Xs = reps.spin7_lie_algebra(P0)
        flat = np.array([X.ravel() for X in Xs])
        worst = 0.0
        for i, j in combinations(range(21), 2):
            C = Xs[i] @ Xs[j] - Xs[j] @ Xs[i]
            coef, *_ = np.linalg.lstsq(flat.T, C.ravel(), rcond=None)
            worst = max(worst, float(np.linalg.norm(flat.T @ coef - C.ravel())))
        assert worst < 1e-9

    def test_complement_does_not_close(self):
        sb = reps.lambda2_split(P0)
        X7 = [reps.form_as_matrix(b) for b in sb.components["2_7"]]
        flat = np.array([X.ravel() for X in X7])
        residuals = []
        for i, j in combinations(range(7), 2):
            C = X7[i] @ X7[j] - X7[j] @ X7[i]
            coef, *_ = np.linalg.lstsq(flat.T, C.ravel(), rcond=None)
            residuals.append(float(np.linalg.norm(flat.T @ coef - C.ravel())))
        assert max(residuals) > 0.5  # witness pair escapes the span

    def test_seven_part_does_not_annihilate(self):
        sb = reps.lambda2_split(P0)
        for b in sb.components["2_7"]:
            img = derivation_action(reps.form_as_matrix(b), P0.form)
            assert float(img.norm_sq()) ** 0.5 > 1.0


class TestHodgeIsometry:
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_star_maps_components_across_degrees(self, k):
        low = reps.split(P0, k)
        high = reps.split(P0, 8 - k)
        for label, basis in low.components.items():
            target_label = f"{8 - k}_{label.split('_')[1]}"
            masks = blade_masks(8, 8 - k)
            A = np.array([form_to_coeffs(hodge(b), masks) for b in basis])
            Bm = np.array([form_to_coeffs(b, masks)
                           for b in high.components[target_label]])
            assert np.linalg.norm(A.T @ A - Bm.T @ Bm) < 1e-9


class TestGate:
    def test_refuses_inadmissible_forms(self):
        with pytest.raises(ValueError):
            reps.lambda2_split(blade(8, 1, 2, 3, 4))
        with pytest.raises(ValueError):
            reps.split(blade(8, 1, 2, 3, 4), 3)

    def test_rotation_invariant_split(self):
        # a transported phi is admissible and splits with the same dimensions
        sb = reps.lambda2_split(MOVED)
        assert sb.dims() == {"2_7": 7, "2_21": 21}

    def test_degree_one_is_gated(self):
        # the coordinate basis of 1-forms is no longer returned for any input
        with pytest.raises(ValueError, match="admissibility"):
            reps.split(blade(8, 1, 2, 3, 4), 1)
        assert reps.split(blade(8, 1, 2, 3, 4), 0).dims() == {"0_1": 1}

    @pytest.mark.parametrize("k", range(1, 8))
    def test_casimir_needs_the_projector_identity(self, k):
        with pytest.raises(ValueError, match="2M"):
            reps.casimir_matrix(blade(8, 1, 2, 3, 4), k)

    def test_casimir_spectrum_refuses_inadmissible_forms(self):
        with pytest.raises(ValueError, match="admissibility"):
            reps.casimir_spectrum(blade(8, 1, 2, 3, 4), 2)
