"""The Cayley form, the convention dictionary, and admissibility certificates."""

from itertools import combinations

import numpy as np
import pytest

from cayley_workbench import octonions as o
from cayley_workbench.cayley import (BestMismatch, CayleyForm, ConventionMap,
                                     admissibility_report, derivation_action,
                                     orbit_distance, orbit_search, phi0,
                                     phi_octonionic, reconcile, so8_basis_element,
                                     stabilizer_dimension)
from cayley_workbench.forms import (KForm, blade, blade_masks, evaluate, hodge,
                                    indices_of, inner, volume_form, wedge)

BROKEN_PHI0 = KForm(8, 4, {**phi0().form.terms, 0b1111: -1})  # dx1234 flipped


class TestPhi0:
    def test_term_count_and_integrality(self):
        f = phi0().form
        assert len(f.terms) == 14
        assert all(c in (1, -1) for c in f.terms.values())

    def test_named_coefficients(self):
        f = phi0().form
        assert f.coefficient(1, 3, 6, 8) == -1
        assert f.coefficient(5, 6, 7, 8) == 1
        assert f.coefficient(1, 2, 3, 5) == 0

    def test_evaluation_on_paper_blade(self):
        from cayley_workbench.forms import basis_vector
        e = lambda i: basis_vector(8, i)
        assert evaluate(phi0().form, [e(1), e(3), e(5), e(7)]) == 1

    def test_self_dual_exact(self):
        f = phi0().form
        assert hodge(f) == f

    def test_norm_and_square(self):
        f = phi0().form
        assert inner(f, f) == 14
        assert wedge(f, f) == 14 * volume_form(8)


class TestPhiOctonionic:
    def test_fourteen_unit_terms(self):
        f = phi_octonionic().form
        assert len(f.terms) == 14
        assert all(c in (1, -1) for c in f.terms.values())

    def test_quaternionic_quadruple(self):
        f = phi_octonionic().form
        assert f.coefficient(1, 2, 3, 4) in (1, -1)

    def test_antisymmetry_matches_direct_formula(self):
        # the built form agrees with <cross3(x,y,z), w> on arbitrary vectors,
        # so the basis-quadruple construction really is alternating
        f = phi_octonionic().form
        rng = np.random.default_rng(0)
        for _ in range(20):
            vs = [rng.normal(size=8) for _ in range(4)]
            direct = o.dot(o.cross3(vs[0], vs[1], vs[2]), vs[3])
            assert abs(evaluate(f, vs) - direct) < 1e-10

    def test_swap_first_two_arguments(self):
        f = phi_octonionic().form
        rng = np.random.default_rng(1)
        vs = [rng.normal(size=8) for _ in range(4)]
        assert abs(evaluate(f, vs) + evaluate(f, [vs[1], vs[0], vs[2], vs[3]])) < 1e-10

    def test_admissible(self):
        rep = admissibility_report(phi_octonionic())
        assert rep.admissible


class TestConventionMap:
    def test_identity_and_inverse(self):
        g = ConventionMap((3, 1, 2, 4, 5, 6, 7, 8), (1, -1, 1, 1, 1, 1, -1, 1))
        gi = g.inverse()
        x = tuple(range(1, 9))
        assert gi.apply_to_vector(g.apply_to_vector(x)) == x
        assert ConventionMap.identity().is_identity()

    def test_transport_matches_vector_action(self):
        g = ConventionMap((2, 3, 1, 5, 4, 6, 8, 7), (1, 1, -1, 1, 1, -1, 1, 1))
        f = phi0().form
        moved = g.transport(f)
        rng = np.random.default_rng(2)
        vs = [rng.normal(size=8) for _ in range(4)]
        pulled = [g.inverse().apply_to_vector(v) for v in vs]
        assert abs(evaluate(moved, vs) - evaluate(f, pulled)) < 1e-10

    def test_matrix_is_orthogonal(self):
        g = ConventionMap((2, 3, 1, 5, 4, 6, 8, 7), (1, 1, -1, 1, 1, -1, 1, 1))
        M = g.matrix()
        assert np.allclose(M.T @ M, np.eye(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            ConventionMap((1, 1, 2, 3, 4, 5, 6, 7), (1,) * 8)
        with pytest.raises(ValueError):
            ConventionMap(tuple(range(1, 9)), (2,) + (1,) * 7)


class TestReconcile:
    def test_identity(self):
        assert reconcile(phi0(), phi0()) == ConventionMap.identity()

    def test_recovers_known_transposition(self):
        g = ConventionMap((1, 2, 3, 4, 5, 6, 8, 7), (1, 1, 1, 1, 1, -1, 1, 1))
        moved = g.transport(phi0().form)
        rec = reconcile(moved, phi0())
        assert isinstance(rec, ConventionMap)
        assert rec.transport(moved) == phi0().form

    def test_random_signed_permutation_roundtrips(self):
        # the lexicographically first exact permutation, free signs +1
        expected = [
            ((1, 2, 3, 4, 5, 8, 6, 7), (1, 1, 1, -1, 1, -1, -1, 1)),
            ((1, 2, 3, 4, 5, 6, 8, 7), (1, 1, 1, 1, 1, -1, -1, 1)),
            ((1, 2, 3, 5, 7, 8, 4, 6), (1, 1, 1, 1, 1, 1, 1, -1)),
            ((1, 2, 3, 5, 6, 4, 8, 7), (1, 1, 1, 1, 1, 1, 1, -1)),
            ((1, 2, 3, 5, 4, 8, 7, 6), (1, 1, 1, 1, 1, -1, 1, 1)),
            ((1, 2, 3, 5, 6, 8, 4, 7), (1, 1, 1, 1, 1, 1, 1, 1)),
            ((1, 2, 3, 5, 4, 8, 7, 6), (1, 1, 1, 1, -1, -1, 1, -1)),
            ((1, 2, 3, 5, 8, 7, 6, 4), (1, 1, 1, 1, -1, -1, -1, 1)),
            ((1, 2, 3, 5, 7, 8, 4, 6), (1, 1, 1, 1, 1, 1, -1, 1)),
            ((1, 2, 3, 5, 6, 8, 4, 7), (1, 1, 1, 1, 1, 1, -1, 1)),
        ]
        rng = np.random.default_rng(3)
        for perm_signs in expected:
            perm = tuple(int(x) + 1 for x in rng.permutation(8))
            signs = tuple(int(s) for s in rng.choice([-1, 1], size=8))
            moved = ConventionMap(perm, signs).transport(phi0().form)
            rec = reconcile(moved, phi0())
            assert rec == ConventionMap(*perm_signs)
            assert rec.transport(moved) == phi0().form

    def test_octonionic_reconciles_exactly(self):
        rec = reconcile(phi_octonionic(), phi0())
        assert isinstance(rec, ConventionMap)
        assert rec.transport(phi_octonionic().form) == phi0().form
        # the discovered dictionary: identity permutation, four sign flips
        assert rec == ConventionMap(tuple(range(1, 9)), (1, 1, 1, -1, 1, -1, -1, -1))

    def test_mismatch_reported_when_no_exact_map(self):
        result = reconcile(BROKEN_PHI0, phi0())
        assert result == BestMismatch(ConventionMap.identity(), 1,
                                      (((1, 2, 3, 4), -1, 1),), 40320)

    def test_closest_map_to_a_flipped_transport(self):
        rng = np.random.default_rng(5)
        perm = tuple(int(x) + 1 for x in rng.permutation(8))
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=8))
        terms = dict(ConventionMap(perm, signs).transport(phi0().form).terms)
        flipped = sorted(terms)[int(rng.integers(14))]
        terms[flipped] = -terms[flipped]
        a = KForm(8, 4, terms)
        result = reconcile(a, phi0())
        assert isinstance(result, BestMismatch)
        assert result.mismatches == 1 == len(result.diff)
        wrong = result.map.transport(a) - phi0().form
        assert [idx for idx, _ in wrong.blades()] == [idx for idx, _, _ in result.diff]

    def test_rejects_non_unit_coefficients(self):
        with pytest.raises(ValueError):
            reconcile(2 * phi0().form, phi0())

    def test_rejects_other_dimensions_and_degrees(self):
        with pytest.raises(ValueError):
            reconcile(blade(7, 1, 2, 3, 4), blade(7, 1, 2, 3, 4))
        with pytest.raises(ValueError):
            reconcile(blade(8, 1, 2, 3), blade(8, 1, 2, 3, 4))


class TestAdmissibility:
    def test_phi0_report(self):
        rep = admissibility_report(phi0())
        assert rep.self_dual and rep.norm14
        assert rep.stab_dim == 21
        assert rep.exact_match == ConventionMap.identity()
        assert rep.admissible

    def test_zero_form(self):
        rep = admissibility_report(KForm.zero(8, 4))
        assert rep.stab_dim == 28
        assert not rep.admissible

    def test_single_blade(self):
        rep = admissibility_report(blade(8, 1, 2, 3, 4))
        assert not rep.self_dual
        assert rep.stab_dim == 12
        assert not rep.admissible

    def test_scaled_form_fails_norm(self):
        rep = admissibility_report(2 * phi0().form)
        assert not rep.norm14
        assert rep.stab_dim == 21

    def test_fourteen_unit_terms_not_cayley(self):
        rep = admissibility_report(BROKEN_PHI0)
        assert rep.exact_match is None
        assert not rep.self_dual and rep.norm14
        assert not rep.admissible

    def test_orbit_residual_of_a_rotated_float_form(self):
        rep = admissibility_report(_rotated_phi0(6))
        assert rep.exact_match is None and rep.admissible
        assert rep.orbit_residual <= 1e-12
        assert admissibility_report(phi0()).orbit_residual == 0.0

    def test_no_orbit_residual_outside_the_orbit(self):
        assert admissibility_report(BROKEN_PHI0).orbit_residual is None
        assert admissibility_report(2 * phi0().form).orbit_residual is None

    def test_float_form_numerical_rank(self):
        f = phi0().form
        fl = KForm(8, 4, {m: float(c) for m, c in f.terms.items()})
        assert stabilizer_dimension(fl) == 21


class TestDerivationAction:
    def test_annihilation_is_a_stabilizer_statement(self):
        # generators with both indices inside one quaternionic block do not
        # all kill phi0, but the rank of the full action map is 7
        f = phi0().form
        imgs = []
        for p, q in combinations(range(1, 9), 2):
            img = derivation_action(so8_basis_element(p, q), f)
            imgs.append([img.terms.get(m, 0) for m in blade_masks(8, 4)])
        rank = np.linalg.matrix_rank(np.array(imgs, dtype=float))
        assert rank == 7

    def test_derivation_leibniz(self):
        X = so8_basis_element(2, 5)
        a, b = blade(8, 1, 2), blade(8, 3, 5)
        lhs = derivation_action(X, wedge(a, b))
        rhs = wedge(derivation_action(X, a), b) + wedge(a, derivation_action(X, b))
        assert lhs == rhs


def _rotate(T, g):
    return np.einsum("ijkl,ia,jb,kc,ld->abcd", T, g, g, g, g, optimize=True)


def _haar_rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(8, 8)))
    g = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(g) < 0:
        g[:, 0] = -g[:, 0]
    return g


def _from_tensor(T):
    terms = {}
    for m in blade_masks(8, 4):
        idx = tuple(i - 1 for i in indices_of(m))
        if abs(T[idx]) > 1e-15:
            terms[m] = float(T[idx])
    return KForm(8, 4, terms)


def _rotated_phi0(seed):
    return _from_tensor(_rotate(phi0().tensor, _haar_rotation(seed)))


class TestOrbitDescent:
    def _check(self, a, dist, g):
        # the rotation lies in SO(8) and reproduces the distance it reports
        assert np.max(np.abs(g.T @ g - np.eye(8))) < 1e-12
        assert abs(np.linalg.det(g) - 1.0) < 1e-12
        residual = _rotate(a.to_tensor(), g) - phi0().tensor
        assert abs(np.sqrt(np.sum(residual ** 2) / 24.0) - dist) < 1e-12

    def test_rotated_form_descends_to_zero(self):
        a = _rotated_phi0(4)
        dist, rotation = orbit_distance(a, steps=300, restarts=3, seed=0)
        assert dist < 1e-8
        self._check(a, dist, rotation)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_rotated_phi0_is_constructed(self, seed):
        a = _rotated_phi0(seed)
        result = orbit_search(a)
        assert result.method == "construction" and result.stops == {}
        assert result.distance <= 1e-12
        self._check(a, result.distance, result.rotation)
        dist, rotation = orbit_distance(a)
        assert dist == result.distance and np.array_equal(rotation, result.rotation)

    def test_decomposable_form_stays_away(self):
        # unit decomposable a: dist^2 = |a|^2 + 14 - 2 comass(phi0) = 13
        a = blade(8, 1, 2, 3, 4)
        dist, rotation = orbit_distance(a, steps=200, restarts=2, seed=0)
        assert abs(dist - np.sqrt(13)) < 1e-9
        self._check(a, dist, rotation)

    def test_rotated_blade_descends_and_says_how_it_stopped(self):
        a = _from_tensor(_rotate(blade(8, 1, 2, 3, 4).to_tensor(), _haar_rotation(10)))
        result = orbit_search(a, steps=200, restarts=2, seed=0)
        assert result.method == "descent" and sum(result.stops.values()) == 2
        assert abs(result.distance - np.sqrt(13)) < 1e-9

    @pytest.mark.parametrize("form", [2 * phi0().form, BROKEN_PHI0, blade(8, 1, 2, 3, 4)],
                             ids=["2phi0", "broken", "blade"])
    def test_no_construction_outside_the_orbit(self, form):
        assert CayleyForm(form).orbit_rotation is None

    def test_orientation_reversed_phi0_is_outside_the_orbit(self):
        # a reflection carries phi0 to an anti-self-dual form: same O(8)-orbit,
        # other SO(8)-orbit; its triple-cross frame still matches the fixed
        # pattern, but gives an orientation-reversing map onto phi0
        reflected = _from_tensor(_rotate(phi0().tensor, np.diag([-1.0] + [1.0] * 7)))
        assert CayleyForm(reflected).orbit_rotation is None
        assert orbit_search(reflected, restarts=1).method == "descent"

    def test_phi0_from_the_identity_start(self):
        dist, rotation = orbit_distance(phi0(), restarts=1)
        assert dist == 0.0 and np.array_equal(rotation, np.eye(8))

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_needs_a_restart(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            orbit_distance(phi0(), restarts=restarts)
