"""Exact characteristic-class calculus."""

from fractions import Fraction

import pytest

from cayley_workbench.topology import (CohClass4, Hom4Class, Hom12Class,
                                       ManifoldInvariants, Spin7Verdict,
                                       admits_spin7, betti_g48, cay0_class,
                                       cay0_dual, four_fields_exist, gauss_class,
                                       intersection_with_cay0, pairing,
                                       poincare_dual_12, two_plane_field_exists)


def inv(**kw):
    base = dict(w1_zero=True, w2_zero=True, w6_zero=True,
                p1_sq=0, p2=0, chi=0, sigma=0)
    base.update(kw)
    return ManifoldInvariants(**base)


class TestAdmitsSpin7:
    def test_all_zero_both_orientations(self):
        assert admits_spin7(inv()) is Spin7Verdict.YES_BOTH

    def test_sphere_like_rejected(self):
        assert admits_spin7(inv(chi=2)) is Spin7Verdict.NO

    def test_quaternionic_plane_like(self):
        assert admits_spin7(inv(p1_sq=4, p2=7, chi=3)) is Spin7Verdict.YES_PLUS

    def test_orientation_symmetry(self):
        a = admits_spin7(inv(p1_sq=4, p2=7, chi=3))
        b = admits_spin7(inv(p1_sq=4, p2=7, chi=-3))
        assert {a, b} == {Spin7Verdict.YES_PLUS, Spin7Verdict.YES_MINUS}

    def test_stiefel_whitney_gate(self):
        assert admits_spin7(inv(w1_zero=False)) is Spin7Verdict.NO_STIEFEL_WHITNEY
        assert admits_spin7(inv(w2_zero=False)) is Spin7Verdict.NO_STIEFEL_WHITNEY


class TestPairing:
    def test_table_rows(self):
        e_E, e_F, p1 = CohClass4(1, 0, 0), CohClass4(0, 1, 0), CohClass4(0, 0, 1)
        g24, g15, g45 = Hom4Class(1, 0, 0), Hom4Class(0, 1, 0), Hom4Class(0, 0, 1)
        assert pairing(e_E, g45) == 2
        assert pairing(e_F, g15) == 2
        assert pairing(p1, g24) == 2
        assert pairing(e_E, g24) == pairing(e_E, g15) == 0
        assert pairing(e_F, g24) == pairing(e_F, g45) == 0
        assert pairing(p1, g15) == pairing(p1, g45) == 0

    def test_bilinearity(self):
        c = CohClass4(1, 1, 0)
        h = Hom4Class(0, 0, Fraction(1, 2))
        assert pairing(c, h) == 1

    def test_class_arithmetic(self):
        a = CohClass4(1, 0, 0) + CohClass4(0, 1, 0)
        assert a == cay0_dual()
        assert 2 * Hom4Class(1, 0, 0) == Hom4Class(2, 0, 0)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            CohClass4(1, 2)


class TestGaussClass:
    def test_examples(self):
        assert gauss_class(2, 0) == Hom4Class(0, 0, 1)
        assert gauss_class(0, 0) == Hom4Class(0, 0, 0)
        assert gauss_class(0, 4) == Hom4Class(6, 0, 0)

    def test_half_integers_kept_exact(self):
        g = gauss_class(1, 1)
        assert g.coeffs == (Fraction(3, 2), Fraction(0), Fraction(1, 2))


class TestCay0:
    def test_class_and_dual(self):
        assert cay0_class() == Hom12Class(1, 1, 0)
        assert cay0_dual() == CohClass4(1, 1, 0)

    def test_poincare_duality_on_generators(self):
        assert poincare_dual_12(Hom12Class(1, 0, 0)) == CohClass4(1, 0, 0)
        assert poincare_dual_12(Hom12Class(0, 1, 0)) == CohClass4(0, 1, 0)
        # the combination [CAY] + [G4R7] - [G3R7] maps to (p1 + eE - eF)/2
        combo = poincare_dual_12(Hom12Class(1, -1, 1))
        assert combo == CohClass4(Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2))

    def test_intersection_examples(self):
        assert intersection_with_cay0(2, 1) == 2
        assert intersection_with_cay0(0, 4) == 0
        assert intersection_with_cay0(-4, 0) == -4

    def test_intersection_is_an_exact_int_for_huge_inputs(self):
        for chi in (10**30, -10**30, 10**30 - 1, 7, 0):
            for sigma in (10**30, -10**30 + 3, 1, 0):
                got = intersection_with_cay0(chi, sigma)
                assert type(got) is int and got == chi

    def test_non_integral_intersection_raises(self, monkeypatch):
        monkeypatch.setattr("cayley_workbench.topology._CAY0_NUM", (1, 1))
        monkeypatch.setattr("cayley_workbench.topology._CAY0_DEN", 2)
        assert intersection_with_cay0(1, 1) == 1
        with pytest.raises(ArithmeticError, match="non-integral intersection number 1/2"):
            intersection_with_cay0(1, 0)

    def test_intersection_identity_small_grid(self):
        for chi in range(-20, 21):
            for sigma in range(-20, 21):
                assert intersection_with_cay0(chi, sigma) == chi


class TestBetti:
    def test_table(self):
        assert [betti_g48(k) for k in (0, 4, 8, 12, 16)] == [1, 3, 4, 3, 1]
        assert betti_g48(5) == 0

    def test_palindromic_and_total(self):
        seq = [betti_g48(k) for k in range(17)]
        assert seq == seq[::-1]
        assert sum(seq) == 12

    def test_range(self):
        with pytest.raises(ValueError):
            betti_g48(17)


class TestPlaneFields:
    def test_two_plane_condition(self):
        assert two_plane_field_exists(0, 8)
        assert not two_plane_field_exists(2, 0)
        assert not two_plane_field_exists(0, 2)

    def test_four_fields(self):
        assert four_fields_exist(True)
        assert not four_fields_exist(False)
