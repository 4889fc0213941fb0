"""Exterior algebra: worked examples against independent sign oracles, then laws."""

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_workbench.cayley import phi0
from cayley_workbench.forms import (KForm, basis_vector, blade, blade_masks, coeffs_to_form,
                                    evaluate, flat, gram_defect, hodge, indices_of, inner, interior,
                                    mask_of, merge_sign, restrict, scalar_form,
                                    volume_form, wedge)


def perm_sign(seq):
    """Brute-force inversion count; the independent sign oracle for this file."""
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def rand_form(rng, n, k, terms=4):
    """Sparse form with small integer coefficients (exact arithmetic)."""
    combos = list(combinations(range(1, n + 1), k))
    picks = rng.choice(len(combos), size=min(terms, len(combos)), replace=False)
    return KForm.from_terms(n, k, {combos[p]: int(rng.integers(-3, 4)) for p in picks})


e = lambda i: basis_vector(8, i)


class TestWedge:
    def test_disjoint_ascending(self):
        assert blade(8, 1, 2) ^ blade(8, 3, 4) == blade(8, 1, 2, 3, 4)

    def test_repeated_index_kills(self):
        assert (blade(8, 1, 2) ^ blade(8, 1, 3)).is_zero()

    def test_interleaved_sign(self):
        # sign of sorting (1,3,2,4) by the independent oracle
        assert perm_sign((1, 3, 2, 4)) == -1
        assert blade(8, 1, 3) ^ blade(8, 2, 4) == -1 * blade(8, 1, 2, 3, 4)

    def test_all_degree2_signs_match_oracle(self):
        for a in combinations(range(1, 9), 2):
            for b in combinations(range(1, 9), 2):
                w = blade(8, *a) ^ blade(8, *b)
                if set(a) & set(b):
                    assert w.is_zero()
                else:
                    expected = perm_sign(a + b)
                    assert w == expected * blade(8, *sorted(a + b))

    def test_merge_sign_matches_oracle(self):
        # every disjoint pair of masks on R^8, and random ones up to R^16
        pairs = [(a, b) for a in range(1 << 8) for b in range(1 << 8) if not a & b]
        rng = np.random.default_rng(5)
        for a, b in rng.integers(0, 1 << 16, size=(2000, 2)):
            pairs.append((int(a), int(b) & ~int(a)))
        for a, b in pairs:
            assert merge_sign(a, b) == perm_sign(indices_of(a) + indices_of(b))

    def test_graded_anticommutativity_odd_degrees(self):
        a, b = blade(8, 1, 2, 3), blade(8, 4, 5, 6)
        assert (a ^ b) == -1 * (b ^ a)

    def test_degree_overflow_is_zero(self):
        w = blade(8, 1, 2, 3, 4, 5) ^ blade(8, 6, 7, 8) ^ blade(8, 1)
        assert w.is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            blade(8, 1) ^ blade(6, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_wedge_laws_exact(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    a = rand_form(rng, n, int(rng.integers(1, 3)))
    b = rand_form(rng, n, int(rng.integers(1, 3)))
    c = rand_form(rng, n, int(rng.integers(1, 3)))
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
    p, q = a.degree, b.degree
    assert wedge(a, b) == (-1) ** (p * q) * wedge(b, a)
    assert wedge(a + a, b) == wedge(a, b) + wedge(a, b)


def test_wedge_associativity_bulk():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        a = rand_form(rng, 6, 1, terms=2)
        b = rand_form(rng, 6, 1, terms=2)
        c = rand_form(rng, 6, 2, terms=2)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


class TestHodge:
    def test_examples(self):
        assert hodge(blade(8, 1, 2, 3, 4)) == blade(8, 5, 6, 7, 8)
        assert hodge(scalar_form(8, 1)) == volume_form(8)

    def test_odd_blade_sign_from_oracle(self):
        s = perm_sign((1, 3, 5, 7, 2, 4, 6, 8))
        assert hodge(blade(8, 1, 3, 5, 7)) == s * blade(8, 2, 4, 6, 8)
        assert s in (1, -1)

    def test_all_blades_match_permutation_oracle(self):
        for k in range(9):
            for idx in combinations(range(1, 9), k):
                comp = tuple(i for i in range(1, 9) if i not in idx)
                expected = perm_sign(idx + comp)
                got = hodge(blade(8, *idx))
                assert got == expected * blade(8, *comp) if comp else \
                    got == expected * scalar_form(8, 1)

    def test_double_star_sign_every_degree(self):
        rng = np.random.default_rng(1)
        for k in range(9):
            a = rand_form(rng, 8, k, terms=5)
            assert hodge(hodge(a)) == (-1) ** (k * (8 - k)) * a

    def test_involution_on_even_degrees(self):
        rng = np.random.default_rng(7)
        for k in (0, 2, 4, 6, 8):
            a = rand_form(rng, 8, k, terms=5)
            assert hodge(hodge(a)) == a

    def test_general_dimension_sign(self):
        # on R^6, ** = (-1)^{k(6-k)}: degree 1 gives -1
        a = blade(6, 2)
        assert hodge(hodge(a)) == -1 * a


class TestInterior:
    def test_examples(self):
        a = blade(8, 1, 2, 3, 4)
        assert interior(e(1), a) == blade(8, 2, 3, 4)
        assert interior(e(5), a).is_zero()
        assert interior(e(2), a) == -1 * blade(8, 1, 3, 4)

    def test_slot_sign_oracle(self):
        # extracting index at 0-based position p carries (-1)^p
        a = blade(8, 2, 4, 6, 8)
        for p, i in enumerate((2, 4, 6, 8)):
            rest = tuple(j for j in (2, 4, 6, 8) if j != i)
            assert interior(e(i), a) == (-1) ** p * blade(8, *rest)

    def test_nilpotent(self):
        rng = np.random.default_rng(2)
        a = rand_form(rng, 8, 3, terms=6)
        v = rng.normal(size=8)
        twice = interior(v, interior(v, a))
        assert float(twice.norm_sq()) < 1e-24

    def test_antiderivation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rand_form(rng, 7, 2, terms=3)
            b = rand_form(rng, 7, 3, terms=3)
            v = tuple(int(x) for x in rng.integers(-3, 4, size=7))
            lhs = interior(v, wedge(a, b))
            rhs = wedge(interior(v, a), b) + (-1) ** a.degree * wedge(a, interior(v, b))
            assert lhs == rhs

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            interior(e(1), scalar_form(8, 1))


class TestFlatEval:
    def test_flat_examples(self):
        assert flat(e(3), 8) == blade(8, 3)
        v = tuple(2 * a + b for a, b in zip(e(1), e(2)))
        assert flat(v, 8) == 2 * blade(8, 1) + blade(8, 2)
        assert flat((0,) * 8, 8).is_zero()

    def test_flat_is_metric_dual(self):
        rng = np.random.default_rng(4)
        v, x = rng.normal(size=8), rng.normal(size=8)
        assert abs(evaluate(flat(v, 8), [x]) - float(v @ x)) < 1e-12

    def test_eval_examples(self):
        a = blade(8, 1, 2, 3, 4)
        assert evaluate(a, [e(1), e(2), e(3), e(4)]) == 1
        assert evaluate(a, [e(2), e(1), e(3), e(4)]) == -1

    def test_eval_antisymmetry_random(self):
        rng = np.random.default_rng(5)
        a = rand_form(rng, 8, 3, terms=6)
        u, v, w = (rng.normal(size=8) for _ in range(3))
        assert abs(evaluate(a, [u, v, w]) + evaluate(a, [v, u, w])) < 1e-10

    def test_eval_arity(self):
        with pytest.raises(ValueError):
            evaluate(blade(8, 1, 2), [e(1)])


class TestInnerRestrict:
    def test_blades_orthonormal(self):
        assert inner(blade(8, 1, 2), blade(8, 1, 2)) == 1
        assert inner(blade(8, 1, 2), blade(8, 1, 3)) == 0

    def test_inner_matches_wedge_hodge_duality(self):
        rng = np.random.default_rng(6)
        full = (1 << 8) - 1
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            a = rand_form(rng, 8, k, terms=4)
            b = rand_form(rng, 8, k, terms=4)
            pairing = wedge(a, hodge(b)).terms.get(full, 0)
            assert abs(float(pairing - inner(a, b))) < 1e-10

    def test_restrict_examples(self):
        assert restrict(blade(8, 1, 2), [e(1), e(2)]) == blade(2, 1, 2)
        assert restrict(blade(8, 1, 2), [e(3), e(4)]).is_zero()

    def test_restrict_rejects_skew_basis(self):
        with pytest.raises(ValueError):
            restrict(blade(8, 1, 2), [e(1), tuple(a + b for a, b in zip(e(1), e(2)))])

    def test_gram_defect(self):
        assert gram_defect([e(1), e(2)]) == 0.0


def loop_tensor(a):
    """The dense tensor entry by entry over the k! orderings of every blade."""
    dtype = complex if any(isinstance(c, complex) for c in a.terms.values()) else float
    T = np.zeros((a.n,) * a.degree, dtype=dtype)
    if a.degree == 0:
        return T + a.terms.get(0, 0)
    for idx, c in a.blades():
        for perm in permutations(range(a.degree)):
            T[tuple(idx[p] - 1 for p in perm)] = perm_sign(perm) * c
    return T


def rotated_phi0():
    """phi0 under a Haar rotation: a float form on all 70 blades."""
    Q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(8, 8)))
    R = np.einsum("ai,bj,ck,dl,ijkl->abcd", Q, Q, Q, Q, phi0().tensor)
    return KForm.from_terms(8, 4, {c: float(R[tuple(i - 1 for i in c)])
                                   for c in combinations(range(1, 9), 4)})


TENSOR_FORMS = {
    "phi0": lambda: phi0().form,
    "rotated_phi0": rotated_phi0,
    "fraction": lambda: KForm.from_terms(8, 3, {(1, 2, 3): Fraction(1, 3),
                                                (2, 5, 8): Fraction(-7, 5)}),
    "complex": lambda: KForm.from_terms(8, 2, {(1, 2): 1 + 2j, (1, 3): complex(2.0, -0.0),
                                                (2, 3): complex(-2.0, -0.0), (4, 8): 3.0,
                                                (5, 6): -1, (6, 7): Fraction(1, 7)}),
    "degree0": lambda: scalar_form(8, Fraction(5, 2)),
    "degree1": lambda: KForm.from_terms(8, 1, {(1,): 2, (4,): -3.5}),
    "degree8": lambda: volume_form(8) * -3,
}


class TestSerialization:
    def test_json_roundtrip(self):
        a = KForm.from_terms(8, 4, {(1, 2, 3, 4): 1, (1, 3, 6, 8): -1})
        assert KForm.from_json_dict(a.to_json_dict()) == a

    def test_json_rejects_a_repeated_blade(self):
        # the two entries would otherwise cancel into the zero form
        data = {"n": 8, "degree": 4, "terms": [{"idx": [1, 2, 3, 4], "c": 1},
                                               {"idx": [1, 2, 3, 4], "c": -1}]}
        with pytest.raises(ValueError, match="listed twice"):
            KForm.from_json_dict(data)

    def test_json_shape(self):
        d = blade(8, 1, 2).to_json_dict()
        assert d == {"n": 8, "degree": 2, "terms": [{"idx": [1, 2], "c": 1}]}

    def test_tensor_antisymmetry(self):
        a = KForm.from_terms(8, 2, {(1, 2): 2, (3, 7): -1})
        T = a.to_tensor()
        assert T[0, 1] == 2 and T[1, 0] == -2
        assert np.allclose(T, -T.T)

    @pytest.mark.parametrize("name", list(TENSOR_FORMS))
    def test_tensor_table_matches_permutation_loop(self, name):
        a = TENSOR_FORMS[name]()
        T, want = a.to_tensor(), loop_tensor(a)
        assert type(T) is type(want)  # degree 0 gives a scalar
        T, want = np.asarray(T), np.asarray(want)
        assert (T.dtype, T.shape) == (want.dtype, want.shape)
        assert T.tobytes() == want.tobytes()  # signed zeros included

    def test_coefficient_signed_lookup(self):
        a = blade(8, 1, 2, 3, 4)
        assert a.coefficient(2, 1, 3, 4) == -1
        assert a.coefficient(1, 1, 3, 4) == 0


def test_explicit_zero_coefficients_are_dropped():
    a = KForm(8, 2, {0b11: 0, 0b101: 2})
    assert list(a.blades()) == [((1, 3), 2)]
    assert KForm(8, 2, {0b11: 0}).is_zero()


def test_blade_validation():
    with pytest.raises(ValueError):
        mask_of((2, 1), 8)
    with pytest.raises(ValueError):
        mask_of((0, 1), 8)
    with pytest.raises(ValueError):
        KForm(8, 2, {0b111: 1})
    # non-ascending, out of range below and above, wrong length
    for idx in [(2, 1), (0, 1), (1, 9), (1, 2, 3)]:
        with pytest.raises(ValueError):
            KForm.from_terms(8, 2, {idx: 1})


def test_constructor_owns_its_terms():
    d = {1: 2}
    f = KForm(8, 1, d)
    d[2] = 0
    d[4] = 7
    assert f.terms == {1: 2}
    assert repr(f) == "KForm(8, 1, 2*dx1)"


def test_builders_leave_zero_filtering_to_the_constructor():
    assert flat((0, 3, 0, 0, 0, 0, 0, 0), 8).terms == {0b10: 3}
    frame = [basis_vector(8, i) for i in (1, 2, 5, 6)]
    assert restrict(blade(8, 1, 2), frame).terms == {0b11: 1}
    assert coeffs_to_form(8, 1, [0.0, 2.0] + [0.0] * 6, blade_masks(8, 1)).terms == {0b10: 2.0}


def test_fraction_coefficients_stay_exact():
    a = Fraction(1, 3) * blade(8, 1, 2)
    b = Fraction(3, 1) * blade(8, 3, 4)
    assert wedge(a, b) == blade(8, 1, 2, 3, 4)
    assert inner(a, a) == Fraction(1, 9)
