"""Octonion algebra: table facts, composition laws, triple cross, Cayley residual."""

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from cayley_workbench import octonions as o
from cayley_workbench.cayley import phi0
from cayley_workbench.octonions import _cd_conj, _cd_mul
from cayley_workbench.planes import standard_convention


def rand_pair(rng):
    return rng.normal(size=8), rng.normal(size=8)


class TestTable:
    def test_quaternion_subalgebra(self):
        # i * j = k in the doubled construction: o1 o2 = o3
        assert o.mul(o.basis(1), o.basis(2)) == o.basis(3)
        assert o.mul(o.basis(2), o.basis(1)) == tuple(-c for c in o.basis(3))

    def test_norm_of_simple_sum(self):
        x = (1, 1, 0, 0, 0, 0, 0, 0)
        prod = o.mul(x, o.conj(x))
        assert prod == (2, 0, 0, 0, 0, 0, 0, 0)

    def test_imaginary_units_square_to_minus_one(self):
        for i in range(1, 8):
            assert o.mul(o.basis(i), o.basis(i)) == tuple(-c for c in o.basis(0))

    def test_associator_nonzero(self):
        # brute-force both parenthesizations straight from the doubling recursion
        e1, e2, e4 = [list(o.basis(i)) for i in (1, 2, 4)]
        left = _cd_mul(_cd_mul(e1, e2), e4)
        right = _cd_mul(e1, _cd_mul(e2, e4))
        assert left != right
        assert o.associator(o.basis(1), o.basis(2), o.basis(4)) != (0,) * 8

    def test_conj(self):
        assert o.conj(o.basis(1)) == tuple(-c for c in o.basis(1))
        assert o.conj(o.basis(0)) == o.basis(0)

    def test_dot_on_units(self):
        assert o.dot(o.basis(2), o.basis(2)) == 1
        assert o.dot(o.basis(2), o.basis(3)) == 0

    def test_structure_tensor_matches_table(self):
        for i in range(8):
            for j in range(8):
                k, s = o.MUL_TABLE[i][j]
                assert o.STRUCTURE[i, j, k] == s
                assert np.count_nonzero(o.STRUCTURE[i, j]) == 1


def _cross2_tensor() -> np.ndarray:
    """C[i, j, k, l]: e_l coefficient of e_i (conj(e_j) e_k) - e_k (conj(e_j) e_i), read
    off CROSS_PAIRS, which holds the pairs i < k; the rest follow by antisymmetry."""
    C = np.zeros((8,) * 4, dtype=int)
    for p, (i, k) in enumerate(combinations(range(8), 2)):
        C[i, :, k] = o.CROSS_PAIRS[p]
        C[k, :, i] = -o.CROSS_PAIRS[p]
    return C


class TestCrossTables:
    def test_cross_table_is_the_doubling_chain_on_every_basis_triple(self):
        C = _cross2_tensor()
        units = [list(o.basis(i)) for i in range(8)]
        for i, j, k in product(range(8), repeat=3):
            cj = _cd_conj(units[j])
            chain = [p - q for p, q in zip(_cd_mul(units[i], _cd_mul(cj, units[k])),
                                           _cd_mul(units[k], _cd_mul(cj, units[i])))]
            assert C[i, j, k].tolist() == chain
            half = o.cross3(o.basis(i), o.basis(j), o.basis(k))
            assert [2 * c for c in half] == chain

    def test_cross_table_pulls_back_to_twice_phi0(self):
        # <x (conj(y) z) - z (conj(y) x), w> in R^8 coordinates is 2 phi0(x, y, z, w)
        G = standard_convention().matrix().astype(int)
        pulled = np.einsum("ijkl,ai,bj,ck,dl->abcd", _cross2_tensor(), G, G, G, G)
        assert np.array_equal(pulled, 2 * phi0().tensor)

    def test_im_table_is_the_imaginary_part_of_x_conj_y(self):
        for i, j in product(range(8), repeat=2):
            prod = _cd_mul(list(o.basis(i)), _cd_conj(list(o.basis(j))))
            assert o.IM_CONJ[8 * i + j].tolist() == prod[1:]

    def test_blocked_stack_matches_its_rows(self):
        # 600 rows cross the block edges at 256 and 512
        rng = np.random.default_rng(10)
        x, y, z, u = (v / np.linalg.norm(v, axis=1, keepdims=True)
                      for v in rng.normal(size=(4, 600, 8)))
        cross, residual = o.cross3(x, y, z), o.cayley_identity_residual(x, y, z, u)
        assert cross.shape == (600, 8) and residual.shape == (600,)
        for n in range(600):
            assert np.max(np.abs(cross[n] - o.cross3(x[n], y[n], z[n]))) <= 1e-15
            assert abs(residual[n] - o.cayley_identity_residual(x[n], y[n], z[n], u[n])) <= 1e-15

    def test_cayley_residual_of_int_tuples_is_the_exact_chain(self):
        rng = np.random.default_rng(11)
        x, y, z, u = ([int(c) for c in rng.integers(-3, 4, size=8)] for _ in range(4))
        cy, cu = _cd_conj(y), _cd_conj(u)
        diff = [p - q for p, q in zip(_cd_mul(_cd_mul(x, _cd_mul(cy, z)), cu),
                                      _cd_mul(_cd_mul(z, _cd_mul(cy, x)), cu))]
        assert any(diff[1:])
        want = float(np.sqrt(sum(c * c for c in diff[1:])))
        assert o.cayley_identity_residual(x, y, z, u) == want


class TestLaws:
    def test_composition_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            x, y = rand_pair(rng)
            lhs = o.norm(o.mul(x, y))
            rhs = o.norm(x) * o.norm(y)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)

    def test_dot_is_real_part_of_product_with_conjugate(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x, y = rand_pair(rng)
            assert abs(o.mul(x, o.conj(y))[0] - o.dot(x, y)) < 1e-12

    def test_alternativity(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            x, y = rand_pair(rng)
            left = np.asarray(o.mul(x, o.mul(x, y)))
            right = np.asarray(o.mul(o.mul(x, x), y))
            assert np.max(np.abs(left - right)) < 1e-12
            left = np.asarray(o.mul(o.mul(y, x), x))
            right = np.asarray(o.mul(y, o.mul(x, x)))
            assert np.max(np.abs(left - right)) < 1e-12

    def test_moufang(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            x, y = rand_pair(rng)
            z = rng.normal(size=8)
            lhs = o.mul(o.mul(x, y), o.mul(z, x))
            rhs = o.mul(x, o.mul(o.mul(y, z), x))
            assert np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))) < 1e-11

    def test_exact_integer_arithmetic(self):
        x = (1, 2, 3, 4, 5, 6, 7, 8)
        y = (8, 7, 6, 5, 4, 3, 2, 1)
        prod = o.mul(x, y)
        assert all(isinstance(c, int) for c in prod)
        assert o.dot(prod, prod) == (o.dot(x, x)) * (o.dot(y, y))


class TestCross3:
    def test_alternating(self):
        rng = np.random.default_rng(4)
        x, y = rand_pair(rng)
        assert np.max(np.abs(np.asarray(o.cross3(x, y, x)))) == 0.0
        z = rng.normal(size=8)
        assert np.max(np.abs(np.asarray(o.cross3(x, y, z))
                             + np.asarray(o.cross3(z, y, x)))) < 1e-12

    def test_unit_norm_on_orthonormal_triples(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            q, _ = np.linalg.qr(rng.normal(size=(8, 3)))
            c = o.cross3(q[:, 0], q[:, 1], q[:, 2])
            assert abs(o.norm(c) - 1.0) < 1e-10

    def test_orthogonal_to_arguments(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.normal(size=(8, 3)))
        c = o.cross3(q[:, 0], q[:, 1], q[:, 2])
        for j in range(3):
            assert abs(o.dot(c, q[:, j])) < 1e-12


class TestCayleyResidual:
    def test_repeated_argument_gives_zero(self):
        rng = np.random.default_rng(7)
        x, y = rand_pair(rng)
        u = rng.normal(size=8)
        assert o.cayley_identity_residual(x, y, x, u) < 1e-14

    def test_quaternion_quadruple(self):
        q = [np.asarray(o.basis(i), dtype=float) for i in range(4)]
        assert o.cayley_identity_residual(*q) < 1e-14

    def test_generic_quadruple_positive(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(8, 4)))
        assert o.cayley_identity_residual(*(q[:, j] for j in range(4))) > 1e-3


class TestStacks:
    def _units(self, rng, n):
        x = rng.normal(size=(n, 8))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    def test_stacked_mul_and_cross3_match_doubling_row_by_row(self):
        rng = np.random.default_rng(9)
        x, y, z = (self._units(rng, 200) for _ in range(3))
        prod, cross = o.mul(x, y), o.cross3(x, y, z)
        assert prod.shape == cross.shape == (200, 8)
        for a, b, c, p, q in zip(x, y, z, prod, cross):
            ref = _cd_mul(list(a), list(b))
            cb = _cd_conj(list(b))
            ref3 = (np.array(_cd_mul(list(a), _cd_mul(cb, list(c))))
                    - np.array(_cd_mul(list(c), _cd_mul(cb, list(a))))) / 2
            assert np.max(np.abs(p - ref)) <= 1e-15
            assert np.max(np.abs(q - ref3)) <= 1e-15

    def test_fraction_in_fraction_out(self):
        x = tuple(Fraction(i + 1, 3) for i in range(8))
        y = tuple(Fraction(1, i + 2) for i in range(8))
        z = o.basis(5)
        for out in (o.mul(x, y), o.conj(x), o.associator(x, y, z), o.cross3(x, y, z)):
            assert isinstance(out, tuple) and len(out) == 8
            assert all(isinstance(c, Fraction) for c in out)
        assert o.mul(x, y) == tuple(_cd_mul(list(x), list(y)))

    def test_cross3_exact_on_int_tuples(self):
        c = o.cross3(o.basis(1), o.basis(2), o.basis(4))
        assert all(type(x) in (int, Fraction) for x in c)
        assert c == o.basis(7)
        c = o.cross3((1, 2, 0, 0, 0, 0, 0, 1), (0, 1, 3, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 5))
        assert all(type(x) in (int, Fraction) for x in c)
        assert c == (6, -3, 1, 0, -30, 16, -2, 0)

    def test_tuple_in_tuple_out(self):
        assert isinstance(o.mul(o.basis(1), o.basis(2)), tuple)
        assert isinstance(o.cross3(o.basis(1), o.basis(2), o.basis(4)), tuple)
        assert isinstance(o.mul(np.asarray(o.basis(1)), o.basis(2)), np.ndarray)
