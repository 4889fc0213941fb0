"""Octonion arithmetic via the Cayley-Dickson construction.

Octonions are 8-vectors with the real part in slot 0.  The multiplication
table is generated by doubling R -> C -> H -> O with the recursion
(a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)), never hand-entered, so
the table itself is an artifact the test suite can interrogate.

Products, conjugates, associators and triple crosses work over the last
axis of (..., 8) stacks; one octonion is a stack of none.  An ndarray
input gives a float array out.  Otherwise the same contraction runs on
object arrays, so integer and Fraction inputs stay exact and a tuple in
gives a tuple out.  The triple cross and the Cayley residual contract pair
coordinates with two integer tables read off the multiplication table,
``CROSS_PAIRS`` and ``IM_CONJ``, in blocks of ``PAIR_BLOCK`` rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

DIM = 8


def _cd_mul(x: list, y: list) -> list:
    """Cayley-Dickson product of coefficient lists of length 2^m."""
    n = len(x)
    if n == 1:
        return [x[0] * y[0]]
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    return (_cd_sub(_cd_mul(a, c), _cd_mul(_cd_conj(d), b))
            + _cd_add(_cd_mul(d, a), _cd_mul(b, _cd_conj(c))))


def _cd_conj(x: list) -> list:
    return [x[0]] + [-c for c in x[1:]]


def _cd_add(x: list, y: list) -> list:
    return [a + b for a, b in zip(x, y)]


def _cd_sub(x: list, y: list) -> list:
    return [a - b for a, b in zip(x, y)]


_UNITS = np.eye(DIM, dtype=int).tolist()

#: STRUCTURE[i, j, k] = coefficient of e_k in e_i e_j (integers)
STRUCTURE = np.array([[_cd_mul(ei, ej) for ej in _UNITS] for ei in _UNITS])
assert (np.abs(STRUCTURE).sum(axis=-1) == 1).all()  # every e_i e_j is +-e_k

#: MUL_TABLE[i][j] = (k, sign) with e_i e_j = sign * e_k
MUL_TABLE = [[(k, int(STRUCTURE[i, j, k])) for j, k in enumerate(np.abs(S).argmax(-1).tolist())]
             for i, S in enumerate(STRUCTURE)]

_CONJ = np.array([1] + [-1] * (DIM - 1))

#: the coordinate pairs (i, k), i < k, in the order of pair coordinates
_PAIR_I, _PAIR_K = np.triu_indices(DIM, 1)
# columns gathered for the products a_i c_k, then a_k c_i
_A_COLS, _C_COLS = np.concatenate([_PAIR_I, _PAIR_K]), np.concatenate([_PAIR_K, _PAIR_I])


def _cross_pairs() -> np.ndarray:
    """CROSS_PAIRS[p, j, l] = coefficient of e_l in e_i (conj(e_j) e_k) - e_k (conj(e_j) e_i)
    for the pair p = (i, k), read off ``MUL_TABLE`` with integer loops."""
    table = [[[0] * DIM for _ in range(DIM)] for _ in _PAIR_I]
    for p, (i, k) in enumerate(zip(_PAIR_I.tolist(), _PAIR_K.tolist())):
        for j in range(DIM):
            for x, z, sign in ((i, k, 1), (k, i, -1)):
                m, s = MUL_TABLE[j][z]  # e_j e_z = s e_m, and conj(e_j) = -e_j for j > 0
                l, t = MUL_TABLE[x][m]  # e_x e_m = t e_l
                table[p][j][l] += sign * s * t * (-1 if j else 1)
    return np.array(table, dtype=np.int8)


def _im_conj() -> np.ndarray:
    """IM_CONJ[8 i + j, l - 1] = coefficient of e_l in e_i conj(e_j), l = 1..7."""
    table = [[0] * (DIM - 1) for _ in range(DIM * DIM)]
    for i in range(DIM):
        for j in range(DIM):
            k, s = MUL_TABLE[i][j]
            if k:
                table[DIM * i + j][k - 1] = s * (-1 if j else 1)
    return np.array(table, dtype=np.int8)


#: (28, 8, 8) integers: the triple cross of basis units over pairs i < k (``_cross_pairs``)
CROSS_PAIRS = _cross_pairs()
#: (64, 7) integers: Im(e_i conj(e_j)) in row 8 i + j (``_im_conj``)
IM_CONJ = _im_conj()


def _operands(table: np.ndarray) -> dict:
    """A table as matmul operand by dtype kind: the integers for exact (object)
    rows, a float copy for float rows."""
    return {"O": table, "f": table.astype(float)}


_CROSS_OPS = _operands(CROSS_PAIRS.reshape(len(_PAIR_I), DIM * DIM))
# laid out [j, (i, l)]: a row u gives the matrix of x -> Im(x conj(u))
_IM_OPS = _operands(IM_CONJ.reshape(DIM, DIM, DIM - 1).transpose(1, 0, 2).reshape(DIM, -1))

#: rows per block of the table contractions here and of the pair-coordinate
#: kernel and the Cayley-free projection in ``planes``; keeps temporaries in cache
PAIR_BLOCK = 256


def _arrays(*xs) -> list:
    """Float arrays when any input is an ndarray, else exact object arrays."""
    dtype = float if any(isinstance(x, np.ndarray) for x in xs) else object
    return [np.asarray(x, dtype=dtype) for x in xs]


def _like(out: np.ndarray):
    """A tuple for an exact (object) result, else the float array."""
    return tuple(out) if out.dtype == object else out


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # row j of La holds the coordinates of a e_j
    La = (a @ STRUCTURE.reshape(DIM, DIM * DIM)).reshape(a.shape[:-1] + (DIM, DIM))
    return (b[..., None, :] @ La)[..., 0, :]


def _by_blocks(kernel, *xs: np.ndarray) -> np.ndarray:
    """``kernel`` over the rows of (..., 8) stacks, broadcast together and run
    ``PAIR_BLOCK`` rows at a time; one octonion is a block of one row."""
    if any(x.shape != xs[0].shape for x in xs):
        xs = np.broadcast_arrays(*xs)
    rows = [x.reshape(-1, DIM) for x in xs]
    n = len(rows[0])
    out = kernel(*rows) if n <= PAIR_BLOCK else np.concatenate(
        [kernel(*(r[s:s + PAIR_BLOCK] for r in rows)) for s in range(0, n, PAIR_BLOCK)])
    return out.reshape(xs[0].shape[:-1] + out.shape[1:])


def _cross2_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    # the pair coordinates a_i c_k - a_k c_i vanish exactly when c = a, and
    # with them cross3(x, y, x)
    m = a[:, _A_COLS] * c[:, _C_COLS]
    P = m[:, :len(_PAIR_I)] - m[:, len(_PAIR_I):]
    M = (P @ _CROSS_OPS[P.dtype.kind]).reshape(-1, DIM, DIM)
    return (b[:, None, :] @ M)[:, 0]


def _residual_sq_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    x = _cross2_rows(a, b, c)
    v = (x[:, None, :] @ (d @ _IM_OPS[d.dtype.kind]).reshape(-1, DIM, DIM - 1))[:, 0]
    return (v * v).sum(axis=1)


def _cross2(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a (conj(b) c) - c (conj(b) a), twice the triple cross product: the pair
    coordinates a_i c_k - a_k c_i times ``CROSS_PAIRS``, contracted with b."""
    return _by_blocks(_cross2_rows, a, b, c)


def mul(x: Sequence, y: Sequence):
    """Octonion product, exact for exact inputs."""
    return _like(_mul(*_arrays(x, y)))


def conj(x: Sequence):
    return _like(_arrays(x)[0] * _CONJ)


def dot(x: Sequence, y: Sequence):
    """Euclidean pairing; equals Re(x * conj(y))."""
    return sum(x[i] * y[i] for i in range(DIM))


def norm(x: Sequence) -> float:
    return float(np.sqrt(float(dot(x, x))))


def basis(i: int) -> tuple:
    """Basis unit o_i, real part at i = 0."""
    return tuple(1 if t == i else 0 for t in range(DIM))


def associator(x: Sequence, y: Sequence, z: Sequence):
    """(xy)z - x(yz); zero exactly on any associative subalgebra."""
    a, b, c = _arrays(x, y, z)
    return _like(_mul(_mul(a, b), c) - _mul(a, _mul(b, c)))


def cross3(x: Sequence, y: Sequence, z: Sequence):
    """Triple cross product (1/2)(x (conj(y) z) - z (conj(y) x)).

    Alternating in (x, y, z); for orthonormal arguments the result is a
    unit octonion orthogonal to all three.  Exact inputs halve by
    Fraction(1, 2), so int in gives int or Fraction out.
    """
    c = _cross2(*_arrays(x, y, z))
    return _like(c * Fraction(1, 2) if c.dtype == object else c / 2)


def cayley_identity_residual(x: Sequence, y: Sequence, z: Sequence, u: Sequence):
    """Imaginary-part mismatch of (x(conj(y)z))conj(u) and (z(conj(y)x))conj(u).

    The two products differ by twice the triple cross product times
    conj(u).  For an orthonormal frame that difference is a real scalar
    (+-2) exactly when span{x,y,z,u} is closed under the triple cross,
    i.e. a Cayley 4-plane, so the imaginary parts agree precisely there.
    Comparing the full products instead would report a constant gap of 2
    on every Cayley plane, which is why the real part is excluded.  The
    difference is ``_cross2`` times conj(u), whose imaginary part is ``_cross2``
    times one product of u with ``IM_CONJ``; exact inputs keep it exact up to
    the final square root.  A float for one quadruple, an array over stacks.
    """
    r = np.sqrt(_by_blocks(_residual_sq_rows, *_arrays(x, y, z, u)).astype(float))
    return float(r) if r.ndim == 0 else r
