"""Octonion arithmetic via the Cayley-Dickson construction.

Octonions are 8-vectors with the real part in slot 0.  The multiplication
table is generated by doubling R -> C -> H -> O with the recursion
(a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)), never hand-entered, so
the table itself is an artifact the test suite can interrogate.

Products, conjugates, associators and triple crosses work over the last
axis of (..., 8) stacks; one octonion is a stack of none.  An ndarray
input gives a float array out.  Otherwise the same contraction runs on
object arrays, so integer and Fraction inputs stay exact and a tuple in
gives a tuple out.
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


def _cross2(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a (conj(b) c) - c (conj(b) a), twice the triple cross product."""
    cb = b * _CONJ
    return _mul(a, _mul(cb, c)) - _mul(c, _mul(cb, a))


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
    on every Cayley plane, which is why the real part is excluded.
    A float for one quadruple, an array over stacks.
    """
    a, b, c, d = _arrays(x, y, z, u)
    diff = _mul(_cross2(a, b, c), d * _CONJ)[..., 1:]
    r = np.sqrt(np.asarray(np.sum(diff * diff, axis=-1), dtype=float))
    return float(r) if r.ndim == 0 else r
