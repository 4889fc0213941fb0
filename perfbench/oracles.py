"""Computations and properties the benchmark checks program outputs against.

Nothing here calls the workbench.  Forms are plain dicts from ascending
1-based index tuples to coefficients, and a k-form is evaluated on k
vectors as  sum_B c_B det(V[B]),  the determinant of the rows B of the
n x k matrix whose columns are the vectors.  Integer and Fraction inputs
stay exact.  Every check raises CheckFailed with a message naming what
did not hold.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# The standard coordinate Cayley 4-form (Harvey-Lawson), blade -> sign.
PHI0 = {
    (1, 2, 3, 4): 1, (1, 2, 5, 6): 1, (1, 2, 7, 8): 1, (1, 3, 5, 7): 1,
    (1, 3, 6, 8): -1, (1, 4, 5, 8): -1, (1, 4, 6, 7): -1, (2, 3, 5, 8): -1,
    (2, 3, 6, 7): -1, (2, 4, 5, 7): -1, (2, 4, 6, 8): 1, (3, 4, 5, 6): 1,
    (3, 4, 7, 8): 1, (5, 6, 7, 8): 1,
}
QUADRUPLES = list(combinations(range(1, 9), 4))

#: |c_A|, |c_B| of the three contraction identities
MAGNITUDES = {1: (3, 2), 2: (4, 2), 3: (6, 7)}
#: signed coefficients under the contraction order iota_u iota_v Phi
IDENTITY_COEFFS = {1: (-3, -2), 2: (-4, 2), 3: (6, 7)}

#: calibration values of Haar-random 4-planes: E[phi^2] = |phi0|^2 / C(8, 4)
HAAR_MEAN_SQ = Fraction(14, 70)


# -- exact multilinear algebra ---------------------------------------------------


def det(rows) -> object:
    """Determinant by fraction-exact elimination (ints and Fractions stay exact)."""
    m = [list(r) for r in rows]
    k = len(m)
    exact = all(isinstance(x, (int, Fraction)) for r in m for x in r)
    if not exact:
        return float(np.linalg.det(np.array(m, dtype=float))) if k else 1.0
    m = [[Fraction(x) for x in r] for r in m]
    sign, out = 1, Fraction(1)
    for c in range(k):
        p = next((i for i in range(c, k) if m[i][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        out *= m[c][c]
        for i in range(c + 1, k):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    v = sign * out
    return int(v) if v.denominator == 1 else v


def evaluate(form: dict, vectors) -> object:
    """sum over blades B of c_B * det(rows B of [v1 ... vk])."""
    total = 0
    for blade, c in form.items():
        total += c * det([[v[i - 1] for v in vectors] for i in blade])
    return total


def evaluate_phi0_float(frames: np.ndarray) -> np.ndarray:
    """phi0 on a stack of (N, 8, 4) column frames, through 4x4 minors."""
    frames = np.asarray(frames, dtype=float)
    idx = np.array([[i - 1 for i in b] for b in PHI0])
    signs = np.array(list(PHI0.values()), dtype=float)
    minors = frames[:, idx, :]  # (N, 14, 4, 4)
    return np.linalg.det(minors) @ signs


def pullback_by_matrix(form: dict, g) -> dict:
    """The 4-form x -> form(g x1, ..., g x4), as a blade dict (g is 8x8)."""
    cols = [[g[r][c] for r in range(8)] for c in range(8)]
    out = {}
    for q in QUADRUPLES:
        val = evaluate(form, [cols[i - 1] for i in q])
        if val != 0:
            out[q] = val
    return out


def signed_permutation_matrix(perm, signs) -> list:
    """G with G e_i = signs[i-1] e_{perm[i-1]}."""
    G = [[0] * 8 for _ in range(8)]
    for i in range(8):
        G[perm[i] - 1][i] = signs[i]
    return G


def push_forward(form: dict, perm, signs) -> dict:
    """The form a o G^{-1}, i.e. dx^i -> signs[i-1] dx^{perm[i-1]}."""
    G = signed_permutation_matrix(perm, signs)
    Gt = [[G[c][r] for c in range(8)] for r in range(8)]
    return pullback_by_matrix(form, Gt)


def mismatched_quadruples(source: dict, perm, signs, target: dict) -> list:
    """Basis quadruples where the pushed-forward source and the target differ."""
    moved = push_forward(source, perm, signs)
    return [q for q in QUADRUPLES if moved.get(q, 0) != target.get(q, 0)]


def inner(a: dict, b: dict):
    return sum(c * b[k] for k, c in a.items() if k in b)


def gram_minor(u, v, y, w):
    dot = lambda a, b: sum(s * t for s, t in zip(a, b))
    return dot(u, y) * dot(v, w) - dot(u, w) * dot(v, y)


def add_terms(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c != 0}


# -- topology --------------------------------------------------------------------


def spin7_verdict(w1_zero, w2_zero, p1_sq, p2, chi) -> str:
    """Expected admits_spin7 value name: w1 = w2 = 0 and p1^2 - 4 p2 +- 8 chi = 0."""
    if not (w1_zero and w2_zero):
        return "NO_STIEFEL_WHITNEY"
    base = p1_sq - 4 * p2
    plus, minus = base + 8 * chi == 0, base - 8 * chi == 0
    if plus and minus:
        return "YES_BOTH"
    return "YES_PLUS" if plus else "YES_MINUS" if minus else "NO"


#: Betti numbers of the oriented Grassmannian of 4-planes in R^8, degrees 0..16;
#: their sum is its Euler characteristic, 12
BETTI_NONZERO = [1, 3, 4, 3, 1]
EULER_G48 = 12


# -- float checks ----------------------------------------------------------------


def check_close(got, want, tol: float, what: str) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    require(got.shape == want.shape or want.shape == (), f"{what}: shape {got.shape}")
    require(math.isfinite(err) and err <= tol, f"{what}: error {err:.3g} > {tol:g}")


def check_orthonormal(B: np.ndarray, tol: float, what: str) -> None:
    k = B.shape[-1]
    check_close(np.swapaxes(B, -1, -2) @ B, np.broadcast_to(np.eye(k), B.shape[:-2] + (k, k)),
                tol, f"{what} orthonormality")


def check_in_span(vectors: np.ndarray, S: np.ndarray, tol: float, what: str) -> None:
    """Columns of ``vectors`` lie in the column span of the orthonormal S."""
    resid = vectors - S @ (S.T @ vectors)
    require(float(np.max(np.abs(resid))) <= tol, f"{what}: leaves the subspace by "
            f"{float(np.max(np.abs(resid))):.3g}")


def check_acs(J: np.ndarray, tol: float, what: str) -> None:
    check_close(J @ J, -np.eye(len(J)), tol, f"{what} J^2 = -1")
    check_close(J.T @ J, np.eye(len(J)), tol, f"{what} J orthogonal")


def check_haar_moments(values: np.ndarray) -> None:
    """|phi| <= 1, mean 0 and mean phi^2 = 1/5 within five standard errors."""
    n = len(values)
    require(float(np.max(np.abs(values))) <= 1 + 1e-12, "calibration value above the comass 1")
    se = float(np.std(values)) / math.sqrt(n)
    require(abs(float(np.mean(values))) <= 5 * se, "Haar calibration mean is not 0")
    sq = values * values
    se2 = float(np.std(sq)) / math.sqrt(n)
    require(abs(float(np.mean(sq)) - float(HAAR_MEAN_SQ)) <= 5 * se2,
            f"Haar mean of phi^2 {float(np.mean(sq)):.5f} is not 1/5")


def check_magnitudes(i: int, c_a: float, c_b: float, tol: float = 1e-9) -> None:
    want = MAGNITUDES[i]
    require(abs(abs(c_a) - want[0]) <= tol and abs(abs(c_b) - want[1]) <= tol,
            f"identity {i}: fitted magnitudes ({abs(c_a):.12g}, {abs(c_b):.12g}) != {want}")


def check_comass(value: float, what: str) -> None:
    require(1 - 1e-6 <= value <= 1 + 1e-9, f"{what}: {value!r} outside [1 - 1e-6, 1 + 1e-9]")


def haar_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(8, 8)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


ROOT13 = math.sqrt(13.0)
