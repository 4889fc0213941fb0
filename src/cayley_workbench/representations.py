"""Splitting of the exterior algebra on R^8 into irreducible Spin(7) pieces.

Degrees 2, 3, 4 are split by the operators that define them: the
self-adjoint map a -> *(a ^ Phi) on 2-forms, the wedge-with-Phi kernel on
3-forms, and the Hodge eigenspaces on 4-forms.  The 7/27 separation
inside the self-dual 4-forms has no defining operator of its own, so it
is cut out by the Casimir of the stabilizer algebra acting by
derivations; eigenvalue gaps define the components and the eigenvalues
themselves are reported, never presumed.  Degrees 5, 6, 7 are realized
as Hodge images of degrees 3, 2, 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cayley import _derivation_on_blade, admissibility_report, as_kform, so8_basis_element
from .forms import (KForm, blade_masks, coeffs_to_form, flat, form_to_coeffs,
                    hodge, indices_of, lambda2_matrix, wedge)

#: expected component dimensions, keyed by degree
DIMENSION_TABLE = {
    0: {"0_1": 1},
    1: {"1_8": 8},
    2: {"2_7": 7, "2_21": 21},
    3: {"3_8": 8, "3_48": 48},
    4: {"4_1": 1, "4_7": 7, "4_27": 27, "4_35": 35},
    5: {"5_8": 8, "5_48": 48},
    6: {"6_7": 7, "6_21": 21},
    7: {"7_8": 8},
    8: {"8_1": 1},
}

_REL_GAP = 1e-6


@dataclass(frozen=True)
class SplitBasis:
    """Orthonormal bases for the irreducible components of one degree."""

    degree: int
    components: dict  # label -> list[KForm], orthonormal

    def dims(self) -> dict:
        return {label: len(basis) for label, basis in self.components.items()}


def _require_admissible(phi) -> KForm:
    f = as_kform(phi)
    if not admissibility_report(phi).admissible:
        raise ValueError("form fails the admissibility certificates; refusing to split")
    return f


def _orthonormal_rows(M: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Orthonormalize the row span of M (QR on the transpose, rank-revealing)."""
    q, r = np.linalg.qr(M.T)
    keep = np.abs(np.diag(r)) > tol * max(1.0, np.abs(r).max())
    return q.T[keep]


def wedge_star_matrix(phi) -> np.ndarray:
    """Matrix of a -> *(a ^ Phi) on 2-forms, over the lexicographic blade basis:
    <b, *(a ^ Phi)> vol = b ^ a ^ Phi = <b ^ a, *Phi> vol gives that of *Phi."""
    return lambda2_matrix(hodge(as_kform(phi)))


def lambda2_split(phi) -> SplitBasis:
    """2-forms: eigenvalue 3 piece (dim 7) and eigenvalue -1 piece (dim 21)."""
    f = _require_admissible(phi)
    masks = blade_masks(8, 2)
    M = wedge_star_matrix(f)
    vals, vecs = np.linalg.eigh(M)
    comp = {}
    for label, target, want in (("2_7", 3.0, 7), ("2_21", -1.0, 21)):
        sel = np.abs(vals - target) < 1e-6
        if int(sel.sum()) != want:
            raise ValueError(f"unexpected multiplicity for eigenvalue {target}: "
                             f"{int(sel.sum())} != {want}")
        comp[label] = [coeffs_to_form(8, 2, vecs[:, j], masks) for j in np.where(sel)[0]]
    return SplitBasis(2, comp)


def lambda3_split(phi) -> SplitBasis:
    """3-forms: the 8-dim piece *(v^flat ^ Phi) and the 48-dim wedge kernel."""
    f = _require_admissible(phi)
    masks = blade_masks(8, 3)
    gen = np.zeros((8, 56))
    for i in range(8):
        gen[i] = form_to_coeffs(hodge(wedge(flat([1 if t == i else 0 for t in range(8)], 8), f)), masks)
    basis8 = _orthonormal_rows(gen)
    if basis8.shape[0] != 8:
        raise ValueError("generators of the 8-dim piece are not independent")

    masks7 = blade_masks(8, 7)
    W = np.zeros((8, 56))
    for col, m in enumerate(masks):
        W[:, col] = form_to_coeffs(wedge(KForm(8, 3, {m: 1}), f), masks7)
    _, s, vt = np.linalg.svd(W)
    null_dim = 56 - int(np.sum(s > 1e-9 * s[0]))
    if null_dim != 48:
        raise ValueError(f"wedge kernel has dimension {null_dim}, expected 48")
    basis48 = vt[56 - null_dim:]
    return SplitBasis(3, {
        "3_8": [coeffs_to_form(8, 3, row, masks) for row in basis8],
        "3_48": [coeffs_to_form(8, 3, row, masks) for row in basis48],
    })


def lambda4_split(phi) -> SplitBasis:
    """4-forms: span{Phi}, the 7 and 27 Casimir pieces, and the anti-self-dual 35."""
    f = _require_admissible(phi)
    masks = blade_masks(8, 4)
    full = (1 << 8) - 1
    plus_rows, minus_rows = [], []
    seen = set()
    for m in masks:
        comp = full ^ m
        if comp in seen:
            continue
        seen.add(m)
        col = np.zeros(70)
        col[masks.index(m)] = 1.0
        star = form_to_coeffs(hodge(KForm(8, 4, {m: 1})), masks)
        plus_rows.append((col + star) / np.sqrt(2.0))
        minus_rows.append((col - star) / np.sqrt(2.0))
    plus = np.array(plus_rows)    # 35 x 70, orthonormal
    minus = np.array(minus_rows)

    C = casimir_matrix(f, 4)
    Cp = plus @ C @ plus.T
    vals, vecs = np.linalg.eigh(Cp)
    groups = _cluster(vals)
    if sorted(len(g) for g in groups) != [1, 7, 27]:
        raise ValueError(f"Casimir multiplicities on self-dual 4-forms: "
                         f"{sorted(len(g) for g in groups)} != [1, 7, 27]")
    comp: dict = {"4_35": [coeffs_to_form(8, 4, row, masks) for row in minus]}
    phivec = form_to_coeffs(f, masks)
    phivec /= np.linalg.norm(phivec)
    for g in groups:
        rows = (vecs[:, g].T @ plus)
        label = {1: "4_1", 7: "4_7", 27: "4_27"}[len(g)]
        if label == "4_1":
            overlap = abs(float(rows[0] @ phivec))
            if abs(overlap - 1.0) > 1e-9:
                raise ValueError("1-dim Casimir piece is not spanned by Phi")
            rows = phivec[None, :]
        comp[label] = [coeffs_to_form(8, 4, row, masks) for row in rows]
    return SplitBasis(4, comp)


def split(phi, k: int) -> SplitBasis:
    """SplitBasis for any degree 0..8; degrees 5..7 are Hodge images."""
    if k in (0, 8):
        label = f"{k}_1"
        one = KForm(8, 0, {0: 1.0}) if k == 0 else KForm(8, 8, {(1 << 8) - 1: 1.0})
        return SplitBasis(k, {label: [one]})
    if k == 1:
        return SplitBasis(1, {"1_8": [KForm(8, 1, {1 << i: 1.0}) for i in range(8)]})
    if k == 2:
        return lambda2_split(phi)
    if k == 3:
        return lambda3_split(phi)
    if k == 4:
        return lambda4_split(phi)
    if k in (5, 6, 7):
        lower = split(phi, 8 - k)
        comp = {f"{k}_{lbl.split('_')[1]}": [hodge(b) for b in basis]
                for lbl, basis in lower.components.items()}
        return SplitBasis(k, comp)
    raise ValueError(f"degree {k} out of range 0..8")


def project(basis: SplitBasis, a: KForm, label: str) -> KForm:
    """Orthogonal projection of ``a`` onto one labeled component."""
    if label not in basis.components:
        raise KeyError(f"unknown label {label!r} for degree {basis.degree}; "
                       f"have {sorted(basis.components)}")
    masks = blade_masks(8, basis.degree)
    v = form_to_coeffs(a, masks)
    out = np.zeros_like(v)
    for b in basis.components[label]:
        bv = form_to_coeffs(b, masks)
        out += (bv @ v) * bv
    return coeffs_to_form(8, basis.degree, out, masks)


# -- stabilizer algebra and Casimir -------------------------------------------


def form_as_matrix(a: KForm) -> np.ndarray:
    """2-form -> antisymmetric matrix, X[i,j] = a(e_{i+1}, e_{j+1})."""
    X = np.zeros((8, 8))
    for m, c in a.terms.items():
        i, j = indices_of(m)
        X[i - 1, j - 1] = float(c)
        X[j - 1, i - 1] = -float(c)
    return X


def spin7_lie_algebra(phi) -> list[np.ndarray]:
    """21 antisymmetric matrices spanning the annihilator of Phi in so(8)."""
    return [form_as_matrix(b) for b in lambda2_split(phi).components["2_21"]]


@lru_cache(maxsize=None)
def _generator_matrices(k: int) -> np.ndarray:
    """Stacked matrices of the derivation action of E_pq on degree-k blades.

    Index order matches blade_masks(8, 2): entry r is the generator for
    the r-th pair (p, q), p < q.  The action of a general antisymmetric X
    is then sum over pairs of X[p-1, q-1] times these (X identified with
    sum X_pq E_pq over p < q).
    """
    masks = blade_masks(8, k)
    pos = {m: i for i, m in enumerate(masks)}
    pairs = [indices_of(m) for m in blade_masks(8, 2)]
    out = np.zeros((28, len(masks), len(masks)))
    for r, (p, q) in enumerate(pairs):
        X = so8_basis_element(p, q)
        for col, m in enumerate(masks):
            img = _derivation_on_blade(X, m)
            for mm, c in img.items():
                out[r, pos[mm], col] = c
    return out


def derivation_matrix(X: np.ndarray, k: int) -> np.ndarray:
    """Matrix of the derivation action of antisymmetric X on degree-k forms."""
    gens = _generator_matrices(k)
    pairs = blade_masks(8, 2)
    coeffs = np.array([X[i - 1, j - 1] for m in pairs for i, j in [indices_of(m)]])
    return np.einsum("r,rab->ab", coeffs, gens)


def casimir_matrix(phi, k: int) -> np.ndarray:
    """Casimir of the stabilizer algebra acting on degree-k forms.

    Generators are orthonormalized in the trace form of the defining
    representation, so the operator is basis-independent and symmetric.
    """
    C = np.zeros((len(blade_masks(8, k)),) * 2)
    for X in spin7_lie_algebra(phi):
        Xn = X / np.sqrt(np.trace(X.T @ X))
        R = derivation_matrix(Xn, k)
        C += R @ R
    return C


def casimir_spectrum(phi, k: int) -> list[tuple[float, int]]:
    """(eigenvalue, multiplicity) pairs of the degree-k Casimir, ascending."""
    if not 1 <= k <= 7:
        raise ValueError("degree must be 1..7")
    vals = np.linalg.eigvalsh(casimir_matrix(phi, k))
    return [(float(np.mean(vals[g])), len(g)) for g in _cluster(vals)]


def _cluster(vals: np.ndarray) -> list[list[int]]:
    """Group sorted eigenvalues by relative gaps."""
    order = np.argsort(vals)
    scale = max(1.0, float(np.max(np.abs(vals)))) if len(vals) else 1.0
    groups: list[list[int]] = []
    for i in order:
        if groups and abs(vals[i] - vals[groups[-1][-1]]) <= _REL_GAP * scale:
            groups[-1].append(int(i))
        else:
            groups.append([int(i)])
    return groups
