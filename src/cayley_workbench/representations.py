"""Splitting of the exterior algebra on R^8 into irreducible Spin(7) pieces.

One operator for every degree: the Casimir of the stabilizer algebra
spin(7) acting by derivations, whose eigenspaces on degree k are the
irreducible pieces.  The projector of so(8) onto spin(7) comes from the
self-adjoint map M: a -> *(a ^ Phi) on 2-forms, as (3I - M)/4, since
M^2 = 2M + 3I.  Eigenvalue gaps define the components, labeled by their
dimensions; the eigenvalues themselves are reported, never presumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .cayley import CayleyForm, _so_action, as_cayley, as_kform
from .forms import (KForm, blade_masks, coeffs_to_form, form_to_coeffs, hodge, indices_of,
                    lambda2_matrix)

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


def _require_admissible(phi) -> CayleyForm:
    c = as_cayley(phi)
    if not c.admissibility.admissible:
        raise ValueError("form fails the admissibility certificates; refusing to split")
    return c


def wedge_star_matrix(phi) -> np.ndarray:
    """Matrix of a -> *(a ^ Phi) on 2-forms, over the lexicographic blade basis:
    <b, *(a ^ Phi)> vol = b ^ a ^ Phi = <b ^ a, *Phi> vol gives that of *Phi."""
    return lambda2_matrix(hodge(as_kform(phi)))


def lambda2_split(phi) -> SplitBasis:
    """2-forms: 2_7, the eigenvalue-3 space of wedge_star_matrix, and 2_21 = spin(7)."""
    return split(phi, 2)


def lambda3_split(phi) -> SplitBasis:
    """3-forms: 3_8, spanned by the *(v^flat ^ Phi), and 3_48, the kernel of ^ Phi."""
    return split(phi, 3)


def lambda4_split(phi) -> SplitBasis:
    """4-forms: span{Phi}, the self-dual 4_7 and 4_27, and the anti-self-dual 4_35."""
    return split(phi, 4)


def split(phi, k: int) -> SplitBasis:
    """SplitBasis for any degree 0..8: the Casimir eigenspaces, grouped by
    eigenvalue gaps and labeled by their dimensions."""
    if k in (0, 8):
        one = KForm(8, 0, {0: 1.0}) if k == 0 else KForm(8, 8, {(1 << 8) - 1: 1.0})
        return SplitBasis(k, {f"{k}_1": [one]})
    if not 1 <= k <= 7:
        raise ValueError(f"degree {k} out of range 0..8")
    vals, vecs = np.linalg.eigh(casimir_matrix(_require_admissible(phi), k))
    clusters = _cluster(vals)
    dims, want = sorted(len(g) for g in clusters), sorted(DIMENSION_TABLE[k].values())
    if dims != want:
        raise ValueError(f"Casimir multiplicities on degree {k}: {dims} != {want}")
    groups = {f"{k}_{len(g)}": g for g in clusters}
    masks = blade_masks(8, k)
    return SplitBasis(k, {label: [coeffs_to_form(8, k, vecs[:, j], masks) for j in groups[label]]
                          for label in DIMENSION_TABLE[k]})


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
    return [form_as_matrix(b) for b in split(phi, 2).components["2_21"]]


@lru_cache(maxsize=None)
def _generator_matrices(k: int) -> np.ndarray:
    """Stacked int8 matrices of the derivation action of E_pq on degree-k blades.

    Index order matches blade_masks(8, 2): entry r is the generator for the
    r-th pair (p, q), p < q, so an antisymmetric X acts as the sum over pairs of
    X[p-1, q-1] times these.  The entries, 0 and +-1, are scattered from
    ``cayley._so_action``, the one table of that action.
    """
    pair, target, source, sign = _so_action(8, k)
    n = comb(8, k)
    out = np.zeros((28, n, n), dtype=np.int8)
    out[pair, target, source] = sign
    return out


def casimir_matrix(phi, k: int) -> np.ndarray:
    """Casimir of the stabilizer algebra acting on degree-k forms.

    With M = wedge_star_matrix(phi), M^2 = 2M + 3I makes P = (3I - M)/4 the
    orthogonal projector onto spin(7) in pair coordinates, so over a
    trace-orthonormal basis of spin(7) the Casimir is
    C = 1/2 sum_rs P[r, s] G_r G_s with G the generator matrices; it is
    basis-independent and symmetric.
    """
    M = wedge_star_matrix(phi)
    eye = np.eye(len(M))
    if np.max(np.abs(M @ M - 2 * M - 3 * eye)) > 1e-9:
        raise ValueError("M^2 != 2M + 3I: the form does not define a spin(7) projector")
    G = _generator_matrices(k).astype(float)
    n = G.shape[1]
    H = ((3 * eye - M) / 8 @ G.reshape(28, -1)).reshape(28, n, n)
    return H.transpose(1, 0, 2).reshape(n, 28 * n) @ G.reshape(28 * n, n)


def casimir_spectrum(phi, k: int) -> list[tuple[float, int]]:
    """(eigenvalue, multiplicity) pairs of the degree-k Casimir, ascending."""
    if not 1 <= k <= 7:
        raise ValueError("degree must be 1..7")
    vals = np.linalg.eigvalsh(casimir_matrix(_require_admissible(phi), k))
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
