"""Sparse exterior algebra over Euclidean R^n, n <= 16.

A k-form is a sparse map from basis blades to coefficients.  Blades are
strictly ascending 1-based index tuples, stored as bitmasks (bit i-1 set
means dx^i participates), so wedge signs reduce to popcount arithmetic.
Coefficient types are whatever the caller supplies -- int, Fraction,
float, complex -- and integer inputs stay exact through wedge / Hodge /
contraction chains.

The metric is Euclidean and the orientation is fixed once and for all:
dx^1 ^ ... ^ dx^n is the positive volume form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_DIM = 16

Vector = Sequence  # any indexable of n numbers; numpy arrays welcome


def mask_of(indices: Iterable[int], n: int) -> int:
    """Bitmask of a strictly ascending 1-based index tuple."""
    mask = 0
    prev = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
        if i <= prev:
            raise ValueError(f"indices must be strictly ascending, got {tuple(indices)}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    """Ascending 1-based indices of a blade bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def merge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation (A..., B...) of two disjoint blades.

    Counts inversions: pairs (i in A, j in B) with i > j.
    """
    sign = 1
    while b:
        low = b & -b
        if (a >> low.bit_length()).bit_count() & 1:
            sign = -sign
        b ^= low
    return sign


@dataclass(frozen=True)
class KForm:
    """Immutable sparse alternating k-form on R^n.

    ``terms`` maps blade bitmask -> coefficient and never stores explicit
    zeros.  Treat instances as values: every operation returns a new form.
    """

    n: int
    degree: int
    terms: dict

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise ValueError(f"ambient dimension must be 1..{MAX_DIM}, got {self.n}")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        for mask in self.terms:
            if mask.bit_count() != self.degree or mask >> self.n:
                raise ValueError(f"blade {indices_of(mask)} invalid for degree "
                                 f"{self.degree} on R^{self.n}")
        if any(c == 0 for c in self.terms.values()):
            object.__setattr__(self, "terms",
                               {m: c for m, c in self.terms.items() if c != 0})

    # -- construction -------------------------------------------------

    @staticmethod
    def from_terms(n: int, degree: int, terms: dict) -> KForm:
        """Build from {ascending index tuple -> coefficient}."""
        acc = {}
        for idx, c in terms.items():
            m = mask_of(idx, n)
            if len(idx) != degree:
                raise ValueError(f"blade {idx} has wrong length for degree {degree}")
            acc[m] = acc.get(m, 0) + c
        return _kform(n, degree, acc)

    @staticmethod
    def zero(n: int, degree: int) -> KForm:
        return KForm(n, degree, {})

    # -- inspection ----------------------------------------------------

    def blades(self) -> Iterator[tuple[tuple[int, ...], object]]:
        """(indices, coefficient) pairs in lexicographic blade order."""
        for mask in sorted(self.terms):
            yield indices_of(mask), self.terms[mask]

    def coefficient(self, *indices: int):
        """Coefficient on a blade; any index order, with the sign it implies."""
        if len(set(indices)) != len(indices):
            return 0
        sign = _inversion_sign(indices)
        return sign * self.terms.get(mask_of(sorted(indices), self.n), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def norm_sq(self):
        """Bilinear square sum(c^2); for complex coefficients this is not |c|^2."""
        return sum(c * c for c in self.terms.values())

    def conjugate(self) -> KForm:
        """Complex-conjugate the coefficients (identity on real forms)."""
        return _kform(self.n, self.degree,
                      {m: c.conjugate() if isinstance(c, complex) else c
                       for m, c in self.terms.items()})

    def chop(self, tol: float = 0.0) -> KForm:
        """Drop coefficients with |c| <= tol."""
        return _kform(self.n, self.degree,
                      {m: c for m, c in self.terms.items() if abs(c) > tol})

    def __repr__(self):
        if not self.terms:
            return f"KForm({self.n}, {self.degree}, 0)"
        parts = []
        for idx, c in self.blades():
            name = "1" if not idx else "dx" + "".join(str(i) for i in idx) if self.n < 10 \
                else "dx(" + ",".join(str(i) for i in idx) + ")"
            parts.append(f"{c!r}*{name}")
        return f"KForm({self.n}, {self.degree}, " + " + ".join(parts) + ")"

    # -- linear structure ----------------------------------------------

    def _check_compatible(self, other: KForm):
        if self.n != other.n:
            raise ValueError(f"ambient dimensions differ: {self.n} vs {other.n}")

    def __add__(self, other: KForm) -> KForm:
        self._check_compatible(other)
        if self.degree != other.degree and self.terms and other.terms:
            raise ValueError("cannot add forms of different degree")
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        deg = self.degree if self.terms or not other.terms else other.degree
        return _kform(self.n, deg, acc)

    def __sub__(self, other: KForm) -> KForm:
        return self + (-other)

    def __neg__(self) -> KForm:
        return _kform(self.n, self.degree, {m: -c for m, c in self.terms.items()})

    def __mul__(self, scalar) -> KForm:
        if isinstance(scalar, KForm):
            raise TypeError("use ^ for the wedge product")
        if scalar == 0:
            return KForm.zero(self.n, self.degree)
        return _kform(self.n, self.degree,
                      {m: c * scalar for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __xor__(self, other: KForm) -> KForm:
        return wedge(self, other)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "terms": [{"idx": list(idx), "c": _json_number(c)}
                      for idx, c in self.blades()],
        }

    @staticmethod
    def from_json_dict(data: dict) -> KForm:
        n, degree = int(data["n"]), int(data["degree"])
        terms = {}
        for t in data["terms"]:
            idx = tuple(int(i) for i in t["idx"])
            terms[idx] = terms.get(idx, 0) + t["c"]
        return KForm.from_terms(n, degree, terms)

    # -- dense view -------------------------------------------------------

    def to_tensor(self) -> np.ndarray:
        """Dense fully antisymmetric coefficient tensor of shape (n,)*degree.

        T[i1-1,...,ik-1] = form(e_i1, ..., e_ik).
        """
        dtype = complex if any(isinstance(c, complex) for c in self.terms.values()) \
            else float
        T = np.zeros((self.n,) * self.degree, dtype=dtype)
        if self.degree == 0:
            return T + (self.terms.get(0, 0))
        for mask, c in self.terms.items():
            idx = tuple(i - 1 for i in indices_of(mask))
            for perm in permutations(range(self.degree)):
                T[tuple(idx[p] for p in perm)] = _inversion_sign(perm) * c
        return T


def _kform(n: int, degree: int, terms: dict) -> KForm:
    return KForm(n, degree, {m: c for m, c in terms.items() if c != 0})


def _inversion_sign(seq) -> int:
    """Sign of the permutation sorting ``seq`` ascending (inversion count)."""
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _json_number(c):
    if isinstance(c, bool):
        raise TypeError("bool coefficient")
    if isinstance(c, int):
        return c
    return float(c)


# -- constructors ----------------------------------------------------------

def blade(n: int, *indices: int) -> KForm:
    """Unit basis blade dx^{i1...ik}."""
    return KForm(n, len(indices), {mask_of(indices, n): 1})


def scalar_form(n: int, c) -> KForm:
    return _kform(n, 0, {0: c})


def volume_form(n: int) -> KForm:
    return KForm(n, n, {(1 << n) - 1: 1})


def basis_vector(n: int, i: int) -> tuple:
    """Standard basis vector e_i (1-based), exact integer entries."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    return tuple(1 if j == i - 1 else 0 for j in range(n))


# -- the core operations ----------------------------------------------------

def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product.  Bilinear, associative, graded-anticommutative."""
    a._check_compatible(b)
    deg = a.degree + b.degree
    acc: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            m = ma | mb
            acc[m] = acc.get(m, 0) + merge_sign(ma, mb) * ca * cb
    return _kform(a.n, deg, acc)


def hodge(a: KForm) -> KForm:
    """Hodge star for the Euclidean metric and dx^1...dx^n orientation.

    *(dx^B) = sign(B, B^c) dx^{B^c}, the convention with a ^ *b = <a,b> vol
    in every degree.  Applying the star twice gives (-1)^{k(n-k)}; on R^8
    that is the identity in even degrees, in particular on 4-forms.
    """
    full = (1 << a.n) - 1
    acc = {}
    for m, c in a.terms.items():
        comp = full ^ m
        acc[comp] = merge_sign(m, comp) * c
    return _kform(a.n, a.n - a.degree, acc)


def interior(v: Vector, a: KForm) -> KForm:
    """Interior product iota_v: (iota_v a)(x2..xk) = a(v, x2..xk)."""
    if a.degree == 0:
        raise ValueError("interior product needs degree >= 1")
    acc: dict = {}
    for mask, c in a.terms.items():
        rem = mask
        pos = 0
        while rem:
            low = rem & -rem
            vi = v[low.bit_length() - 1]
            if vi != 0:
                m = mask ^ low
                term = c * vi if pos % 2 == 0 else -c * vi
                acc[m] = acc.get(m, 0) + term
            rem ^= low
            pos += 1
    return _kform(a.n, a.degree - 1, acc)


def flat(v: Vector, n: int) -> KForm:
    """Musical isomorphism: v^flat(x) = <v, x> in the Euclidean metric."""
    return _kform(n, 1, {1 << i: v[i] for i in range(n) if v[i] != 0})


def evaluate(a: KForm, vectors: Sequence[Vector]):
    """Antisymmetric multilinear evaluation a(v1, ..., vk)."""
    if len(vectors) != a.degree:
        raise ValueError(f"need {a.degree} vectors, got {len(vectors)}")
    r = a
    for v in vectors:
        r = interior(v, r)
    return r.terms.get(0, 0)


def inner(a: KForm, b: KForm):
    """Inner product making the basis blades orthonormal (bilinear, no conj)."""
    a._check_compatible(b)
    if a.degree != b.degree:
        raise ValueError("inner product needs equal degrees")
    small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    return sum(c * big[m] for m, c in small.items() if m in big)


def gram_defect(basis: Sequence[Vector]) -> float:
    g = np.asarray([[float(sum(x * y for x, y in zip(u, v))) for v in basis]
                    for u in basis])
    return float(np.max(np.abs(g - np.eye(len(basis)))))


def restrict(a: KForm, basis: Sequence[Vector], tol: float = 1e-9) -> KForm:
    """Pull a back to the span of an orthonormal m-frame, in frame coordinates.

    Coefficient on dy^{j1...jk} is a(basis[j1-1], ..., basis[jk-1]).
    """
    m = len(basis)
    if gram_defect(basis) > tol:
        raise ValueError("restriction basis is not orthonormal within tolerance")
    acc = {}
    for combo in combinations(range(m), a.degree):
        c = evaluate(a, [basis[j] for j in combo])
        if c != 0:
            acc[sum(1 << j for j in combo)] = c
    return _kform(m, a.degree, acc)


# -- blade-basis linear algebra helpers --------------------------------------

def blade_masks(n: int, k: int) -> list[int]:
    """All degree-k blade bitmasks in lexicographic index order."""
    return [mask_of(c, n) for c in combinations(range(1, n + 1), k)]


def lambda2_matrix(a: KForm) -> np.ndarray:
    """M[p, q] = a(e_p1, e_p2, e_q1, e_q2) of a 4-form, p, q over ``blade_masks(n, 2)``."""
    if a.degree != 4:
        raise ValueError(f"lambda2_matrix needs a 4-form, got degree {a.degree}")
    i, j = np.triu_indices(a.n, 1)
    return a.to_tensor()[i[:, None], j[:, None], i, j]


def form_to_coeffs(a: KForm, masks: Sequence[int]) -> np.ndarray:
    return np.array([float(a.terms.get(m, 0)) for m in masks])


def coeffs_to_form(n: int, k: int, vec: Sequence, masks: Sequence[int],
                   chop: float = 0.0) -> KForm:
    terms = {}
    for m, c in zip(masks, vec):
        c = float(c)
        if abs(c) > chop:
            terms[m] = c
    return KForm(n, k, terms)
