"""Exact rational calculus on characteristic classes of oriented 4-planes in R^8.

Inputs are characteristic numbers of manifolds, never manifolds: the
module is a transcription of the pairing table between the degree-4
cohomology generators e(E), e(F), p1(E) of the oriented Grassmannian
and the homology generators represented by the small sub-Grassmannians,
plus the holonomy-structure existence predicates on an 8-manifold's
invariants.  Everything is integer or Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm

#: Poincare polynomial coefficients of the oriented Grassmannian of 4-planes in R^8
_POINCARE = {0: 1, 4: 3, 8: 4, 12: 3, 16: 1}

COH4_BASIS = ("e_E", "e_F", "p1_E")
HOM4_BASIS = ("G2R4", "G1R5", "G4R5")
HOM12_BASIS = ("G4R7", "G3R7", "CAY")

#: <class, cycle> integration table; rows follow COH4_BASIS, columns HOM4_BASIS
PAIRING_TABLE = (
    (0, 0, 2),   # e(E)
    (0, 2, 0),   # e(F)
    (2, 0, 0),   # p1(E)
)


class Spin7Verdict(Enum):
    NO_STIEFEL_WHITNEY = "No_StiefelWhitney"
    YES_PLUS = "Yes_PlusOrientation"
    YES_MINUS = "Yes_MinusOrientation"
    YES_BOTH = "Yes_Both"
    NO = "No"


@dataclass(frozen=True)
class ManifoldInvariants:
    """Characteristic numbers of a closed oriented 8-manifold."""

    w1_zero: bool
    w2_zero: bool
    w6_zero: bool
    p1_sq: int   # p1^2 evaluated on the fundamental class
    p2: int
    chi: int
    sigma: int   # signature


def admits_spin7(m: ManifoldInvariants) -> Spin7Verdict:
    """Existence test for a holonomy-Spin(7) reduction of the frame bundle.

    Requires vanishing w1, w2 and p1^2 - 4 p2 +- 8 chi = 0 for one (or
    both) of the signs, which encode the two orientations.
    """
    if not (m.w1_zero and m.w2_zero):
        return Spin7Verdict.NO_STIEFEL_WHITNEY
    base = m.p1_sq - 4 * m.p2
    plus = base + 8 * m.chi == 0
    minus = base - 8 * m.chi == 0
    if plus and minus:
        return Spin7Verdict.YES_BOTH
    if plus:
        return Spin7Verdict.YES_PLUS
    if minus:
        return Spin7Verdict.YES_MINUS
    return Spin7Verdict.NO


class _Coeffs:
    """Exact coefficient vector over a fixed named basis."""

    basis: tuple = ()

    def __init__(self, *coeffs):
        if len(coeffs) != len(self.basis):
            raise ValueError(f"need {len(self.basis)} coefficients over {self.basis}")
        self.coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(*(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, scalar):
        return type(self)(*(Fraction(scalar) * a for a in self.coeffs))

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __repr__(self):
        inner = ", ".join(f"{b}={c}" for b, c in zip(self.basis, self.coeffs))
        return f"{type(self).__name__}({inner})"

    def to_json_dict(self) -> dict:
        return {b: [c.numerator, c.denominator] for b, c in zip(self.basis, self.coeffs)}


class CohClass4(_Coeffs):
    """Degree-4 cohomology class over the generators e(E), e(F), p1(E)."""

    basis = COH4_BASIS


class Hom4Class(_Coeffs):
    """Degree-4 homology class over the three small sub-Grassmannian cycles."""

    basis = HOM4_BASIS


class Hom12Class(_Coeffs):
    """Degree-12 homology class over [G4R7], [G3R7], [CAY]."""

    basis = HOM12_BASIS


_PAIRING_NONZERO = tuple((i, j, PAIRING_TABLE[i][j])
                         for i in range(3) for j in range(3) if PAIRING_TABLE[i][j])


def pairing(c: CohClass4, h: Hom4Class) -> Fraction:
    """Bilinear extension of the integration table."""
    return sum((c.coeffs[i] * t * h.coeffs[j] for i, j, t in _PAIRING_NONZERO),
               Fraction(0))


def gauss_class(chi: int, sigma: int) -> Hom4Class:
    """Homology class of the Gauss lift of an embedded closed oriented 4-manifold.

    (1/2) chi [G4R5] + (3/2) sigma [G2R4].
    """
    return Hom4Class(Fraction(3 * sigma, 2), 0, Fraction(chi, 2))


def poincare_dual_12(h: Hom12Class) -> CohClass4:
    """Poincare duality on the generators of the 12-dimensional cycles.

    [G4R7] -> e(E), [G3R7] -> e(F), and [CAY] + [G4R7] - [G3R7] ->
    (p1(E) + e(E) - e(F)) / 2, solved for [CAY].
    """
    a, b, c = h.coeffs  # over (G4R7, G3R7, CAY)
    cay_dual = CohClass4(Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2))
    return CohClass4(a, b, 0) + c * cay_dual


@lru_cache(maxsize=1)
def cay0_class() -> Hom12Class:
    """Class of the Cayley-free locus: [G4R7] + [G3R7]."""
    return Hom12Class(1, 1, 0)


@lru_cache(maxsize=1)
def cay0_dual() -> CohClass4:
    """Poincare dual of the Cayley-free locus: e(E) + e(F)."""
    return poincare_dual_12(cay0_class())


#: (a, b) with pairing(cay0_dual(), gauss_class(chi, sigma)) = a chi + b sigma,
#: since gauss_class is linear and the pairing bilinear
_CAY0_GAUSS = tuple(pairing(cay0_dual(), gauss_class(*e)) for e in ((1, 0), (0, 1)))
#: the same pairing as integer numerators over one common denominator
_CAY0_DEN = lcm(*(c.denominator for c in _CAY0_GAUSS))
_CAY0_NUM = tuple(c.numerator * (_CAY0_DEN // c.denominator) for c in _CAY0_GAUSS)


def intersection_with_cay0(chi: int, sigma: int) -> int:
    """Intersection number of the Gauss class with the Cayley-free locus.

    Composes cay0_dual, gauss_class and the pairing; the chain collapses
    to the Euler characteristic exactly.  The composition is folded once,
    at import, into integer numerators over a common denominator, so a
    call is one integer ``divmod``; a nonzero remainder raises
    ``ArithmeticError``.
    """
    a, b = _CAY0_NUM
    num = a * chi + b * sigma
    value, rem = divmod(num, _CAY0_DEN)
    if rem:
        raise ArithmeticError(f"non-integral intersection number {Fraction(num, _CAY0_DEN)}")
    return value


def betti_g48(k: int) -> int:
    """Betti numbers of the oriented Grassmannian of 4-planes in R^8."""
    if not 0 <= k <= 16:
        raise ValueError("degree must be 0..16")
    return _POINCARE.get(k, 0)


def two_plane_field_exists(chi: int, sigma: int) -> bool:
    """Necessary and sufficient condition for a 2-plane field on an 8-manifold."""
    return chi == 0 and sigma % 4 == 0


def four_fields_exist(w6_zero: bool) -> bool:
    """Sufficient condition for 4 independent vector fields (w6 = 0)."""
    return bool(w6_zero)
