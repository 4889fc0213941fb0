"""The Cayley 4-form on R^8: construction, convention bridging, admissibility.

Two constructions are provided.  ``phi0`` is the standard 14-term
coordinate expression; ``phi_octonionic`` evaluates the triple cross
product on basis quadruples.  The two live in different index
conventions, so ``reconcile`` scans the 8! permutations once, in
lexicographic order and 720 at a time, scoring every sign pattern of each
permutation from tabulated blade images.  The first exact signed
permutation is the dictionary between them; without one, the first
permutation with the fewest mismatched blades (under its lowest sign
pattern) is reported.  The scan has a fixed, bounded cost.

Admissibility of an arbitrary 4-form is certified by three auditable
predicates: self-duality, squared norm 14, and a 21-dimensional
annihilator inside so(8) (computed as an exact integer rank when the
input is exact).

Membership of phi0's SO(8)-orbit is decided by construction: Spin(7) acts
simply transitively on orthonormal (e1, e2, e3, e5) with e5 orthogonal to
the Cayley plane of (e1, e2, e3), so the frame completed by the form's
triple cross carries every form of the orbit onto one fixed 14-term +-1
form (Harvey-Lawson, Calibrated Geometries, section IV.1).  Forms outside
the orbit fall back to a numerical descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import combinations, permutations
from math import gcd, lcm
from typing import Sequence

import numpy as np

from . import octonions
from .forms import KForm, _lambda2_block, blade_masks, hodge, indices_of, inner, merge_sign

# 14 blades of the standard coordinate Cayley form, with signs.
_PHI0_TERMS = {
    (1, 2, 3, 4): 1, (1, 2, 5, 6): 1, (1, 2, 7, 8): 1, (1, 3, 5, 7): 1,
    (1, 3, 6, 8): -1, (1, 4, 5, 8): -1, (1, 4, 6, 7): -1, (2, 3, 5, 8): -1,
    (2, 3, 6, 7): -1, (2, 4, 5, 7): -1, (2, 4, 6, 8): 1, (3, 4, 5, 6): 1,
    (3, 4, 7, 8): 1, (5, 6, 7, 8): 1,
}


@dataclass(frozen=True)
class ConventionMap:
    """Signed permutation of coordinates: e_i -> signs[i-1] * e_{perm[i-1]}."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(1, 9)) or len(self.signs) != 8 \
                or any(s not in (-1, 1) for s in self.signs):
            raise ValueError("need a bijection of 1..8 and eight +-1 signs")

    @staticmethod
    def identity() -> ConventionMap:
        return ConventionMap(tuple(range(1, 9)), (1,) * 8)

    def inverse(self) -> ConventionMap:
        inv_perm = [0] * 8
        inv_signs = [1] * 8
        for i, (p, s) in enumerate(zip(self.perm, self.signs)):
            inv_perm[p - 1] = i + 1
            inv_signs[p - 1] = s
        return ConventionMap(tuple(inv_perm), tuple(inv_signs))

    def apply_to_vector(self, x: Sequence) -> tuple:
        out = [0] * 8
        for i in range(8):
            out[self.perm[i] - 1] = self.signs[i] * x[i]
        return tuple(out)

    def matrix(self) -> np.ndarray:
        g = np.zeros((8, 8))
        for i in range(8):
            g[self.perm[i] - 1, i] = self.signs[i]
        return g

    def transport(self, a: KForm) -> KForm:
        """Push a form forward: dx^i -> signs[i-1] dx^{perm[i-1]}.

        A blade dx^{i1} ^ ... ^ dx^{ik} goes to the wedge of its images in that
        order: the image mask is built bit by bit, each factor placed with
        ``merge_sign`` and weighted by its sign.  The coefficient is multiplied
        once by the integer sign, so complex signed zeros stay as they are.
        The map is a bijection of blades, so no two blades share an image.
        """
        terms = {}
        for mask, c in a.terms.items():
            image, sign = 0, 1
            while mask:
                low = mask & -mask
                i = low.bit_length() - 1
                bit = 1 << (self.perm[i] - 1)
                sign *= self.signs[i] * merge_sign(image, bit)
                image |= bit
                mask ^= low
            terms[image] = sign * c
        return KForm(a.n, a.degree, terms)

    def to_json_dict(self) -> dict:
        return {"perm": list(self.perm), "signs": list(self.signs)}

    @staticmethod
    def from_json_dict(data: dict) -> ConventionMap:
        return ConventionMap(tuple(int(p) for p in data["perm"]),
                             tuple(int(s) for s in data["signs"]))


@dataclass(frozen=True)
class CayleyForm:
    """A candidate Cayley 4-form together with its convention tag."""

    form: KForm
    convention: str = "custom"

    @cached_property
    def tensor(self) -> np.ndarray:
        return self.form.to_tensor()

    @cached_property
    def pair_matrix(self) -> np.ndarray:
        """The Lambda^2 block tensor[a, b, c, d] over the pairs a < b, c < d:
        phi(u, v, y, w) = (u ^ v)^T pair_matrix (y ^ w) in pair coordinates."""
        return _lambda2_block(self.tensor)

    @cached_property
    def orbit_rotation(self) -> np.ndarray | None:
        """A rotation g in SO(8) with g*form = phi0 (pullback), built from the
        triple cross; None for a form outside phi0's SO(8)-orbit."""
        return _orbit_rotation(self.tensor)

    @cached_property
    def admissibility(self) -> AdmissibilityReport:
        """``admissibility_report`` at its default tolerance, computed once per form."""
        return admissibility_report(self)


def as_kform(phi) -> KForm:
    return phi.form if isinstance(phi, CayleyForm) else phi


def as_cayley(phi) -> CayleyForm:
    return phi if isinstance(phi, CayleyForm) else CayleyForm(phi)


@lru_cache(maxsize=1)
def phi0() -> CayleyForm:
    """Standard coordinate Cayley 4-form (14 terms, coefficients +-1)."""
    return CayleyForm(KForm.from_terms(8, 4, _PHI0_TERMS), "coordinate")


@lru_cache(maxsize=1)
def _phi_oct_base() -> KForm:
    # <e_a x e_b x e_c, e_d> over the 70 quadruples a < b < c < d, as one stack
    quads = np.array(list(combinations(range(8), 4)))
    E = np.eye(8)
    crossed = octonions.cross3(E[quads[:, 0]], E[quads[:, 1]], E[quads[:, 2]])
    vals = np.rint(crossed[np.arange(len(quads)), quads[:, 3]]).astype(int).tolist()
    return KForm.from_terms(8, 4, {tuple(q): v for q, v in zip((quads + 1).tolist(), vals)})


def phi_octonionic() -> CayleyForm:
    """Cayley form built from <x cross y cross z, w> on basis quadruples.

    Octonion coordinate i is identified with R^8 coordinate i+1.
    """
    return CayleyForm(_phi_oct_base(), "octonionic")


# -- reconciliation -----------------------------------------------------------


@dataclass(frozen=True)
class BestMismatch:
    """Closest signed permutation, returned when no exact dictionary exists."""

    map: ConventionMap
    mismatches: int
    diff: tuple  # ((indices, transported coeff, target coeff), ...)
    examined: int


_PERMS_OF_6 = np.array(list(permutations(range(6))), dtype=np.uint8)  # lexicographic


def _permutation_chunks():
    """The 8! permutations of 0..7 in lexicographic order, as 56 uint8
    (720, 8) tables: one per choice of the first two images."""
    for first, second in permutations(range(8), 2):
        rest = np.array([i for i in range(8) if i not in (first, second)], dtype=np.uint8)
        chunk = np.empty((720, 8), dtype=np.uint8)
        chunk[:, 0], chunk[:, 1], chunk[:, 2:] = first, second, rest[_PERMS_OF_6]
        yield chunk


def reconcile(a, b):
    """Signed permutation g with g . a = b, or the closest one.

    a and b must be forms of one degree on R^8 with +-1 coefficients on
    equally many blades.  One scan covers the 8! permutations in
    lexicographic order, 720 at a time, tabulating per permutation which
    blade images land in b's support and the sign parity each needs; a
    sign pattern then costs ``len(_diff(g.transport(a), b))``: one per
    wrong sign, two per image outside b's support.  The first permutation
    of cost 0 is returned with its signs solved over GF(2), free signs +1;
    otherwise a ``BestMismatch`` holds the first permutation of least cost
    under its lowest sign pattern (bit i-1 set flips coordinate i).
    """
    fa, fb = as_kform(a), as_kform(b)
    if fa.n != 8 or fb.n != 8 or fa.degree != fb.degree:
        raise ValueError("reconcile needs two forms of one degree on R^8")
    for f in (fa, fb):
        if any(c not in (1, -1) for c in f.terms.values()):
            raise ValueError("reconcile needs +-1 coefficients on basis blades")
    if len(fa.terms) != len(fb.terms):
        raise ValueError("supports have different sizes; no signed permutation exists")

    masks = list(fa.terms)
    n = len(masks)
    blades = np.array([[i - 1 for i in indices_of(m)] for m in masks],
                      dtype=np.intp).reshape(n, fa.degree)
    negative_a = np.array([fa.terms[m] < 0 for m in masks], dtype=bool)
    coeff_b = np.zeros(256, dtype=np.int8)
    coeff_b[list(fb.terms)] = list(fb.terms.values())
    # the parity of sign pattern x over each blade of a, as packed bits; keep
    # each distinct word once, with the lowest x that gives it
    flips = np.arange(256, dtype=np.uint8)[:, None] & np.array(masks, dtype=np.uint8)
    parity = np.packbits(np.bitwise_count(flips) & 1, axis=1)
    lowest: dict[bytes, int] = {}
    for x, word in enumerate(parity):
        lowest.setdefault(word.tobytes(), x)
    xs = list(lowest.values())
    words = parity[xs]
    left, right = np.triu_indices(fa.degree, 1)

    best = None
    for chunk in _permutation_chunks():
        images = chunk[:, blades]  # (720, n, degree)
        target = coeff_b[(np.uint8(1) << images).sum(-1, dtype=np.uint8)]
        hit = target != 0
        odd = (images[..., left] > images[..., right]).sum(-1, dtype=np.uint8) & 1
        need = (odd == 1) ^ negative_a ^ (target < 0)
        wrong = np.bitwise_count((np.packbits(need, axis=1)[:, None] ^ words)
                                 & np.packbits(hit, axis=1)[:, None]).sum(-1, dtype=np.intp)
        cost = wrong.min(1) + 2 * (n - hit.sum(1))
        r = int(cost.argmin())
        if best is None or cost[r] < best[0]:
            best = (int(cost[r]), chunk[r], need[r], wrong[r])
            if best[0] == 0:
                break
    cost, perm, need, wrong = best
    perm = tuple(int(p) + 1 for p in perm)
    if cost == 0:
        return ConventionMap(perm, _signs(_gf2_solve(zip(masks, need.tolist()))))
    g = ConventionMap(perm, _signs(xs[int(wrong.argmin())]))
    diff = _diff(g.transport(fa), fb)
    return BestMismatch(g, len(diff), tuple(diff), 40320)


def _gf2_solve(rows) -> int:
    """Flip bits x with parity(x & mask) = bit for each consistent row (mask, bit).

    Free bits stay 0 (sign +1).
    """
    pivots: dict[int, tuple[int, int]] = {}
    for m, r in rows:
        while m:
            top = 1 << (m.bit_length() - 1)
            if top not in pivots:
                pivots[top] = (m, r)
                break
            pm, pr = pivots[top]
            m ^= pm
            r ^= pr
    # pivot rows only involve bits <= their leading bit: substitute upward
    x = 0
    for top in sorted(pivots):
        m, r = pivots[top]
        if (((m & ~top) & x).bit_count() + r) & 1:
            x |= top
    return x


def _signs(x: int) -> tuple[int, ...]:
    return tuple(-1 if (x >> i) & 1 else 1 for i in range(8))


def _diff(got: KForm, want: KForm) -> list:
    out = []
    for mask in sorted(set(got.terms) | set(want.terms)):
        g, w = got.terms.get(mask, 0), want.terms.get(mask, 0)
        if g != w:
            out.append((indices_of(mask), g, w))
    return out


# -- so(8) action and admissibility -------------------------------------------


@lru_cache(maxsize=None)
def _so_action(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """How the generators E_pq = e_p (x) e_q - e_q (x) e_p of so(n) act on degree-k
    blades: the nonzero entries (pair, target, source, sign) of their matrices.

    Pairs are indexed as blade_masks(n, 2) and blades as blade_masks(n, k).  E_pq
    sends dx^p to -dx^q and dx^q to dx^p, so it moves a blade holding exactly one
    of p, q to the blade with the other index in its place, with the sign of
    sorting the new index into the place of the old one, and kills every other
    blade: each source has at most one target per pair.  An antisymmetric X acts
    as sum over p < q of X[p-1, q-1] E_pq.
    """
    masks = np.array(blade_masks(n, k), dtype=np.intp)
    row_of = np.zeros(1 << n, dtype=np.intp)
    row_of[masks] = np.arange(len(masks))
    pq = np.array(blade_masks(n, 2), dtype=np.intp)
    old = masks & pq[:, None]  # the one index of the pair that a moved blade holds
    pair, source = np.nonzero(np.bitwise_count(old) == 1)
    old, m = old[pair, source], masks[source]
    new, rest = pq[pair] ^ old, m ^ old
    # bitwise_count returns uint8, on which 1 - 2 * parity would wrap to 255
    parity = (np.bitwise_count(m & (old - 1)) + np.bitwise_count(rest & (new - 1))).astype(np.intp)
    # dx^p -> -dx^q (the old index is the lower one), dx^q -> +dx^p
    sign = np.where(old < new, -1, 1) * (1 - 2 * (parity & 1))
    return pair, row_of[rest | new], source, sign


def _action_rows(a: KForm) -> np.ndarray:
    """The forms E_pq . a as rows over the pairs p < q, in the blade order of
    blade_masks(a.n, a.degree): Python int/Fraction entries in an object array
    when a's coefficients are exact, floats otherwise (complex for a complex form)."""
    pair, target, source, sign = _so_action(a.n, a.degree)
    values = a.terms.values()
    dtype = object if all(isinstance(c, (int, Fraction)) for c in values) \
        else complex if any(isinstance(c, complex) for c in values) else float
    v = np.array([a.terms.get(m, 0) for m in blade_masks(a.n, a.degree)], dtype=dtype)
    rows = np.zeros((a.n * (a.n - 1) // 2, len(v)), dtype=v.dtype)
    rows[pair, target] = sign * v[source]
    return rows


def derivation_action(X, a: KForm) -> KForm:
    """Infinitesimal so(n) action of an antisymmetric n x n matrix X: the
    degree-0 derivation extending dx^i -> -sum_j X[i][j] dx^j.  Exact for exact
    inputs."""
    X = np.asarray(X)
    if X.shape != (a.n, a.n) or not (X == -X.T).all():
        raise ValueError(f"derivation_action needs an antisymmetric {a.n} x {a.n} matrix")
    coeffs = X[np.triu_indices(a.n, 1)] @ _action_rows(a)
    return KForm(a.n, a.degree, dict(zip(blade_masks(a.n, a.degree), coeffs.tolist())))


def stabilizer_dimension(a: KForm) -> int:
    """dim of the annihilator of ``a`` inside so(n) under the derivation action.

    Exact rank over the rationals, in integer arithmetic, when all
    coefficients are exact (int/Fraction); SVD-based numerical rank otherwise.
    """
    rows = _action_rows(a)
    if rows.dtype == object:
        return len(rows) - _exact_rank(rows.tolist())
    s = np.linalg.svd(rows, compute_uv=False)
    return len(rows) - int(np.sum(s > 1e-9 * (s[0] if s.size and s[0] > 0 else 1.0)))


def _primitive(ints: list[int]) -> list[int]:
    """An integer row divided by the gcd of its entries; a zero row stays zero."""
    g = gcd(*ints)
    return ints if g <= 1 else [x // g for x in ints]


def _integer_row(row: list) -> list[int]:
    """An int/Fraction row times the lcm of its denominators, made primitive."""
    scale = lcm(*(c.denominator for c in row))
    return _primitive([c.numerator * (scale // c.denominator) for c in row])


def _exact_rank(rows: list[list]) -> int:
    """Rank over the rationals of int/Fraction rows, in integer arithmetic only.

    Fraction-free elimination: every row is scaled to a primitive integer
    row, each pivot is the smallest nonzero entry of its column, and a row
    is reduced by an integer combination with the pivot row and divided by
    the gcd of its entries again, so the entries stay small.  Rows with a
    zero in the pivot column are left as they are.
    """
    rows = [_integer_row(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        live = [i for i in range(rank, len(rows)) if rows[i][c]]
        if not live:
            continue
        pivot = min(live, key=lambda i: abs(rows[i][c]))
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr, p = rows[rank], rows[rank][c]
        for i in range(rank + 1, len(rows)):
            a = rows[i][c]
            if a:
                g = gcd(p, a)
                s, t = p // g, a // g
                rows[i] = _primitive([s * x - t * y for x, y in zip(rows[i], pr)])
        rank += 1
        if rank == len(rows):
            break
    return rank


@dataclass(frozen=True)
class AdmissibilityReport:
    self_dual: bool
    norm14: bool
    stab_dim: int
    exact_match: ConventionMap | None
    orbit_residual: float | None  # |g*a - phi0| of the constructed rotation

    @property
    def admissible(self) -> bool:
        return self.self_dual and self.norm14 and self.stab_dim == 21

    def to_json_dict(self) -> dict:
        return {
            "self_dual": self.self_dual,
            "norm14": self.norm14,
            "stab_dim": self.stab_dim,
            "exact_match": None if self.exact_match is None
            else self.exact_match.to_json_dict(),
            "orbit_residual": self.orbit_residual,
            "admissible": self.admissible,
        }


def admissibility_report(a, tol: float = 1e-10) -> AdmissibilityReport:
    """Check the three pointwise certificates that ``a`` is a Cayley form.

    ``exact_match`` is the signed permutation onto phi0 of an exact +-1 form;
    ``orbit_residual`` is the misfit of the rotation constructed from the triple
    cross, for float forms too, and None outside phi0's orbit.
    """
    f = as_kform(a)
    if f.degree != 4 or f.n != 8:
        raise ValueError("admissibility is defined for 4-forms on R^8")
    sd = (hodge(f) - f).norm_sq()
    self_dual = sd == 0 if isinstance(sd, (int, Fraction)) else float(sd) < tol ** 2
    nn = inner(f, f)
    norm14 = nn == 14 if isinstance(nn, (int, Fraction)) else abs(float(nn) - 14) < tol
    match = None
    if f.terms and all(c in (1, -1) for c in f.terms.values()) \
            and len(f.terms) == 14:
        result = reconcile(f, phi0())
        if isinstance(result, ConventionMap):
            match = result
    c = as_cayley(a)
    g = c.orbit_rotation
    residual = None if g is None else _misfit(c.tensor, g)
    return AdmissibilityReport(self_dual, norm14, stabilizer_dimension(f), match, residual)


# -- orbit membership: construction, else numerical descent --------------------

_ORBIT_TOL = 1e-10


def _triple_cross_frame(T: np.ndarray) -> np.ndarray | None:
    """Columns e1, e2, e3, P(e1,e2,e3), e5, P(e1,e2,e5), P(e1,e3,e5), P(e2,e3,e5).

    P is the triple cross <P(x,y,z), w> = T(x,y,z,w), e1..e3 are the first
    coordinate vectors and e5 is the coordinate vector least aligned with
    e4 = P(e1,e2,e3), made orthogonal to it.  None when e4 is not a unit vector.
    """
    e4 = T[0, 1, 2]
    if abs(e4 @ e4 - 1.0) > _ORBIT_TOL:
        return None
    j = 3 + int(np.argmin(np.abs(e4[3:])))
    e5 = -e4[j] * e4
    e5[j] += 1.0
    e5 /= np.sqrt(1.0 - e4[j] ** 2)
    return np.column_stack([*np.eye(8)[:3], e4, e5, e5 @ T[0, 1], e5 @ T[0, 2], e5 @ T[1, 2]])


def _pull_back(T: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Y, g*T) for a 4-tensor T and a matrix or a stack W of matrices g, both as
    8 x 512 matrices [i, jkl] per g: Y[a, jkl] = T(e_a, g e_j, g e_k, g e_l) pulls
    back the last three slots and g*T = g^T Y the first.  Each slot is one
    (..., 8) @ (8, 8) product."""
    Wt = np.swapaxes(W, -1, -2)
    lead = W.shape[:-2]
    X = T.reshape(512, 8) @ W  # [abc, l]
    X = Wt[..., None, :, :] @ X.reshape(lead + (64, 8, 8))  # [ab, k, l]
    Y = (Wt[..., None, :, :] @ X.reshape(lead + (8, 8, 64))).reshape(lead + (8, 512))
    return Y, Wt @ Y


@lru_cache(maxsize=1)
def _reference_frame() -> tuple[np.ndarray, np.ndarray]:
    """phi0's own triple-cross frame g0 (a signed permutation) and the fixed
    +-1 form g0*phi0, as 8 x 512, onto which every form of the orbit pulls back."""
    T = phi0().tensor
    g0 = _triple_cross_frame(T)
    return g0, _pull_back(T, g0)[1]


def _orbit_rotation(T: np.ndarray) -> np.ndarray | None:
    """g in SO(8) with g*T = phi0 when T's triple-cross frame is orthonormal and
    pulls T back onto the fixed form (both to ``_ORBIT_TOL``); None otherwise.
    Every form of phi0's O(8)-orbit passes the pattern test, so the orientation
    of g is what excludes the anti-self-dual half."""
    g = _triple_cross_frame(T)
    if g is None or np.max(np.abs(g.T @ g - np.eye(8))) > _ORBIT_TOL:
        return None
    g0, reference = _reference_frame()
    if np.max(np.abs(_pull_back(T, g)[1] - reference)) > _ORBIT_TOL:
        return None
    g = g @ g0.T
    return g if np.linalg.det(g) > 0 else None


def _misfit(T: np.ndarray, g: np.ndarray) -> float:
    """Form-norm distance |g*a - phi0|; T is a's 4-tensor."""
    R = _pull_back(T, g)[1] - phi0().tensor.reshape(8, 512)
    return float(np.sqrt(np.sum(R * R) / 24.0))  # tensor Frobenius^2 = 24 form norm^2


@dataclass(frozen=True)
class OrbitResult:
    """Closest rotation to phi0 found for a form, and how: ``method`` is
    "construction" when the triple-cross frame certified orbit membership, else
    "descent", whose restarts ``stops`` counts by ``planes.STOP_REASONS``: a
    descent to a positive floor ends on ``gain_below_ulp`` once its steps can no
    longer change the misfit, while ``line_search_stall`` marks a failed search."""

    distance: float
    rotation: np.ndarray
    method: str
    stops: dict


def orbit_search(a, steps: int = 400, restarts: int = 4, seed: int = 0) -> OrbitResult:
    """Minimize the distance from g*a to phi0 over g in SO(8).

    A form in phi0's orbit gets the rotation built from its triple cross, with
    no descent.  Otherwise the restarts start from the identity and then from
    Haar rotations drawn from default_rng(seed); all of them ascend
    -|g*a - phi0|^2 as one stack in ``planes._ascend``.  A descent to ~0
    certifies orbit membership numerically; a positive floor is evidence (not
    proof) of a different orbit.
    """
    from .planes import _ascend, _orthonormal_stack, _stop_counts  # planes imports this module

    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    c = as_cayley(a)
    if c.orbit_rotation is not None:
        return OrbitResult(_misfit(c.tensor, c.orbit_rotation), c.orbit_rotation,
                           "construction", {})
    rng = np.random.default_rng(seed)
    haar = _orthonormal_stack(rng.normal(size=(restarts - 1, 8, 8)))
    haar[np.linalg.det(haar) < 0, :, 0] *= -1
    W = np.concatenate([np.eye(8)[None], haar])
    target = phi0().tensor.reshape(8, 512)
    rotations, values, stop, *_ = _ascend(partial(_negative_misfit, c.tensor, target), W, steps,
                                          0.05, gtol=1e-12)
    best = int(np.argmax(values))
    return OrbitResult(float(np.sqrt(-values[best] / 24.0)), rotations[best], "descent",
                       _stop_counts(stop))


def orbit_distance(a, steps: int = 400, restarts: int = 4,
                   seed: int = 0) -> tuple[float, np.ndarray]:
    """(form-norm distance, rotation) of ``orbit_search``."""
    result = orbit_search(a, steps, restarts, seed)
    return result.distance, result.rotation


def _negative_misfit(A: np.ndarray, target: np.ndarray, W: np.ndarray):
    """-|g*a - target|^2 over a stack W of rotations g, with its Riemannian
    gradient on O(8) and the gradient norms; A is a's 4-tensor and target is
    8 x 512 like the pullbacks of ``_pull_back``."""
    Y, P = _pull_back(A, W)
    R = P - target
    # d|R|^2 = 2 <R, d(g*a)>; g*a pulls back through g in four slots and
    # antisymmetry makes their terms equal, so the gradient is 8 Y R^T
    G = -8.0 * (Y @ R.transpose(0, 2, 1))
    WtG = W.transpose(0, 2, 1) @ G
    D = G - W @ ((WtG + WtG.transpose(0, 2, 1)) / 2.0)
    return -np.einsum("rpq,rpq->r", R, R), D, np.sqrt(np.einsum("rij,rij->r", D, D))
