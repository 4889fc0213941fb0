"""Oriented 4-planes in R^8 and the structures a Cayley form puts on them.

Calibration values, Cayley / Cayley-free tests (coordinate and octonionic),
the almost complex structure of a 2-frame, triple-cross plane construction,
Haar sampling, the closed-form maximum over the 4-planes of a 5-plane
(which also answers contained-Cayley-plane questions for 4- and 5-planes and
for forms in phi0's orbit), and the stacked Riemannian gradient ascent
(``_ascend``) that runs the multistart comass and the remaining subspace
searches and, for ``cayley.orbit_search``, the orbit descent over SO(8).

The hot numeric paths work on the dense antisymmetric coefficient tensor
of the form; exact integer frames keep an exact evaluation path so that
statements like "this frame calibrates to 0" hold on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial

import numpy as np

from . import octonions
from .cayley import ConventionMap, as_cayley, as_kform, phi0, phi_octonionic, reconcile
from .forms import evaluate

DEFAULT_CAYLEY_TOL = 1e-6


def orthonormal_frame(vectors, tol: float = 1e-12) -> np.ndarray:
    """Columns: the Gram-Schmidt orthonormalization of the given vectors.

    Each vector may be one 8-vector or an (N, 8) stack; stacks give an
    (N, 8, k) stack of frames.  Keeps the orientation of the input order
    (QR with positive diagonal).  Raises when any frame is (numerically)
    dependent.
    """
    q, r = np.linalg.qr(np.stack([np.asarray(v, dtype=float) for v in vectors], axis=-1))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    if np.any(np.abs(d).min(-1) < tol * np.maximum(1.0, np.abs(d).max(-1))):
        raise ValueError("degenerate frame: vectors are linearly dependent")
    return q * np.sign(d)[..., None, :]


def _is_exact(vs) -> bool:
    return all(isinstance(x, (int, Fraction)) for v in vs for x in v)


@dataclass(frozen=True, eq=False)
class Frame2:
    """Ordered 2-frame; orthonormalized representative kept alongside."""

    u: tuple
    v: tuple

    @staticmethod
    def of(u, v) -> "Frame2":
        return Frame2(tuple(u), tuple(v))

    @cached_property
    def frame(self) -> np.ndarray:
        return orthonormal_frame([self.u, self.v])


@dataclass(frozen=True, eq=False)
class Frame4:
    """Ordered 4-frame; raw vectors plus an orthonormalized representative."""

    vectors: tuple  # 4 tuples of 8 numbers

    @staticmethod
    def of(*vectors) -> "Frame4":
        if len(vectors) != 4:
            raise ValueError("need exactly 4 vectors")
        return Frame4(tuple(tuple(v) for v in vectors))

    @cached_property
    def frame(self) -> np.ndarray:
        return orthonormal_frame(self.vectors)

    def raw_value(self, phi):
        """phi evaluated on the raw (unnormalized) frame; exact for exact input."""
        return evaluate(as_kform(phi), list(self.vectors))

    def to_json_dict(self) -> dict:
        return {"vectors": [list(v) for v in self.vectors]}

    @staticmethod
    def from_json_dict(data: dict) -> "Frame4":
        return Frame4.of(*data["vectors"])


@dataclass(frozen=True, eq=False)
class Plane4:
    """Oriented 4-plane: an orthonormal 8x4 column frame up to SO(4)."""

    basis: np.ndarray

    def __post_init__(self):
        if self.basis.shape != (8, 4):
            raise ValueError("plane basis must be 8x4")
        if gram_defect4(self.basis) > 1e-10:
            raise ValueError("plane basis is not orthonormal")

    @staticmethod
    def from_frame(vectors) -> "Plane4":
        return Plane4(orthonormal_frame(vectors))

    @staticmethod
    def random(rng: np.random.Generator) -> "Plane4":
        return Plane4(orthonormal_frame(rng.normal(size=(8, 4)).T))

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def reversed(self) -> "Plane4":
        flipped = self.basis.copy()
        flipped[:, [0, 1]] = flipped[:, [1, 0]]
        return Plane4(flipped)

    def same_plane(self, other: "Plane4", tol: float = 1e-9) -> bool:
        """Equal as oriented planes (frames related by SO(4))."""
        if float(np.max(np.abs(self.projector() - other.projector()))) > tol:
            return False
        return float(np.linalg.det(self.basis.T @ other.basis)) > 0


def gram_defect4(B: np.ndarray) -> float:
    """Largest entry of B^T B - I, over a frame or a stack of frames."""
    return float(np.max(np.abs(np.swapaxes(B, -1, -2) @ B - np.eye(B.shape[-1]))))


# -- almost complex structures -------------------------------------------------


@dataclass(frozen=True, eq=False)
class ACS:
    """Orthogonal endomorphism squaring to minus the identity."""

    J: np.ndarray  # 8 x 8, or an (N, 8, 8) stack

    def residuals(self) -> dict:
        """Frobenius norms of J^2 + 1 and J^T J - 1; arrays over a stack."""
        J, one = self.J, np.eye(8)
        r = {"square": J @ J + one, "orthogonality": np.swapaxes(J, -1, -2) @ J - one}
        return {k: np.linalg.norm(x, axis=(-2, -1)) for k, x in r.items()}

    def is_valid(self, tol: float = 1e-10) -> bool:
        r = self.residuals()
        return bool(np.all(r["square"] < tol) and np.all(r["orthogonality"] < tol))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


def acs_contraction_matrix(u, v, phi) -> np.ndarray:
    """The raw operator of the 2-form phi(u, v, ., .) on span{u,v}-perp.

    This is the triple-cross action before any extension: it annihilates
    span{u,v} (where the contraction vanishes identically).  u and v may
    be (N, 8) stacks, giving (N, 8, 8).
    """
    F = orthonormal_frame([u, v])
    uu, vv = F[..., 0], F[..., 1]
    N = _pair_contraction(as_cayley(phi).tensor.reshape(64, 64), uu, vv)
    P = np.eye(8) - _outer(uu, uu) - _outer(vv, vv)
    return P @ np.swapaxes(N, -1, -2) @ P


def acs_from_2frame(u, v, phi) -> ACS:
    """Almost complex structure of an oriented 2-plane and a Cayley form.

    On the orthogonal complement of span{u,v} it is the triple-cross
    operator <Jx, w> = phi(u, v, x, w); on span{u,v} it is extended by
    J(u) = v, J(v) = -u, the unique skew completion to an isometry.
    (N, 8) stacks of u and v give one ACS holding an (N, 8, 8) stack.
    """
    F = orthonormal_frame([u, v])
    uu, vv = F[..., 0], F[..., 1]
    J = acs_contraction_matrix(uu, vv, phi)
    J += _outer(vv, uu) - _outer(uu, vv)
    return ACS(J)


# -- calibration and Cayley tests ----------------------------------------------


def calibration_value(plane: Plane4, phi) -> float:
    """phi evaluated on an orthonormal oriented frame of the plane."""
    return float(calibration_values_batch(plane.basis[None], phi)[0])


def is_cayley(plane: Plane4, phi, tol: float = DEFAULT_CAYLEY_TOL) -> bool:
    return abs(calibration_value(plane, phi) - 1.0) < tol


def is_cayley_free(frame, phi, tol: float = DEFAULT_CAYLEY_TOL) -> bool:
    """True when phi restricts to zero on the span of the 4-frame.

    The restriction of a 4-form to a 4-dimensional subspace is a
    multiple of the volume form, so a single evaluation decides.  Exact
    integer/Fraction frames are decided exactly.
    """
    f4 = frame if isinstance(frame, Frame4) else Frame4.of(*frame)
    f4.frame  # raises on degenerate input
    if _is_exact(f4.vectors):
        raw = f4.raw_value(phi)
        if isinstance(raw, (int, Fraction)):
            return raw == 0
    return abs(calibration_value(Plane4(f4.frame), phi)) < tol


@lru_cache(maxsize=1)
def standard_convention() -> ConventionMap:
    """The computed dictionary carrying the octonionic form onto phi0."""
    result = reconcile(phi_octonionic(), phi0())
    if not isinstance(result, ConventionMap):
        raise RuntimeError("octonionic form did not reconcile exactly with phi0")
    return result


def octonionic_residual(plane, convention: ConventionMap | None = None):
    """Residual of the octonion Cayley identity on an orthonormal frame.

    ``plane`` is a Plane4, an orthonormal 8 x 4 frame, an (N, 8, 4) stack
    of them (one residual each) or a sequence of four vectors, which is
    orthonormalized first.  The frame is pulled back to octonion
    coordinates through the convention map (default: the reconciled one),
    where the residual vanishes exactly on Cayley 4-planes.
    """
    if isinstance(plane, Plane4):
        B = plane.basis
    else:
        B = plane if isinstance(plane, np.ndarray) else orthonormal_frame(plane)
    pulled = (convention or standard_convention()).matrix().T @ B
    return octonions.cayley_identity_residual(*np.moveaxis(pulled, -1, 0))


def is_cayley_octonionic(plane, convention: ConventionMap | None = None,
                         tol: float = DEFAULT_CAYLEY_TOL):
    """Cayley test through the octonion identity; see octonionic_residual."""
    return octonionic_residual(plane, convention) < tol


def triple_cross(u, v, w, convention: ConventionMap | None = None) -> np.ndarray:
    """Octonion triple cross product expressed in R^8 coordinates.

    u, v, w may be (N, 8) stacks.  Row vectors x map to octonion
    coordinates as x @ G and back as y @ G^T, G the convention's matrix.
    """
    G = (convention or standard_convention()).matrix()
    return octonions.cross3(*(np.asarray(x, dtype=float) @ G for x in (u, v, w))) @ G.T


def cayley_plane_from_3frame(u, v, w, convention: ConventionMap | None = None):
    """The unique Cayley plane spanned by an independent triple.

    Completes the orthonormalized triple with its triple cross product;
    the returned orientation calibrates to +1.  For (N, 8) stacks of u,
    v, w the result is the (N, 8, 4) stack of orthonormal frames.
    """
    F = orthonormal_frame([u, v, w])
    x = triple_cross(F[..., 0], F[..., 1], F[..., 2], convention)
    B = np.concatenate([F, x[..., None]], axis=-1)
    return Plane4(B) if B.ndim == 2 else B


# -- sampling and optimization ---------------------------------------------------


def random_plane(seed: int = 0) -> Plane4:
    """One Haar-random oriented 4-plane."""
    return Plane4.random(np.random.default_rng(seed))


def _orthonormal_stack(A: np.ndarray) -> np.ndarray:
    """Q factors of a stack of frames, signed so that each R has a positive diagonal."""
    q, r = np.linalg.qr(A)
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return q


def random_planes_batch(n: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of n Haar-random oriented orthonormal 8x4 frames."""
    return _orthonormal_stack(rng.normal(size=(n, 8, 4)))


def _pair_contraction(Tm: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """T(a, b, ., .) for stacks of vectors (..., 8); Tm is T reshaped to 64 x 64."""
    return (_outer(a, b).reshape(-1, 64) @ Tm).reshape(a.shape + (8,))


def calibration_values_batch(frames: np.ndarray, phi) -> np.ndarray:
    Tm = as_cayley(phi).tensor.reshape(64, 64)
    out = np.empty(len(frames))
    for i in range(0, len(frames), 4096):  # 4096 planes bound the (n, 64) temporaries
        F = frames[i:i + 4096]
        S = _pair_contraction(Tm, F[:, :, 0], F[:, :, 1])
        out[i:i + 4096] = np.einsum("nk,nkl,nl->n", F[:, :, 2], S, F[:, :, 3])
    return out


def _value_and_grad(Tm: np.ndarray, S: np.ndarray, W: np.ndarray):
    """Calibration values of the frames S @ W, with the Riemannian gradients in
    W's coordinates and their norms; Tm is the 4-tensor reshaped to 64 x 64."""
    V = S @ W
    C = V.transpose(2, 0, 1)
    S12, S34 = _pair_contraction(Tm, C[0::2], C[1::2])  # T(c1,c2,..), T(c3,c4,..)
    a1, a2 = (S34 @ V[:, :, :2]).transpose(2, 0, 1)  # T(c3,c4,.,c1), T(c3,c4,.,c2)
    b3, b4 = (S12 @ V[:, :, 2:]).transpose(2, 0, 1)  # T(c1,c2,.,c3), T(c1,c2,.,c4)
    G = S.T @ np.stack([a2, -a1, b4, -b3], axis=2)
    D = G - W @ (W.transpose(0, 2, 1) @ G)
    return np.einsum("bi,bi->b", C[2], b4), D, np.sqrt(np.einsum("bij,bij->b", D, D))


STOP_REASONS = ("gtol", "line_search_stall", "step_budget")


def _ascend(value_and_grad, W: np.ndarray, steps: int, step0: float, gtol: float):
    """Riemannian gradient ascent over a stack of orthonormal frames.

    ``value_and_grad(W)`` returns per row the objective, its Riemannian
    gradient and the gradient norm; each objective closes over its own
    subspace or tensors.  ``contains_cayley`` ascends the calibration value
    of (B, m, 4) frames inside one subspace; ``cayley.orbit_search``
    ascends over (B, 8, 8) rotations.  The rows advance in lockstep, one
    stacked QR retraction per candidate, each with its own Armijo step that
    starts at ``step0`` and halves on every rejection.  A row stops at
    gradient norm ``gtol``, when its step falls to 1e-13 (line-search stall)
    or after ``steps`` accepted steps.  Returns per row: frames, values, stop
    codes (into STOP_REASONS), accepted steps and backtracks.
    """
    B = len(W)
    out = (np.empty_like(W), np.empty(B), *(np.empty(B, dtype=int) for _ in range(3)))
    rows, t = np.arange(B), np.full(B, float(step0))
    k, nb = np.zeros(B, dtype=int), np.zeros(B, dtype=int)
    val, D, gn = value_and_grad(W)
    while rows.size:
        budget, small = k >= steps, gn < gtol
        done = budget | small | ~(t > 1e-13)
        if done.any():  # retire finished rows; the rest stay contiguous
            stop = np.where(budget, 2, np.where(small, 0, 1))
            for o, x in zip(out, (W, val, stop, k, nb)):
                o[rows[done]] = x[done]
            rows, W, val, D, gn, t, k, nb = (x[~done] for x in (rows, W, val, D, gn, t, k, nb))
            continue
        cand = _orthonormal_stack(W + t[:, None, None] * D)
        cval, cD, cgn = value_and_grad(cand)
        ok = cval > val + 1e-4 * t * gn * gn
        W, D = np.where(ok[:, None, None], cand, W), np.where(ok[:, None, None], cD, D)
        val, gn = np.where(ok, cval, val), np.where(ok, cgn, gn)
        k += ok
        nb += ~ok
        t = np.where(ok, step0, 0.5 * t)
    return out


@dataclass(frozen=True)
class AscentResult:
    """Best of a multistart ascent; ``stops`` counts restarts by STOP_REASONS, and
    ``iterations`` / ``backtracks`` total their accepted and rejected steps.  An
    answer taken in closed form has ``stops == {"closed_form": 1}`` and no steps."""

    value: float
    plane: Plane4
    stops: dict
    iterations: int
    backtracks: int

    @property
    def converged(self) -> bool:
        return self.stops.get("step_budget", 0) == 0

    @property
    def warning(self) -> str | None:
        return None if self.converged else "step budget exhausted before convergence"


def comass(phi, restarts: int = 64, steps: int = 500, seed: int = 0) -> AscentResult:
    """Multistart estimate of max_{oriented 4-planes} phi, with maximizer.

    For an admissible form this is the calibration bound 1, attained on
    the Cayley Grassmannian.  It is always the ascent over R^8, never a closed
    form: criterion 6 reads it as numerical evidence for that bound.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    return _search(np.eye(8), phi, restarts, steps, seed)


def contains_cayley(subspace, phi, restarts: int = 16, steps: int = 500,
                    seed: int = 0) -> AscentResult:
    """Largest calibration value over the 4-planes of a subspace (orthonormal
    m-frame, 4 <= m <= 8), with a plane attaining it.

    Answered in closed form where a theorem gives the maximum: for m = 4 the
    subspace itself, for m = 5 the plane n-perp of ``five_plane_comass``, and for
    m = 6..8, when phi is in phi0's orbit (``CayleyForm.orbit_rotation``), the
    Cayley plane n-perp of the first five columns, since phi's comass is 1.
    Otherwise restart r ascends from the Q factor of
    default_rng(seed + r).normal(size=(m, 4)), all restarts as one stack.
    ``found_cayley(result, tol)`` certifies the witness at ``value >= 1 - tol``.
    """
    S = np.asarray(subspace if isinstance(subspace, np.ndarray) else np.column_stack(subspace),
                   dtype=float)
    if S.ndim != 2 or S.shape[0] != 8 or not 4 <= S.shape[1] <= 8:
        raise ValueError("subspace frames must be 8 x m with 4 <= m <= 8")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if gram_defect4(S) > 1e-8:
        raise ValueError("subspace frame is not orthonormal")
    phi = as_cayley(phi)  # one tensor for the orbit test and the answer
    if S.shape[1] <= 5 or phi.orbit_rotation is not None:
        return _best_plane_of_five(S[:, :5], phi)
    return _search(S, phi, restarts, steps, seed)


def _search(S: np.ndarray, phi, restarts: int, steps: int, seed: int) -> AscentResult:
    """Multistart ascent of the calibration value over the 4-planes of span(S)."""
    W0 = _orthonormal_stack(np.stack([np.random.default_rng(seed + r).normal(size=(S.shape[1], 4))
                                      for r in range(restarts)]))
    objective = partial(_value_and_grad, as_cayley(phi).tensor.reshape(64, 64), S)
    frames, values, stop, iters, backs = _ascend(objective, W0, steps, 0.1, gtol=1e-8)
    b = int(np.argmax(values))
    return AscentResult(float(values[b]), Plane4(orthonormal_frame((S @ frames[b]).T)),
                        dict(zip(STOP_REASONS, np.bincount(stop, minlength=3).tolist())),
                        int(iters.sum()), int(backs.sum()))


def _best_plane_of_five(S: np.ndarray, phi) -> AscentResult:
    """The maximizing 4-plane of a 4- or 5-dimensional subspace: span(S) itself,
    or n-perp in it (see ``five_plane_comass``), in the orientation phi takes
    positive."""
    if S.shape[1] == 5:
        n = _five_plane_normals(S[None], phi)[0]
        S = S @ np.linalg.qr(n[:, None], mode="complete")[0][:, 1:]
    B = orthonormal_frame(S.T)
    frames = np.stack([B, B[:, [1, 0, 2, 3]]])
    values = calibration_values_batch(frames, phi)
    b = int(np.argmax(values))
    return AscentResult(float(values[b]), Plane4(frames[b]), {"closed_form": 1}, 0, 0)


def _five_plane_normals(S: np.ndarray, phi) -> np.ndarray:
    """n_i = (-1)^i phi(W without column i) for each 5-plane W of a (P, 8, 5) stack."""
    cofaces = [[j for j in range(5) if j != i] for i in range(5)]
    c = calibration_values_batch(S[:, :, cofaces].transpose(0, 2, 1, 3).reshape(-1, 8, 4), phi)
    return c.reshape(-1, 5) * np.array([1.0, -1.0, 1.0, -1.0, 1.0])


def five_plane_comass(subspaces, phi) -> np.ndarray:
    """Max of phi over the oriented 4-planes of each 5-plane W of a (P, 8, 5) stack.

    phi on W is the W-Hodge dual of n, n_i = (-1)^i phi(W without column i), so the
    max is |n|, on n-perp in W (Harvey-Lawson, Calibrated Geometries, section IV)."""
    S = np.asarray(subspaces, dtype=float)
    if S.ndim != 3 or S.shape[1:] != (8, 5):
        raise ValueError("subspace frames must be a (P, 8, 5) stack")
    if len(S) and gram_defect4(S) > 1e-8:
        raise ValueError("subspace frame is not orthonormal")
    n = _five_plane_normals(S, phi)
    return np.sqrt(np.einsum("pi,pi->p", n, n))


def found_cayley(result: AscentResult, tol: float = DEFAULT_CAYLEY_TOL) -> bool:
    return result.value >= 1.0 - tol


# -- hypercomplex triples --------------------------------------------------------


@dataclass(frozen=True)
class HypercomplexReport:
    J: tuple  # three restricted 4x4 structures, in input order
    signs: tuple  # sign s with J_a J_b ~ s J_c, best fit
    residuals: dict
    residual: float

    def is_hypercomplex(self, tol: float = 1e-8) -> bool:
        return self.residual < tol


def _common_line(Ba: np.ndarray, Bb: np.ndarray) -> np.ndarray:
    """Unit vector spanning the intersection of two 2-planes (or raise)."""
    u, s, _ = np.linalg.svd(Ba.T @ Bb)
    if s[0] < 1 - 1e-6:
        raise ValueError("2-planes do not intersect in a line")
    if s[1] > 1e-6:
        raise ValueError("2-planes coincide; need three distinct planes")
    line = Ba @ u[:, 0]
    return line / np.linalg.norm(line)


def hypercomplex_from_triple(xi: Plane4, alpha, beta, gamma, phi) -> HypercomplexReport:
    """Test the hypercomplex structure of three 2-planes sharing a line.

    alpha, beta, gamma are 2-frames inside ``xi`` whose pairwise
    intersection is one common line and whose directions transverse to
    that line are mutually orthogonal.  The three induced almost complex
    structures are restricted to ``xi``; the report records how far they
    are from the quaternion relations.  The residual vanishes exactly
    when ``xi`` is Cayley.
    """
    B = xi.basis
    P = xi.projector()
    frames = []
    for pair in (alpha, beta, gamma):
        F = orthonormal_frame(list(pair))
        if float(np.max(np.abs(F - P @ F))) > 1e-9:
            raise ValueError("2-plane does not lie inside the 4-plane")
        frames.append(F)
    lines = [_common_line(frames[i], frames[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    for line in lines[1:]:
        if abs(float(lines[0] @ line)) < 1 - 1e-6:
            raise ValueError("pairwise intersections do not share a common line")
    ell = lines[0]
    transverse = []
    for F in frames:
        c = F.T @ ell  # in-plane coordinates of the common line
        w = F @ np.array([-c[1], c[0]])
        transverse.append(w / np.linalg.norm(w))
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(float(transverse[i] @ transverse[j])) > 1e-6:
                raise ValueError("transverse directions are not mutually orthogonal")

    F = np.stack(frames)
    J = acs_from_2frame(F[:, :, 0], F[:, :, 1], phi).J
    Js = list(B.T @ J @ B)
    res = {"leakage": float(np.max(np.linalg.norm((np.eye(8) - P) @ J @ B, axis=(-2, -1))))}
    for name, Jr in zip("abc", Js):
        res[f"square_{name}"] = float(np.linalg.norm(Jr @ Jr + np.eye(4)))
    prods = []
    signs = []
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        cands = [float(np.linalg.norm(Js[i] @ Js[j] - s * Js[k])) for s in (1, -1)]
        best = int(np.argmin(cands))
        prods.append(cands[best])
        signs.append(1 if best == 0 else -1)
    res["product"] = max(prods)
    residual = max(res["leakage"], res["product"],
                   *(res[f"square_{c}"] for c in "abc"))
    return HypercomplexReport(tuple(Js), tuple(signs), res, residual)
