"""Scalar invariants of a 4-frame and the three 8-form contraction identities.

For vector fields u, v, y, w and a Cayley form Phi, put

    A = <u,y><v,w> - <u,w><v,y>        (the Gram 2x2 minor)
    B = Phi(u, v, y, w)

Three 8-forms built from contractions of Phi are then fixed linear
combinations (c_A A + c_B B) vol.  The contraction order convention
(iota_u iota_v Phi meaning interior(u, interior(v, Phi))) flips signs
relative to other conventions; the magnitudes are (3,2), (4,2), (6,7).

Every left side is bilinear in u ^ v and y ^ w, so identity i is a 28x28
matrix M_i over pair coordinates, in which A is I and B is M_0.  The M_i
are built in closed form and the coefficients are proven on their entries;
the least-squares fit over random frames stays as the float cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cayley import as_cayley, as_kform
from .forms import KForm, evaluate, flat, hodge, inner, interior, lambda2_matrix, wedge
from .planes import _pair_contraction

#: |c_A|, |c_B| for the three identities (the proven coefficients must match)
REFERENCE_MAGNITUDES = {1: (3.0, 2.0), 2: (4.0, 2.0), 3: (6.0, 7.0)}

_FULL = (1 << 8) - 1


@dataclass(frozen=True)
class FrameInvariants:
    A: float
    B: float


def double_contraction(u, v, phi) -> KForm:
    """iota_u iota_v Phi = interior(u, interior(v, Phi)); the fixed convention."""
    return interior(u, interior(v, as_kform(phi)))


def invariants(frame, phi) -> FrameInvariants:
    """Exact multilinear evaluation of (A, B) on a raw (unnormalized) frame."""
    u, v, y, w = frame
    dot = lambda a, b: sum(x * t for x, t in zip(a, b))
    A = dot(u, y) * dot(v, w) - dot(u, w) * dot(v, y)
    B = evaluate(as_kform(phi), [u, v, y, w])
    return FrameInvariants(A, B)


def identity_lhs(i: int, frame, phi):
    """Volume coefficient of the i-th contraction 8-form on a raw frame."""
    u, v, y, w = frame
    f = as_kform(phi)
    if i == 1:
        total = wedge(wedge(double_contraction(u, v, f),
                            wedge(flat(y, 8), flat(w, 8))), f)
    elif i == 2:
        total = wedge(wedge(flat(u, 8), flat(v, 8)),
                      wedge(interior(y, f), interior(w, f)))
    elif i == 3:
        total = wedge(wedge(double_contraction(u, v, f),
                            double_contraction(y, w, f)), f)
    else:
        raise ValueError("identity index must be 1, 2 or 3")
    return total.terms.get(_FULL, 0)


def identity_residual(i: int, frame, phi, coeffs) -> float:
    """|lhs_i - (c_A A + c_B B)| for given coefficients."""
    inv = invariants(frame, phi)
    c_a, c_b = coeffs
    return abs(float(identity_lhs(i, frame, phi)) - (c_a * float(inv.A) + c_b * float(inv.B)))


# -- pair-coordinate bulk machinery -------------------------------------------


def pair_coords(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(N, 28) coordinates of u ^ v over the a < b pair basis."""
    a, b = np.triu_indices(8, 1)
    return U[:, a] * V[:, b] - U[:, b] * V[:, a]


@lru_cache(maxsize=8)
def _pair_matrices(terms: tuple) -> tuple:
    # With M0, S the pair matrices of Phi, *Phi and c = <Phi, *Phi>: every 4-form
    # beta has beta ^ Phi = <beta, *Phi> vol, iota_u iota_v Phi has pair coordinates
    # -M0[p] at the pair p of (u, v), and iota_y Phi ^ iota_w Phi =
    # iota_w iota_y Phi ^ Phi - 1/2 iota_w iota_y (Phi ^ Phi) with Phi ^ Phi = c vol.
    f = KForm(8, 4, dict(terms))
    M0, S, c = lambda2_matrix(f), lambda2_matrix(hodge(f)), float(inner(f, hodge(f)))
    mats = (M0, -(M0 @ S), S @ M0 - (c / 2) * np.eye(28), M0 @ S @ M0)
    return tuple(m + 0.0 for m in mats)  # no -0.0 entries: they would print as -0


def pair_matrix(phi, i: int) -> np.ndarray:
    """28x28 matrix of identity i over pair coordinates (i = 0 gives Phi itself)."""
    if i not in (0, 1, 2, 3):
        raise ValueError("identity index must be 0, 1, 2 or 3")
    return _pair_matrices(tuple(sorted(as_kform(phi).terms.items())))[i]


def identity_coefficients(phi, i: int) -> tuple:
    """(c_A, c_B, residual) of the least-squares fit M_i ~ c_A I + c_B M_0 on its
    784 entries.  Integer coefficients reproducing M_i exactly prove identity i
    for all frames (ints, residual 0); otherwise floats and the worst entry."""
    M0, M = pair_matrix(phi, 0), pair_matrix(phi, i).ravel()
    X = np.column_stack([np.eye(28).ravel(), M0.ravel()])
    c, *_ = np.linalg.lstsq(X, M, rcond=None)
    k = np.rint(c)
    # integer entries up to 2^14 keep every sum of M0 S M0 below 2^53: the floats are exact
    if np.array_equal(M0, np.rint(M0)) and np.abs(M0).max() <= 2 ** 14 \
            and np.array_equal(X @ k, M):
        return int(k[0]), int(k[1]), 0
    return float(c[0]), float(c[1]), float(np.max(np.abs(X @ c - M)))


def batch_pair_values(frames: np.ndarray, phi, indices) -> tuple:
    """A and, for each i in ``indices``, the values of pair matrix i over a stack
    of frames (N, 4, 8) with rows u, v, y, w; the pair coordinates of the
    stack are computed once."""
    puv = pair_coords(frames[:, 0], frames[:, 1])
    pyw = pair_coords(frames[:, 2], frames[:, 3])
    return (np.einsum("np,np->n", puv, pyw),
            *(np.einsum("np,pq,nq->n", puv, pair_matrix(phi, i), pyw) for i in indices))


def batch_invariants(frames: np.ndarray, phi) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) for a stack of frames, shape (N, 4, 8) with rows u, v, y, w."""
    return batch_pair_values(frames, phi, (0,))


def batch_identity_lhs(i: int, frames: np.ndarray, phi) -> np.ndarray:
    return batch_pair_values(frames, phi, (i,))[1]


def sample_frames(samples: int, rng: np.random.Generator,
                  cayley_free: bool = False, phi=None) -> np.ndarray:
    """(N, 4, 8) i.i.d. standard Gaussian frames, optionally projected to B = 0.

    The projection moves only w, along the gradient of B in w, so the
    frames stay full-rank Gaussian in the remaining directions.
    """
    if cayley_free and phi is None:
        raise ValueError("cayley_free sampling needs phi")
    F = rng.normal(size=(samples, 4, 8))
    if cayley_free:
        N = _pair_contraction(as_cayley(phi).tensor.reshape(64, 64), F[:, 0], F[:, 1])
        G = np.einsum("ni,nij->nj", F[:, 2], N)  # B = <G, w> with G = Phi(u, v, y, .)
        gn = np.einsum("ni,ni->n", G, G)
        gn[gn == 0] = 1.0
        F[:, 3] -= (np.einsum("ni,ni->n", G, F[:, 3]) / gn)[:, None] * G
    return F


@dataclass(frozen=True)
class FitResult:
    c_a: float
    c_b: float
    fit_residual: float
    samples: int


def extract_coefficients(i: int, samples: int, seed: int, phi,
                         cayley_free: bool = False) -> FitResult:
    """Least-squares fit of identity i against (A, B) over random frames.

    This is the float cross-check of ``identity_coefficients``: a tiny fit
    residual says the sampled left sides are an (A, B)-linear combination to
    rounding.  For Cayley-free sampling B is identically zero and only c_A
    is fitted (c_b is reported as 0).
    """
    if samples < 10:
        raise ValueError("need at least 10 sample frames")
    rng = np.random.default_rng(seed)
    for attempt in range(4):
        F = sample_frames(samples, rng, cayley_free=cayley_free, phi=phi)
        A, B, L = batch_pair_values(F, phi, (0, i))
        X = A[:, None] if cayley_free else np.column_stack([A, B])
        s = np.linalg.svd(X, compute_uv=False)
        if s[-1] > 1e-8 * s[0]:
            break
        # degenerate design (all samples with proportional invariants): resample
    else:
        raise RuntimeError("could not draw a well-conditioned sample design")
    c, *_ = np.linalg.lstsq(X, L, rcond=None)
    fit = X @ c
    res = float(np.max(np.abs(L - fit)))
    if cayley_free:
        return FitResult(float(c[0]), 0.0, res, samples)
    return FitResult(float(c[0]), float(c[1]), res, samples)
