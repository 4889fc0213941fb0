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
from .planes import CHUNK, _pair_contraction, _pair_coordinates, _pair_forms

#: |c_A|, |c_B| for the three identities (the proven coefficients must match)
REFERENCE_MAGNITUDES = {1: (3.0, 2.0), 2: (4.0, 2.0), 3: (6.0, 7.0)}


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
    """Volume coefficient of the i-th contraction 8-form on a raw frame.

    The 8-form is never built: with top(a ^ b) = (-1)^deg b <a, *b>, each
    left side is one inner product, associated so every wedge stays small.
    int and Fraction frames give exact values; a zero comes back as int 0.
    """
    u, v, y, w = frame
    f = as_kform(phi)
    if i == 1:  # iota_u iota_v Phi ^ y ^ w ^ Phi
        value = inner(double_contraction(u, v, f),
                      hodge(wedge(flat(y, 8), wedge(flat(w, 8), f))))
    elif i == 2:  # u ^ v ^ iota_y Phi ^ iota_w Phi
        value = -inner(wedge(flat(u, 8), wedge(flat(v, 8), interior(y, f))),
                       hodge(interior(w, f)))
    elif i == 3:  # iota_u iota_v Phi ^ iota_y iota_w Phi ^ Phi
        value = inner(double_contraction(u, v, f),
                      hodge(wedge(double_contraction(y, w, f), f)))
    else:
        raise ValueError("identity index must be 1, 2 or 3")
    return value or 0  # a zero is int 0, never 0.0 or -0.0


def identity_residual(i: int, frame, phi, coeffs) -> float:
    """|lhs_i - (c_A A + c_B B)| for given coefficients."""
    inv = invariants(frame, phi)
    c_a, c_b = coeffs
    return abs(float(identity_lhs(i, frame, phi)) - (c_a * float(inv.A) + c_b * float(inv.B)))


# -- pair-coordinate bulk machinery -------------------------------------------


def pair_coords(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(N, 28) coordinates u_a v_b - u_b v_a of u ^ v over the a < b pair basis.

    Each entry is that difference of two products, rounded as written; an
    exact zero comes out as +0.
    """
    return _pair_coordinates(np.stack([np.transpose(U), np.transpose(V)]))[0].T


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
    of frames (N, 4, 8) with rows u, v, y, w.

    Every value is (u ^ v)^T M (y ^ w) for one M of the stack [I; M_i1; M_i2; ...],
    so A is the identity's value; ``planes._pair_forms`` evaluates the whole stack
    with one matrix product per block of frames.  Integer frames give exact values
    while every sum stays below 2^53.  The BLAS product may round a value of M_i
    differently for a different set of indices, by an ulp or so.
    """
    frames = np.asarray(frames)
    if frames.ndim != 3 or frames.shape[1:] != (4, 8):
        raise ValueError(f"frames must be an (N, 4, 8) stack with rows u, v, y, w, "
                         f"got shape {frames.shape}")
    M = np.vstack([np.eye(28)] + [pair_matrix(phi, i) for i in indices])
    return tuple(_pair_forms(frames, M))


def batch_invariants(frames: np.ndarray, phi) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) for a stack of frames, shape (N, 4, 8) with rows u, v, y, w."""
    return batch_pair_values(frames, phi, (0,))


def batch_identity_lhs(i: int, frames: np.ndarray, phi) -> np.ndarray:
    return batch_pair_values(frames, phi, (i,))[1]


def sample_frames(samples: int, rng: np.random.Generator,
                  cayley_free: bool = False, phi=None) -> np.ndarray:
    """(N, 4, 8) i.i.d. standard Gaussian frames, optionally projected to B = 0.

    The projection moves only w, along the gradient of B in w, so the
    frames stay full-rank Gaussian in the remaining directions.  It runs
    in blocks of ``CHUNK`` frames, so no (N, 64) temporary is held.
    """
    if cayley_free and phi is None:
        raise ValueError("cayley_free sampling needs phi")
    F = rng.normal(size=(samples, 4, 8))
    if cayley_free:
        Tm = as_cayley(phi).tensor.reshape(64, 64)
        for s in range(0, samples, CHUNK):
            block = F[s:s + CHUNK]  # a view: w is projected in place
            N = _pair_contraction(Tm, block[:, 0], block[:, 1])
            G = np.einsum("ni,nij->nj", block[:, 2], N)  # B = <G, w> with G = Phi(u, v, y, .)
            gn = np.einsum("ni,ni->n", G, G)
            gn[gn == 0] = 1.0
            block[:, 3] -= (np.einsum("ni,ni->n", G, block[:, 3]) / gn)[:, None] * G
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
