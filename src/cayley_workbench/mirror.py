"""Pointwise SU(3)-structures induced by 2-frames of a Cayley form.

A 2-frame (u, v) determines the almost complex structure J of the
contracted form on W = span{u,v}-perp, the Kaehler 2-form
omega(x, y) = phi(u, v, x, y) restricted to W, and a unit (3,0)-form
built from an adapted basis {f1, Jf1, f2, Jf2, f3, Jf3}.  Splitting a
Cayley-free 4-frame into its two 2-frames yields the mirror pair; the
report expands phi against each side's structure forms, which is the
operational sense in which phi interchanges the two.  The build runs
over (N, 8) stacks of 2-frames; one 2-frame is a batch of one.

omega is the Kaehler form of J rather than u-flat ^ v-flat: the latter
is degenerate on the 6-dimensional W and cannot be the symplectic form
of the stated structure.  The composite K = J_uv J_yw is measured, not
assumed, to be a third almost complex structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .cayley import as_cayley, as_kform
from .forms import KForm, blade_masks, flat, form_to_coeffs, interior, wedge
from .planes import ACS, Frame4, Plane4, _outer, _pair_contraction, acs_from_2frame, \
    calibration_value, is_cayley_free, orthonormal_frame

#: composite K counts as an almost complex structure below these residuals
ACS_TOL = 1e-9
#: mirror_pair accepts a 4-frame as Cayley-free when |phi| on it is below this
CAYLEY_FREE_TOL = 1e-8

# in adapted coordinates the restricted 1-forms are exactly dy^k
_Y = [KForm(6, 1, {1 << j: 1.0}) for j in range(6)]
#: Omega = (dy1 + i dy2)(dy3 + i dy4)(dy5 + i dy6), the same in every adapted frame
HOLO = wedge(wedge(_Y[0] + 1j * _Y[1], _Y[2] + 1j * _Y[3]), _Y[4] + 1j * _Y[5])


class NotCayleyFreeError(ValueError):
    """Raised when a mirror construction is asked of a non-Cayley-free frame."""

    def __init__(self, value: float):
        super().__init__(f"frame is not Cayley-free: phi restricts to {value!r}")
        self.value = value


def kaehler_form(u, v, phi) -> KForm:
    """Ambient 2-form (x, y) -> phi(u, v, x, y)."""
    f = as_kform(phi)
    return interior(v, interior(u, f))


@dataclass(frozen=True, eq=False)
class SU3Structure:
    """(W, J, omega) on the 6-dim complement of an oriented 2-frame.

    ``frame`` holds the adapted basis columns (f1, Jf1, f2, Jf2, f3, Jf3)
    and ``omega_matrix[a, b] = phi(u, v, f_a, f_b)``.  In these
    coordinates the (3,0)-form is ``HOLO`` by construction, so all
    geometric content sits in how J and omega land in them.  A stack of
    structures carries a leading axis on every field.
    """

    u: np.ndarray              # (..., 8), orthonormal with v
    v: np.ndarray
    frame: np.ndarray          # (..., 8, 6) adapted orthonormal basis of W
    J: np.ndarray              # (..., 8, 8) ambient almost complex structure
    omega_matrix: np.ndarray   # (..., 6, 6) omega in W coordinates

    @cached_property
    def omega(self) -> KForm:
        """omega of one structure as a 6-dim form, coefficients <= 1e-14 dropped."""
        M = self.omega_matrix
        return KForm(6, 2, {(1 << a) | (1 << b): float(M[a, b])
                            for a, b in combinations(range(6), 2)}).chop(1e-14)

    def residuals(self) -> dict:
        """Defects of one structure; omega_cubed is the dy1...6 coefficient of omega^3."""
        W, M = self.frame, self.omega_matrix
        JW = W.T @ self.J @ W
        out = {
            "J_preserves_W": float(np.linalg.norm((np.eye(8) - W @ W.T) @ self.J @ W)),
            "J_squares_to_minus_id": float(np.linalg.norm(JW @ JW + np.eye(6))),
            "omega_J_invariant": float(np.linalg.norm(JW.T @ M @ JW - M)),
            "omega_is_kaehler_form": float(np.linalg.norm(M - JW.T)),
            "omega_cubed": float(6 * _pfaffian6(M)),
            "holo_purity": max(_abs_norm(interior(x + 1j * (JW @ x), HOLO).terms.values())
                               for x in np.eye(6)),
        }
        c = np.array(list(wedge(self.omega, HOLO).terms.values()), dtype=complex)
        out["omega_wedge_re"] = _abs_norm(c.real)
        out["omega_wedge_im"] = _abs_norm(c.imag)
        return out

    def volume_ratio(self):
        """(Omega ^ conj(Omega)) / omega^3, a convention constant of phi.

        In adapted coordinates Omega ^ conj(Omega) = -8i dy1...6 and
        omega^3 = 6 Pf(omega) dy1...6.  One complex per structure: a
        Python complex for one, an array over a stack.
        """
        ratio = np.zeros(self.omega_matrix.shape[:-2], dtype=complex)
        # set imag in place: 1j * x would leave a real part of -0.0 for x < 0
        ratio.imag = -8 / (6 * _pfaffian6(self.omega_matrix))
        return complex(ratio) if ratio.ndim == 0 else ratio


def su3_from_2frame(u, v, phi) -> SU3Structure:
    """Build the SU(3)-structure of an oriented 2-frame, or of (N, 8) stacks.

    The adapted basis is grown greedily: the first ambient coordinate
    direction with enough mass in the remaining J-invariant subspace is
    normalized to f_k and paired with J f_k (deterministic, so repeated
    runs and mirror reports are byte-stable).  omega is read off phi's
    tensor, not derived from J, so its Kaehler residual measures
    something.
    """
    F = orthonormal_frame([u, v])
    uu, vv = F[..., 0], F[..., 1]
    J = acs_from_2frame(uu, vv, phi).J
    P = np.eye(8) - _outer(uu, uu) - _outer(vv, vv)
    cols = []
    for _ in range(3):
        mass = np.linalg.norm(P, axis=-2)
        # generous mass threshold keeps normalization well conditioned
        heavy = mass > 1e-3
        if not np.all(heavy.any(-1)):
            raise ValueError("failed to complete an adapted basis")
        i = heavy.argmax(-1)[..., None]
        f = np.take_along_axis(P, i[..., None], -1)[..., 0] / np.take_along_axis(mass, i, -1)
        b = (J @ f[..., None])[..., 0]
        b = b / np.linalg.norm(b, axis=-1, keepdims=True)
        cols += [f, b]
        P = P - _outer(f, f) - _outer(b, b)
    W = np.stack(cols, axis=-1)
    N = _pair_contraction(as_cayley(phi).tensor.reshape(64, 64), uu, vv)
    return SU3Structure(uu, vv, W, J, np.swapaxes(W, -1, -2) @ N @ W)


def _pfaffian6(A: np.ndarray) -> np.ndarray:
    """Pfaffian of (..., 6, 6) antisymmetric stacks, expanded along the first row."""
    def pf4(i, j, k, l):
        return A[..., i, j] * A[..., k, l] - A[..., i, k] * A[..., j, l] \
            + A[..., i, l] * A[..., j, k]
    return sum((-1) ** (j + 1) * A[..., 0, j] * pf4(*(r for r in range(1, 6) if r != j))
               for j in range(1, 6))


def _abs_norm(coeffs) -> float:
    return float(np.sqrt(sum(abs(c) ** 2 for c in coeffs)))


# -- mirror pairs and composite structures -------------------------------------


@dataclass(frozen=True)
class MirrorReport:
    K: np.ndarray
    k_squared_residual: float
    commutator_norm: float
    orthogonality_residual: float
    is_acs: bool
    phi_expansion: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "K": [[float(x) for x in row] for row in self.K],
            "k_squared_residual": self.k_squared_residual,
            "commutator_norm": self.commutator_norm,
            "orthogonality_residual": self.orthogonality_residual,
            "is_acs": self.is_acs,
        }
        if self.phi_expansion is not None:
            out["phi_expansion"] = self.phi_expansion
        return out


def compose_acs(J1, J2) -> MirrorReport:
    """Compose two almost complex structures and test whether the result is one.

    The verdict is measured from the residuals; nothing about the
    composite is assumed.
    """
    A = J1.J if isinstance(J1, ACS) else np.asarray(J1, dtype=float)
    B = J2.J if isinstance(J2, ACS) else np.asarray(J2, dtype=float)
    K = A @ B
    k2 = float(np.linalg.norm(K @ K + np.eye(8)))
    comm = float(np.linalg.norm(A @ B - B @ A))
    orth = float(np.linalg.norm(K.T @ K - np.eye(8)))
    return MirrorReport(K, k2, comm, orth, bool(k2 < ACS_TOL and orth < ACS_TOL))


def phi_expansion(structure: SU3Structure, phi) -> dict:
    """Least-squares expansion of phi over the structure's form basis.

    Basis: u^v^omega, omega^omega, u^ReOmega, u^ImOmega, v^ReOmega,
    v^ImOmega (all ambient 4-forms).  The residual is the norm of the
    part of phi outside their span.
    """
    f = as_kform(phi)
    u, v, W = structure.u, structure.v, structure.frame
    du, dv = flat(u, 8), flat(v, 8)
    omega = kaehler_form(u, v, phi)
    zetas = [flat(W[:, 2 * k], 8) + 1j * flat(W[:, 2 * k + 1], 8) for k in range(3)]
    holo = wedge(wedge(zetas[0], zetas[1]), zetas[2])
    masks = blade_masks(8, 4)
    coeffs = lambda a: np.array([complex(a.terms.get(m, 0)) for m in masks])
    uh, vh = coeffs(wedge(du, holo)), coeffs(wedge(dv, holo))
    basis = {
        "uv_omega": coeffs(wedge(wedge(du, dv), omega)).real,
        "omega_omega": coeffs(wedge(omega, omega)).real,
        "u_re_holo": uh.real, "u_im_holo": uh.imag,
        "v_re_holo": vh.real, "v_im_holo": vh.imag,
    }
    X = np.column_stack(list(basis.values()))
    t = form_to_coeffs(f, masks)
    c, *_ = np.linalg.lstsq(X, t, rcond=None)
    out = {name: float(v) for name, v in zip(basis, c)}
    out["residual"] = float(np.linalg.norm(t - X @ c))
    return out


def mirror_pair(frame, phi) -> tuple[SU3Structure, SU3Structure, MirrorReport]:
    """The two SU(3)-structures of a Cayley-free 4-frame, plus the K report.

    Refuses frames on which phi does not restrict to zero, quoting the
    measured value.
    """
    f4 = frame if isinstance(frame, Frame4) else Frame4.of(*frame)
    if not is_cayley_free(f4, phi, CAYLEY_FREE_TOL):
        raise NotCayleyFreeError(calibration_value(Plane4(f4.frame), phi))
    u, v, y, w = f4.vectors
    side_uv = su3_from_2frame(u, v, phi)
    side_yw = su3_from_2frame(y, w, phi)
    report = compose_acs(ACS(side_uv.J), ACS(side_yw.J))
    expansion = {
        "uv": phi_expansion(side_uv, phi),
        "yw": phi_expansion(side_yw, phi),
    }
    report = MirrorReport(report.K, report.k_squared_residual, report.commutator_norm,
                          report.orthogonality_residual, report.is_acs, expansion)
    return side_uv, side_yw, report
