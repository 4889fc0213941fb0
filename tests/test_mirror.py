"""Mirror SU(3)-structures, the composite K, and the expansion of phi."""

import math

import numpy as np
import pytest

from cayley_workbench.cayley import phi0
from cayley_workbench.forms import KForm, basis_vector, restrict, wedge
from cayley_workbench.mirror import (NotCayleyFreeError, compose_acs, kaehler_form,
                                     mirror_pair, phi_expansion, su3_from_2frame)
from cayley_workbench.planes import ACS, acs_from_2frame
from cayley_workbench.representations import spin7_lie_algebra
from cayley_workbench.reporting import canonical_json

P0 = phi0()
e = lambda i: basis_vector(8, i)

RESIDUAL_KEYS = ("J_preserves_W", "J_squares_to_minus_id", "omega_J_invariant",
                 "omega_is_kaehler_form", "holo_purity", "omega_wedge_re",
                 "omega_wedge_im")


def expm_antisym(X):
    """exp of an antisymmetric matrix through the Hermitian eigenproblem."""
    w, U = np.linalg.eigh(1j * X)
    return np.real(U @ np.diag(np.exp(-1j * w)) @ U.conj().T)


class TestSU3Construction:
    def test_coordinate_frame_omega(self):
        s = su3_from_2frame(e(1), e(2), P0)
        assert dict(s.omega.blades()) == {(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0}
        assert dict(kaehler_form(np.asarray(e(1), float), np.asarray(e(2), float),
                                 P0).blades()) == {(3, 4): 1.0, (5, 6): 1.0, (7, 8): 1.0}

    def test_omega_cubed_is_six_vol(self):
        s = su3_from_2frame(e(1), e(2), P0)
        assert s.residuals()["omega_cubed"] == pytest.approx(6.0)

    def test_residuals_vanish_on_coordinate_frame(self):
        r = su3_from_2frame(e(1), e(2), P0).residuals()
        for key in RESIDUAL_KEYS:
            assert r[key] < 1e-12, key

    def test_residuals_small_on_random_frames(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            s = su3_from_2frame(rng.normal(size=8), rng.normal(size=8), P0)
            r = s.residuals()
            for key in RESIDUAL_KEYS:
                assert r[key] < 1e-9, key
            assert abs(r["omega_cubed"]) > 1.0

    def test_volume_ratio_is_the_recorded_constant(self):
        # recorded convention constant of this construction: -4i/3
        s = su3_from_2frame(e(1), e(2), P0)
        assert s.volume_ratio() == pytest.approx(-4j / 3)

    def test_volume_ratio_frame_independent(self):
        rng = np.random.default_rng(1)
        ratios = [su3_from_2frame(rng.normal(size=8), rng.normal(size=8), P0)
                  .volume_ratio() for _ in range(40)]
        assert np.max(np.abs(np.array(ratios) - ratios[0])) < 1e-8

    def test_degenerate_frame_rejected(self):
        with pytest.raises(ValueError):
            su3_from_2frame(e(1), e(1), P0)


class TestStacks:
    def test_stack_matches_batches_of_one(self):
        uv = np.random.default_rng(10).normal(size=(50, 2, 8))
        st = su3_from_2frame(uv[:, 0], uv[:, 1], P0)
        assert st.frame.shape == (50, 8, 6) and st.J.shape == (50, 8, 8)
        for k, (u, v) in enumerate(uv):
            one = su3_from_2frame(u, v, P0)
            for name in ("u", "v", "frame", "J", "omega_matrix"):
                assert np.max(np.abs(getattr(st, name)[k] - getattr(one, name))) <= 1e-15, name

    def test_dense_omega_matches_sparse_restriction(self):
        uv = np.random.default_rng(11).normal(size=(25, 2, 8))
        st = su3_from_2frame(uv[:, 0], uv[:, 1], P0)
        for u, v, W, M in zip(st.u, st.v, st.frame, st.omega_matrix):
            ref = restrict(kaehler_form(u, v, P0), [W[:, j] for j in range(6)])
            for a in range(6):
                for b in range(6):
                    assert abs(M[a, b] - ref.coefficient(a + 1, b + 1)) <= 1e-14

    def test_closed_form_ratio_matches_wedges(self):
        y = [KForm(6, 1, {1 << j: 1.0}) for j in range(6)]
        holo = wedge(wedge(y[0] + 1j * y[1], y[2] + 1j * y[3]), y[4] + 1j * y[5])
        num = wedge(holo, holo.conjugate()).coefficient(1, 2, 3, 4, 5, 6)
        uv = np.random.default_rng(12).normal(size=(25, 2, 8))
        st = su3_from_2frame(uv[:, 0], uv[:, 1], P0)
        ratios = st.volume_ratio()
        assert ratios.shape == (25,)
        for u, v, W, ratio in zip(st.u, st.v, st.frame, ratios):
            omega = restrict(kaehler_form(u, v, P0), [W[:, j] for j in range(6)])
            den = wedge(wedge(omega, omega), omega).coefficient(1, 2, 3, 4, 5, 6)
            assert abs(ratio - complex(num) / den) <= 1e-14

    def test_one_parallel_row_rejects_the_stack(self):
        uv = np.random.default_rng(13).normal(size=(5, 2, 8))
        uv[3, 1] = 2.0 * uv[3, 0]
        with pytest.raises(ValueError):
            su3_from_2frame(uv[:, 0], uv[:, 1], P0)

    def test_coordinate_ratio_has_positive_zero_real_part(self):
        ratio = su3_from_2frame(e(1), e(2), P0).volume_ratio()
        assert type(ratio) is complex
        assert math.copysign(1.0, ratio.real) == 1.0
        assert ratio.imag == -4 / 3


class TestPhiExpansion:
    def test_coordinate_frame_coefficients(self):
        s = su3_from_2frame(e(1), e(2), P0)
        exp = phi_expansion(s, P0)
        assert exp["uv_omega"] == pytest.approx(1.0, abs=1e-12)
        assert exp["omega_omega"] == pytest.approx(0.5, abs=1e-12)
        assert exp["u_re_holo"] == pytest.approx(1.0, abs=1e-12)
        assert exp["u_im_holo"] == pytest.approx(0.0, abs=1e-12)
        assert exp["v_re_holo"] == pytest.approx(0.0, abs=1e-12)
        assert exp["v_im_holo"] == pytest.approx(-1.0, abs=1e-12)
        assert exp["residual"] < 1e-12

    def test_expansion_exact_for_random_frames(self):
        rng = np.random.default_rng(2)
        s = su3_from_2frame(rng.normal(size=8), rng.normal(size=8), P0)
        exp = phi_expansion(s, P0)
        assert exp["residual"] < 1e-9
        assert exp["uv_omega"] == pytest.approx(1.0, abs=1e-9)
        assert exp["omega_omega"] == pytest.approx(0.5, abs=1e-9)


class TestMirrorPair:
    def test_coordinate_cayley_free_frame(self):
        uv, yw, report = mirror_pair([e(1), e(2), e(3), e(5)], P0)
        for side in (uv, yw):
            r = side.residuals()
            for key in RESIDUAL_KEYS:
                assert r[key] < 1e-9
        assert report.phi_expansion["uv"]["residual"] < 1e-9
        assert report.phi_expansion["yw"]["residual"] < 1e-9

    def test_composite_verdict_for_coordinate_frame(self):
        # measured outcome: K = J_uv J_yw squares to -id and is orthogonal
        _, _, report = mirror_pair([e(1), e(2), e(3), e(5)], P0)
        assert report.is_acs
        assert report.k_squared_residual < 1e-12
        assert report.orthogonality_residual < 1e-12
        assert report.commutator_norm == pytest.approx(2 * np.sqrt(8.0))

    def test_report_byte_stable(self):
        frame = [e(1), e(2), e(3), e(5)]
        _, _, r1 = mirror_pair(frame, P0)
        _, _, r2 = mirror_pair(frame, P0)
        assert canonical_json(r1.to_json_dict()) == canonical_json(r2.to_json_dict())

    def test_refuses_calibrated_frame(self):
        with pytest.raises(NotCayleyFreeError) as ex:
            mirror_pair([e(1), e(2), e(3), e(4)], P0)
        assert ex.value.value == pytest.approx(1.0)

    def test_degenerate_frame(self):
        with pytest.raises(ValueError):
            mirror_pair([e(1), e(1), e(3), e(5)], P0)

    def test_verdict_constant_on_spin7_orbit(self):
        rng = np.random.default_rng(3)
        gens = spin7_lie_algebra(P0)
        frame = np.array([e(1), e(2), e(3), e(5)], dtype=float)
        _, _, base = mirror_pair([e(1), e(2), e(3), e(5)], P0)
        for _ in range(5):
            coefs = rng.normal(size=21)
            X = sum(c * g for c, g in zip(coefs, gens))
            R = expm_antisym(0.3 * X)
            moved = [R @ v for v in frame]
            _, _, rep = mirror_pair(moved, P0)
            assert rep.is_acs == base.is_acs
            assert abs(rep.commutator_norm - base.commutator_norm) < 1e-8


class TestComposeACS:
    def test_same_structure_gives_minus_identity(self):
        J = acs_from_2frame(e(1), e(2), P0)
        rep = compose_acs(J, J)
        assert not rep.is_acs
        assert np.allclose(rep.K, -np.eye(8))
        assert rep.k_squared_residual == pytest.approx(np.sqrt(8.0) * 2)

    def test_negated_structure_gives_identity(self):
        J = acs_from_2frame(e(1), e(2), P0)
        rep = compose_acs(J, ACS(-J.J))
        assert not rep.is_acs
        assert np.allclose(rep.K, np.eye(8))

    def test_accepts_plain_arrays(self):
        J = acs_from_2frame(e(1), e(2), P0).J
        J2 = acs_from_2frame(e(3), e(5), P0).J
        rep = compose_acs(J, J2)
        assert rep.is_acs
