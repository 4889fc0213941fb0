"""4-planes: ACS construction, calibration, plane tests, sampling, optimization."""

from functools import partial

import numpy as np
import pytest

from cayley_workbench import octonions as o
from cayley_workbench.cayley import CayleyForm, phi0, phi_octonionic
from cayley_workbench.forms import (KForm, basis_vector, blade_masks, evaluate, indices_of,
                                    lambda2_matrix)
from cayley_workbench.frame_identities import pair_matrix
from cayley_workbench.planes import (CHUNK, PAIR_BLOCK, STOP_REASONS, Frame2, Frame4,
                                     Plane4, _ascend, _gram_schmidt, _orthonormal_stack,
                                     _search, _value_and_grad,
                                     acs_contraction_matrix, acs_from_2frame,
                                     calibration_value, calibration_values_batch,
                                     cayley_plane_from_3frame, comass,
                                     contains_cayley, five_plane_comass, found_cayley,
                                     hypercomplex_from_triple, is_cayley,
                                     is_cayley_free, is_cayley_octonionic,
                                     octonionic_residual, orthonormal_frame,
                                     random_planes_batch, standard_convention,
                                     triple_cross)

P0 = phi0()
CALIBRATION = partial(_value_and_grad, P0.tensor.reshape(64, 64))
e = lambda i: basis_vector(8, i)
ef = lambda i: np.asarray(e(i), dtype=float)
#: a dense integer 4-form on all 70 blades, neither self-dual nor Cayley
DENSE = KForm(8, 4, {m: int(c) for m, c in
                     zip(blade_masks(8, 4), np.random.default_rng(5).integers(-3, 4, 70))
                     if c})
TWO_PHI0 = CayleyForm(2 * P0.form)


def _haar_rotated_phi0(seed):
    """(g, a) with a = g*phi0 for a Haar rotation g, a as a float form."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(8, 8)))
    g = q * np.sign(np.diag(r))
    if np.linalg.det(g) < 0:
        g[:, 0] = -g[:, 0]
    T = np.einsum("ijkl,ia,jb,kc,ld->abcd", P0.tensor, g, g, g, g, optimize=True)
    return g, CayleyForm(KForm(8, 4, {m: float(T[tuple(i - 1 for i in indices_of(m))])
                                      for m in blade_masks(8, 4)}))


class TestFrames:
    def test_orthonormalize_keeps_orientation(self):
        F = orthonormal_frame([(2, 0, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0, 0)])
        assert np.allclose(F[:, 0], ef(1))
        assert np.allclose(F[:, 1], ef(2))

    def test_stacked_frames_equal_single_calls(self):
        # criterion 6 draws its five-frames as one stack
        draw = np.random.default_rng(3).normal(size=(20, 8, 5))
        S = orthonormal_frame(list(np.moveaxis(draw, -1, 0)))
        assert S.tobytes() == np.stack([orthonormal_frame(A.T) for A in draw]).tobytes()

    def test_degenerate_frame_rejected(self):
        with pytest.raises(ValueError):
            orthonormal_frame([e(1), e(1)])
        with pytest.raises(ValueError):
            Frame4.of(e(1), e(1), e(3), e(4)).frame

    def test_frame4_json_roundtrip(self):
        f = Frame4.of(e(1), e(2), e(3), e(5))
        assert Frame4.from_json_dict(f.to_json_dict()).vectors == f.vectors

    def test_frame2_orthonormalizes(self):
        f = Frame2.of((3, 0, 0, 0, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0, 0, 0))
        assert np.allclose(f.frame[:, 0], ef(1))
        assert np.allclose(f.frame[:, 1], ef(2))

    def test_random_plane_seeded(self):
        from cayley_workbench.planes import random_plane
        p1, p2 = random_plane(3), random_plane(3)
        assert p1.same_plane(p2)
        assert not random_plane(3).same_plane(random_plane(4))

    def test_plane_equality_up_to_rotation(self):
        rng = np.random.default_rng(0)
        p = Plane4.random(rng)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        rotated = Plane4(p.basis @ q)
        assert p.same_plane(rotated)
        assert not p.same_plane(rotated.reversed())


class TestACS:
    def test_contraction_table(self):
        J = acs_from_2frame(e(1), e(2), P0).J
        for src, dst in ((3, 4), (5, 6), (7, 8)):
            assert np.allclose(J @ ef(src), ef(dst))
            assert np.allclose(J @ ef(dst), -ef(src))

    def test_extension_rule(self):
        J = acs_from_2frame(e(1), e(2), P0).J
        assert np.allclose(J @ ef(1), ef(2))
        assert np.allclose(J @ ef(2), -ef(1))

    def test_contraction_part_annihilates_the_frame(self):
        raw = acs_contraction_matrix(ef(1), ef(2), P0)
        assert np.allclose(raw @ ef(1), 0)
        assert np.allclose(raw @ ef(2), 0)

    def test_acs_invariants_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            F = orthonormal_frame(rng.normal(size=(8, 2)).T)
            acs = acs_from_2frame(F[:, 0], F[:, 1], P0)
            r = acs.residuals()
            assert r["square"] < 1e-10 and r["orthogonality"] < 1e-10

    def test_depends_on_oriented_plane_only(self):
        rng = np.random.default_rng(2)
        F = orthonormal_frame(rng.normal(size=(8, 2)).T)
        th = 1.234
        u2 = np.cos(th) * F[:, 0] + np.sin(th) * F[:, 1]
        v2 = -np.sin(th) * F[:, 0] + np.cos(th) * F[:, 1]
        J1 = acs_from_2frame(F[:, 0], F[:, 1], P0).J
        J2 = acs_from_2frame(u2, v2, P0).J
        assert np.max(np.abs(J1 - J2)) < 1e-12
        Jrev = acs_from_2frame(F[:, 1], F[:, 0], P0).J
        assert np.max(np.abs(J1 + Jrev)) < 1e-12

    def test_coordinate_convention_record(self):
        # under the coordinate form, J_{e1,e2} e5 = +e6; under the raw
        # octonionic form the same slot carries a different sign pattern
        J = acs_from_2frame(e(1), e(2), P0).J
        assert np.allclose(J @ ef(5), ef(6))
        Joct = acs_from_2frame(e(1), e(2), phi_octonionic()).J
        assert np.allclose(Joct @ ef(5), -ef(6))


class TestCalibration:
    def test_table_values(self):
        assert calibration_value(Plane4.from_frame([e(1), e(2), e(3), e(4)]), P0) == 1.0
        assert calibration_value(Plane4.from_frame([e(1), e(2), e(3), e(5)]), P0) == 0.0
        assert calibration_value(Plane4.from_frame([e(1), e(3), e(6), e(8)]), P0) == -1.0

    def test_rotation_invariance_and_orientation_flip(self):
        rng = np.random.default_rng(3)
        p = Plane4.random(rng)
        v0 = calibration_value(p, P0)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            assert abs(calibration_value(Plane4(p.basis @ q), P0) - v0) < 1e-12
        assert abs(calibration_value(p.reversed(), P0) + v0) < 1e-12

    def test_cayley_free_exact_and_tests(self):
        assert is_cayley_free([e(1), e(2), e(3), e(5)], P0)
        assert Frame4.of(e(1), e(2), e(3), e(5)).raw_value(P0) == 0
        assert not is_cayley_free([e(1), e(2), e(3), e(4)], P0)
        assert is_cayley(Plane4.from_frame([e(1), e(2), e(3), e(4)]), P0)

    def test_degenerate_cayley_free_frame_errors(self):
        with pytest.raises(ValueError):
            is_cayley_free([e(1), e(1), e(3), e(5)], P0)


#: rows on either side of the block edges of the pair-coordinate kernel and of CHUNK
EDGE_ROWS = (0, 1, PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1,
             CHUNK - 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1,
             8999)


class TestPairKernel:
    @pytest.mark.parametrize("form", ["phi0", "octonionic", "rotated", "dense"])
    def test_pair_matrix_is_the_lambda2_block(self, form):
        phi = {"phi0": P0, "octonionic": phi_octonionic(), "rotated": _haar_rotated_phi0(7)[1],
               "dense": CayleyForm(DENSE)}[form]
        assert phi.pair_matrix.shape == (28, 28)
        assert phi.pair_matrix.tobytes() == pair_matrix(phi, 0).tobytes()
        assert phi.pair_matrix.tobytes() == lambda2_matrix(phi.form).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 9000])
    def test_values_are_exact_on_integer_frames(self, n):
        # entries -2..2 keep every product and sum an integer far below 2^53
        F = np.random.default_rng(n).integers(-2, 3, size=(n, 8, 4))
        values = calibration_values_batch(F.astype(float), P0)
        assert values.shape == (n,)
        want = np.einsum("ijkl,ni,nj,nk,nl->n", P0.tensor.astype(np.int64),
                         *(F[:, :, c] for c in range(4)))
        assert np.array_equal(values, want)
        for r in (r for r in EDGE_ROWS if r < n):
            assert values[r] == evaluate(P0.form, F[r].T.tolist())

    def test_swapped_view_gives_the_bytes_of_its_copy(self):
        view = np.swapaxes(np.random.default_rng(15).normal(size=(5000, 4, 8)), 1, 2)
        got = calibration_values_batch(view, P0)
        assert got.tobytes() == calibration_values_batch(np.ascontiguousarray(view), P0).tobytes()

    @pytest.mark.parametrize("form", ["phi0", "rotated"])
    def test_single_value_is_its_row_of_the_stack(self, form):
        phi = P0 if form == "phi0" else _haar_rotated_phi0(8)[1]
        frames = random_planes_batch(600, np.random.default_rng(16))
        values = calibration_values_batch(frames, phi)
        for r in (0, 1, PAIR_BLOCK - 1, PAIR_BLOCK, 599):
            assert abs(calibration_value(Plane4(frames[r]), phi) - values[r]) <= 1e-15


class TestOctonionicTest:
    def test_convention_is_the_reconciled_map(self):
        g = standard_convention()
        assert g.perm == tuple(range(1, 9))
        assert g.signs == (1, 1, 1, -1, 1, -1, -1, -1)

    def test_quaternionic_plane(self):
        units = [np.asarray(g, dtype=float) for g in
                 (o.basis(0), o.basis(1), o.basis(2), o.basis(3))]
        pushed = [np.asarray(standard_convention().apply_to_vector(u), dtype=float)
                  for u in units]
        pl = Plane4.from_frame(pushed)
        assert is_cayley_octonionic(pl)
        assert abs(abs(calibration_value(pl, P0)) - 1.0) < 1e-12

    def test_random_plane_is_not_cayley(self):
        rng = np.random.default_rng(4)
        pl = Plane4.random(rng)
        assert not is_cayley(pl, P0)
        assert not is_cayley_octonionic(pl)
        assert octonionic_residual(pl) > 1e-2


class TestTripleCross:
    def test_closure_construction(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pl = cayley_plane_from_3frame(*rng.normal(size=(3, 8)))
            assert abs(calibration_value(pl, P0) - 1.0) < 1e-9
            assert is_cayley_octonionic(pl)

    def test_batch_closure(self):
        rng = np.random.default_rng(6)
        frames = np.stack([cayley_plane_from_3frame(*rng.normal(size=(3, 8))).basis
                           for _ in range(1000)])
        vals = calibration_values_batch(frames, P0)
        assert np.max(np.abs(vals - 1.0)) < 1e-9

    def test_quaternion_triple_closes_to_quaternion_plane(self):
        g = standard_convention()
        push = lambda i: np.asarray(g.apply_to_vector(np.asarray(o.basis(i), float)),
                                    dtype=float)
        pl = cayley_plane_from_3frame(push(0), push(1), push(2))
        quat = Plane4.from_frame([push(i) for i in range(4)])
        assert np.max(np.abs(pl.projector() - quat.projector())) < 1e-12
        assert calibration_value(pl, P0) == pytest.approx(1.0)

    def test_cross_orthogonal_and_unit(self):
        rng = np.random.default_rng(7)
        F = orthonormal_frame(rng.normal(size=(8, 3)).T)
        x = triple_cross(F[:, 0], F[:, 1], F[:, 2])
        assert abs(np.linalg.norm(x) - 1) < 1e-12
        assert np.max(np.abs(F.T @ x)) < 1e-12

    def test_degenerate_triple(self):
        with pytest.raises(ValueError):
            cayley_plane_from_3frame(e(1), e(2), e(1))


class TestStacks:
    def test_stacked_octonionic_residual_matches_batch_of_one(self):
        rng = np.random.default_rng(13)
        frames = np.concatenate([random_planes_batch(20, rng),
                                 cayley_plane_from_3frame(*rng.normal(size=(3, 20, 8)))])
        stacked = octonionic_residual(frames)
        flags = is_cayley_octonionic(frames)
        assert stacked.shape == flags.shape == (40,)
        for F, r, flag in zip(frames, stacked, flags):
            assert abs(octonionic_residual(Plane4(F)) - r) <= 1e-15
            assert is_cayley_octonionic(Plane4(F)) == flag
        assert not flags[:20].any() and flags[20:].all()

    def test_stacked_cayley_planes_match_batch_of_one(self):
        U, V, W = np.random.default_rng(14).normal(size=(3, 30, 8))
        stacked = cayley_plane_from_3frame(U, V, W)
        assert stacked.shape == (30, 8, 4)
        for u, v, w, B in zip(U, V, W, stacked):
            assert np.max(np.abs(cayley_plane_from_3frame(u, v, w).basis - B)) <= 1e-15
            assert np.max(np.abs(triple_cross(*B[:, :3].T) - B[:, 3])) <= 1e-15

    def test_stacked_acs_matches_batch_of_one(self):
        U, V = np.random.default_rng(15).normal(size=(2, 30, 8))
        acs = acs_from_2frame(U, V, P0)
        r = acs.residuals()
        assert acs.J.shape == (30, 8, 8) and r["square"].shape == (30,)
        assert acs.is_valid()
        for u, v, J, sq in zip(U, V, acs.J, r["square"]):
            one = acs_from_2frame(u, v, P0)
            assert np.max(np.abs(one.J - J)) <= 1e-15
            assert abs(one.residuals()["square"] - sq) <= 1e-15

    def test_one_degenerate_row_rejects_the_stack(self):
        U, V, W = np.random.default_rng(16).normal(size=(3, 10, 8))
        W[7] = 2 * U[7] - V[7]
        with pytest.raises(ValueError):
            cayley_plane_from_3frame(U, V, W)
        V[3] = U[3]
        with pytest.raises(ValueError):
            acs_from_2frame(U, V, P0)


class TestSampling:
    def test_comass_bound_and_measure_zero(self):
        rng = np.random.default_rng(8)
        frames = random_planes_batch(100_000, rng)
        vals = calibration_values_batch(frames, P0)
        assert float(np.max(np.abs(vals))) <= 1 + 1e-9
        assert int(np.sum(np.abs(vals) > 1 - 1e-6)) == 0

    def test_cayley_identity(self):
        # phi0(xi)^2 + r(xi)^2 / 4 = 1 on every oriented plane (Harvey-Lawson, section
        # IV): the bound phi0 <= 1 that the orbit shortcut of contains_cayley rests on
        frames = random_planes_batch(20_000, np.random.default_rng(10))
        defect = calibration_values_batch(frames, P0) ** 2 + octonionic_residual(frames) ** 2 / 4
        assert float(np.max(np.abs(defect - 1.0))) <= 1e-13

    def test_blocked_haar_draw_is_one_block(self):
        # every op of the Gram-Schmidt is elementwise over the frames, so blocks
        # of CHUNK frames, or of one frame, round as the whole draw does
        n = 2 * CHUNK + 5
        A = np.random.default_rng(17).normal(size=(n, 8, 4))
        whole = _gram_schmidt(A.transpose(2, 1, 0).copy()).transpose(2, 1, 0)
        assert random_planes_batch(n, np.random.default_rng(17)).tobytes() == whole.tobytes()
        one = _gram_schmidt(A[-1:].transpose(2, 1, 0).copy()).transpose(2, 1, 0)
        assert one.tobytes() == whole[-1:].tobytes()

    def test_haar_draw_is_the_qr_factor(self):
        n = 2 * CHUNK + 5
        A = np.random.default_rng(18).normal(size=(n, 8, 4))
        Q = random_planes_batch(n, np.random.default_rng(18))
        assert float(np.max(np.abs(Q - _orthonormal_stack(A)))) <= 1e-14
        # Q^T A = R: upper triangular with a positive diagonal
        R = np.swapaxes(Q, 1, 2) @ A
        assert float(np.max(np.abs(np.tril(R, -1)))) <= 1e-13
        assert float(np.min(np.diagonal(R, axis1=1, axis2=2))) > 0

    def test_gram_schmidt_on_ill_conditioned_frames(self):
        # twice is enough: orthogonal to working precision at condition number 1e8
        rng = np.random.default_rng(19)
        U = _orthonormal_stack(rng.normal(size=(100, 8, 4)))
        V = _orthonormal_stack(rng.normal(size=(100, 4, 4)))
        A = (U * np.array([1.0, 1e-3, 1e-5, 1e-8])) @ np.swapaxes(V, 1, 2)
        assert np.allclose(np.linalg.cond(A), 1e8, rtol=1e-3)
        Q = _gram_schmidt(A.transpose(2, 1, 0).copy()).transpose(2, 1, 0)
        assert float(np.max(np.abs(np.swapaxes(Q, 1, 2) @ Q - np.eye(4)))) <= 1e-14

    def test_haar_frames_are_orthonormal(self):
        rng = np.random.default_rng(9)
        frames = random_planes_batch(10, rng)
        for F in frames:
            assert np.max(np.abs(F.T @ F - np.eye(4))) < 1e-12


class TestOptimization:
    def test_comass_phi0(self):
        res = comass(P0, restarts=16, steps=500, seed=0)
        assert res.converged
        assert 1 - 1e-6 <= res.value <= 1 + 1e-9
        assert is_cayley(res.plane, P0)

    def test_comass_single_blade(self):
        from cayley_workbench.cayley import CayleyForm
        from cayley_workbench.forms import blade
        res = comass(CayleyForm(blade(8, 1, 2, 3, 4)), restarts=8, steps=400, seed=0)
        assert abs(res.value - 1.0) < 1e-6

    def test_comass_homogeneity(self):
        res = comass(2 * P0.form, restarts=8, steps=500, seed=0)
        assert abs(res.value - 2.0) < 2e-6

    def test_five_plane_contains_cayley(self):
        S = orthonormal_frame([e(i) for i in (1, 2, 3, 4, 5)])
        res = contains_cayley(S, P0, restarts=8, seed=0)
        assert found_cayley(res)
        assert is_cayley(res.plane, P0, tol=1e-5)
        # the witness actually lies inside the subspace
        proj = S @ (S.T @ res.plane.basis)
        assert np.max(np.abs(proj - res.plane.basis)) < 1e-8

    def test_cayley_free_subspace_has_none(self):
        S = orthonormal_frame([e(1), e(2), e(3), e(5)])
        res = contains_cayley(S, P0, restarts=4, seed=0)
        assert not found_cayley(res)
        assert abs(res.value) < 1e-12

    def test_full_space(self):
        res = contains_cayley(np.eye(8), P0, restarts=8, seed=0)
        assert found_cayley(res)

    def test_bad_subspace_inputs(self):
        with pytest.raises(ValueError):
            contains_cayley(orthonormal_frame([e(1), e(2), e(3)]), P0)
        with pytest.raises(ValueError):
            contains_cayley(np.stack([ef(1), ef(1)], axis=1), P0)

    def test_stacked_searches_match_separate_calls(self):
        R, seed = 6, 5
        rng = np.random.default_rng(11)
        subs = [orthonormal_frame(rng.normal(size=(8, 6)).T) for _ in range(3)]
        # R restarts in one stack vs R batch-of-one calls seeded R * seed + r
        searches = [(comass(P0, restarts=R, steps=200, seed=seed),
                     [comass(P0, restarts=1, steps=200, seed=R * seed + r) for r in range(R)])]
        # 2 phi0 is outside phi0's orbit, so its 6-plane questions still search
        searches += [(contains_cayley(S, TWO_PHI0, restarts=R, seed=seed),
                      [contains_cayley(S, TWO_PHI0, restarts=1, seed=R * seed + r)
                       for r in range(R)])
                     for S in subs]
        for res, singles in searches:
            assert abs(res.value - max(s.value for s in singles)) <= 1e-12
            assert min(np.max(np.abs(res.plane.basis - s.plane.basis)) for s in singles) <= 1e-12
            assert res.iterations == sum(s.iterations for s in singles)

    def test_seeds_share_no_start(self):
        # restart r of R at seed s starts from default_rng(R * s + r): consecutive
        # seeds draw disjoint starts and end on different witnesses
        grad_norms = {comass(P0, 64, seed=s).grad_norm for s in range(4)}
        assert len(grad_norms) == 4

    def test_stop_gtol_from_a_cayley_plane(self):
        # a Cayley plane maximizes the calibration: its gradient vanishes
        I = np.eye(8)
        _, values, stop, iters, _, gn = _ascend(partial(CALIBRATION, I), I[None, :, :4],
                                                500, 0.1, 1e-8)
        assert STOP_REASONS[stop[0]] == "gtol" and iters[0] == 0 and values[0] == 1.0
        assert gn[0] < 1e-8

    def test_stop_gain_below_ulp_without_gtol(self):
        # with no gradient threshold, a row ends once its step's first-order gain
        # t |grad|^2 cannot move its value, a few halvings from the optimum
        V0 = random_planes_batch(4, np.random.default_rng(12))
        _, values, stop, _, backtracks, _ = _ascend(partial(CALIBRATION, np.eye(8)), V0,
                                                    10_000, 0.1, 0.0)
        assert [STOP_REASONS[s] for s in stop] == ["gain_below_ulp"] * 4
        assert np.all(backtracks <= 3) and np.all(np.abs(values - 1) <= 1e-15)

    def test_stop_line_search_stall_on_a_wrong_gradient(self):
        # a sign-flipped gradient never ascends: every row halves its step down
        # to the 1e-13 floor while its gain is still resolvable
        def flipped(W):
            value, D, gn = CALIBRATION(np.eye(8), W)
            return value, -D, gn

        V0 = random_planes_batch(4, np.random.default_rng(12))
        _, _, stop, iters, backtracks, _ = _ascend(flipped, V0, 10_000, 0.1, 0.0)
        assert [STOP_REASONS[s] for s in stop] == ["line_search_stall"] * 4
        assert np.all(iters == 0) and np.all(backtracks > 0)

    def test_stop_step_budget(self):
        res = comass(P0, restarts=4, steps=1, seed=0)
        assert res.stops == {"gtol": 0, "line_search_stall": 0, "step_budget": 4,
                             "gain_below_ulp": 0}
        assert res.iterations == 4 and not res.converged and res.warning

    def test_comass_stop_counts(self):
        # every restart ends on gain_below_ulp after at most a few halvings, not
        # on a ~40-halving line-search stall; the gradient norm is of the best row
        res = comass(P0, restarts=64, seed=0)
        assert res.stops == {"gtol": 0, "line_search_stall": 0, "step_budget": 0,
                             "gain_below_ulp": 64}
        assert res.backtracks <= 128 and abs(res.value - 1) <= 1e-15
        _, _, gn = CALIBRATION(np.eye(8), res.plane.basis[None])
        assert 0 < res.grad_norm < 1e-6 and abs(gn[0] - res.grad_norm) <= 1e-12


class TestClosedFormWitness:
    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("rotated", [False, True], ids=["phi0", "rotated_phi0"])
    def test_witness_calibrates_to_one(self, m, rotated):
        g, form = _haar_rotated_phi0(31) if rotated else (np.eye(8), P0)
        rng = np.random.default_rng(32 + m)
        for _ in range(6):
            if m == 4:  # a Cayley plane of the form, in a random basis of either orientation
                xi = cayley_plane_from_3frame(*rng.normal(size=(3, 8))).basis
                S = g.T @ xi @ np.linalg.qr(rng.normal(size=(4, 4)))[0]
            else:
                S = orthonormal_frame(list(rng.normal(size=(m, 8))))
            res = contains_cayley(S, form)
            B = res.plane.basis
            assert np.max(np.abs(S @ (S.T @ B) - B)) < 1e-12
            assert abs(res.value - 1.0) <= 1e-12
            assert abs(calibration_value(res.plane, form) - 1.0) <= 1e-12
            assert res.iterations == 0 and res.backtracks == 0
            assert res.stops == {"closed_form": 1} and res.converged

    @pytest.mark.parametrize("form", [P0, 2 * P0.form, DENSE], ids=["phi0", "2phi0", "dense"])
    def test_four_and_five_planes_match_the_search(self, form):
        rng = np.random.default_rng(33)
        for m in (4, 5):
            for _ in range(4):
                S = orthonormal_frame(list(rng.normal(size=(m, 8))))
                res, search = contains_cayley(S, form), _search(S, form, 8, 500, 0)
                # a real ascent (on a 4-plane every restart stops on gtol at once)
                assert res.stops == {"closed_form": 1} and sum(search.stops.values()) == 8
                assert abs(res.value - search.value) <= 1e-12 * max(1.0, search.value)


class TestFivePlaneComass:
    @pytest.mark.parametrize("form", [P0, 2 * P0.form, DENSE], ids=["phi0", "2phi0", "dense"])
    def test_closed_form_matches_the_search_and_its_witness(self, form):
        S = orthonormal_frame(list(np.random.default_rng(21).normal(size=(5, 10, 8))))
        values = five_plane_comass(S, form)
        assert values.shape == (10,)
        for W, c in zip(S, values):
            tol = 1e-12 * max(1.0, c)
            assert abs(_search(W, form, 8, 500, 0).value - c) <= tol
            # n_i = (-1)^i form(W without column i); the plane n-perp in W, oriented
            # so that (n, plane) is positive in W, calibrates to |n|
            n = np.array([(-1) ** i * calibration_value(Plane4(np.delete(W, i, axis=1)), form)
                          for i in range(5)])
            Q = np.linalg.qr(np.column_stack([n, np.eye(5)[:, :4]]))[0]
            Q *= np.sign(Q[:, 0] @ n)
            if np.linalg.det(Q) < 0:
                Q[:, 1] *= -1
            assert abs(calibration_value(Plane4(W @ Q[:, 1:]), form) - c) <= tol
            assert abs(np.linalg.norm(n) - c) <= tol

    def test_bad_stacks(self):
        S = orthonormal_frame(list(np.random.default_rng(22).normal(size=(5, 3, 8))))
        for bad in (S[0], S[:, :, :4], np.concatenate([S, S[:, :, :1]], axis=2), S[:, :7],
                    2 * S):
            with pytest.raises(ValueError):
                five_plane_comass(bad, P0)


class TestHypercomplex:
    def _quaternion_setup(self):
        g = standard_convention()
        push = lambda i: np.asarray(g.apply_to_vector(np.asarray(o.basis(i), float)),
                                    dtype=float)
        one, i_, j_, k_ = push(0), push(1), push(2), push(3)
        xi = Plane4.from_frame([one, i_, j_, k_])
        return xi, one, i_, j_, k_

    def test_quaternion_relations_hold(self):
        xi, one, i_, j_, k_ = self._quaternion_setup()
        rep = hypercomplex_from_triple(xi, (one, i_), (one, j_), (one, k_), P0)
        assert rep.is_hypercomplex(1e-8)
        assert rep.residual < 1e-12
        assert all(s in (1, -1) for s in rep.signs)

    def test_perturbed_plane_fails(self):
        xi, one, i_, j_, k_ = self._quaternion_setup()
        g = standard_convention()
        ell = np.asarray(g.apply_to_vector(np.asarray(o.basis(4), float)), dtype=float)
        t = 0.6
        k_t = np.cos(t) * k_ + np.sin(t) * ell
        xi2 = Plane4.from_frame([one, i_, j_, k_t])
        assert not is_cayley(xi2, P0)
        rep = hypercomplex_from_triple(xi2, (one, i_), (one, j_), (one, k_t), P0)
        assert rep.residual > 0.1

    def test_duplicate_plane_rejected(self):
        xi, one, i_, j_, k_ = self._quaternion_setup()
        with pytest.raises(ValueError):
            hypercomplex_from_triple(xi, (one, i_), (one, i_), (one, k_), P0)

    def test_plane_outside_xi_rejected(self):
        xi, one, i_, j_, k_ = self._quaternion_setup()
        g = standard_convention()
        ell = np.asarray(g.apply_to_vector(np.asarray(o.basis(4), float)), dtype=float)
        with pytest.raises(ValueError):
            hypercomplex_from_triple(xi, (one, i_), (one, j_), (one, ell), P0)
