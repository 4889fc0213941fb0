"""The four workloads.

Each workload builds its inputs from the seed when it is created, runs one
warm-up pass, and then repeats ``round()`` -- always the same operations
on the same inputs.  ``failed(outputs)`` counts the operations of a round
that did not do their job; ``check(outputs)`` raises ``CheckFailed`` when
an output contradicts the independent computations in ``oracles``.

Calls into the workbench go through module attributes (``wb.planes.x``)
so that a traced run sees them.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations

import numpy as np

import oracles as O
from oracles import require

FULL_BLADE = tuple(range(1, 9))


def _phi(wb):
    return wb.cayley.phi0()


def _random_signed_permutation(rnd: random.Random):
    perm = list(range(1, 9))
    rnd.shuffle(perm)
    return tuple(perm), tuple(rnd.choice((1, -1)) for _ in range(8))


def _orthonormal(rng: np.random.Generator, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(8, k)))
    return q * np.sign(np.diag(r))


# -- verify_all ------------------------------------------------------------------


class VerifyAll:
    """``cli.main(["verify-all", ...])`` in-process; the nine criteria are
    the operations."""

    ops_per_round = 9

    def __init__(self, seed: int, wb, out_dir: str):
        self.seed, self.wb = seed, wb
        self.report = os.path.join(out_dir, f"verify_all-{seed}.json")
        self.warmup_report = os.path.join(out_dir, f"verify_all-{seed}-warmup.json")

    def warm_up(self) -> None:
        """Every criterion once at reduced sample sizes, and one CLI report."""
        v, s = self.wb.verify, self.seed
        v.criterion_1_phi0()
        v.criterion_2_stabilizer()
        v.criterion_3_representations()
        v.criterion_4_acs(seed=s, frames=20)
        v.criterion_5_identities(seed=s, samples=200)
        v.criterion_6_free_dimension(seed=s, five_planes=1)
        v.criterion_7_cayley_equivalence(seed=s, count=20)
        v.criterion_8_topology()
        v.criterion_9_mirror(seed=s, frames=5)
        code = self.wb.cli.main(["topology", "check", "--chi", "2", "--sigma", "0",
                                 "--report", self.warmup_report])
        require(code == 0, "warm-up CLI call failed")

    def round(self):
        code = self.wb.cli.main(["verify-all", "--seed", str(self.seed),
                                 "--report", self.report])
        with open(self.report, "rb") as fh:
            return code, fh.read()

    @staticmethod
    def failed(outputs) -> int:
        _, data = outputs
        return sum(not c["passed"] for c in json.loads(data)["criteria"])

    @staticmethod
    def check(outputs) -> None:
        code, data = outputs
        rep = json.loads(data)
        crit = {c["number"]: c for c in rep["criteria"]}
        require(sorted(crit) == list(range(1, 10)), "report lacks a criterion")
        nfail = sum(not c["passed"] for c in crit.values())
        require(rep["failed"] == nfail and rep["passed"] == 9 - nfail,
                "report totals disagree with its criteria")
        require(code == (1 if nfail else 0), f"verify-all exit code {code}")
        d = {k: c["details"] for k, c in crit.items() if c["passed"]}
        if 1 in d:
            require(d[1]["terms"] == 14 and d[1]["norm_sq"] == 14, "criterion 1: phi0 terms/norm")
        if 2 in d:
            require(d[2]["stab_dim"] == 21, "criterion 2: stabilizer dimension != 21")
        if 3 in d:
            require(d[3]["lambda2_multiplicities"] == {"3": 7, "-1": 21},
                    "criterion 3: 2-form multiplicities != 7/21")
            require(d[3]["lambda3_dims"] == {"3_8": 8, "3_48": 48},
                    "criterion 3: 3-form dimensions != 8/48")
            require(sorted(m for _, m in d[3]["casimir_spectrum_4"]) == [1, 7, 27, 35],
                    "criterion 3: Casimir multiplicities != 1/7/27/35")
        if 4 in d:
            require(d[4]["max_square_residual"] < 1e-10
                    and d[4]["max_orthogonality_residual"] < 1e-10,
                    "criterion 4: J^2 = -1 or orthogonality residual too large")
        if 5 in d:
            for i in (1, 2, 3):
                fit = d[5]["identities"][str(i)]
                O.check_magnitudes(i, fit["c_a"], fit["c_b"])
                require(fit["fit_residual"] < 1e-9, f"criterion 5: identity {i} fit residual")
        if 6 in d:
            O.check_comass(d[6]["comass"], "criterion 6: comass")
            O.check_comass(d[6]["min_value_over_5planes"], "criterion 6: 5-plane witness value")
            require(d[6]["free_frame_value"] == 0, "criterion 6: free frame value != 0")
        if 7 in d:
            require(d[7]["disagreements"] == 0, "criterion 7: Cayley tests disagree")
        if 8 in d:
            betti = d[8]["betti"]
            require(betti == O.BETTI_NONZERO and sum(betti) == O.EULER_G48,
                    f"criterion 8: Betti numbers {betti}")
        if 9 in d:
            require(d[9]["ratio_spread"] < 1e-8 and d[9]["max_residual"] < 1e-9,
                    "criterion 9: mirror residual or ratio spread")


# -- exact_algebra -----------------------------------------------------------------


def _random_form(rnd: random.Random, degree: int, max_terms: int = 8) -> dict:
    blades = list(combinations(range(1, 9), degree))
    chosen = rnd.sample(blades, min(len(blades), rnd.randint(1, max_terms)))
    return {b: rnd.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for b in chosen}


class ExactAlgebra:
    """Only int / Fraction paths: topology, reconcile (exact and fallback),
    exact stabilizers, sparse exterior algebra, frame identities."""

    GRID = 121            # GRID x GRID intersection numbers
    VERDICTS = 400
    TRANSPORTS = 12
    STABILIZERS = 4       # transports whose stabilizer is computed
    TRIPLES = 250
    FRAMES = 60

    ops_per_round = (GRID * GRID + VERDICTS + 1 + TRANSPORTS + 1 + 1
                     + STABILIZERS + 2 + TRIPLES + 3 * FRAMES)

    def __init__(self, seed: int, wb, out_dir: str):
        self.wb = wb
        rnd = random.Random(seed)
        KForm = wb.forms.KForm
        self.chis = rnd.sample(range(-10**6, 10**6), self.GRID)
        self.sigmas = rnd.sample(range(-10**6, 10**6), self.GRID)
        self.invariants = []
        for k in range(self.VERDICTS):
            chi = rnd.randint(-50, 50) if k % 5 else 0
            p2 = rnd.randint(-200, 200)
            kind = k % 3
            p1sq = 4 * p2 - 8 * chi if kind == 0 else 4 * p2 + 8 * chi if kind == 1 \
                else rnd.randint(-1000, 1000)
            w1, w2 = (True, True) if k % 7 else (rnd.random() < 0.5, False)
            self.invariants.append((w1, w2, rnd.random() < 0.5, p1sq, p2, chi,
                                    rnd.randint(-20, 20)))
        self.transports = []
        for _ in range(self.TRANSPORTS):
            perm, signs = _random_signed_permutation(rnd)
            terms = O.push_forward(O.PHI0, perm, signs)
            self.transports.append((terms, KForm.from_terms(8, 4, terms)))
        self.broken = dict(O.PHI0)
        self.broken[(1, 2, 3, 4)] = -1
        self.broken_form = KForm.from_terms(8, 4, self.broken)
        self.dx1234 = KForm.from_terms(8, 4, {(1, 2, 3, 4): 1})
        self.triples = []
        for _ in range(self.TRIPLES):
            p = rnd.randint(1, 4)
            q = rnd.randint(1, 8 - p - 1)
            r = rnd.randint(1, 8 - p - q)
            a, b, c, b2 = (_random_form(rnd, p), _random_form(rnd, q),
                           _random_form(rnd, r), _random_form(rnd, p))
            v = [rnd.randint(-3, 3) for _ in range(8)]
            vecs = [[rnd.randint(-3, 3) for _ in range(8)] for _ in range(p)]
            self.triples.append(((a, b, c, b2, v, vecs),
                                 tuple(KForm.from_terms(8, len(next(iter(f))), f)
                                       for f in (a, b, c, b2))))
        self.frames = [[tuple(rnd.randint(-2, 2) for _ in range(8)) for _ in range(4)]
                       for _ in range(self.FRAMES)]

    def _common(self) -> dict:
        wb = self.wb
        topo, cayley, forms, fid = wb.topology, wb.cayley, wb.forms, wb.frame_identities
        phi = _phi(wb)
        out = {}
        out["grid"] = [topo.intersection_with_cay0(chi, sig)
                       for chi in self.chis for sig in self.sigmas]
        out["verdicts"] = [topo.admits_spin7(topo.ManifoldInvariants(*inv)).name
                           for inv in self.invariants]
        out["betti"] = [topo.betti_g48(k) for k in range(17)]
        out["maps"] = [cayley.reconcile(f, phi) for _, f in self.transports]
        oct_form = cayley.phi_octonionic()
        out["oct"] = (oct_form, cayley.reconcile(oct_form, phi))
        out["stab"] = [cayley.stabilizer_dimension(phi.form),
                       cayley.stabilizer_dimension(self.dx1234)]
        out["stab"] += [cayley.stabilizer_dimension(f)
                        for _, f in self.transports[:self.STABILIZERS]]
        wedge, hodge, interior = forms.wedge, forms.hodge, forms.interior
        forms_out = []
        for (_, _, _, _, v, vecs), (a, b, c, b2) in self.triples:
            ab = wedge(a, b)
            forms_out.append((
                ab, wedge(b, a), wedge(ab, c), wedge(a, wedge(b, c)),
                wedge(a, hodge(b2)), interior(v, ab),
                wedge(interior(v, a), b), wedge(a, interior(v, b)),
                forms.evaluate(a, vecs)))
        out["forms"] = forms_out
        out["identities"] = [[fid.identity_lhs(i, fr, phi) for i in (1, 2, 3)]
                             for fr in self.frames]
        return out

    def warm_up(self) -> None:
        self._common()

    def round(self):
        out = self._common()
        out["fallback"] = self.wb.cayley.reconcile(self.broken_form, _phi(self.wb))
        return out

    @staticmethod
    def failed(outputs) -> int:
        # a closest signed permutation differs from phi0 on at most one blade:
        # the identity map already does
        return int(outputs["fallback"].mismatches > 1)

    def check(self, out) -> None:
        grid = iter(out["grid"])
        for chi in self.chis:
            for _ in self.sigmas:
                require(next(grid) == chi, "intersection with the Cayley-free locus != chi")
        for inv, got in zip(self.invariants, out["verdicts"]):
            w1, w2, _, p1sq, p2, chi, _ = inv
            require(got == O.spin7_verdict(w1, w2, p1sq, p2, chi),
                    f"admits_spin7{inv} = {got}")
        require([b for b in out["betti"] if b] == O.BETTI_NONZERO
                and sum(out["betti"]) == O.EULER_G48, f"Betti numbers {out['betti']}")
        for (terms, _), g in zip(self.transports, out["maps"]):
            require(not O.mismatched_quadruples(terms, g.perm, g.signs, O.PHI0),
                    "reconcile map does not carry the transport onto phi0")
        oct_form, g = out["oct"]
        oct_terms = dict(oct_form.form.blades())
        require(not O.mismatched_quadruples(oct_terms, g.perm, g.signs, O.PHI0),
                "reconcile map does not carry the octonionic form onto phi0")
        require(out["stab"][0] == 21 and out["stab"][1] == 12
                and all(s == 21 for s in out["stab"][2:]),
                f"stabilizer dimensions {out['stab']} (want 21, 12, 21...)")
        for ((a, b, _, b2, _, vecs), _), res in zip(self.triples, out["forms"]):
            self._check_forms(a, b, b2, vecs, res)
        for fr, lhs in zip(self.frames, out["identities"]):
            A, B = O.gram_minor(*fr), O.evaluate(O.PHI0, fr)
            for i, got in zip((1, 2, 3), lhs):
                ca, cb = O.IDENTITY_COEFFS[i]
                require(got == ca * A + cb * B and isinstance(got, int),
                        f"identity {i} on {fr}: {got!r} != {ca}*{A} + {cb}*{B}")
        fb = out["fallback"]
        wrong = O.mismatched_quadruples(self.broken, fb.map.perm, fb.map.signs, O.PHI0)
        require(fb.mismatches == len(wrong) == len(fb.diff),
                f"fallback reports {fb.mismatches} mismatches, its map has {len(wrong)}")

    @staticmethod
    def _check_forms(a, b, b2, vecs, res) -> None:
        ab, ba, ab_c, a_bc, a_star_b2, iv_ab, iva_b, a_ivb, val = (
            dict(x.blades()) if hasattr(x, "blades") else x for x in res)
        p, q = len(next(iter(a))), len(next(iter(b)))
        sign = -1 if (p * q) % 2 else 1
        require(ab == {k: sign * x for k, x in ba.items()}, "wedge is not graded-anticommutative")
        require(ab_c == a_bc, "wedge is not associative")
        ip = O.inner(a, b2)
        require(a_star_b2 == ({FULL_BLADE: ip} if ip else {}), "a ^ *b != <a, b> vol")
        require(iv_ab == O.add_terms(iva_b, a_ivb, -1 if p % 2 else 1),
                "interior product breaks the Leibniz rule")
        require(val == O.evaluate(a, vecs), "evaluate disagrees with the determinant sum")


# -- pointwise ---------------------------------------------------------------------


class Pointwise:
    """Batch-size-one calls: plane tests, triple cross, 2-frame structures,
    small subspace searches and orbit descents."""

    # The counts give the cheap calls about a quarter of a round, the subspace
    # searches half and the orbit descents a quarter; searches and descents
    # vary in length with their inputs, so each is averaged over many calls.
    PLANES = 200          # constructed Cayley planes, and as many random planes
    TRIPLES = 200
    FRAMES2 = 200
    SU3 = 40
    SUBSPACES = 8         # per dimension 5, 6, 7, 8
    RESTARTS = 2
    ORBITS = 1            # rotated phi0 forms, and as many rotated decomposables

    ops_per_round = (5 * PLANES + TRIPLES + FRAMES2 + SU3
                     + 4 * SUBSPACES + 2 * ORBITS)

    def __init__(self, seed: int, wb, out_dir: str):
        self.wb = wb
        rng = np.random.default_rng(seed)
        KForm, planes = wb.forms.KForm, wb.planes
        self.triples3 = rng.normal(size=(self.PLANES, 3, 8))
        self.random_planes = [planes.Plane4(_orthonormal(rng, 4)) for _ in range(self.PLANES)]
        self.ortho3 = [_orthonormal(rng, 3) for _ in range(self.TRIPLES)]
        self.frames2 = rng.normal(size=(self.FRAMES2, 2, 8))
        self.su3_frames = rng.normal(size=(self.SU3, 2, 8))
        self.subspaces = [_orthonormal(rng, m) for m in (5, 6, 7, 8)
                          for _ in range(self.SUBSPACES)]
        self.search_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(self.subspaces))]
        self.orbit_inputs = []
        for k in range(2 * self.ORBITS):
            g = O.haar_rotation(rng).tolist()
            source = O.PHI0 if k % 2 == 0 else {(1, 2, 3, 4): 1}
            self.orbit_inputs.append((k % 2, KForm.from_terms(8, 4, O.pullback_by_matrix(source, g)),
                                      int(rng.integers(0, 2**31))))

    def round(self):
        planes, mirror, cayley = self.wb.planes, self.wb.mirror, self.wb.cayley
        phi = _phi(self.wb)
        built = [planes.cayley_plane_from_3frame(*t) for t in self.triples3]
        tested = built + self.random_planes
        out = {
            "built": [p.basis for p in built],
            "is_cayley": [planes.is_cayley(p, phi) for p in tested],
            "is_cayley_oct": [planes.is_cayley_octonionic(p) for p in tested],
            "cross": [planes.triple_cross(*F.T) for F in self.ortho3],
            "acs": [planes.acs_from_2frame(u, v, phi).J for u, v in self.frames2],
        }
        su3 = []
        for u, v in self.su3_frames:
            st = mirror.su3_from_2frame(u, v, phi)
            su3.append((st.u, st.v, st.frame, st.J, dict(st.omega.blades()), st.volume_ratio()))
        out["su3"] = su3
        out["contains"] = [planes.contains_cayley(S, phi, restarts=self.RESTARTS, seed=s)
                           for S, s in zip(self.subspaces, self.search_seeds)]
        out["orbit"] = [cayley.orbit_distance(form, seed=s)[0]
                        for _, form, s in self.orbit_inputs]
        return out

    warm_up = round

    @staticmethod
    def failed(out) -> int:
        # a search that stops below 1 - 1e-6 has missed the Cayley plane
        # every 5- to 8-dimensional subspace contains
        return sum(r.value < 1 - 1e-6 for r in out["contains"])

    def check(self, out) -> None:
        built = np.array(out["built"])
        O.check_orthonormal(built, 1e-10, "constructed Cayley plane")
        O.check_close(O.evaluate_phi0_float(built), 1.0, 1e-9, "phi0 on constructed planes")
        for t, B in zip(self.triples3, built):
            q, _ = np.linalg.qr(t.T)
            O.check_in_span(q, B, 1e-9, "constructed plane vs its 3-frame")
        bases = np.concatenate([built, np.array([p.basis for p in self.random_planes])])
        want = list(np.abs(O.evaluate_phi0_float(bases) - 1.0) < 1e-6)
        require(want[:self.PLANES] == [True] * self.PLANES and not any(want[self.PLANES:]),
                "random planes unexpectedly Cayley")
        require(out["is_cayley"] == want, "is_cayley disagrees with the evaluator")
        require(out["is_cayley_oct"] == want, "is_cayley_octonionic disagrees with the evaluator")
        for F, x in zip(self.ortho3, out["cross"]):
            x = np.asarray(x, dtype=float)
            O.check_close(F.T @ x, np.zeros(3), 1e-10, "triple cross orthogonality")
            O.check_close(np.linalg.norm(x), 1.0, 1e-10, "triple cross norm")
            O.check_close(O.evaluate_phi0_float(np.column_stack([F, x])[None])[0], 1.0, 1e-10,
                          "phi0(u, v, w, u x v x w)")
        for (u, v), J in zip(self.frames2, out["acs"]):
            O.check_acs(J, 1e-10, "acs_from_2frame")
            self._check_kaehler(u, v, J)
        ratio0 = out["su3"][0][5]
        for u, v, W, J, omega, ratio in out["su3"]:
            O.check_acs(J, 1e-10, "su3_from_2frame")
            O.check_orthonormal(np.column_stack([u, v, W]), 1e-10, "SU(3) adapted frame")
            O.check_close(J @ W[:, 0::2], W[:, 1::2], 1e-10, "adapted frame pairs (f, Jf)")
            for (a, b), c in omega.items():
                want_c = O.evaluate_phi0_float(
                    np.column_stack([u, v, W[:, a - 1], W[:, b - 1]])[None])[0]
                O.check_close(c, want_c, 1e-10, "Kaehler form omega(f_a, f_b)")
            O.check_close(abs(ratio - ratio0), 0.0, 1e-8, "SU(3) volume ratio is not constant")
        for S, res in zip(self.subspaces, out["contains"]):
            B = res.plane.basis
            O.check_orthonormal(B, 1e-10, "contained plane")
            O.check_in_span(B, S, 1e-9, "contained Cayley witness")
            if res.value >= 1 - 1e-6:
                O.check_comass(float(O.evaluate_phi0_float(B[None])[0]), "witness calibration")
        for (kind, _, _), d in zip(self.orbit_inputs, out["orbit"]):
            want_d = O.ROOT13 if kind else 0.0
            O.check_close(d, want_d, 1e-7, "orbit distance (0 for phi0, sqrt 13 for a blade)")

    @staticmethod
    def _check_kaehler(u, v, J) -> None:
        q, r = np.linalg.qr(np.column_stack([u, v]))
        F = q * np.sign(np.diag(r))
        O.check_close(J @ F[:, 0], F[:, 1], 1e-10, "J u = v")
        P = np.eye(8) - F @ F.T
        x, w = P[:, 0] + P[:, 5], P[:, 3] - P[:, 6]
        want = O.evaluate_phi0_float(np.column_stack([F[:, 0], F[:, 1], x, w])[None])[0]
        O.check_close((J @ x) @ w, want, 1e-10, "<J x, w> = phi0(u, v, x, w)")


# -- bulk --------------------------------------------------------------------------


class Bulk:
    """Large stacks: Haar planes and their calibration values, sampled frames,
    batched invariants and identities, least-squares coefficient fits."""

    PLANES = 50_000
    FRAMES = 20_000
    FIT = 10_000
    SUBSET = 2_000         # frames checked against the determinant evaluator

    ops_per_round = 2 + 2 + 2 + 3 + 1 + 6

    def __init__(self, seed: int, wb, out_dir: str):
        self.seed, self.wb = seed, wb

    def round(self):
        planes, fid = self.wb.planes, self.wb.frame_identities
        phi = _phi(self.wb)
        rng = np.random.default_rng(self.seed)
        F = planes.random_planes_batch(self.PLANES, rng)
        out = {"planes": F, "values": planes.calibration_values_batch(F, phi)}
        out["frames"] = G = fid.sample_frames(self.FRAMES, rng)
        out["free"] = Gf = fid.sample_frames(self.FRAMES, rng, cayley_free=True, phi=phi)
        out["inv"] = fid.batch_invariants(G, phi)
        out["inv_free"] = fid.batch_invariants(Gf, phi)
        out["lhs"] = [fid.batch_identity_lhs(i, G, phi) for i in (1, 2, 3)]
        out["inv_ortho"] = fid.batch_invariants(np.swapaxes(F, 1, 2), phi)
        out["fits"] = [(fid.extract_coefficients(i, self.FIT, self.seed + i, phi),
                        fid.extract_coefficients(i, self.FIT, self.seed + 10 + i, phi,
                                                 cayley_free=True))
                       for i in (1, 2, 3)]
        return out

    warm_up = round

    @staticmethod
    def failed(out) -> int:
        return 0

    def check(self, out) -> None:
        F, vals, n = out["planes"], out["values"], self.SUBSET
        require(F.shape == (self.PLANES, 8, 4), f"plane stack shape {F.shape}")
        O.check_orthonormal(F, 1e-12, "Haar plane frames")
        O.check_close(vals[:n], O.evaluate_phi0_float(F[:n]), 1e-12, "batched calibration values")
        O.check_haar_moments(vals)
        A, B = out["inv_ortho"]
        O.check_close(B, vals, 1e-12, "batch_invariants B vs calibration values")
        O.check_close(A, 0.0, 1e-12, "batch_invariants A on orthonormal frames")
        for key in ("frames", "free"):
            require(out[key].shape == (self.FRAMES, 4, 8), f"{key} shape {out[key].shape}")
        G, Gf = out["frames"], out["free"]
        scale = np.prod(np.linalg.norm(G, axis=2), axis=1)
        scale_f = np.prod(np.linalg.norm(Gf, axis=2), axis=1)
        A, B = out["inv"]
        u, v, y, w = (G[:, k] for k in range(4))
        dot = lambda a, b: np.einsum("ni,ni->n", a, b)
        O.check_close(A / scale, (dot(u, y) * dot(v, w) - dot(u, w) * dot(v, y)) / scale,
                      1e-12, "batch_invariants A")
        O.check_close(B[:n] / scale[:n], O.evaluate_phi0_float(np.swapaxes(G[:n], 1, 2))
                      / scale[:n], 1e-12, "batch_invariants B")
        Af, Bf = out["inv_free"]
        O.check_close(Bf / scale_f, 0.0, 1e-12, "Cayley-free frames: B")
        O.check_close(O.evaluate_phi0_float(np.swapaxes(Gf[:n], 1, 2)) / scale_f[:n], 0.0,
                      1e-12, "Cayley-free frames under the evaluator")
        for i, L in zip((1, 2, 3), out["lhs"]):
            ca, cb = O.IDENTITY_COEFFS[i]
            O.check_close(L / scale, (ca * A + cb * B) / scale, 1e-10, f"batched identity {i}")
        for i, (fit, free) in zip((1, 2, 3), out["fits"]):
            O.check_magnitudes(i, fit.c_a, fit.c_b)
            require(fit.fit_residual < 1e-9 and free.fit_residual < 1e-9,
                    f"identity {i}: fit residual")
            require(abs(free.c_a - fit.c_a) < 1e-9 and free.c_b == 0.0,
                    f"identity {i}: Cayley-free fit {free.c_a} != {fit.c_a}")


WORKLOADS = {"verify_all": VerifyAll, "exact_algebra": ExactAlgebra,
             "pointwise": Pointwise, "bulk": Bulk}
