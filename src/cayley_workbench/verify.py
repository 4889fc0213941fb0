"""The acceptance suite: every headline claim, runnable as a library.

Each criterion function performs its checks at the stated tolerances
and sample sizes and returns a CriterionResult whose ``details`` contain
only deterministic values (wall-clock time is kept out of the report
payload so identical seeds give byte-identical reports; the elapsed
time, the budget and any search diagnostics travel separately, for the
test harness to enforce and for ``verify-all --timings`` to write).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import frame_identities as fid
from . import planes, representations, topology
from .cayley import phi0, stabilizer_dimension
from .forms import basis_vector, evaluate, hodge, inner, volume_form, wedge
from .mirror import mirror_pair, su3_from_2frame
from .planes import acs_from_2frame, cayley_plane_from_3frame, comass, \
    five_plane_comass, is_cayley_octonionic, orthonormal_frame, random_planes_batch
from .reporting import canonical_json


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict
    elapsed: float
    budget: float
    #: how the criterion's numerical searches ended; kept out of ``to_json_dict``
    diagnostics: dict = field(default_factory=dict)

    def within_budget(self) -> bool:
        return self.elapsed < self.budget

    def to_json_dict(self) -> dict:
        return {"number": self.number, "name": self.name, "passed": self.passed,
                "details": self.details}

    def timings_json_dict(self) -> dict:
        return {"number": self.number, "name": self.name, "elapsed_s": self.elapsed,
                "budget_s": self.budget, "diagnostics": self.diagnostics}


def _result(number, name, budget, t0, checks: dict, details: dict,
            diagnostics: dict | None = None) -> CriterionResult:
    passed = all(bool(v) for v in checks.values())
    details = dict(details)
    details["checks"] = {k: bool(v) for k, v in checks.items()}
    return CriterionResult(number, name, passed, details, time.perf_counter() - t0, budget,
                           diagnostics or {})


def criterion_1_phi0() -> CriterionResult:
    """14 exact terms, self-dual, norm 14, phi ^ phi = 14 vol."""
    t0 = time.perf_counter()
    p = phi0()
    f = p.form
    expected_signs = {
        (1, 2, 3, 4): 1, (1, 2, 5, 6): 1, (1, 2, 7, 8): 1, (1, 3, 5, 7): 1,
        (1, 3, 6, 8): -1, (1, 4, 5, 8): -1, (1, 4, 6, 7): -1, (2, 3, 5, 8): -1,
        (2, 3, 6, 7): -1, (2, 4, 5, 7): -1, (2, 4, 6, 8): 1, (3, 4, 5, 6): 1,
        (3, 4, 7, 8): 1, (5, 6, 7, 8): 1,
    }
    square = wedge(f, f)
    checks = {
        "term_count_14": len(f.terms) == 14,
        "signs_match": dict(f.blades()) == expected_signs,
        "coefficients_integer": all(isinstance(c, int) for c in f.terms.values()),
        "self_dual_exact": (hodge(f) - f).is_zero(),
        "norm_sq_14": inner(f, f) == 14,
        "square_is_14_vol": (square - 14 * volume_form(8)).is_zero(),
    }
    return _result(1, "phi0 construction", 1.0, t0, checks,
                   {"terms": len(f.terms), "norm_sq": int(inner(f, f))})


def criterion_2_stabilizer() -> CriterionResult:
    """The annihilator of phi0 in so(8) has dimension exactly 21."""
    t0 = time.perf_counter()
    dim = stabilizer_dimension(phi0().form)
    return _result(2, "stabilizer dimension", 1.0, t0,
                   {"dimension_21": dim == 21}, {"stab_dim": dim})


def criterion_3_representations() -> CriterionResult:
    """Spectrum {3 x7, -1 x21} on 2-forms; 8+48 on 3-forms; Casimir 1/7/27/35."""
    t0 = time.perf_counter()
    p = phi0()
    M = representations.wedge_star_matrix(p)
    vals, vecs = np.linalg.eigh(M)
    resid = float(np.max(np.abs(M @ vecs - vecs * vals)))
    n7 = int(np.sum(np.abs(vals - 3.0) < 1e-9))
    n21 = int(np.sum(np.abs(vals + 1.0) < 1e-9))
    sb3 = representations.lambda3_split(p)
    spec4 = representations.casimir_spectrum(p, 4)
    mults4 = sorted(m for _, m in spec4)
    checks = {
        "lambda2_spectrum": n7 == 7 and n21 == 21,
        "eigen_residual": resid < 1e-9,
        "lambda3_dims": sb3.dims() == {"3_8": 8, "3_48": 48},
        "lambda4_casimir_multiplicities": mults4 == [1, 7, 27, 35],
    }
    return _result(3, "representation split", 10.0, t0, checks, {
        "lambda2_multiplicities": {"3": n7, "-1": n21},
        "eigen_residual": resid,
        "lambda3_dims": sb3.dims(),
        "casimir_spectrum_4": [[v, m] for v, m in spec4],
    })


def criterion_4_acs(seed: int = 0, frames: int = 1000) -> CriterionResult:
    """J from random 2-frames is an orthogonal square root of -id and
    depends only on the oriented 2-plane."""
    t0 = time.perf_counter()
    p = phi0()
    rng = np.random.default_rng(seed)
    draws = [(rng.normal(size=(8, 2)), rng.uniform(0, 2 * np.pi)) for _ in range(frames)]
    A = np.stack([a for a, _ in draws])
    th = np.array([t for _, t in draws])[:, None]
    F = orthonormal_frame([A[:, :, 0], A[:, :, 1]])
    acs = acs_from_2frame(F[:, :, 0], F[:, :, 1], p)
    r = acs.residuals()
    u2 = np.cos(th) * F[:, :, 0] + np.sin(th) * F[:, :, 1]
    v2 = -np.sin(th) * F[:, :, 0] + np.cos(th) * F[:, :, 1]
    worst_sq, worst_orth = float(np.max(r["square"])), float(np.max(r["orthogonality"]))
    worst_rot = float(np.max(np.abs(acs.J - acs_from_2frame(u2, v2, p).J)))
    checks = {
        "square_residual": worst_sq < 1e-10,
        "orthogonality_residual": worst_orth < 1e-10,
        "depends_only_on_plane": worst_rot < 1e-12,
    }
    return _result(4, "almost complex structure", 60.0, t0, checks, {
        "frames": frames, "max_square_residual": worst_sq,
        "max_orthogonality_residual": worst_orth, "max_rotation_diff": worst_rot,
    })


def frame_identities(samples: int, seed: int, phi) -> list:
    """[(i, c_a, c_b, exact residual, sampled residual)] for i = 1, 2, 3: the
    pair-matrix proof, checked on ``default_rng(seed)`` frames."""
    if samples < 10:
        raise ValueError(f"need at least 10 sample frames, got {samples}")
    F = fid.sample_frames(samples, np.random.default_rng(seed))
    A, B, *lhs = fid.batch_pair_values(F, phi, (0, 1, 2, 3))
    out = []
    for i, L in zip((1, 2, 3), lhs):
        c_a, c_b, exact = fid.identity_coefficients(phi, i)
        out.append((i, c_a, c_b, exact, float(np.max(np.abs(L - c_a * A - c_b * B)))))
    return out


def criterion_5_identities(seed: int = 0, samples: int = 10_000) -> CriterionResult:
    """Coefficients of magnitudes (3,2), (4,2), (6,7), proven on the pair
    matrices; sampled residuals on general and Cayley-free frames."""
    t0 = time.perf_counter()
    p = phi0()
    proven = frame_identities(samples, seed, p)  # one frame stack held at a time
    free = fid.sample_frames(samples, np.random.default_rng(seed + 10), cayley_free=True, phi=p)
    A, *lhs = fid.batch_pair_values(free, p, (1, 2, 3))
    details: dict = {"samples": samples, "identities": {}}
    checks: dict = {}
    for (i, c_a, c_b, exact, resid), L in zip(proven, lhs):
        free_resid = float(np.max(np.abs(L - c_a * A)))
        checks[f"magnitudes_{i}"] = (abs(c_a), abs(c_b)) == fid.REFERENCE_MAGNITUDES[i]
        checks[f"fit_residual_{i}"] = exact == 0
        checks[f"identity_residual_{i}"] = resid < 1e-8
        checks[f"cayley_free_specialization_{i}"] = free_resid < 1e-8
        details["identities"][str(i)] = {
            "c_a": c_a, "c_b": c_b, "fit_residual": exact,
            "max_identity_residual": resid, "cayley_free_residual": free_resid,
        }
    return _result(5, "contraction identities", 60.0, t0, checks, details)


def criterion_6_free_dimension(seed: int = 0, five_planes: int = 100) -> CriterionResult:
    """Comass 1; every sampled 5-plane contains a Cayley plane; the
    coordinate Cayley-free frame calibrates to exactly zero."""
    t0 = time.perf_counter()
    p = phi0()
    cm = comass(p, restarts=64, steps=500, seed=seed)
    rng = np.random.default_rng(seed + 1)
    S = np.stack([orthonormal_frame(rng.normal(size=(8, 5)).T) for _ in range(five_planes)])
    min5 = float(np.min(five_plane_comass(S, p)))
    e = lambda i: basis_vector(8, i)
    raw = evaluate(p.form, [e(1), e(2), e(3), e(5)])
    checks = {
        "comass_lower": cm.value >= 1 - 1e-6,
        "comass_upper": cm.value <= 1 + 1e-9,
        "all_5planes_contain_cayley": min5 >= 1 - 1e-6,
        "free_frame_value_exactly_zero": raw == 0 and isinstance(raw, int),
    }
    return _result(6, "comass and free dimension", 300.0, t0, checks, {
        "comass": cm.value, "five_planes": five_planes,
        "min_value_over_5planes": min5, "free_frame_value": raw,
    }, {"comass": {"stops": cm.stops, "iterations": cm.iterations,
                   "backtracks": cm.backtracks}})


def criterion_7_cayley_equivalence(seed: int = 0, count: int = 1000) -> CriterionResult:
    """Coordinate and octonionic Cayley tests agree on constructed and random planes."""
    t0 = time.perf_counter()
    p = phi0()
    rng = np.random.default_rng(seed)
    triples = rng.normal(size=(count, 3, 8))
    built = cayley_plane_from_3frame(triples[:, 0], triples[:, 1], triples[:, 2])
    frames = np.concatenate([built, random_planes_batch(count, rng)])
    coordinate = np.abs(planes.calibration_values_batch(frames, p) - 1.0) \
        < planes.DEFAULT_CAYLEY_TOL
    disagreements = int(np.sum(coordinate != is_cayley_octonionic(frames)))
    built_not_cayley = int(np.sum(~coordinate[:count]))
    checks = {
        "zero_disagreements": disagreements == 0,
        "constructed_planes_all_cayley": built_not_cayley == 0,
    }
    return _result(7, "cayley test equivalence", 120.0, t0, checks, {
        "planes_each": count, "disagreements": disagreements,
    })


def criterion_8_topology() -> CriterionResult:
    """Exact intersection identity, structure verdicts, Betti table."""
    t0 = time.perf_counter()
    # gauss_class is linear and the pairing bilinear, so two exact values prove
    # intersection = chi on all of Z^2; four points check intersection_with_cay0
    pair = lambda *e: topology.pairing(topology.cay0_dual(), topology.gauss_class(*e))
    points = ((0, 0), (2, 1), (-4, 0), (100, -100))
    grid_ok = (pair(1, 0), pair(0, 1)) == (1, 0) \
        and all(topology.intersection_with_cay0(chi, sig) == chi for chi, sig in points)
    mk = lambda p1sq, p2, chi: topology.ManifoldInvariants(
        True, True, True, p1sq, p2, chi, 0)
    betti = [topology.betti_g48(k) for k in (0, 4, 8, 12, 16)]
    checks = {
        "intersection_identity_grid": grid_ok,
        "sphere_like_rejected": topology.admits_spin7(mk(0, 0, 2))
        is topology.Spin7Verdict.NO,
        "zero_invariants_both": topology.admits_spin7(mk(0, 0, 0))
        is topology.Spin7Verdict.YES_BOTH,
        "example_4_7_3": topology.admits_spin7(mk(4, 7, 3))
        in (topology.Spin7Verdict.YES_PLUS, topology.Spin7Verdict.YES_MINUS),
        "betti_table": betti == [1, 3, 4, 3, 1],
    }
    return _result(8, "topology calculus", 1.0, t0, checks, {"betti": betti})


def criterion_9_mirror(seed: int = 0, frames: int = 100) -> CriterionResult:
    """Mirror pair of the coordinate Cayley-free frame; ratio stability;
    byte-stable composite report."""
    t0 = time.perf_counter()
    p = phi0()
    e = lambda i: basis_vector(8, i)
    frame = [e(1), e(2), e(3), e(5)]
    side_uv, side_yw, report = mirror_pair(frame, p)
    worst = 0.0
    for side in (side_uv, side_yw):
        r = side.residuals()
        worst = max(worst, *(v for k, v in r.items() if k != "omega_cubed"))
        if abs(r["omega_cubed"]) < 1e-9:
            worst = 1.0
    uv = np.random.default_rng(seed).normal(size=(frames, 2, 8))
    ratios = su3_from_2frame(uv[:, 0], uv[:, 1], p).volume_ratio()
    spread = float(np.max(np.abs(ratios - ratios[0])))
    _, _, report2 = mirror_pair(frame, p)
    stable = canonical_json(report.to_json_dict()) == canonical_json(report2.to_json_dict())
    checks = {
        "construction_residuals": worst < 1e-9,
        "ratio_constant": spread < 1e-8,
        "report_byte_stable": stable,
    }
    return _result(9, "mirror construction", 120.0, t0, checks, {
        "max_residual": worst,
        "ratio_re": float(np.real(ratios[0])), "ratio_im": float(np.imag(ratios[0])),
        "ratio_spread": spread,
        "composite_is_acs": report.is_acs,
        "k_squared_residual": report.k_squared_residual,
        "commutator_norm": report.commutator_norm,
    })


ALL_CRITERIA = (
    criterion_1_phi0,
    criterion_2_stabilizer,
    criterion_3_representations,
    criterion_4_acs,
    criterion_5_identities,
    criterion_6_free_dimension,
    criterion_7_cayley_equivalence,
    criterion_8_topology,
    criterion_9_mirror,
)


#: numbers of the criteria that draw random samples and so take the seed
SEEDED = frozenset({4, 5, 6, 7, 9})


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [fn(seed=seed) if number in SEEDED else fn()
            for number, fn in enumerate(ALL_CRITERIA, 1)]
