"""Command-line surface: seeded, file-driven, deterministic reports.

Exit codes: 0 success, 1 assertion failure (verify-all with a failing
criterion; the report is still written), 2 input error (malformed JSON
is reported with line and column), 3 internal error (any other exception;
its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from contextlib import nullcontext

import numpy as np

from . import frame_identities as fid
from . import planes, representations, topology, verify
from .cayley import (CayleyForm, ConventionMap, admissibility_report,
                     orbit_search, phi0, phi_octonionic, reconcile)
from .forms import KForm
from .mirror import DegenerateFormError, NotCayleyFreeError, mirror_pair
from .planes import (Frame4, Plane4, calibration_value, comass, contains_cayley,
                     found_cayley, is_cayley, is_cayley_free, is_cayley_octonionic,
                     octonionic_residual, orthonormal_frame, random_planes_batch)
from .reporting import canonical_json, emit, rows_to_csv


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as ex:
        raise InputError(f"{path}: {ex.strerror}") from ex
    try:
        return json.loads(text)
    except json.JSONDecodeError as ex:
        raise InputError(f"{path}:{ex.lineno}:{ex.colno}: {ex.msg}") from ex


def _load_form(path: str) -> KForm:
    data = _load_json(path)
    try:
        return KForm.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as ex:
        raise InputError(f"{path}: bad form payload: {ex}") from ex


def _load_vectors(path: str, count: int | None = None) -> list:
    data = _load_json(path)
    try:
        vectors = [tuple(v) for v in data["vectors"]]
    except (KeyError, TypeError) as ex:
        raise InputError(f"{path}: expected {{\"vectors\": [[...], ...]}}") from ex
    if count is not None and len(vectors) != count:
        raise InputError(f"{path}: expected {count} vectors, got {len(vectors)}")
    if any(len(v) != 8 for v in vectors):
        raise InputError(f"{path}: vectors must have 8 components")
    return vectors


def _load_frame(path: str) -> Frame4:
    """A 4-frame whose orthonormal representative exists."""
    f4 = Frame4.of(*_load_vectors(path, 4))
    try:
        f4.frame
    except ValueError as ex:
        raise InputError(f"{path}: {ex}") from ex
    return f4


def _check_restarts(restarts: int) -> None:
    if restarts < 1:
        raise InputError(f"--restarts must be at least 1, got {restarts}")


def _phi_source(source: str) -> CayleyForm:
    if source == "builtin:phi0":
        return phi0()
    if source == "builtin:octonionic":
        return phi_octonionic()
    form = _load_form(source)
    if (form.degree, form.n) != (4, 8):
        raise InputError(f"{source}: --phi must be a 4-form on R^8, "
                         f"got degree {form.degree} on R^{form.n}")
    return CayleyForm(form)


def _config(args, fields) -> dict:
    return {f: getattr(args, f) for f in fields if getattr(args, f, None) is not None}


# -- command handlers ----------------------------------------------------------


def _open_output(path: str):
    try:
        return open(path, "w")
    except OSError as ex:
        raise InputError(f"{path}: {ex.strerror}") from ex


def cmd_verify_all(args):
    # opened before the run, so that an unwritable path fails at once
    with _open_output(args.timings) if args.timings else nullcontext() as timings:
        results = verify.run_all(seed=args.seed)
        if timings is not None:
            timings.write(canonical_json({
                "seed": args.seed, "criteria": [r.timings_json_dict() for r in results]}))
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] criterion {r.number}: {r.name} ({r.elapsed:.1f}s)",
              file=sys.stderr)
    payload = {
        "config": {"seed": args.seed},
        "criteria": [r.to_json_dict() for r in results],
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
    }
    return payload, any(not r.passed for r in results)


def cmd_phi_eval(args):
    phi = _phi_source(args.phi)
    f4 = _load_frame(args.frame)
    raw = f4.raw_value(phi)
    value = calibration_value(Plane4(f4.frame), phi)
    return {
        "config": _config(args, ("frame", "phi")),
        "value": value,
        "raw_value": raw if isinstance(raw, int) else float(raw),
    }, False


def cmd_phi_check(args):
    form = _load_form(args.input)
    if (form.degree, form.n) != (4, 8):
        raise InputError(f"{args.input}: admissibility is defined for 4-forms on R^8, "
                         f"got degree {form.degree} on R^{form.n}")
    report = admissibility_report(form)
    payload = {"config": _config(args, ("input",)), **report.to_json_dict()}
    if args.descend:
        orbit = orbit_search(form, seed=args.seed)
        payload["orbit_distance_to_phi0"] = orbit.distance
        payload["orbit_method"] = orbit.method
        if orbit.method == "descent":
            payload["orbit_stops"] = orbit.stops
    return payload, False


def cmd_phi_reconcile(args):
    a, b = _load_form(args.a), _load_form(args.b)
    try:
        result = reconcile(a, b)
    except ValueError as ex:
        raise InputError(str(ex)) from ex
    payload = {"config": _config(args, ("a", "b"))}
    if isinstance(result, ConventionMap):
        payload.update({"exact": True, "map": result.to_json_dict()})
    else:
        payload.update({
            "exact": False,
            "map": result.map.to_json_dict(),
            "mismatches": result.mismatches,
            "diff": [{"idx": list(idx), "got": g, "want": w}
                     for idx, g, w in result.diff],
        })
    return payload, False


def cmd_decompose(args):
    phi = _phi_source(args.phi)
    if not 0 <= args.degree <= 8:
        raise InputError("degree must be 0..8")
    if 1 <= args.degree <= 7 and not phi.admissibility.admissible:
        raise InputError(f"{args.phi}: form fails the admissibility certificates")
    sb = representations.split(phi, args.degree)
    dims = sb.dims()
    payload = {
        "config": _config(args, ("degree", "phi", "form")),
        "dimensions": dims,
        "total": sum(dims.values()),
    }
    if 1 <= args.degree <= 7:
        payload["casimir_spectrum"] = \
            [[v, m] for v, m in representations.casimir_spectrum(phi, args.degree)]
    rows = [(label, dims[label]) for label in sorted(dims)]
    header = ["component", "dimension"]
    if args.form:
        form = _load_form(args.form)
        if form.degree != args.degree:
            raise InputError(f"form degree {form.degree} != requested {args.degree}")
        norms = {}
        for label in sorted(dims):
            pr = representations.project(sb, form, label)
            norms[label] = float(np.sqrt(float(pr.norm_sq())))
        payload["projection_norms"] = norms
        rows = [(label, dims[label], norms[label]) for label in sorted(dims)]
        header.append("projection_norm")
    if args.format == "csv":
        return (header, rows), False
    return payload, False


def cmd_plane_test(args):
    phi = _phi_source(args.phi)
    f4 = _load_frame(args.frame)
    plane = Plane4(f4.frame)
    value = calibration_value(plane, phi)
    payload = {
        "config": _config(args, ("frame", "phi", "tol")),
        "value": value,
        "is_cayley": is_cayley(plane, phi, args.tol),
        "is_cayley_free": is_cayley_free(f4, phi, args.tol),
        "octonionic_residual": octonionic_residual(plane),
        "is_cayley_octonionic": is_cayley_octonionic(plane, tol=args.tol),
    }
    return payload, False


def cmd_plane_sample(args):
    phi = _phi_source(args.phi)
    n = args.n
    if n < 1:
        raise InputError(f"--n must be at least 1, got {n}")
    rng = np.random.default_rng(args.seed)
    chunk = 200_000
    maxabs, near = 0.0, 0
    total = 0
    while total < n:
        take = min(chunk, n - total)
        frames = random_planes_batch(take, rng)
        v = planes.calibration_values_batch(frames, phi)
        maxabs = max(maxabs, float(np.max(np.abs(v))))
        near += int(np.sum(np.abs(v) > 1 - 1e-6))
        total += take
    payload = {
        "config": {"n": n, "seed": args.seed, "phi": args.phi},
        "max_abs_value": maxabs,
        "near_cayley_count": near,
        "near_cayley_fraction": near / n,
    }
    return payload, False


def cmd_plane_comass(args):
    phi = _phi_source(args.phi)
    _check_restarts(args.restarts)
    res = comass(phi, restarts=args.restarts, steps=args.steps, seed=args.seed)
    payload = {
        "config": _config(args, ("restarts", "steps", "seed", "phi")),
        "comass": res.value,
        "converged": res.converged,
        "stops": res.stops,
        "witness": [[float(x) for x in row] for row in res.plane.basis],
    }
    if res.warning:
        payload["warning"] = res.warning
    return payload, False


def cmd_plane_contains_cayley(args):
    phi = _phi_source(args.phi)
    vectors = _load_vectors(args.subspace)
    if not 4 <= len(vectors) <= 8:
        raise InputError(f"{args.subspace}: a subspace needs 4 to 8 vectors, "
                         f"got {len(vectors)}")
    _check_restarts(args.restarts)
    try:
        S = orthonormal_frame(vectors)
    except ValueError as ex:
        raise InputError(f"{args.subspace}: {ex}") from ex
    res = contains_cayley(S, phi, restarts=args.restarts, steps=args.steps, seed=args.seed)
    payload = {
        "config": _config(args, ("subspace", "restarts", "steps", "seed", "tol", "phi")),
        "contains_cayley": found_cayley(res, args.tol),
        "max_value": res.value,
        "witness": [[float(x) for x in row] for row in res.plane.basis],
        "converged": res.converged,
        "stops": res.stops,
    }
    return payload, False


def cmd_frame_identities(args):
    phi = _phi_source(args.phi)
    if args.samples < 10:
        raise InputError(f"--samples must be at least 10, got {args.samples}")
    rows = []
    payload = {"config": _config(args, ("samples", "seed", "phi")), "identities": {}}
    for i, c_a, c_b, exact, resid in verify.frame_identities(args.samples, args.seed, phi):
        ref = fid.REFERENCE_MAGNITUDES[i]
        entry = payload["identities"][str(i)] = {
            "c_a": c_a, "c_b": c_b, "fit_residual": exact, "max_identity_residual": resid,
            "reference_magnitudes": list(ref), "magnitudes_match": (abs(c_a), abs(c_b)) == ref,
        }
        rows.append((i, c_a, c_b, exact, resid, entry["magnitudes_match"]))
    if args.format == "csv":
        header = ["identity", "c_a", "c_b", "fit_residual",
                  "max_identity_residual", "magnitudes_match"]
        return (header, rows), False
    return payload, False


def cmd_frame_extract(args):
    phi = _phi_source(args.phi)
    if args.samples < 10:
        raise InputError(f"--samples must be at least 10, got {args.samples}")
    fit = fid.extract_coefficients(args.identity, args.samples, args.seed, phi,
                                   cayley_free=args.cayley_free)
    payload = {
        "config": _config(args, ("identity", "samples", "seed", "phi", "cayley_free")),
        "c_a": fit.c_a, "c_b": fit.c_b, "fit_residual": fit.fit_residual,
    }
    return payload, False


def cmd_mirror_build(args):
    phi = _phi_source(args.phi)
    f4 = _load_frame(args.frame)
    try:
        side_uv, side_yw, report = mirror_pair(f4, phi)
    except NotCayleyFreeError as ex:
        raise InputError(f"{args.frame}: {ex}") from ex
    except DegenerateFormError as ex:
        raise InputError(f"{args.phi}: {ex}") from ex
    def side_payload(s):
        return {
            "frame": [[float(x) for x in row] for row in s.frame],
            "omega": s.omega.to_json_dict(),
            "residuals": s.residuals(),
            "volume_ratio": [float(np.real(s.volume_ratio())),
                             float(np.imag(s.volume_ratio()))],
        }
    payload = {
        "config": _config(args, ("frame", "phi")),
        "uv": side_payload(side_uv),
        "yw": side_payload(side_yw),
        "composite": report.to_json_dict(),
    }
    return payload, False


def cmd_topology_check(args):
    m = topology.ManifoldInvariants(
        w1_zero=args.w1 == 0, w2_zero=args.w2 == 0, w6_zero=args.w6 == 0,
        p1_sq=args.p1sq, p2=args.p2, chi=args.chi, sigma=args.sigma)
    payload = {
        "config": {"chi": args.chi, "sigma": args.sigma, "p1sq": args.p1sq,
                   "p2": args.p2, "w1": args.w1, "w2": args.w2, "w6": args.w6},
        "admits_spin7": topology.admits_spin7(m).value,
        "intersection_cay0": topology.intersection_with_cay0(args.chi, args.sigma),
        "two_plane_field": topology.two_plane_field_exists(args.chi, args.sigma),
        "four_vector_fields": topology.four_fields_exist(m.w6_zero),
        "gauss_class": topology.gauss_class(args.chi, args.sigma).to_json_dict(),
    }
    return payload, False


# -- parser --------------------------------------------------------------------


def _add_phi(p):
    p.add_argument("--phi", default="builtin:phi0",
                   help="builtin:phi0 | builtin:octonionic | path to a form JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley-workbench",
        description="Pointwise workbench for the Cayley 4-form on R^8.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", help="write the report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", parents=[common],
                       help="run every acceptance criterion")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", metavar="FILE",
                   help="also write each criterion's wall time, budget and search "
                        "diagnostics here (JSON); the report stays the same")
    p.set_defaults(func=cmd_verify_all)

    phi_parser = sub.add_parser("phi", help="evaluate / check / reconcile Cayley forms")
    phi_sub = phi_parser.add_subparsers(dest="subcommand", required=True)
    p = phi_sub.add_parser("eval", parents=[common],
                           help="value of a form on a 4-frame")
    p.add_argument("--frame", required=True)
    _add_phi(p)
    p.set_defaults(func=cmd_phi_eval)
    p = phi_sub.add_parser("check", parents=[common],
                           help="admissibility certificates of a 4-form")
    p.add_argument("--input", required=True)
    p.add_argument("--descend", action="store_true",
                   help="also find the distance to phi0's orbit: by construction "
                        "for orbit forms, else by numerical descent")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_phi_check)
    p = phi_sub.add_parser("reconcile", parents=[common],
                           help="signed permutation between two forms")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_phi_reconcile)

    p = sub.add_parser("decompose", parents=[common],
                       help="irreducible splitting of one degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--form", help="project this form onto the components")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_phi(p)
    p.set_defaults(func=cmd_decompose)

    plane_parser = sub.add_parser("plane", help="plane tests, sampling, optimization")
    plane_sub = plane_parser.add_subparsers(dest="subcommand", required=True)
    p = plane_sub.add_parser("test", parents=[common],
                             help="calibration and Cayley tests of a 4-frame")
    p.add_argument("--frame", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_phi(p)
    p.set_defaults(func=cmd_plane_test)
    p = plane_sub.add_parser("sample", parents=[common],
                             help="Haar sampling statistics")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_phi(p)
    p.set_defaults(func=cmd_plane_sample)
    p = plane_sub.add_parser("comass", parents=[common],
                             help="multistart ascent for the comass")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    _add_phi(p)
    p.set_defaults(func=cmd_plane_comass)
    p = plane_sub.add_parser("contains-cayley", parents=[common],
                             help="search a subspace for a Cayley plane")
    p.add_argument("--subspace", required=True)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_phi(p)
    p.set_defaults(func=cmd_plane_contains_cayley)

    frame_parser = sub.add_parser("frame", help="4-frame invariants and identities")
    frame_sub = frame_parser.add_subparsers(dest="subcommand", required=True)
    p = frame_sub.add_parser("identities", parents=[common],
                             help="fit the three contraction identities")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_phi(p)
    p.set_defaults(func=cmd_frame_identities)
    p = frame_sub.add_parser("extract", parents=[common],
                             help="fit one identity's coefficients")
    p.add_argument("--identity", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cayley-free", action="store_true", dest="cayley_free")
    _add_phi(p)
    p.set_defaults(func=cmd_frame_extract)

    mirror_parser = sub.add_parser("mirror", help="mirror SU(3) pair of a 4-frame")
    mirror_sub = mirror_parser.add_subparsers(dest="subcommand", required=True)
    p = mirror_sub.add_parser("build", parents=[common])
    p.add_argument("--frame", required=True)
    _add_phi(p)
    p.set_defaults(func=cmd_mirror_build)

    topo_parser = sub.add_parser("topology", help="exact characteristic-class checks")
    topo_sub = topo_parser.add_subparsers(dest="subcommand", required=True)
    p = topo_sub.add_parser("check", parents=[common])
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--p1sq", type=int, default=0)
    p.add_argument("--p2", type=int, default=0)
    p.add_argument("--w1", type=int, default=0, choices=(0, 1),
                   help="0 if w1 vanishes, 1 otherwise")
    p.add_argument("--w2", type=int, default=0, choices=(0, 1))
    p.add_argument("--w6", type=int, default=0, choices=(0, 1))
    p.set_defaults(func=cmd_topology_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, failed = args.func(args)
        text = rows_to_csv(*result) if isinstance(result, tuple) else canonical_json(result)
        try:
            emit(text, args.report)
        except OSError as ex:
            raise InputError(f"{args.report}: {ex.strerror}") from ex
    except InputError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except Exception as ex:
        print(f"internal error: {ex!r}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
