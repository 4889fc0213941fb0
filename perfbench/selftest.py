"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py        (from the repository root, ~20 s)

Runs each workload once at reduced sizes, confirms that its real outputs
pass ``check``, then perturbs one output at a time and confirms that
``check`` rejects every perturbation.  Also confirms that ``failed``
counts the reconcile fallback's non-minimal map and nothing else.
Exits 1 if a perturbation slips through.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (first: it pins BLAS to one thread before numpy loads)

import numpy as np  # noqa: E402

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402

MISSED: list[str] = []


def expect_reject(label: str, check, outputs) -> None:
    try:
        check(outputs)
    except O.CheckFailed:
        print(f"rejected  {label}")
        return
    print(f"MISSED    {label}")
    MISSED.append(label)


def mutations(label_prefix: str, check, base, muts: dict) -> None:
    check(base)
    print(f"accepted  {label_prefix}: unperturbed outputs")
    for label, mutate in muts.items():
        out = copy.deepcopy(base)
        replaced = mutate(out)
        out = out if replaced is None else replaced
        expect_reject(f"{label_prefix}: {label}", check, out)


def bump(form):
    """The same k-form with one coefficient changed (or one blade added)."""
    terms = dict(form.terms)
    key = next(iter(terms), (1 << form.degree) - 1)
    terms[key] = terms.get(key, 0) + 1
    return type(form)(form.n, form.degree, terms)


# -- verify_all ----------------------------------------------------------------------


def verify_all(wb, out_dir: str) -> None:
    v = wb.verify
    results = [v.criterion_1_phi0(), v.criterion_2_stabilizer(),
               v.criterion_3_representations(), v.criterion_4_acs(seed=3, frames=20),
               v.criterion_5_identities(seed=3, samples=500),
               v.criterion_6_free_dimension(seed=3, five_planes=2),
               v.criterion_7_cayley_equivalence(seed=3, count=50), v.criterion_8_topology(),
               v.criterion_9_mirror(seed=3, frames=10)]
    report = {"config": {"seed": 3}, "criteria": [r.to_json_dict() for r in results],
              "passed": sum(r.passed for r in results),
              "failed": sum(not r.passed for r in results)}
    base = (0, wb.reporting.canonical_json(report).encode())

    def edit(fn):
        def mutate(out):
            rep = json.loads(out[1])
            code = fn(rep, {c["number"]: c["details"] for c in rep["criteria"]})
            return (out[0] if code is None else code, json.dumps(rep).encode())
        return mutate

    def drop_9(rep, d):
        rep["criteria"].pop()

    muts = {
        "exit code": lambda out: (1, out[1]),
        "report totals": edit(lambda rep, d: rep.update(passed=8)),
        "missing criterion": edit(drop_9),
        "phi0 norm": edit(lambda rep, d: d[1].update(norm_sq=13)),
        "stabilizer 20": edit(lambda rep, d: d[2].update(stab_dim=20)),
        "2-form multiplicities": edit(lambda rep, d: d[3].update(
            lambda2_multiplicities={"3": 8, "-1": 20})),
        "3-form dimensions": edit(lambda rep, d: d[3].update(lambda3_dims={"3_8": 9, "3_48": 47})),
        "Casimir multiplicities": edit(lambda rep, d: d[3]["casimir_spectrum_4"][0].__setitem__(
            1, d[3]["casimir_spectrum_4"][0][1] + 1)),
        "J^2 residual": edit(lambda rep, d: d[4].update(max_square_residual=1e-6)),
        "fitted magnitude": edit(lambda rep, d: d[5]["identities"]["3"].update(c_b=7.001)),
        "fit residual": edit(lambda rep, d: d[5]["identities"]["1"].update(fit_residual=1e-6)),
        "comass above 1": edit(lambda rep, d: d[6].update(comass=1 + 1e-8)),
        "5-plane without witness": edit(lambda rep, d: d[6].update(min_value_over_5planes=0.99)),
        "free frame value": edit(lambda rep, d: d[6].update(free_frame_value=1)),
        "Cayley test disagreement": edit(lambda rep, d: d[7].update(disagreements=1)),
        "Betti numbers": edit(lambda rep, d: d[8].update(betti=[1, 3, 4, 3, 2])),
        "mirror ratio spread": edit(lambda rep, d: d[9].update(ratio_spread=1e-6)),
    }
    mutations("verify_all", W.VerifyAll.check, base, muts)

    rep = json.loads(base[1])
    rep["criteria"][5]["passed"] = False
    rep.update(passed=8, failed=1)
    failing = (1, json.dumps(rep).encode())
    W.VerifyAll.check(failing)
    assert W.VerifyAll.failed(failing) == 1 and W.VerifyAll.failed(base) == 0
    print("counted   verify_all: a criterion reported as failing")


# -- exact_algebra ---------------------------------------------------------------------


class SmallExact(W.ExactAlgebra):
    GRID, VERDICTS, TRANSPORTS, STABILIZERS, TRIPLES, FRAMES = 6, 40, 2, 1, 30, 4


def exact_algebra(wb, out_dir: str) -> None:
    wl = SmallExact(5, wb, out_dir)
    base = wl.round()
    cayley = wb.cayley

    def swap_perm(g):
        p = list(g.perm)
        p[0], p[1] = p[1], p[0]
        return dataclasses.replace(g, perm=tuple(p))

    def set_item(key, i, value_fn):
        def mutate(out):
            out[key][i] = value_fn(out[key][i])
        return mutate

    def form_result(k, fn):
        def mutate(out):
            for i, res in enumerate(out["forms"]):
                res = list(res)
                res[k] = fn(res[k])
                out["forms"][i] = tuple(res)
        return mutate

    muts = {
        "intersection number": set_item("grid", 0, lambda x: x + 1),
        "spin(7) verdict": set_item("verdicts", 1, lambda x: "NO" if x != "NO" else "YES_BOTH"),
        "Betti numbers": set_item("betti", 4, lambda x: x + 1),
        "reconcile map": set_item("maps", 0, swap_perm),
        "octonionic map": lambda out: out.update(oct=(out["oct"][0], swap_perm(out["oct"][1]))),
        "stabilizer of phi0": set_item("stab", 0, lambda x: 20),
        "stabilizer of dx1234": set_item("stab", 1, lambda x: 21),
        "graded anticommutativity": form_result(1, bump),
        "associativity": form_result(3, bump),
        "a ^ *b = <a, b> vol": form_result(4, bump),
        "Leibniz rule": form_result(5, bump),
        "evaluate": form_result(8, lambda x: x + 1),
        "identity_lhs": lambda out: out["identities"][0].__setitem__(2, out["identities"][0][2] + 1),
        "fallback mismatch count": lambda out: out.update(
            fallback=dataclasses.replace(out["fallback"], mismatches=5)),
    }
    mutations("exact_algebra", wl.check, base, muts)

    assert SmallExact.failed(base) == 1
    ident = cayley.ConventionMap.identity()
    mended = dict(base, fallback=cayley.BestMismatch(
        ident, 1, (((1, 2, 3, 4), -1, 1),), base["fallback"].examined))
    wl.check(mended)
    assert SmallExact.failed(mended) == 0
    print("counted   exact_algebra: fallback with 6 mismatches fails, a 1-mismatch map passes")


# -- pointwise -------------------------------------------------------------------------


class SmallPointwise(W.Pointwise):
    PLANES, TRIPLES, FRAMES2, SU3, SUBSPACES, ORBITS = 4, 3, 3, 2, 1, 1


def pointwise(wb, out_dir: str) -> None:
    wl = SmallPointwise(7, wb, out_dir)
    base = wl.round()
    rng = np.random.default_rng(0)

    def tilt(B):
        """Turn the fourth vector slightly out of the plane, keeping the frame orthonormal."""
        n = np.eye(8)[0] - B @ B[0]
        B = B.copy()
        B[:, 3] = np.cos(1e-3) * B[:, 3] + np.sin(1e-3) * n / np.linalg.norm(n)
        return B

    def su3(k, fn):
        def mutate(out):
            row = list(out["su3"][1])
            row[k] = fn(row[k])
            out["su3"][1] = tuple(row)
        return mutate

    def outside(res):
        q, _ = np.linalg.qr(rng.normal(size=(8, 4)))
        return dataclasses.replace(res, plane=wb.planes.Plane4(q))

    muts = {
        "constructed plane": lambda out: out["built"].__setitem__(0, tilt(out["built"][0])),
        "is_cayley": lambda out: out["is_cayley"].__setitem__(0, False),
        "is_cayley_octonionic": lambda out: out["is_cayley_oct"].__setitem__(-1, True),
        "triple cross norm": lambda out: out["cross"].__setitem__(0, 1.001 * out["cross"][0]),
        "J^2 = -1": lambda out: out["acs"][0].__setitem__((0, 1), out["acs"][0][0, 1] + 1e-6),
        "J u = v": lambda out: out["acs"].__setitem__(0, out["acs"][0].T.copy()),
        "adapted frame": su3(2, lambda W_: W_[:, [1, 0, 2, 3, 4, 5]]),
        "Kaehler form": su3(4, lambda om: {k: -c for k, c in om.items()}),
        "volume ratio": su3(5, lambda r: r * 1.001),
        "witness outside subspace": lambda out: out["contains"].__setitem__(
            0, outside(out["contains"][0])),
        "orbit distance": lambda out: out["orbit"].__setitem__(1, out["orbit"][1] + 1e-4),
    }
    mutations("pointwise", wl.check, base, muts)


# -- bulk ------------------------------------------------------------------------------


class SmallBulk(W.Bulk):
    PLANES, FRAMES, FIT, SUBSET = 20_000, 5_000, 2_000, 500


def bulk(wb, out_dir: str) -> None:
    wl = SmallBulk(9, wb, out_dir)
    base = wl.round()

    def add(key, delta, index=0):
        def mutate(out):
            arr = out[key] if index is None else out[key][index]
            arr[0] += delta
        return mutate

    def fit(k, **changes):
        def mutate(out):
            pair = list(out["fits"][0])
            pair[k] = dataclasses.replace(pair[k], **changes)
            out["fits"][0] = tuple(pair)
        return mutate

    muts = {
        "plane frame not orthonormal": lambda out: out["planes"].__setitem__(0, 1.001 * out["planes"][0]),
        "calibration value": add("values", 1e-9, None),
        "invariants on orthonormal frames (B)": add("inv_ortho", 1e-9, 1),
        "invariants on orthonormal frames (A)": add("inv_ortho", 1e-9, 0),
        "invariant A": add("inv", 1e-6, 0),
        "invariant B": add("inv", 1e-6, 1),
        "Cayley-free B": add("inv_free", 1e-6, 1),
        "Cayley-free frame": lambda out: out["free"][0].__setitem__(3, out["free"][0][3] + 0.1),
        "batched identity": add("lhs", 1e-4, 1),
        "fitted magnitude": fit(0, c_a=base["fits"][0][0].c_a + 1e-6),
        "Cayley-free fit": fit(1, c_a=base["fits"][0][1].c_a + 1e-6),
    }
    mutations("bulk", wl.check, base, muts)

    values = base["values"]
    for label, bad in (("mean shifted", values + 0.01), ("second moment", values * 1.05)):
        expect_reject(f"bulk: Haar moments, {label}", O.check_haar_moments, bad)


def main() -> int:
    wb = run._load_workbench()
    run._set_up(wb)
    os.makedirs(run.OUT, exist_ok=True)
    for fn in (verify_all, exact_algebra, pointwise, bulk):
        fn(wb, run.OUT)
    if run.digest([np.zeros(3)]) == run.digest([np.zeros(3) + 1e-300]):
        MISSED.append("round digest ignores a change")
    print(f"{len(MISSED)} perturbations missed" if MISSED else "every perturbation rejected")
    return 1 if MISSED else 0


if __name__ == "__main__":
    sys.exit(main())
