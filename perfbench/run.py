"""Benchmark of the Cayley workbench, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src``.
With ``--trace 0`` it prints the end-to-end metrics (set-up time, median
round wall time, peak resident set); with ``--trace 1`` it prints the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys

# One BLAS thread, set before numpy loads; the workbench's own thread pool
# stays at its sequential default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CAYLEY_WORKBENCH_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
PROBE = os.path.join(HERE, "setup_probe.py")
SETUP_PROBES = 5

# per-layer metric -> (span name, statistic, unit); "mean" is per call,
# "per_item" per plane, "setup" is summed over the traced set-up
KERNELS = {
    "planes.contains_cayley_ms": ("planes.contains_cayley", "mean", "ms"),
    "planes.comass_ms": ("planes.comass", "mean", "ms"),
    "planes.calibration_batch_ns_per_plane": ("planes.calibration_values_batch", "per_item", "ns"),
    "planes.random_planes_batch_ns_per_plane": ("planes.random_planes_batch", "per_item", "ns"),
    "frame_identities.extract_coefficients_ms": ("frame_identities.extract_coefficients",
                                                 "mean", "ms"),
    "planes.is_cayley_us": ("planes.is_cayley", "mean", "us"),
    "planes.is_cayley_octonionic_us": ("planes.is_cayley_octonionic", "mean", "us"),
    "planes.cayley_plane_from_3frame_us": ("planes.cayley_plane_from_3frame", "mean", "us"),
    "planes.acs_from_2frame_us": ("planes.acs_from_2frame", "mean", "us"),
    "octonions.cross3_us": ("octonions.cross3", "mean", "us"),
    "octonions.cayley_identity_residual_us": ("octonions.cayley_identity_residual", "mean", "us"),
    "mirror.su3_from_2frame_us": ("mirror.su3_from_2frame", "mean", "us"),
    "cayley.orbit_distance_ms": ("cayley.orbit_distance", "mean", "ms"),
    "forms.wedge_us": ("forms.wedge", "mean", "us"),
    "forms.interior_us": ("forms.interior", "mean", "us"),
    "forms.evaluate_us": ("forms.evaluate", "mean", "us"),
    "topology.intersection_us": ("topology.intersection_with_cay0", "mean", "us"),
    "cayley.reconcile_exact_ms": ("cayley.reconcile", "mean", "ms"),
    "cayley.reconcile_fallback_s": ("cayley.reconcile:fallback", "mean", "s"),
    "cayley.stabilizer_dimension_ms": ("cayley.stabilizer_dimension", "mean", "ms"),
    "frame_identities.identity_lhs_us": ("frame_identities.identity_lhs", "mean", "us"),
    "forms.to_tensor_ms": ("forms.to_tensor", "setup", "ms"),
    "frame_identities.pair_matrix_build_ms": ("frame_identities.pair_matrix", "setup", "ms"),
    "representations.casimir_spectrum_ms": ("representations.casimir_spectrum", "mean", "ms"),
    "mirror.mirror_pair_ms": ("mirror.mirror_pair", "mean", "ms"),
    "reporting.canonical_json_ms": ("reporting.canonical_json", "mean", "ms"),
}
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}


def _load_workbench():
    from tracing import MODULES, PACKAGE
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        raise SystemExit(f"error: no workbench sources at {src}/{PACKAGE}; "
                         "run from the repository root")
    sys.path.insert(0, src)
    pkg = importlib.import_module(PACKAGE)
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported {pkg.__file__}, not the sources under {src}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                                    for m in MODULES})


def _set_up(wb) -> None:
    from setup_probe import set_up
    set_up(wb.cayley, wb.planes, wb.frame_identities)


def _setup_seconds(probes: int) -> float:
    """Median time from starting a fresh interpreter to its ``ready`` line."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, PROBE], stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
    return statistics.median(times)


def digest(obj, h=None) -> str:
    """Content hash of a round's outputs, to see that every round agrees."""
    top = h is None
    h = hashlib.sha256() if top else h
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            digest(item, h)
    elif isinstance(obj, bytes):
        h.update(obj)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        digest(vars(obj), h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else ""


class Rounds:
    """Timed rounds of one workload; keeps only the last round's outputs."""

    def __init__(self):
        self.times, self.failed, self.digests = [], [], []
        self.last = None

    def run(self, workload, seconds: float, tracer=None) -> None:
        start = time.perf_counter()
        while True:
            if tracer is not None:
                idx = tracer.open(tracer.name_id("bench.round"))
            t0 = time.perf_counter()
            out = workload.round()
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(idx)
            self.times.append(dt)
            self.failed.append(workload.failed(out))
            self.digests.append(digest(out))
            self.last = out
            if time.perf_counter() - start >= seconds:
                return


def _layer_metrics(tracer, setup_span, traced_span, rounds: int, overhead: float) -> dict:
    from tracing import MODULES
    summ = tracer.summary(*traced_span)
    setup = tracer.summary(*setup_span)
    metrics = {}
    for mod in MODULES:
        rows = [v for name, v in summ.items() if name.split(".")[0] == mod]
        metrics[f"{mod}.self_s"] = (sum(r[2] for r in rows) / rounds, "s")
        metrics[f"{mod}.calls"] = (sum(r[0] for r in rows) / rounds, "count")
    for k in range(1, 10):
        total = sum(v[1] for name, v in summ.items()
                    if name.startswith(f"verify.criterion_{k}_"))
        metrics[f"verify.criterion_{k}_s"] = (total / rounds, "s")
    items = {tracer.names[i]: n for i, n in tracer.items.items()}
    for metric, (name, stat, unit) in KERNELS.items():
        if stat == "setup":
            value = setup.get(name, (0, 0.0, 0.0))[1]
        else:
            calls, total, _ = summ.get(name, (0, 0.0, 0.0))
            count = items.get(name, 0) if stat == "per_item" else calls
            value = total / count if count else 0.0
        metrics[metric] = (value * _SCALE[unit], unit)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify_all", "exact_algebra", "pointwise", "bulk"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    wb = _load_workbench()
    from oracles import CheckFailed
    from tracing import Tracer
    from workloads import WORKLOADS
    os.makedirs(OUT, exist_ok=True)

    tracer = Tracer() if args.trace else None
    metrics = {}
    if tracer is None:
        metrics["setup_s"] = (_setup_seconds(SETUP_PROBES), "s")
        _set_up(wb)
    else:
        tracer.install()
        lo = tracer.mark()
        _set_up(wb)
        setup_span = (lo, tracer.mark())
        tracer.uninstall()

    workload = WORKLOADS[args.workload](args.seed, wb, OUT)
    workload.warm_up()
    plain = Rounds()
    plain.run(workload, args.seconds / 2 if tracer else args.seconds)
    runs = [plain]
    if tracer is not None:
        traced = Rounds()
        tracer.install()
        lo = tracer.mark()
        try:
            traced.run(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        traced_span = (lo, tracer.mark())
        runs.append(traced)
        tracer.save(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.npz"))

    correct = True
    try:
        workload.check(plain.last)
        digests = {d for r in runs for d in r.digests}
        if len(digests) != 1:
            raise CheckFailed(f"rounds disagree: {len(digests)} distinct outputs")
    except CheckFailed as ex:
        correct = False
        print(f"check failed: {ex}", file=sys.stderr)

    if tracer is None:
        metrics["wall_s"] = (statistics.median(plain.times), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        overhead = statistics.median(traced.times) - statistics.median(plain.times)
        metrics = _layer_metrics(tracer, setup_span, traced_span, len(traced.times), overhead)

    rounds = sum(len(r.times) for r in runs)
    result = {
        "correct": correct,
        "attempted": workload.ops_per_round * rounds,
        "failed": sum(sum(r.failed) for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
