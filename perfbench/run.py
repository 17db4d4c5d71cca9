#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs come from ``--seed``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same workload under the span tracer and
prints the per-layer metrics instead, writing the spans to
``.perfbench_out/``.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the machine, every named metric, and each check's tally.
Metric names, units and meanings are in ``perfbench/spec.json``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine() -> dict:
    """The machine a result was measured on, including its SGEMM peak."""
    import numpy as np

    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = None
    a = np.random.default_rng(0).standard_normal((2048, 2048)).astype(np.float32)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        np.matmul(a, a)
        best = min(best, time.perf_counter() - start)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads(),
        "sgemm_peak_gflops": 2 * 2048 ** 3 / best / 1e9,
    }


def blas_threads():
    """Thread count the loaded OpenBLAS uses, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "resemotenet" / "__init__.py").is_file():
        print(f"perfbench: {src}/resemotenet not found; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spans
    import workloads

    imported = time.perf_counter() - START
    out = ROOT / ".perfbench_out"
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    run = workloads.Run(args.workload, args.seed, args.seconds, work, tracer)
    try:
        workloads.run_workload(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    found = dict(run.metrics)
    found["setup_s"] = imported + found.pop("setup_rep_s")
    found["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host = machine()
    found["blas.sgemm_peak_gflops"] = host["sgemm_peak_gflops"]
    if tracer is not None:
        found.update(spans.per_layer_metrics(tracer, run.first_timing_step))
        trace_file = out / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file)
        run.report["trace_file"] = str(trace_file.relative_to(ROOT))

    checks = run.checks
    for failure in checks.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    wanted = SPEC["per_layer" if args.trace else "end_to_end"]
    missing = sorted(set(wanted) - set(found))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    reported = {**SPEC["end_to_end"], **SPEC["reported"]}
    named = {meta.get("report_names", {}).get(args.workload, name):
             {"value": found[name], "unit": meta["unit"]}
             for name, meta in reported.items() if name in found}
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": host, "fail_ratio": checks.failed / checks.attempted,
        "checks": checks.by_name, "named": named, **run.report}}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": found[name], "unit": meta["unit"]}
                    for name, meta in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
