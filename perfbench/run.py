"""qlaplace benchmark: one command for every end-to-end and per-layer metric.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the checkout, never from an installed
copy.  Workloads are described in ``workloads.py`` and BENCHMARK.json.

``--trace 0`` measures with tracing off and reports the end-to-end metrics
(``op`` is one battery pass on the verify workloads and one forward+inverse
pair on transform-deep).  Times are in reference seconds: wall seconds
corrected for the shared host's current speed with an interleaved reference
computation (see refclock.py); the raw wall times are printed too.

    setup_s             median over child processes of "import qlaplace and
                        build the workload's inputs"
    op_ref_s.p50        median per-op time
    op_ref_s.p75        75th percentile of per-op time (the highest with ten
                        samples beyond it at transform-deep's ~40 ops)
    checks_passed_frac  checks within their pinned threshold / checks run
                        (1 - checks_failed_frac); pairs within 1e-8 / pairs
    peak_rss_mb         peak resident memory of the measuring process

The line before the result also carries raw wall-time figures under the
names used in the ROADMAP (battery_s, roundtrip_s.p50, roundtrip_s.p90,
roundtrips_per_s, setup_wall_s), every check's residual, and on
transform-deep roundtrip_err_max, the largest relative lattice-norm error of
inverse(forward(f)) over the run's pairs (a pair above 1e-8 is a failed op).
It is not an end-to-end metric because on the verify workloads its analogue,
the transform_roundtrip residual, is a max over five random functions and
moves ~20% between seeds.

``--trace 1`` runs untraced for half the time and traced for the rest, and
reports the per-layer metrics of the traced ops: calls and self time per
battery pass or per round trip for each traced function (see spans.py), the
computed counts, per-check time and residual (-1 when a check raised or is
not part of the workload), self time per layer, and the tracing overhead.
The spans are written to ``.perfbench/spans-<workload>.json.gz``.

Standard output ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment, sample counts, the
metrics under the names used in the ROADMAP, and per-check verdicts.
"""

from __future__ import annotations

import os

# one client on one thread: pin BLAS/OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("verify-default", "verify-stress", "transform-deep")

#: set-up is measured this many times per run, each in a fresh process
SETUP_SAMPLES = 3
#: a set-up probe that takes longer than this is treated as hung
PROBE_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark cannot run in this checkout."""


def _import_workloads():
    """Import the workload module, and with it qlaplace from ``src/``."""
    if not (SRC / "qlaplace" / "__init__.py").is_file():
        raise BenchError(f"no qlaplace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qlaplace
    import workloads

    imported_from = Path(qlaplace.__file__).resolve().parent.parent
    if imported_from != SRC.resolve():
        raise BenchError(f"qlaplace was imported from {imported_from}, not from {SRC}")
    return workloads


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: time import + input build, print it as JSON."""
    start = time.perf_counter()
    workloads = _import_workloads()
    workloads.setup(workload, seed)
    wall = time.perf_counter() - start
    import refclock

    print(json.dumps({"wall_s": wall,
                      "ref_s": wall * refclock.REF_CALL_S / refclock.probe(5000)}))


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Set-up times of SETUP_SAMPLES fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    return {
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_pinned": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                       "OPENBLAS_NUM_THREADS",
                                                       "MKL_NUM_THREADS")},
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    setup_samples = [] if trace else measure_setup(workload, seed)
    workloads = _import_workloads()
    inputs = workloads.setup(workload, seed)
    trace_path = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"spans-{workload}.json.gz"
    metrics, attempted, failed, correct, info = workloads.RUNNERS[workload](
        workload, inputs, seconds, trace, trace_path)
    if not trace:
        metrics["setup_s"] = (statistics.median(p["ref_s"] for p in setup_samples), "s")
        info["issue_metrics"]["setup_wall_s"] = statistics.median(
            p["wall_s"] for p in setup_samples)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        info["samples"]["setup"] = len(setup_samples)
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    info = dict({"workload": workload, "seed": seed, "seconds": seconds,
                 "trace": int(trace), "environment": environment()}, **info)
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
