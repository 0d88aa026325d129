"""Benchmark of sgsov, run from the root of a repository checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``BENCHMARK.json`` and built in ``workloads.py``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of ``tracing.py`` and writes
its spans under ``.bench_out/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "ff_u_pairs_per_s": "1/s",
    "pairings_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def cap_blas_threads():
    """At most one BLAS thread per available core; must run before numpy
    is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(cores, int(os.environ.get(var, cores))))


def measure(wl, seconds, import_s=0.0):
    """Untraced run: repeated set-up, the timed phase, then the gate."""
    setups = []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    wl.run(seconds)
    checks = wl.check()
    ff_rate, pair_rate = wl.rates()
    metrics = {
        "setup_s": statistics.median(setups) + (import_s if wl.counts_import else 0.0),
        "pass_s": wl.pass_s(),
        "ff_u_pairs_per_s": ff_rate,
        "pairings_per_s": pair_rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return checks, {name: (metrics[name], unit) for name, unit in END_TO_END.items()}


def trace(wl, span_path=None):
    """Traced run: an untraced then a traced set-up, one untraced and one
    traced pass, then (on verify_shipped) one traced ``verify_suite`` call
    per section.  The first set-up of a process is the slowest, and
    ``measure`` reports a median that leaves it out, so it is not traced."""
    import tracing
    tracer = tracing.Tracer()
    wl.setup()
    with tracer.installed(), tracer.phase("setup"):
        wl.setup()
    t0 = time.perf_counter()
    wl.run()
    plain_s = time.perf_counter() - t0
    with tracer.installed(), tracer.phase("pass"):
        wl.run()
    sections = tracing.Tracer()
    with sections.installed():
        wl.trace_sections(sections)
    checks = wl.check()
    traced_s, accounted = tracer.phase_time("pass")
    metrics = tracer.group_metrics()
    metrics.update(sections.section_times())
    metrics.update(wl.layer_counts())
    metrics.update(checks.metrics())
    metrics.update({"trace.pass_s": traced_s, "trace.overhead_s": traced_s - plain_s,
                    "trace.accounted_share": accounted})
    if span_path is not None:
        span_path.parent.mkdir(exist_ok=True)
        tracer.write(span_path)
        sections.write(span_path.with_suffix(".sections.tsv"))
    return checks, {name: (metrics[name], unit)
                    for name, (unit, _) in tracing.PER_LAYER.items()}


def emit(checks, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, allow_nan=False))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sgsov" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print(f"no sgsov checkout at {ROOT}: src/sgsov and configs/ are required",
              file=sys.stderr)
        return 2

    cap_blas_threads()
    import numpy as np
    # the first BLAS call of a process starts its thread pool (about 0.8 s);
    # make it here, before any timer
    warm = np.ones((256, 256), dtype=complex)
    float(np.abs(warm @ warm).sum())

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS + workloads.REPRODUCERS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS + workloads.REPRODUCERS)}",
              file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed)
    if args.trace:
        span_path = ROOT / ".bench_out" / f"spans_{args.workload}_seed{args.seed}.tsv"
        checks, metrics = trace(wl, span_path)
    else:
        checks, metrics = measure(wl, args.seconds, import_s)
    emit(checks, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
