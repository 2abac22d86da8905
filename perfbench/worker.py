"""One workload in one process: warm-up, timed passes, checks and metrics.

Started by run.py with BLAS and OpenMP held to one thread. With --probe
it only imports milac, makes one warm-up call of the workload's entry
point and prints the seconds that took since the interpreter reached this
file. Otherwise it prints one JSON line with the run's counts, metrics,
environment and pass details.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import milac  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from spans import Tracer, layer_metrics, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "milac": milac.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "MILAC_WORKERS": os.environ.get("MILAC_WORKERS"),
    }


def fastest(passes, n):
    """Each cell's fastest time over the passes (None if it never completed)."""
    out = []
    for i in range(n):
        times = [p.times[i] for p in passes if p.times[i] is not None]
        out.append(min(times) if times else None)
    return out


def throughput(passes, n):
    """Cells per second from each cell's fastest time plus the fastest harness overhead."""
    mins = [t for t in fastest(passes, n) if t is not None]
    return len(mins) / (sum(mins) + min(p.overhead for p in passes)) if mins else 0.0


def quantile(values, q):
    return float(np.quantile(values, q)) if values else 0.0


def mismatches(reference, passes):
    """Cells whose program outputs differ from the validating pass in any pass."""
    return sorted({i for p in passes for i, sig in enumerate(p.signature)
                   if sig != reference.signature[i]})


def measure(args, out_dir):
    """Warm up, then run whole passes over the cells for about args.seconds.

    The first pass also checks every output. A pass starts only if it is
    expected to end within args.seconds, once the minimum count is met.
    With --trace 1, traced and untraced passes alternate.
    """
    cls = WORKLOADS[args.workload]
    cls.warmup(out_dir)
    wl = cls(args.seed, out_dir)
    clock = time.perf_counter
    cpus = sorted(os.sched_getaffinity(0))
    passes = 0

    def pin_next():
        # successive passes run on successive cores, so a cell's fastest
        # time is not set by one core that a neighbour keeps busy; an
        # untraced pass and the traced pass after it share a core
        nonlocal passes
        turn = passes // 2 if args.trace else passes
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        passes += 1

    try:
        n = len(wl.cells)
        start = clock()
        pin_next()
        first = wl.run_pass(validate=True)
        timed, traced, tracers = [first], [], []
        last = clock() - start
        while True:
            elapsed = clock() - start
            enough = len(timed) >= MIN_PASSES if not args.trace else bool(traced)
            if enough and elapsed + last > args.seconds:
                break
            t0 = clock()
            pin_next()
            if args.trace and len(traced) < len(timed):
                tracer = Tracer()
                traced.append(wl.run_pass(tracer))
                tracers.append(tracer)
            else:
                timed.append(wl.run_pass())
            last = clock() - t0
        measured_s = clock() - start
    finally:
        os.sched_setaffinity(0, cpus)
        wl.close()

    everything = timed + traced
    errors = list(first.errors)
    diff = mismatches(first, everything)
    if diff:
        errors.append(f"outputs of cells {diff[:10]} differ between passes")
    rates = [r for r in first.rate if r is not None]
    pairs = [(r, z) for r, z in zip(first.rate, first.zf) if r is not None and z is not None]

    if args.trace:
        per_pass = [layer_metrics(t.spans) for t in tracers]
        metrics = {name: {"value": statistics.median(m[name][0] for m in per_pass),
                          "unit": per_pass[0][name][1]} for name in per_pass[0]}
        plain, with_spans = throughput(timed, n), throughput(traced, n)
        metrics.update({
            "optimizer.below_zf": {"value": sum(r < z for r, z in pairs), "unit": "count"},
            "optimizer.zf_ratio_mean": {
                "value": statistics.fmean(r / z for r, z in pairs) if pairs else 0.0,
                "unit": "ratio"},
            "optimizer.below_oracle": {"value": first.below_oracle, "unit": "count"},
            "harness.bytes_written": {"value": first.bytes_written, "unit": "B"},
            "trace.untraced_cells_per_s": {"value": plain, "unit": "1/s"},
            "trace.traced_cells_per_s": {"value": with_spans, "unit": "1/s"},
            "trace.overhead_pct": {"value": 100.0 * (plain - with_spans) / plain, "unit": "%"},
        })
        write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz", tracers)
    else:
        cell_s = [t for t in fastest(timed, n) if t is not None]
        metrics = {
            "cells_per_s": {"value": throughput(timed, n), "unit": "1/s"},
            "cell_ms_p50": {"value": 1e3 * quantile(cell_s, 0.5), "unit": "ms"},
            "cell_ms_p90": {"value": 1e3 * quantile(cell_s, 0.9), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "mean_sum_rate_bits": {"value": statistics.fmean(rates) if rates else 0.0,
                                   "unit": "bit"},
        }
    return {
        "correct": not errors,
        "attempted": n * len(everything),
        "failed": sum(p.failed for p in everything),
        "metrics": metrics,
        "errors": errors[:20],
        "details": {"cells": n, "timed_passes": len(timed), "traced_passes": len(traced),
                    "measured_s": measured_s,
                    "pass_s": [sum(t for t in p.times if t is not None) + p.overhead
                               for p in everything]},
        "environment": environment(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for scratch files and spans")
    parser.add_argument("--probe", action="store_true",
                        help="time import plus one warm-up call, then exit")
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.probe:
        WORKLOADS[args.workload].warmup(out_dir)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    print(json.dumps(measure(args, out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
