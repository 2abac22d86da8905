"""Benchmark of milac: one workload per call, run in its own process.

    python3 perfbench/run.py --workload snr_sweep --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout and imports milac from its src/
directory. Every child process gets BLAS and OpenMP held to one thread and
MILAC_WORKERS cleared. With --trace 0 it first times several fresh
interpreters that import milac and make one warm-up call (setup_s), then
runs the workload untraced and prints the end-to-end metrics. With
--trace 1 it alternates traced and untraced passes and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the environment. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("snr_sweep", "large_array", "oracle_2x2", "full_load")
SETUP_LAUNCHES = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 140


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("MILAC_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch(args, env, timeout):
    """Run the worker with extra arguments; return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="milac benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "milac" / "__init__.py").is_file():
        sys.stderr.write(f"error: no milac sources under {ROOT / 'src'}; "
                         "run from a checkout of the repository\n")
        return 2
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    env = child_env()
    common = ["--workload", args.workload, "--out", str(out)]
    try:
        setup = []

        cpus = sorted(os.sched_getaffinity(0))

        def probe(times):
            # launches alternate between the cores, as the worker's passes do
            for _ in range(times):
                os.sched_setaffinity(0, {cpus[len(setup) % len(cpus)]})
                try:
                    setup.append(launch(common + ["--probe"], env, PROBE_TIMEOUT_S)["setup_s"])
                finally:
                    os.sched_setaffinity(0, cpus)

        if not args.trace:
            # the first launch compiles bytecode and fills the file cache
            probe(1)
            setup.clear()
            probe(SETUP_LAUNCHES // 2 + 1)
        result = launch(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], env, WORKER_TIMEOUT_S)
        if not args.trace:
            # the rest after the workload, so one slow spell of the machine
            # does not set the median
            probe(SETUP_LAUNCHES - len(setup))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        result["details"]["setup_launches_s"] = setup
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(result, indent=1) + "\n")
    for err in result["errors"]:
        sys.stderr.write(f"check failed: {err}\n")
    print(json.dumps({"environment": result["environment"], "details": result["details"]}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
