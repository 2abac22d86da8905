"""Monte-Carlo experiment runner.

Sweeps (antenna count, SNR) grids over seeded channel realizations, runs
the selected transmitter architectures on identical channels, and writes
plot-ready CSV files plus one JSON record per solver run. Channel seeds
depend only on the trial index, so every architecture and sweep point
sees the same fading for a given trial (paired comparison). The
two_layer architecture realizes the digital_reduced solution of the same
trial, so its wall time covers the mapping alone.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .baselines import solve_full_dim, zero_forcing
from .channel import generate_rayleigh, reduce_channel
from .errors import DimensionError, MilacError, check_count, check_positive
from .mapping import DigitalBeamformer, map_digital_to_milac
from .optimizer import SolverConfig, report_record, solve_psla, sum_rate

MODES = ("convergence", "snr_sweep", "antenna_sweep", "theorem_check")
WORKERS_ENV = "MILAC_WORKERS"
log = logging.getLogger(__name__)

RESULT_COLUMNS = ("mode", "L", "K", "snr_db", "trial", "architecture",
                  "sum_rate", "iterations", "wall_time")
RESULT_SCHEMA = "# milac sweep schema v1"
SUMMARY_COLUMNS = ("mode", "L", "K", "snr_db", "architecture", "trials",
                   "mean_sum_rate", "stderr_sum_rate", "mean_wall_time")
SUMMARY_SCHEMA = "# milac summary schema v1"
ITER_COLUMNS = ("mode", "L", "K", "snr_db", "trial", "architecture",
                "iteration", "objective")
ITER_SCHEMA = "# milac convergence schema v1"


def mode_architectures(mode: str):
    """Architectures run per trial for each experiment mode."""
    if mode == "convergence":
        return ("digital_reduced",)
    if mode == "theorem_check":
        return ("digital_reduced", "two_layer")
    return ARCHITECTURES


def snr_to_power(snr_db: float, sigma: float = 1.0) -> float:
    """Transmit power for a given transmit SNR, Pt = sigma^2 10^(SNR/10).

    Raises DimensionError unless Pt is finite and positive (a NaN SNR, or
    one beyond about +-3000 dB, where 10^(SNR/10) overflows or underflows).
    """
    try:
        Pt = float(sigma) ** 2 * 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        Pt = math.inf
    return check_positive(f"transmit power at SNR {snr_db} dB", Pt)


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: grid of antenna counts and SNR points times trials.

    The solver config acts as a template; its Pt is replaced per SNR
    point, so every point must give a finite positive Pt; a bad one is
    rejected here, before any output file exists. measure_time=False
    writes 0.0 wall times so repeated runs produce byte-identical output
    files.
    """

    mode: str
    L_values: tuple = (32,)
    K: int = 4
    snr_db_values: tuple = (10.0,)
    trials: int = 100
    base_seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    output_dir: str = "results"
    measure_time: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise DimensionError(f"mode must be one of {MODES}, got {self.mode!r}")
        K = check_count("K", self.K, 1)
        L_values = tuple(check_count(f"L for K={K}", L, K) for L in self.L_values)
        snr_values = tuple(float(s) for s in self.snr_db_values)
        if not L_values or not snr_values:
            raise DimensionError("sweep lists must be non-empty")
        for snr in snr_values:
            snr_to_power(snr)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "L_values", L_values)
        object.__setattr__(self, "snr_db_values", snr_values)
        object.__setattr__(self, "trials", check_count("trials", self.trials, 1))


@dataclass(frozen=True)
class SweepRow:
    mode: str
    L: int
    K: int
    snr_db: float
    trial: int
    architecture: str
    sum_rate: float
    iterations: int
    wall_time: float

    def as_csv(self) -> str:
        return ",".join([
            self.mode, str(self.L), str(self.K), repr(self.snr_db),
            str(self.trial), self.architecture, repr(self.sum_rate),
            str(self.iterations), repr(self.wall_time),
        ])


@dataclass(frozen=True)
class SweepResult:
    rows: tuple


@dataclass(frozen=True)
class SummaryRow:
    mode: str
    L: int
    K: int
    snr_db: float
    architecture: str
    trials: int
    mean_sum_rate: float
    stderr_sum_rate: float
    mean_wall_time: float

    def as_csv(self) -> str:
        return ",".join([
            self.mode, str(self.L), str(self.K), repr(self.snr_db),
            self.architecture, str(self.trials), repr(self.mean_sum_rate),
            repr(self.stderr_sum_rate), repr(self.mean_wall_time),
        ])


def _failed_row(spec, L, snr_db, trial, arch, elapsed, exc):
    log.warning("%s failed at L=%s snr=%s trial=%s: %s", arch, L, snr_db, trial, exc)
    return SweepRow(mode=spec.mode, L=L, K=spec.K, snr_db=snr_db, trial=trial,
                    architecture=arch, sum_rate=float("nan"), iterations=-1,
                    wall_time=elapsed), {
        "label": arch, "mode": spec.mode, "L": L, "K": spec.K,
        "snr_db": snr_db, "trial": trial, "error": f"{type(exc).__name__}: {exc}",
    }


def _digital_full(ch, cfg, done):
    rep = solve_full_dim(ch, cfg)
    return rep.Pd, rep.iterations, rep


def _digital_reduced(ch, cfg, done):
    rep = solve_psla(reduce_channel(ch), cfg)
    return rep.Pd, rep.iterations, rep


def _two_layer(ch, cfg, done):
    reduced = done["digital_reduced"]
    if isinstance(reduced, Exception):
        raise reduced
    sol = map_digital_to_milac(DigitalBeamformer(Pd=reduced.Pd, Pt=cfg.Pt))
    return sol.G, reduced.iterations, None


def _zero_forcing(ch, cfg, done):
    return zero_forcing(ch, cfg.Pt), 0, None


# architecture -> fn(ch, cfg, done) returning (precoder, iterations, solve
# report or None); done maps each architecture already run on the cell to
# its report or to the exception it raised
RUNNERS = {
    "digital_full": _digital_full,
    "digital_reduced": _digital_reduced,
    "two_layer": _two_layer,
    "zero_forcing": _zero_forcing,
}
ARCHITECTURES = tuple(RUNNERS)


def run_point(spec: ExperimentSpec, L: int, snr_db: float, trial: int):
    """Run every architecture of the mode on one (L, snr, trial) cell.

    Returns (rows, solver_records, iteration_rows). Failures are recorded
    as rows with sum_rate=nan and iterations=-1 instead of aborting.
    two_layer maps the digital_reduced solution of the same cell: its row
    repeats that solve's iteration count, its wall time covers the mapping
    alone, and it fails with digital_reduced's error if that solve failed.
    """
    seed = spec.base_seed + trial
    ch = generate_rayleigh(L, spec.K, seed)
    cfg = replace(spec.solver, Pt=snr_to_power(snr_db))
    rows, records, iter_rows = [], [], []
    done = {}

    def clock(t0):
        return time.perf_counter() - t0 if spec.measure_time else 0.0

    for arch in mode_architectures(spec.mode):
        t0 = time.perf_counter()
        rec = None
        try:
            P, iterations, rep = RUNNERS[arch](ch, cfg, done)
        except (MilacError, np.linalg.LinAlgError) as exc:
            done[arch] = exc
            row, rec = _failed_row(spec, L, snr_db, trial, arch, clock(t0), exc)
            rows.append(row)
        else:
            wall = clock(t0)
            done[arch] = rep
            rows.append(SweepRow(mode=spec.mode, L=L, K=spec.K, snr_db=snr_db,
                                 trial=trial, architecture=arch,
                                 sum_rate=sum_rate(ch.H, P, ch.sigma),
                                 iterations=iterations, wall_time=wall))
            if rep is not None:
                rec = report_record(rep, cfg, seed=seed, label=arch)
                if spec.mode == "convergence":
                    iter_rows += [(spec.mode, L, spec.K, snr_db, trial, arch, i, float(obj))
                                  for i, obj in enumerate(rep.objective_history)]
        if rec is not None:
            rec.update(mode=spec.mode, L=L, K=spec.K, snr_db=snr_db, trial=trial)
            if not spec.measure_time:
                rec["wall_time"] = 0.0
            records.append(rec)
    return rows, records, iter_rows


def _run_task(spec, task):
    L, snr_db, trial = task
    return run_point(spec, L, snr_db, trial)


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise DimensionError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    return check_count(WORKERS_ENV, n, 1)


def run_experiment(spec: ExperimentSpec) -> SweepResult:
    """Execute a sweep and write its output files.

    Writes results.csv (one row per architecture per trial per sweep
    point, appended as trials finish), summary.csv (per-point aggregates),
    solves.jsonl (one record per solver run), and for convergence mode
    iterations.csv with the per-iteration objective. Trials run in a
    process pool when the MILAC_WORKERS environment variable asks for more
    than one worker, with no more workers than tasks (a one-task sweep
    runs serially); output order is independent of scheduling.
    """
    points = [(L, snr) for L in spec.L_values for snr in spec.snr_db_values]
    tasks = [(L, snr, t) for (L, snr) in points for t in range(spec.trials)]
    workers = min(worker_count(), len(tasks))
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_rows = []
    with ExitStack() as stack:
        fres = stack.enter_context(open(out / "results.csv", "w"))
        fsol = stack.enter_context(open(out / "solves.jsonl", "w"))
        fres.write(RESULT_SCHEMA + "\n" + ",".join(RESULT_COLUMNS) + "\n")
        iters_fh = None
        if spec.mode == "convergence":
            iters_fh = stack.enter_context(open(out / "iterations.csv", "w"))
            iters_fh.write(ITER_SCHEMA + "\n" + ",".join(ITER_COLUMNS) + "\n")
        if workers == 1:
            outputs = map(partial(_run_task, spec), tasks)
            _consume(outputs, fres, fsol, iters_fh, all_rows)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outputs = pool.map(partial(_run_task, spec), tasks, chunksize=4)
                _consume(outputs, fres, fsol, iters_fh, all_rows)
    result = SweepResult(rows=tuple(all_rows))
    write_summary(out / "summary.csv", summarize(result))
    return result


def _consume(outputs, fres, fsol, iters_fh, all_rows):
    for rows, records, iter_rows in outputs:
        for row in rows:
            fres.write(row.as_csv() + "\n")
            all_rows.append(row)
        for rec in records:
            fsol.write(json.dumps(rec, sort_keys=True) + "\n")
        if iters_fh is not None:
            for tup in iter_rows:
                mode, L, K, snr_db, trial, arch, i, obj = tup
                iters_fh.write(
                    f"{mode},{L},{K},{snr_db!r},{trial},{arch},{i},{obj!r}\n"
                )
        fres.flush()


def summarize(result: SweepResult):
    """Aggregate rows into per (sweep point, architecture) statistics.

    Mean and standard error of sum_rate plus mean wall time, computed over
    the successful trials of each group; groups keep first-seen order.
    """
    groups = {}
    order = []
    for row in result.rows:
        key = (row.mode, row.L, row.K, row.snr_db, row.architecture)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    out = []
    for key in order:
        rows = [r for r in groups[key] if np.isfinite(r.sum_rate)]
        n = len(rows)
        rates = np.array([r.sum_rate for r in rows]) if n else np.array([np.nan])
        walls = np.array([r.wall_time for r in rows]) if n else np.array([np.nan])
        stderr = float(np.std(rates, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        out.append(SummaryRow(
            mode=key[0], L=key[1], K=key[2], snr_db=key[3], architecture=key[4],
            trials=n, mean_sum_rate=float(np.mean(rates)),
            stderr_sum_rate=stderr, mean_wall_time=float(np.mean(walls)),
        ))
    return out


def write_summary(path, summary_rows) -> None:
    with open(path, "w") as fh:
        fh.write(SUMMARY_SCHEMA + "\n" + ",".join(SUMMARY_COLUMNS) + "\n")
        for row in summary_rows:
            fh.write(row.as_csv() + "\n")
