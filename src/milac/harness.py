"""Monte-Carlo experiment runner.

Sweeps (antenna count, SNR) grids over seeded channel realizations, runs
the selected transmitter architectures on identical channels, and writes
plot-ready CSV files plus one JSON record per solver run. Channel seeds
depend only on the trial index, so every architecture and sweep point
sees the same fading for a given trial (paired comparison). The
two_layer architecture realizes the digital_reduced solution of the same
trial, so its wall time covers the mapping alone.

Within one run_experiment call a private memo keeps each trial's channel,
keyed by (L, K, seed), so a trial draws its channel once and reuses it at
every SNR point, and the channel's reduction and zero-forcing directions
are computed once. The memo is emptied when the sweep starts and when it
ends, whether it returns or raises, and holds one antenna count's trials
at a time. Outside run_experiment, run_point draws afresh.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from .baselines import solve_full_dim, zero_forcing
from .channel import generate_rayleigh, reduce_channel
from .errors import (BOOLS, DimensionError, MilacError, check_count, check_positive,
                     check_type)
from .mapping import DigitalBeamformer, map_digital_to_milac
from .optimizer import SolverConfig, solve_psla, sum_rate

log = logging.getLogger(__name__)

# json.dumps with keyword arguments builds an encoder per call
_to_json = json.JSONEncoder(sort_keys=True).encode

RESULT_SCHEMA = "# milac sweep schema v1"
SUMMARY_SCHEMA = "# milac summary schema v1"
ITER_SCHEMA = "# milac convergence schema v1"


def snr_to_power(snr_db: float) -> float:
    """Transmit power for a given transmit SNR at unit noise,
    Pt = 10^(SNR/10).

    Raises DimensionError unless snr_db is a real number, not a bool, and
    Pt is finite and positive (a NaN SNR, or one beyond about +-3000 dB,
    where 10^(SNR/10) overflows or underflows).
    """
    if not isinstance(snr_db, numbers.Real) or isinstance(snr_db, BOOLS):
        raise DimensionError(f"SNR must be a real number of dB, got {snr_db!r}")
    try:
        Pt = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        Pt = math.inf
    return check_positive(f"transmit power at SNR {snr_db} dB", Pt)


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: grid of antenna counts and SNR points times trials.

    The only check of a sweep's settings: counts and the seed must be
    integers (a fractional one or a bool is refused, not truncated). A
    bare L_values or snr_db_values, a number or a string, is a one-point
    sweep. No antenna count or SNR point may repeat (10 and 10.0 are one
    point): summarize would count a repeat as more trials. The solver
    config must be a SolverConfig; it acts as a template whose Pt is
    replaced per SNR point, so every point must be a real number that
    gives a finite positive Pt. The mode must be a string naming a mode,
    and output_dir a str or os.PathLike. A bad setting is rejected here,
    before any output file exists.
    measure_time must be a bool; False writes 0.0 wall times so repeated
    runs produce byte-identical output files.
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
        if not isinstance(self.mode, str) or self.mode not in MODES:
            raise DimensionError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        K = check_count("K", self.K, 1)
        L_values = tuple(check_count(f"L for K={K}", L, K) for L in _points(self.L_values))
        snr_values = _points(self.snr_db_values)
        if not L_values or not snr_values:
            raise DimensionError("sweep lists must be non-empty")
        for snr in snr_values:
            snr_to_power(snr)
        snr_values = tuple(map(float, snr_values))
        for name, values in (("L", L_values), ("SNR point", snr_values)):
            if len(set(values)) < len(values):
                repeated = next(v for i, v in enumerate(values) if v in values[:i])
                raise DimensionError(f"sweep repeats {name} {repeated}")
        check_type("solver", self.solver, SolverConfig)
        if not isinstance(self.measure_time, bool):
            raise DimensionError(f"measure_time must be a bool, got {self.measure_time!r}")
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise DimensionError(
                f"output_dir must be a str or os.PathLike, got {self.output_dir!r}")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "L_values", L_values)
        object.__setattr__(self, "snr_db_values", snr_values)
        object.__setattr__(self, "trials", check_count("trials", self.trials, 1))
        object.__setattr__(self, "base_seed", check_count("seed", self.base_seed, 0))


def _points(values) -> tuple:
    """A sweep list as a tuple, a bare value as a one-point sweep."""
    if isinstance(values, (str, bytes)):
        return (values,)
    try:
        points = iter(values)
    except TypeError:  # not iterable
        return (values,)
    return tuple(points)


# The row dataclasses below define their CSV files: the header is the field
# names, each line the field values in that order.
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


@dataclass(frozen=True)
class IterationRow:
    mode: str
    L: int
    K: int
    snr_db: float
    trial: int
    architecture: str
    iteration: int
    objective: float


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


def _csv(values) -> str:
    """One CSV line; str of a float is its shortest round-trip repr."""
    return ",".join(map(str, values)) + "\n"


def _header(schema: str, row_type) -> str:
    return schema + "\n" + _csv(f.name for f in fields(row_type))


def _lines(rows) -> str:
    # vars(row) holds a row's fields in declaration order, as the generated
    # __init__ sets them; dataclasses.astuple would deep-copy, at 5x the cost
    return "".join(_csv(vars(row).values()) for row in rows)


# (L, K, seed) -> ChannelSet for the running sweep's trials at one L; None
# outside run_experiment (see the module docstring)
_trials = None


def _trial(L: int, K: int, seed: int):
    if _trials is None:
        return generate_rayleigh(L, K, seed)
    key = (L, K, seed)
    if key not in _trials:
        if _trials and next(iter(_trials))[0] != L:
            _trials.clear()
        _trials[key] = generate_rayleigh(L, K, seed)
    return _trials[key]


def _use_memo(memo):
    global _trials
    _trials = memo


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


# architecture -> fn(ch, cfg, done) returning (precoder, iterations,
# solve report or None); ch is the cell's ChannelSet, and done maps each
# architecture already run on the cell to its report or to the exception
# it raised
RUNNERS = {
    "digital_full": _digital_full,
    "digital_reduced": _digital_reduced,
    "two_layer": _two_layer,
    "zero_forcing": _zero_forcing,
}
ARCHITECTURES = tuple(RUNNERS)

# experiment mode -> architectures run on each cell, in run order
MODES = {
    "convergence": ("digital_reduced",),
    "snr_sweep": ARCHITECTURES,
    "antenna_sweep": ARCHITECTURES,
    "theorem_check": ("digital_reduced", "two_layer"),
}


def run_point(spec: ExperimentSpec, L: int, snr_db: float, trial: int):
    """Run every architecture of the mode on one (L, snr, trial) cell.

    Returns (rows, solver_records, iteration_rows). A solver record, one
    line of solves.jsonl, holds the cell, label, seed, config echo,
    iterations, stop_reason, sum_rate, per-user rates, objective_history
    and the solve's own wall_time. Failures are recorded instead of
    aborting: as rows with sum_rate=nan and iterations=-1, and as solver
    records with the cell, label, seed, wall_time and error.
    two_layer maps the digital_reduced solution of the same cell: its row
    repeats that solve's iteration count, its wall time covers the mapping
    alone, and it fails with digital_reduced's error if that solve failed.
    Within a sweep the trial's channel comes from the memo, so the wall
    times of digital_reduced and zero_forcing include the reduction and the
    beam directions only at the trial's first SNR point.
    """
    seed = spec.base_seed + trial
    ch = _trial(L, spec.K, seed)
    cfg = replace(spec.solver, Pt=snr_to_power(snr_db))
    cell = dict(mode=spec.mode, L=L, K=spec.K, snr_db=snr_db, trial=trial)
    rows, records, iter_rows = [], [], []
    done = {}

    def clock(t0):
        return time.perf_counter() - t0 if spec.measure_time else 0.0

    for arch in MODES[spec.mode]:
        t0 = time.perf_counter()
        try:
            P, iterations, rep = RUNNERS[arch](ch, cfg, done)
        except (MilacError, np.linalg.LinAlgError) as exc:
            wall = clock(t0)
            rows.append(SweepRow(**cell, architecture=arch, sum_rate=math.nan,
                                 iterations=-1, wall_time=wall))
            log.warning("%s failed at L=%s snr=%s trial=%s: %s",
                        arch, L, snr_db, trial, exc)
            done[arch] = exc
            rec = {"label": arch, "seed": seed, "wall_time": wall,
                   "error": f"{type(exc).__name__}: {exc}"}
        else:
            wall = clock(t0)
            done[arch] = rep
            rows.append(SweepRow(**cell, architecture=arch,
                                 sum_rate=sum_rate(ch.H, P, ch.sigma),
                                 iterations=iterations, wall_time=wall))
            if rep is None:
                continue
            rec = {"label": arch, "seed": seed, "config": dict(vars(cfg)),
                   "iterations": rep.iterations, "stop_reason": rep.stop_reason,
                   "sum_rate": rep.sum_rate, "rates": rep.rates.tolist(),
                   "objective_history": rep.objective_history.tolist(),
                   "wall_time": rep.wall_time}
            if spec.mode == "convergence":
                iter_rows += [IterationRow(**cell, architecture=arch, iteration=i,
                                           objective=float(obj))
                              for i, obj in enumerate(rep.objective_history)]
        rec.update(cell)
        if not spec.measure_time:
            rec["wall_time"] = 0.0
        records.append(rec)
    return rows, records, iter_rows


def run_experiment(spec: ExperimentSpec) -> tuple:
    """Execute a sweep, write its output files and return its rows.

    Writes results.csv (one row per architecture per trial per sweep
    point, appended as trials finish), summary.csv (per-point aggregates),
    solves.jsonl (one record per solver run), and for convergence mode
    iterations.csv with the per-iteration objective. Cells run one after
    another in this process, antenna count, then SNR point, then trial.
    Returns the tuple of SweepRow written to results.csv, in file order.

    Each trial's channel is drawn once per antenna count and reused at
    every SNR point: the trial memo is opened empty on entry and dropped on
    exit, returned or raised, so every call draws afresh.
    """
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_rows = []
    _use_memo({})
    with ExitStack() as stack:
        stack.callback(_use_memo, None)
        fres = stack.enter_context(open(out / "results.csv", "w"))
        fsol = stack.enter_context(open(out / "solves.jsonl", "w"))
        fres.write(_header(RESULT_SCHEMA, SweepRow))
        if spec.mode == "convergence":
            fiter = stack.enter_context(open(out / "iterations.csv", "w"))
            fiter.write(_header(ITER_SCHEMA, IterationRow))
        for L, snr_db, trial in product(spec.L_values, spec.snr_db_values,
                                        range(spec.trials)):
            rows, records, iter_rows = run_point(spec, L, snr_db, trial)
            all_rows += rows
            fres.write(_lines(rows))
            fsol.writelines(_to_json(rec) + "\n" for rec in records)
            if iter_rows:  # convergence mode only
                fiter.write(_lines(iter_rows))
            fres.flush()
    rows = tuple(all_rows)
    with open(out / "summary.csv", "w") as fh:
        fh.write(_header(SUMMARY_SCHEMA, SummaryRow) + _lines(summarize(rows)))
    return rows


def summarize(rows):
    """Aggregate SweepRow rows into per (sweep point, architecture) statistics.

    Mean and standard error of sum_rate plus mean wall time, computed over
    the successful trials of each group; groups keep first-seen order.
    """
    groups = {}
    for row in rows:
        key = (row.mode, row.L, row.K, row.snr_db, row.architecture)
        groups.setdefault(key, []).append(row)
    out = []
    for key, group in groups.items():
        ok = [r for r in group if np.isfinite(r.sum_rate)]
        n = len(ok)
        rates = np.array([r.sum_rate for r in ok]) if n else np.array([np.nan])
        walls = np.array([r.wall_time for r in ok]) if n else np.array([np.nan])
        stderr = float(np.std(rates, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        # key holds the first five fields, mode through architecture
        out.append(SummaryRow(*key, trials=n, mean_sum_rate=float(np.mean(rates)),
                              stderr_sum_rate=stderr, mean_wall_time=float(np.mean(walls))))
    return out
