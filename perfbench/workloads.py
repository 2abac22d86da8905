"""The workloads: their inputs, one pass over their cells, and checks.

A cell is one channel realization at one SNR (or Pt) taken through all
of the workload's calls. Inputs depend only on the seed; every pass runs
the same cells in the same order, so passes can be compared exactly.
"""

from __future__ import annotations

import csv
import math
import shutil
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import milac
import milac.baselines
import milac.harness
import milac.optimizer
from milac.errors import MilacError

import checks
from spans import patched

FAILURES = (MilacError, np.linalg.LinAlgError)
# harness calls whose results the validating snr_sweep pass checks
CAPTURED = ("solve_psla", "solve_full_dim", "map_digital_to_milac", "zero_forcing")


def snr_power(snr_db: float) -> float:
    """Pt for a transmit SNR at unit noise."""
    return 10.0 ** (snr_db / 10.0)


class PassResult:
    """Timings and outputs of one pass over a workload's cells.

    times[i] is cell i's wall time (None if it failed); signature[i] holds
    the program's own rates for cell i, compared exactly between passes.
    On a validating pass, rate[i] is the benchmark's recomputed sum-rate of
    the cell's answer and zf[i] the rate of its own zero-forcing precoder.
    """

    def __init__(self, n):
        self.times = [None] * n
        self.signature = [None] * n
        self.rate = [None] * n
        self.zf = [None] * n
        self.failed = 0
        self.errors = []
        self.overhead = 0.0
        self.bytes_written = 0
        self.below_oracle = 0

    def fail(self, i, exc):
        self.failed += 1
        self.signature[i] = f"failed: {type(exc).__name__}"


class LibraryWorkload:
    """A workload that calls library functions cell by cell and times each call."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.cells = self.make_cells(np.random.default_rng(seed))

    def close(self):
        pass

    def run_pass(self, tracer=None, validate=False) -> PassResult:
        res = PassResult(len(self.cells))
        clock = time.perf_counter
        with tracer.active() if tracer else nullcontext():
            for i, cell in enumerate(self.cells):
                if tracer:
                    tracer.cell = i
                t0 = clock()
                try:
                    out = self.call(cell)
                except FAILURES as exc:
                    res.fail(i, exc)
                    continue
                res.times[i] = clock() - t0
                res.signature[i] = self.signature(out)
                if validate:
                    self.validate(res, i, cell, out)
        return res

    def validate(self, res, i, cell, out):
        try:
            res.rate[i] = self.check(cell, out)
            res.zf[i] = checks.sum_rate_bits(cell["H"], checks.zf_precoder(cell["H"], cell["Pt"]))
        except checks.CheckFailed as exc:
            res.errors.append(f"cell {i} ({cell['label']}): {exc}")


def _channel_cell(H, Pt, label, **extra):
    return dict(H=H, ch=milac.ChannelSet(H=H), Pt=Pt,
                cfg=milac.optimizer.SolverConfig(Pt=Pt), label=label, **extra)


def _draw(rng, L, K):
    return (rng.standard_normal((L, K)) + 1j * rng.standard_normal((L, K))) * math.sqrt(0.5)


def _check_two_layer(cell, report, sol):
    """Checks shared by every workload that realizes the solve on the MiLAC."""
    H, Pt = cell["H"], cell["Pt"]
    checks.check_nondecreasing("solver", report.objective_history)
    checks.check_power("Pd", report.Pd, Pt)
    checks.check_beamformer(sol.G, report.Pd)
    checks.check_lossless_reciprocal("Theta", sol.Theta.S)
    checks.check_lossless_reciprocal("Phi", sol.Phi.S)
    checks.check_power("G", sol.G, Pt)
    return checks.check_rate("two_layer", H, sol.G, Pt, report.sum_rate)


class LargeArray(LibraryWorkload):
    """solve_two_layer at L=512, K=8 over four SNRs; mapping dominates."""

    L, K = 512, 8
    SNRS = (0.0, 10.0, 20.0, 30.0)
    CHANNELS = 12

    def make_cells(self, rng):
        cells = []
        for c in range(self.CHANNELS):
            H = _draw(rng, self.L, self.K)
            for snr in self.SNRS:
                cells.append(_channel_cell(H, snr_power(snr), f"channel {c}, {snr:g} dB"))
        return cells

    @classmethod
    def warmup(cls, scratch):
        H = checks.rayleigh(cls.L, cls.K, 0)
        milac.optimizer.solve_two_layer(milac.ChannelSet(H=H),
                                        milac.optimizer.SolverConfig(Pt=snr_power(cls.SNRS[0])))

    def call(self, cell):
        return milac.optimizer.solve_two_layer(cell["ch"], cell["cfg"])

    def signature(self, out):
        report, _ = out
        return (report.sum_rate, report.iterations)

    def check(self, cell, out):
        return _check_two_layer(cell, *out)


class FullLoad(LibraryWorkload):
    """solve_two_layer plus zero forcing at K=16, L in {16, 32}, 30 and 40 dB."""

    K = 16
    LS = (16, 32)
    SNRS = (30.0, 40.0)
    CHANNELS = 20  # per (L, SNR) pair

    def make_cells(self, rng):
        return [_channel_cell(_draw(rng, L, self.K), snr_power(snr), f"L={L} {snr:g} dB #{c}")
                for L in self.LS for snr in self.SNRS for c in range(self.CHANNELS)]

    @classmethod
    def warmup(cls, scratch):
        ch = milac.ChannelSet(H=checks.rayleigh(cls.LS[-1], cls.K, 0))
        Pt = snr_power(cls.SNRS[0])
        milac.optimizer.solve_two_layer(ch, milac.optimizer.SolverConfig(Pt=Pt))
        milac.baselines.zero_forcing(ch, Pt)

    def call(self, cell):
        solved = milac.optimizer.solve_two_layer(cell["ch"], cell["cfg"])
        return solved, milac.baselines.zero_forcing(cell["ch"], cell["Pt"])

    def signature(self, out):
        (report, _), P = out
        return (report.sum_rate, report.iterations, P.tobytes())

    def check(self, cell, out):
        (report, sol), P = out
        checks.check_power("zero forcing", P, cell["Pt"])
        checks.check_zf_rate(cell["H"], cell["Pt"], checks.sum_rate_bits(cell["H"], P))
        return _check_two_layer(cell, report, sol)


class Oracle2x2(LibraryWorkload):
    """Multi-start solve_psla against brute_force_oracle on 2x2 channels."""

    L = K = 2
    POWERS = (1.0, 10.0)
    CHANNELS = 20       # per power
    STARTS = 4          # seeded random starts besides the matched filter
    SAMPLES = 128       # oracle samples, far below the test suite's 100k

    def make_cells(self, rng):
        cells = []
        for Pt in self.POWERS:
            for c in range(self.CHANNELS):
                i = len(cells)
                cells.append(_channel_cell(
                    _draw(rng, self.L, self.K), Pt, f"Pt {Pt:g} #{c}",
                    oracle=milac.baselines.OracleConfig(samples=self.SAMPLES,
                                                        seed=self.seed * 1000 + i),
                    start_seeds=[[self.seed, i, j] for j in range(self.STARTS)]))
        return cells

    @classmethod
    def warmup(cls, scratch):
        H = checks.rayleigh(cls.L, cls.K, 0)
        cls.solve(milac.ChannelSet(H=H), cls.POWERS[0], [[0, 0, 0]],
                  milac.baselines.OracleConfig(samples=cls.SAMPLES))

    @staticmethod
    def solve(ch, Pt, start_seeds, oracle_cfg):
        red = milac.reduce_channel(ch)
        cfg = milac.optimizer.SolverConfig(Pt=Pt)
        shape = (ch.K, ch.K)
        inits = [None] + [milac.optimizer.random_init(shape, Pt, s) for s in start_seeds]
        reports = [milac.optimizer.solve_psla(red, cfg, init=x) for x in inits]
        return reports, milac.baselines.brute_force_oracle(ch, Pt, oracle_cfg)

    def call(self, cell):
        return self.solve(cell["ch"], cell["Pt"], cell["start_seeds"], cell["oracle"])

    def signature(self, out):
        reports, oracle = out
        return tuple(r.sum_rate for r in reports) + (oracle,)

    def check(self, cell, out):
        reports, oracle = out
        H, Pt = cell["H"], cell["Pt"]
        rates = []
        for j, r in enumerate(reports):
            checks.check_nondecreasing(f"start {j}", r.objective_history)
            checks.check_power(f"start {j}", r.Pd, Pt)
            rates.append(checks.check_rate(f"start {j}", H, r.Pd, Pt, r.sum_rate))
        checks.check_oracle(oracle, checks.interference_free_bound(H, Pt))
        return max(rates)

    def validate(self, res, i, cell, out):
        # reported as a count, not a failure: the shortfall depends on the channel
        super().validate(res, i, cell, out)
        if res.rate[i] is not None and not checks.reaches_oracle(res.rate[i], out[1]):
            res.below_oracle += 1


class SnrSweep:
    """The CLI's snr-sweep through run_experiment: L=32, K=4, 0..30 dB, 4 architectures.

    Each pass runs one run_experiment over TRIALS channels per SNR point
    and writes its files to a scratch directory. Cell times come from a
    clock around milac.harness.run_point, which run_experiment calls once
    per (L, SNR, trial); the rest of the pass is the harness's own work.
    """

    L, K = 32, 4
    SNRS = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    TRIALS = 60
    ARCHS = ("digital_full", "digital_reduced", "two_layer", "zero_forcing")

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.base_seed = 1000 * seed
        self.out = Path(tempfile.mkdtemp(prefix="sweep-", dir=scratch))
        self.spec = milac.harness.ExperimentSpec(
            mode="snr_sweep", L_values=(self.L,), K=self.K, snr_db_values=self.SNRS,
            trials=self.TRIALS, base_seed=self.base_seed, output_dir=str(self.out))
        self.cells = [(self.L, snr, t) for snr in self.SNRS for t in range(self.TRIALS)]
        self.index = {key: i for i, key in enumerate(self.cells)}

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)

    @classmethod
    def warmup(cls, scratch):
        out = tempfile.mkdtemp(prefix="warmup-", dir=scratch)
        try:
            milac.harness.run_experiment(milac.harness.ExperimentSpec(
                mode="snr_sweep", L_values=(cls.L,), K=cls.K, snr_db_values=cls.SNRS[:1],
                trials=1, base_seed=0, output_dir=out))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def run_pass(self, tracer=None, validate=False) -> PassResult:
        res = PassResult(len(self.cells))
        clock = time.perf_counter
        run_point = milac.harness.run_point
        index = self.index
        current = [None]

        def clocked(spec, L, snr_db, trial):
            i = current[0] = index[(L, snr_db, trial)]
            if tracer:
                tracer.cell = i
            t0 = clock()
            out = run_point(spec, L, snr_db, trial)
            res.times[i] = clock() - t0
            return out

        captured = {}
        with patched([(milac.harness, "run_point", clocked)]), \
                tracer.active() if tracer else nullcontext(), \
                self.capture(captured, current) if validate else nullcontext():
            t0 = clock()
            milac.harness.run_experiment(self.spec)
            pass_time = clock() - t0
        res.overhead = pass_time - sum(t for t in res.times if t is not None)
        res.bytes_written = sum(f.stat().st_size for f in self.out.iterdir())
        rates = self.read_results()
        for i, key in enumerate(self.cells):
            row = rates.get(key, {})
            res.signature[i] = tuple(row.get(a, "missing") for a in self.ARCHS)
            if any(not math.isfinite(float(row.get(a, "nan"))) for a in self.ARCHS):
                res.failed += 1
                res.times[i] = None
            elif validate:
                try:
                    self.check_cell(res, i, key, {a: float(v) for a, v in row.items()},
                                    captured.get(i, {}))
                except checks.CheckFailed as exc:
                    res.errors.append(f"cell {key}: {exc}")
        return res

    @staticmethod
    def capture(captured, current):
        """Record what the harness's solver, mapping and ZF calls return, per cell."""
        def hook(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                captured.setdefault(current[0], {})[name] = out
                return out
            return wrapper

        return patched([(milac.harness, name, hook(name, getattr(milac.harness, name)))
                        for name in CAPTURED])

    def read_results(self):
        rates = {}
        with open(self.out / "results.csv") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        for row in csv.DictReader(lines):
            key = (int(row["L"]), float(row["snr_db"]), int(row["trial"]))
            rates.setdefault(key, {})[row["architecture"]] = row["sum_rate"]
        return rates

    def check_cell(self, res, i, key, rates, got):
        L, snr, trial = key
        H = checks.rayleigh(L, self.K, self.base_seed + trial)
        Pt = snr_power(snr)
        checks.check_sweep_cell(rates)
        missing = set(CAPTURED) - set(got)
        if missing:
            raise checks.CheckFailed(f"calls not seen: {sorted(missing)}")
        reduced, full, sol, P = (got["solve_psla"], got["solve_full_dim"],
                                 got["map_digital_to_milac"], got["zero_forcing"])
        for name, rep in (("digital_reduced", reduced), ("digital_full", full)):
            checks.check_nondecreasing(name, rep.objective_history)
            checks.check_power(name, rep.Pd, Pt)
            checks.check_rate(name, H, rep.Pd, Pt, rates[name])
        checks.check_beamformer(sol.G, reduced.Pd)
        checks.check_lossless_reciprocal("Theta", sol.Theta.S)
        checks.check_lossless_reciprocal("Phi", sol.Phi.S)
        checks.check_power("G", sol.G, Pt)
        res.rate[i] = checks.check_rate("two_layer", H, sol.G, Pt, rates["two_layer"])
        checks.check_power("zero forcing", P, Pt)
        checks.check_rate("zero_forcing", H, P, Pt, rates["zero_forcing"])
        res.zf[i] = checks.check_zf_rate(H, Pt, rates["zero_forcing"])


WORKLOADS = {
    "snr_sweep": SnrSweep,
    "large_array": LargeArray,
    "oracle_2x2": Oracle2x2,
    "full_load": FullLoad,
}
