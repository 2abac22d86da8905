"""Monte-Carlo sweep harness and its CLI front end."""

import json
import logging
import os
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from milac import (
    DimensionError,
    ExperimentSpec,
    RankDeficientError,
    SolverConfig,
    SweepRow,
    generate_rayleigh,
    reduce_channel,
    run_experiment,
    snr_to_power,
    solve_psla,
    summarize,
)
from milac.cli import main
from milac.harness import (
    ARCHITECTURES,
    ITER_SCHEMA,
    MODES,
    RESULT_SCHEMA,
    RUNNERS,
    SUMMARY_SCHEMA,
    IterationRow,
    SummaryRow,
    run_point,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def small_spec(tmp_path, mode="snr_sweep", **kw):
    base = dict(mode=mode, L_values=(8,), K=2, snr_db_values=(10.0,),
                trials=3, base_seed=0, solver=SolverConfig(),
                output_dir=str(tmp_path / "out"), measure_time=False)
    base.update(kw)
    return ExperimentSpec(**base)


def rows_by_arch(rows, arch):
    return [r for r in rows if r.architecture == arch]


def test_snr_to_power():
    assert snr_to_power(0.0) == pytest.approx(1.0)
    assert snr_to_power(10.0) == pytest.approx(10.0)
    assert snr_to_power(20.0) == pytest.approx(100.0)
    # 10^(snr/10) overflows above about 3083 dB and underflows to 0 below
    # about -3240 dB
    for snr in (4000.0, -4000.0, np.nan):
        with pytest.raises(DimensionError, match="finite and positive"):
            snr_to_power(snr)
    assert snr_to_power(np.float32(10.0)) == pytest.approx(10.0)
    assert snr_to_power(np.int64(20)) == pytest.approx(100.0)
    for bad in (None, "10", [1.0], 1j, True, False, np.True_):
        with pytest.raises(DimensionError, match="SNR must be a real number"):
            snr_to_power(bad)


def test_mode_architectures():
    assert MODES == {
        "convergence": ("digital_reduced",),
        "snr_sweep": ARCHITECTURES,
        "antenna_sweep": ARCHITECTURES,
        "theorem_check": ("digital_reduced", "two_layer"),
    }


def test_spec_validation():
    with pytest.raises(DimensionError):
        ExperimentSpec(mode="warmup")
    with pytest.raises(DimensionError):
        ExperimentSpec(mode="snr_sweep", L_values=())
    with pytest.raises(DimensionError):
        ExperimentSpec(mode="snr_sweep", trials=0)
    with pytest.raises(DimensionError):
        ExperimentSpec(mode="snr_sweep", L_values=(2,), K=4)
    # counts must be integers: a fractional one is refused, not truncated
    for kw, name in ((dict(L_values=(32.7,)), "L"), (dict(L_values=(np.nan,)), "L"),
                     (dict(trials=2.5), "trials"), (dict(trials="3"), "trials"),
                     (dict(K=2.5), "K"), (dict(K=4.0), "K"), (dict(K=True), "K"),
                     (dict(trials=True), "trials"), (dict(L_values=(True, 2), K=1), "L")):
        with pytest.raises(DimensionError, match=f"^{name}.* must be an integer"):
            ExperimentSpec(mode="snr_sweep", **kw)
    spec = ExperimentSpec(mode="snr_sweep", L_values=(np.int64(8),), K=np.int32(2),
                          trials=np.int16(3))
    assert (spec.L_values, spec.K, spec.trials) == ((8,), 2, 3)
    assert all(type(v) is int for v in (*spec.L_values, spec.K, spec.trials))
    # each SNR point must give a finite positive Pt = 10^(snr/10)
    for snr in (np.nan, np.inf, -np.inf, 4000.0, -4000.0):
        with pytest.raises(DimensionError):
            ExperimentSpec(mode="snr_sweep", snr_db_values=(0.0, snr))
    ExperimentSpec(mode="snr_sweep", snr_db_values=(-300.0, 300.0))
    # an SNR point that is not a real number is refused, not converted
    for snr in (None, "ten", "10", [1], 1j, True):
        with pytest.raises(DimensionError, match="SNR must be a real number"):
            ExperimentSpec(mode="snr_sweep", snr_db_values=(0.0, snr))
    assert ExperimentSpec(mode="snr_sweep", snr_db_values=(np.int64(5),)).snr_db_values == (5.0,)
    for flag in ("yes", "false", 1, None, np.True_):
        with pytest.raises(DimensionError, match="^measure_time must be a bool, got "):
            ExperimentSpec(mode="snr_sweep", measure_time=flag)
    # the mode is a string and the output directory a path, not converted
    for mode in (["x"], {}, None, 3):
        with pytest.raises(DimensionError, match="^mode must be one of "):
            ExperimentSpec(mode=mode)
    for out in (None, 3, b"x"):
        with pytest.raises(DimensionError, match="^output_dir must be a str or os.PathLike, got "):
            ExperimentSpec(mode="snr_sweep", output_dir=out)
    assert ExperimentSpec(mode="snr_sweep", output_dir=Path("x")).output_dir == Path("x")


def test_spec_takes_bare_sweep_values():
    # a bare number or string is a one-point sweep, as in a config file
    spec = ExperimentSpec(mode="snr_sweep", L_values=8, K=2, snr_db_values=np.float64(5))
    assert (spec.L_values, spec.snr_db_values) == ((8,), (5.0,))
    assert ExperimentSpec(mode="snr_sweep", snr_db_values=10).snr_db_values == (10.0,)
    # a string is one point, not a sequence of characters
    with pytest.raises(DimensionError, match="^SNR must be a real number of dB, got '10'$"):
        ExperimentSpec(mode="snr_sweep", snr_db_values="10")
    with pytest.raises(DimensionError, match="^L for K=4 must be an integer, got '32'$"):
        ExperimentSpec(mode="snr_sweep", L_values="32")
    with pytest.raises(DimensionError, match="^L for K=4 must be an integer, got None$"):
        ExperimentSpec(mode="snr_sweep", L_values=None)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", False])
def test_spec_rejects_bad_seed_before_writing(tmp_path, seed):
    with pytest.raises(DimensionError, match="^seed must be"):
        run_experiment(small_spec(tmp_path, base_seed=seed))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("solver", [None, {"eps": 1e-3}, SolverConfig])
def test_spec_rejects_bad_solver_before_writing(tmp_path, solver):
    with pytest.raises(DimensionError, match="^solver must be a SolverConfig, got "):
        run_experiment(small_spec(tmp_path, mode="theorem_check", solver=solver))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid, named", [
    (dict(L_values=(8, 8)), "L 8"),
    (dict(L_values=(8, 16, np.int64(8))), "L 8"),
    (dict(snr_db_values=(10.0, 10.0)), "SNR point 10.0"),
    (dict(snr_db_values=(0, 10, 10.0)), "SNR point 10.0"),
    (dict(snr_db_values=(0.0, -0.0)), "SNR point -0.0"),
])
def test_spec_rejects_repeated_sweep_points(tmp_path, grid, named):
    # a repeat would run its cells again and summarize would count them as
    # more trials; points are compared after normalization
    with pytest.raises(DimensionError, match=f"^sweep repeats {named}$"):
        run_experiment(small_spec(tmp_path, mode="theorem_check", **grid))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--L=8,8", "--snr-db=10,10.0"])
def test_cli_rejects_repeated_sweep_points(tmp_path, capsys, flag):
    out = tmp_path / "run"
    code = main(["theorem-check", "--K", "2", "--trials", "2", flag, "--out", str(out)])
    assert code == 2
    assert "error: sweep repeats " in capsys.readouterr().err
    assert not out.exists()


PARSE = {"str": str, "int": int, "float": float}


def read_table(path, schema, row_type):
    """A CSV file's data lines as row_type instances; checks its header."""
    lines = path.read_text().splitlines()
    assert lines[0] == schema
    names = [f.name for f in fields(row_type)]
    assert lines[1].split(",") == names
    return [row_type(**{f.name: PARSE[f.type](cell)
                        for f, cell in zip(fields(row_type), line.split(","), strict=True)})
            for line in lines[2:]]


@pytest.mark.parametrize("mode", ["snr_sweep", "convergence"])
def test_files_round_trip(tmp_path, mode):
    # every float is written so that float() reads back the same value;
    # measured wall times give full-length floats to check
    spec = small_spec(tmp_path, mode=mode, snr_db_values=(0.0, 10.0), trials=2,
                      measure_time=True)
    rows = run_experiment(spec)
    out = tmp_path / "out"
    assert read_table(out / "results.csv", RESULT_SCHEMA, SweepRow) == list(rows)
    assert (read_table(out / "summary.csv", SUMMARY_SCHEMA, SummaryRow)
            == summarize(rows))
    if mode != "convergence":
        assert not (out / "iterations.csv").exists()
        return
    iters = read_table(out / "iterations.csv", ITER_SCHEMA, IterationRow)
    records = [json.loads(line) for line in (out / "solves.jsonl").read_text().splitlines()]
    assert len(records) == len(rows) == 4
    expected = [IterationRow(mode=mode, L=rec["L"], K=rec["K"], snr_db=rec["snr_db"],
                             trial=rec["trial"], architecture=rec["label"],
                             iteration=i, objective=obj)
                for rec in records for i, obj in enumerate(rec["objective_history"])]
    assert iters == expected


def test_solve_record_serializable(tmp_path, monkeypatch):
    # a solves.jsonl record echoes the config and the report of its solve
    spec = small_spec(tmp_path, mode="convergence", L_values=(4,), trials=1, base_seed=1)
    run_experiment(spec)
    rec, = [json.loads(line) for line in (tmp_path / "out" / "solves.jsonl").read_text()
            .splitlines()]
    rep = solve_psla(reduce_channel(generate_rayleigh(4, 2, seed=1)), SolverConfig(Pt=10.0))
    assert rec["label"] == "digital_reduced"
    assert rec["seed"] == 1
    assert rec["config"] == {"Pt": 10.0, "eps": 1e-4, "max_outer": 500}
    assert rec["iterations"] == rep.iterations
    assert rec["stop_reason"] == rep.stop_reason == "tol"
    assert rec["sum_rate"] == pytest.approx(rep.sum_rate)
    # a report built by hand with list rates is recorded alike
    solve = RUNNERS["digital_reduced"]

    def by_hand(ch, cfg, done):
        P, iterations, rep = solve(ch, cfg, done)
        return P, iterations, replace(rep, rates=list(rep.rates))

    monkeypatch.setitem(RUNNERS, "digital_reduced", by_hand)
    assert json.loads(json.dumps(run_point(spec, 4, 10.0, 0)[1][0])) == rec


# (architecture, snr_db, trial) -> (sum_rate, iterations) on the grid of
# test_pinned_rates, as computed when the solver's default start became
# regularized zero forcing; a change to the solver that moves a rate must
# update these values and say why
PINNED = {
    ("digital_full", 0.0, 0): (3.3490798788543743, 6),
    ("digital_reduced", 0.0, 0): (3.3490798788543756, 6),
    ("two_layer", 0.0, 0): (3.3490798788543747, 6),
    ("zero_forcing", 0.0, 0): (3.174124241887384, 0),
    ("digital_full", 0.0, 1): (3.8428564279288304, 4),
    ("digital_reduced", 0.0, 1): (3.8428564279288295, 4),
    ("two_layer", 0.0, 1): (3.8428564279288318, 4),
    ("zero_forcing", 0.0, 1): (3.721056735788955, 0),
    ("digital_full", 20.0, 0): (15.26541613660546, 1),
    ("digital_reduced", 20.0, 0): (15.265416136605463, 1),
    ("two_layer", 20.0, 0): (15.265416136605463, 1),
    ("zero_forcing", 20.0, 0): (15.262108717319297, 0),
    ("digital_full", 20.0, 1): (16.06770840299474, 1),
    ("digital_reduced", 20.0, 1): (16.06770840299474, 1),
    ("two_layer", 20.0, 1): (16.06770840299474, 1),
    ("zero_forcing", 20.0, 1): (16.06561905067184, 0),
}


@pytest.mark.parametrize("mode", ["snr_sweep", "theorem_check"])
def test_pinned_rates(tmp_path, mode):
    # every row's rate and round count on a small fixed grid, so that a
    # change in what the solver returns cannot pass unseen
    rows = run_experiment(small_spec(tmp_path, mode=mode, snr_db_values=(0.0, 20.0),
                                     trials=2))
    assert len(rows) == 2 * 2 * len(MODES[mode])
    for r in rows:
        rate, iterations = PINNED[(r.architecture, r.snr_db, r.trial)]
        assert r.sum_rate == pytest.approx(rate, rel=1e-9, abs=0), r
        assert r.iterations == iterations, r


def test_row_count_and_schema(tmp_path):
    spec = small_spec(tmp_path, snr_db_values=(0.0, 10.0))
    rows = run_experiment(spec)
    assert len(rows) == 1 * 2 * 3 * len(ARCHITECTURES)
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert lines[0] == RESULT_SCHEMA
    assert lines[1] == ",".join(f.name for f in fields(SweepRow))
    assert len(lines) == 2 + len(rows)


def test_theorem_check_pairing(tmp_path):
    spec = small_spec(tmp_path, mode="theorem_check", L_values=(16,), K=4,
                      snr_db_values=(0.0, 10.0), trials=4)
    rows = run_experiment(spec)
    reduced = rows_by_arch(rows, "digital_reduced")
    analog = rows_by_arch(rows, "two_layer")
    assert len(reduced) == len(analog) == 8
    for r, a in zip(reduced, analog):
        assert (r.snr_db, r.trial) == (a.snr_db, a.trial)
        assert abs(r.sum_rate - a.sum_rate) <= 1e-9


def test_zero_forcing_never_beats_solver(tmp_path):
    spec = small_spec(tmp_path, trials=4)
    rows = run_experiment(spec)
    reduced = {(r.snr_db, r.trial): r.sum_rate
               for r in rows_by_arch(rows, "digital_reduced")}
    for r in rows_by_arch(rows, "zero_forcing"):
        assert r.sum_rate <= reduced[(r.snr_db, r.trial)] + 1e-6


def test_full_dim_close_to_reduced(tmp_path):
    spec = small_spec(tmp_path, trials=3)
    rows = run_experiment(spec)
    reduced = {r.trial: r.sum_rate for r in rows_by_arch(rows, "digital_reduced")}
    for r in rows_by_arch(rows, "digital_full"):
        assert r.sum_rate == pytest.approx(reduced[r.trial], rel=1e-3)


def test_convergence_mode_iterations(tmp_path):
    spec = small_spec(tmp_path, mode="convergence", trials=2)
    rows = run_experiment(spec)
    assert all(r.architecture == "digital_reduced" for r in rows)
    lines = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
    assert lines[0] == ITER_SCHEMA
    by_trial = {}
    for line in lines[2:]:
        parts = line.split(",")
        by_trial.setdefault(int(parts[4]), []).append(float(parts[7]))
    assert set(by_trial) == {0, 1}
    for objs in by_trial.values():
        assert np.all(np.diff(objs) >= -1e-8)


def test_byte_identical_rerun(tmp_path):
    spec_a = small_spec(tmp_path / "a", trials=1)
    spec_b = small_spec(tmp_path / "b", trials=1)
    run_experiment(spec_a)
    run_experiment(spec_b)
    for name in ("results.csv", "summary.csv", "solves.jsonl"):
        a = (tmp_path / "a" / "out" / name).read_bytes()
        b = (tmp_path / "b" / "out" / name).read_bytes()
        assert a == b, name


def test_paired_seeding_across_sweep_points(tmp_path):
    # the same trial index draws the same channel at every SNR point
    spec = small_spec(tmp_path, snr_db_values=(0.0, 20.0), trials=2)
    rows = run_experiment(spec)
    zf = rows_by_arch(rows, "zero_forcing")
    low = {r.trial: r.sum_rate for r in zf if r.snr_db == 0.0}
    high = {r.trial: r.sum_rate for r in zf if r.snr_db == 20.0}
    # identical channel => zero-forcing directions identical => rates ordered
    for t in low:
        assert high[t] > low[t]


def test_failure_isolation(tmp_path, monkeypatch, capsys, caplog):
    import milac.harness as harness

    def boom(ch, Pt):
        raise RankDeficientError("synthetic failure")

    monkeypatch.setattr(harness, "zero_forcing", boom)
    spec = small_spec(tmp_path, trials=2)
    with caplog.at_level(logging.WARNING, logger="milac.harness"):
        rows = run_experiment(spec)
    # one warning per failed run, naming its architecture and cell
    logged = [rec.getMessage() for rec in caplog.records if rec.name == "milac.harness"]
    assert logged == [f"zero_forcing failed at L=8 snr=10.0 trial={t}: synthetic failure"
                      for t in range(2)]
    assert all(rec.levelno == logging.WARNING for rec in caplog.records)
    assert capsys.readouterr().err == ""
    zf = rows_by_arch(rows, "zero_forcing")
    assert len(zf) == 2
    for r in zf:
        assert np.isnan(r.sum_rate) and r.iterations == -1
    others = [r for r in rows if r.architecture != "zero_forcing"]
    assert all(np.isfinite(r.sum_rate) for r in others)
    records = [json.loads(line) for line in
               (tmp_path / "out" / "solves.jsonl").read_text().splitlines()]
    errors = [rec for rec in records if "error" in rec]
    assert len(errors) == 2
    assert "synthetic failure" in errors[0]["error"]


def test_summarize_single_row():
    row = SweepRow(mode="snr_sweep", L=8, K=2, snr_db=10.0, trial=0,
                   architecture="zero_forcing", sum_rate=3.5, iterations=0,
                   wall_time=0.25)
    out = summarize((row,))
    assert len(out) == 1
    assert out[0].mean_sum_rate == 3.5
    assert out[0].stderr_sum_rate == 0.0
    assert out[0].mean_wall_time == 0.25
    assert out[0].trials == 1


def test_summarize_identical_rows():
    row = SweepRow(mode="snr_sweep", L=8, K=2, snr_db=10.0, trial=0,
                   architecture="zero_forcing", sum_rate=3.5, iterations=0,
                   wall_time=0.0)
    twin = SweepRow(mode="snr_sweep", L=8, K=2, snr_db=10.0, trial=1,
                    architecture="zero_forcing", sum_rate=3.5, iterations=0,
                    wall_time=0.0)
    out = summarize((row, twin))
    assert len(out) == 1
    assert out[0].trials == 2
    assert out[0].stderr_sum_rate == 0.0


def test_summarize_skips_failed_rows():
    good = SweepRow(mode="snr_sweep", L=8, K=2, snr_db=10.0, trial=0,
                    architecture="zero_forcing", sum_rate=2.0, iterations=0,
                    wall_time=0.0)
    bad = SweepRow(mode="snr_sweep", L=8, K=2, snr_db=10.0, trial=1,
                   architecture="zero_forcing", sum_rate=float("nan"),
                   iterations=-1, wall_time=0.0)
    out = summarize((good, bad))
    assert out[0].trials == 1
    assert out[0].mean_sum_rate == 2.0


def test_summary_statistical_consistency(tmp_path):
    # disjoint seed blocks agree within three standard errors
    spec_a = small_spec(tmp_path / "a", mode="convergence", L_values=(8,),
                        snr_db_values=(10.0,), trials=60, base_seed=0)
    spec_b = small_spec(tmp_path / "b", mode="convergence", L_values=(8,),
                        snr_db_values=(10.0,), trials=60, base_seed=1000)
    sum_a = summarize(run_experiment(spec_a))[0]
    sum_b = summarize(run_experiment(spec_b))[0]
    spread = 3 * max(sum_a.stderr_sum_rate, sum_b.stderr_sum_rate)
    assert abs(sum_a.mean_sum_rate - sum_b.mean_sum_rate) <= spread


def test_import_leaves_out_the_process_pool(tmp_path):
    # neither importing milac nor running a sweep loads a process pool; no
    # environment variable, MILAC_WORKERS included, starts one
    code = ("import sys, milac; "
            "milac.run_experiment(milac.ExperimentSpec(mode='theorem_check', L_values=8, "
            f"K=2, trials=2, output_dir={str(tmp_path / 'out')!r})); "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC, "MILAC_WORKERS": "2"})
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "out" / "summary.csv").exists()


@pytest.fixture
def counted(monkeypatch):
    """Count the harness's channel draws and the reductions computed, keyed
    by (L, seed). reduce_channel keeps a channel's reduction, so a call
    that finds it kept is not counted."""
    import milac.channel
    import milac.harness as harness

    draws, reductions, seeds = [], [], {}
    generate, reduce = harness.generate_rayleigh, milac.channel._reduce

    def counting_generate(L, K, seed):
        # the memo holds one antenna count's trials: none of another L here
        assert {key[0] for key in harness._trials or ()} <= {L}
        ch = generate(L, K, seed)
        draws.append((L, seed))
        seeds[id(ch)] = (L, seed)
        return ch

    def counting_reduce(ch):
        reductions.append(seeds[id(ch)])
        return reduce(ch)

    monkeypatch.setattr(harness, "generate_rayleigh", counting_generate)
    monkeypatch.setattr(milac.channel, "_reduce", counting_reduce)
    return draws, reductions


@pytest.mark.parametrize("mode", ["snr_sweep", "theorem_check", "convergence"])
def test_sweep_draws_and_reduces_each_trial_once(tmp_path, counted, mode):
    import milac.harness as harness

    draws, reductions = counted
    grid = dict(mode=mode, L_values=(8, 10), snr_db_values=(0.0, 10.0, 20.0), trials=2)
    rows = run_experiment(small_spec(tmp_path / "a", **grid))
    once = [(L, seed) for L in (8, 10) for seed in (0, 1)]
    assert sorted(draws) == once and sorted(reductions) == once
    assert harness._trials is None
    assert all(np.isfinite(r.sum_rate) for r in rows)
    # a second sweep in the same process draws and reduces again
    run_experiment(small_spec(tmp_path / "b", **grid))
    assert sorted(draws) == sorted(once * 2) and sorted(reductions) == sorted(once * 2)
    for name in ("results.csv", "solves.jsonl"):
        assert ((tmp_path / "a" / "out" / name).read_bytes()
                == (tmp_path / "b" / "out" / name).read_bytes())


def test_memo_dropped_when_sweep_raises(tmp_path, monkeypatch):
    import milac.harness as harness

    def crash(ch, Pt):
        raise RuntimeError("not a recorded failure")

    monkeypatch.setattr(harness, "zero_forcing", crash)
    with pytest.raises(RuntimeError):
        run_experiment(small_spec(tmp_path, snr_db_values=(0.0, 10.0)))
    assert harness._trials is None


def test_run_point_outside_a_sweep_draws_afresh(tmp_path, counted):
    draws, reductions = counted
    spec = small_spec(tmp_path, mode="theorem_check")
    run_point(spec, 8, 0.0, 1)
    run_point(spec, 8, 10.0, 1)
    assert draws == reductions == [(8, 1), (8, 1)]


def test_failed_reduction_fails_its_trial_at_every_snr_point(tmp_path, counted, monkeypatch):
    import milac.channel

    draws, reductions = counted
    reduce = milac.channel._reduce
    bad = generate_rayleigh(8, 2, 1).H

    def failing_reduce(ch):
        out = reduce(ch)  # counted
        if np.array_equal(ch.H, bad):
            raise RankDeficientError("synthetic reduction failure")
        return out

    monkeypatch.setattr(milac.channel, "_reduce", failing_reduce)
    snrs = (0.0, 10.0, 20.0)
    rows = run_experiment(small_spec(tmp_path, snr_db_values=snrs, trials=2))
    # the failed reduction is not kept: trial 1 retries it at each point
    assert sorted(reductions) == [(8, 0)] + [(8, 1)] * len(snrs)
    for row in rows:
        failed = row.trial == 1 and row.architecture in ("digital_reduced", "two_layer")
        assert np.isnan(row.sum_rate) == failed, row
        assert (row.iterations == -1) == failed, row
    records = [json.loads(line) for line in
               (tmp_path / "out" / "solves.jsonl").read_text().splitlines()]
    errors = [(rec["snr_db"], rec["label"]) for rec in records if "error" in rec]
    assert errors == [(snr, arch) for snr in snrs for arch in ("digital_reduced", "two_layer")]


def test_failed_records_have_the_same_keys_whatever_the_timing(tmp_path, monkeypatch):
    import milac.harness as harness

    def boom(ch, Pt):
        raise RankDeficientError("synthetic failure")

    monkeypatch.setattr(harness, "zero_forcing", boom)
    keys = {}
    for timed in (False, True):
        out = tmp_path / str(timed)
        run_experiment(small_spec(out, trials=2, base_seed=5, measure_time=timed))
        records = [json.loads(line) for line in
                   (out / "out" / "solves.jsonl").read_text().splitlines()]
        # every record, failed or not, carries its trial's seed
        assert all(rec["seed"] == 5 + rec["trial"] for rec in records)
        failed = [rec for rec in records if "error" in rec]
        assert [(rec["label"], rec["trial"]) for rec in failed] == [
            ("zero_forcing", 0), ("zero_forcing", 1)]
        if not timed:
            assert [rec["wall_time"] for rec in failed] == [0.0, 0.0]
        keys[timed] = {frozenset(rec) for rec in failed}
    assert keys[False] == keys[True] == {frozenset(
        ("mode", "L", "K", "snr_db", "trial", "label", "seed", "wall_time", "error"))}


def test_run_point_reuses_reduced_solution(tmp_path):
    spec = small_spec(tmp_path, mode="theorem_check", trials=1)
    rows, records, iter_rows = run_point(spec, 8, 10.0, 0)
    assert [r.architecture for r in rows] == ["digital_reduced", "two_layer"]
    assert rows[0].iterations == rows[1].iterations
    assert iter_rows == []


def test_two_layer_wall_time_excludes_reduced_solve(tmp_path, monkeypatch):
    import milac.harness as harness

    solve = harness.solve_psla

    def slow_solve(red, cfg):
        time.sleep(0.05)
        return solve(red, cfg)

    monkeypatch.setattr(harness, "solve_psla", slow_solve)
    spec = small_spec(tmp_path, mode="theorem_check", trials=1, measure_time=True)
    rows = run_experiment(spec)
    assert rows_by_arch(rows, "digital_reduced")[0].wall_time >= 0.05
    assert rows_by_arch(rows, "two_layer")[0].wall_time < 0.05


def test_two_layer_fails_with_reduced_error(tmp_path, monkeypatch):
    import milac.harness as harness

    calls = []

    def boom(red, cfg):
        calls.append(1)
        raise RankDeficientError("synthetic failure")

    monkeypatch.setattr(harness, "solve_psla", boom)
    spec = small_spec(tmp_path, mode="theorem_check", trials=1)
    rows, records, _ = run_point(spec, 8, 10.0, 0)
    assert len(calls) == 1
    assert [r.iterations for r in rows] == [-1, -1]
    assert all(np.isnan(r.sum_rate) for r in rows)
    assert [rec["error"] for rec in records] == ["RankDeficientError: synthetic failure"] * 2


# ----------------------------------------------------------------- CLI

def test_cli_runs_sweep(tmp_path, capsys):
    out = tmp_path / "cli"
    code = main(["snr-sweep", "--L", "8", "--K", "2", "--snr-db", "0,10",
                 "--trials", "2", "--out", str(out), "--no-timing"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "wrote 16 rows" in printed
    assert (out / "results.csv").exists()
    assert (out / "summary.csv").exists()


def test_cli_no_subcommand(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_rejects_bad_dimensions(tmp_path, capsys):
    code = main(["snr-sweep", "--L", "2", "--K", "4", "--trials", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("snr", ["nan", "inf", "4000", "-4000"])
def test_cli_rejects_bad_snr_before_writing(tmp_path, capsys, snr):
    # Pt = 10^(snr/10) must be finite and positive; the sweep is refused
    # before its output directory exists
    out = tmp_path / "bad"
    code = main(["snr-sweep", "--L", "8", "--K", "2", "--trials", "1",
                 f"--snr-db=0,{snr}", "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_file_and_flag_override(tmp_path, capsys):
    cfg = {"L": [8], "K": 2, "snr_db": [5.0], "trials": 2, "no_timing": True}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    code = main(["theorem-check", "--config", str(cfg_path),
                 "--trials", "1", "--out", str(out)])
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    # flag overrides the config trials=2; config overrides mode defaults
    assert len(rows) == 2  # one trial, two architectures
    assert {r[3] for r in rows} == {"5.0"}
    assert {r[1] for r in rows} == {"8"}


def test_cli_rejects_fractional_config(tmp_path, capsys):
    # counts reach the spec as written: a fractional one is refused, not
    # truncated, and nothing is written
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"K": 2.5, "trials": 1.9, "L": [8.7], "max_iter": 3.5}))
    out = tmp_path / "run"
    assert main(["snr-sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "error: max_outer must be an integer, got 3.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, named", [
    ("K", 2.5, "K"), ("trials", 1.9, "trials"), ("L", [8.7], "L for K=4"),
    ("L", 8.7, "L for K=4"), ("seed", 1.5, "seed"), ("seed", "3", "seed"),
    ("max_iter", 3.5, "max_outer"), ("K", True, "K"), ("trials", True, "trials"),
    ("L", [True, 2], "L for K=4"), ("seed", False, "seed"), ("max_iter", True, "max_outer"),
])
def test_cli_config_names_bad_count(tmp_path, capsys, key, value, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    out = tmp_path / "run"
    assert main(["snr-sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"error: {named} must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_bare_sweep_values(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"L": 8, "K": 2, "snr_db": 5, "trials": 1}))
    out = tmp_path / "run"
    assert main(["theorem-check", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[2:]]
    assert [(r[1], r[3]) for r in rows] == [("8", "5.0")] * 2


def test_cli_rejects_boolean_config_values(tmp_path, capsys):
    # JSON true is not a number: refused, not read as 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": True, "K": True, "L": [True, 2], "snr_db": [True]}))
    out = tmp_path / "run"
    assert main(["snr-sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: K must be an integer, got True\n"
    assert not out.exists()


@pytest.mark.parametrize("snr", [None, "ten", [[1]], [True]])
def test_cli_rejects_non_number_snr_in_config(tmp_path, capsys, snr):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"snr_db": snr, "trials": 1}))
    out = tmp_path / "run"
    assert main(["snr-sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "error: SNR must be a real number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [True]])
def test_cli_rejects_non_boolean_no_timing(tmp_path, capsys, flag):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"no_timing": flag, "trials": 1}))
    out = tmp_path / "run"
    assert main(["snr-sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "error: no_timing must be true or false, got " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", [None, 3])
def test_cli_rejects_non_path_out_in_config(tmp_path, capsys, monkeypatch, out):
    # the output directory reaches the spec as written, not as str(out)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out": out, "trials": 1}))
    monkeypatch.chdir(tmp_path)
    assert main(["snr-sweep", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: output_dir must be a str or os.PathLike, got {out!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"power": 10}))
    code = main(["snr-sweep", "--config", str(cfg_path)])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_cli_rejects_non_object_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]")
    assert main(["snr-sweep", "--config", str(cfg_path)]) == 2


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["snr-sweep", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_solver_flags_reach_spec(tmp_path):
    out = tmp_path / "flagged"
    code = main(["convergence", "--L", "8", "--K", "2", "--snr-db", "10",
                 "--trials", "1", "--eps", "1e-3", "--max-iter", "7",
                 "--out", str(out), "--no-timing"])
    assert code == 0
    rec = json.loads((out / "solves.jsonl").read_text().splitlines()[0])
    assert rec["config"]["eps"] == 1e-3
    assert rec["config"]["max_outer"] == 7


def test_cli_rejects_removed_solver_knobs(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--xi-rule", "trace", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"inner_updates": 20}))
    assert main(["convergence", "--config", str(cfg_path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err
