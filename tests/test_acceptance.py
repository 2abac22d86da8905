"""End-to-end acceptance checklist.

Every test here exercises one published guarantee of the package at its
stated tolerance and prints a single pass/fail line (with runtime) that
bypasses pytest's capture, so a full run reads as a checklist. Numeric
tolerances are asserted; runtimes are informational except where the
timing itself is the property (criterion 6).
"""

import time
import timeit
from contextlib import contextmanager
from statistics import median

import numpy as np

from milac import (
    ChannelSet,
    DigitalBeamformer,
    ExperimentSpec,
    OracleConfig,
    SolverConfig,
    brute_force_oracle,
    check_lossless_reciprocal,
    generate_rayleigh,
    map_digital_to_milac,
    random_init,
    reduce_channel,
    run_experiment,
    scattering_from_susceptance,
    solve_full_dim,
    solve_psla,
    sum_rate,
    surrogate_value,
    susceptance_from_scattering,
    update_alpha_beta,
)
from milac.network import SusceptanceMatrix
from milac.optimizer import update_T


@contextmanager
def checklist_line(capsys, num, name):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        with capsys.disabled():
            verdict = "PASS" if ok else "FAIL"
            print(f"[acceptance] criterion {num} ({name}): {verdict} ({dt:.1f}s)")


def random_beamformer(L, K, Pt, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((L, K)) + 1j * rng.standard_normal((L, K))
    X *= np.sqrt(Pt / np.trace(X @ X.conj().T).real)
    return DigitalBeamformer(Pd=X, Pt=Pt)


def test_criterion_1_mapping_exactness(capsys):
    # 1000 random digital beamformers across the (L, K) grid, plus a few at
    # array scale (L=512, K=8) and full load (L=K=64), map to analog
    # networks that reproduce them to 1e-9 and are unitary-symmetric to 1e-10.
    with checklist_line(capsys, 1, "digital-to-analog exactness"):
        grid = [(L, K) for L in (2, 4, 8, 32) for K in (1, 2, 4, 8) if K <= L]
        cases = [(*grid[i % len(grid)], i) for i in range(1000)]
        cases += [(L, K, 5000 + i) for L, K in ((512, 8), (64, 64)) for i in range(4)]
        for L, K, i in cases:
            d = random_beamformer(L, K, Pt=1.0 + (i % 7), seed=i)
            sol = map_digital_to_milac(d)
            err = np.linalg.norm(sol.G - d.Pd) / np.linalg.norm(d.Pd)
            assert err <= 1e-9, (L, K, i, err)
            for S in (sol.Theta, sol.Phi):
                rep = check_lossless_reciprocal(S, tol=1e-10)
                assert rep.passed, (L, K, i, rep)


def test_criterion_2_two_layer_equals_digital_at_scale(capsys, tmp_path):
    # 100-trial experiment at L=32: per-row two-layer vs digital sum-rate
    # difference stays below 1e-9 bits at every SNR point and user count.
    with checklist_line(capsys, 2, "two-layer equals digital at scale"):
        for K in (4, 8):
            spec = ExperimentSpec(
                mode="theorem_check", L_values=(32,), K=K,
                snr_db_values=(0.0, 10.0, 20.0), trials=100,
                base_seed=0, solver=SolverConfig(),
                output_dir=str(tmp_path / f"K{K}"), measure_time=False)
            rows = run_experiment(spec)
            reduced = {(r.snr_db, r.trial): r.sum_rate for r in rows
                       if r.architecture == "digital_reduced"}
            analog = [(r.snr_db, r.trial, r.sum_rate) for r in rows
                      if r.architecture == "two_layer"]
            assert len(analog) == 300
            for snr_db, trial, rate in analog:
                assert abs(rate - reduced[(snr_db, trial)]) <= 1e-9


def test_criterion_3_solver_matches_oracle(capsys):
    # on 2x2 instances the solver reaches the brute-force optimum within 1%;
    # the iteration is a local method, so it gets its documented multi-start
    # (the default start, regularized zero forcing, plus four seeded random
    # restarts)
    with checklist_line(capsys, 3, "solver matches brute-force optimum"):
        for seed in range(10):
            ch = generate_rayleigh(2, 2, seed=seed)
            red = reduce_channel(ch)
            for Pt in (1.0, 10.0):
                cfg = SolverConfig(Pt=Pt)
                solved = solve_psla(red, cfg).sum_rate
                for restart in range(4):
                    init = random_init((2, 2), Pt, seed=1000 + restart)
                    solved = max(solved, solve_psla(red, cfg, init=init).sum_rate)
                oracle = brute_force_oracle(
                    ch, Pt, OracleConfig(samples=100_000, seed=seed))
                assert solved >= oracle * (1 - 0.01) - 1e-12, (seed, Pt)


def test_criterion_4_monotone_fast_convergence(capsys):
    # objective histories never decrease and 95% of trials converge within
    # 50 outer iterations at every operating point
    with checklist_line(capsys, 4, "monotone convergence within 50 rounds"):
        for snr_db in (0.0, 10.0, 20.0, 30.0):
            Pt = 10.0 ** (snr_db / 10.0)
            iters = []
            for trial in range(100):
                red = reduce_channel(generate_rayleigh(32, 4, seed=trial))
                rep = solve_psla(red, SolverConfig(Pt=Pt))
                assert np.all(np.diff(rep.objective_history) >= -1e-8)
                iters.append(rep.iterations)
            frac = np.mean(np.asarray(iters) <= 50)
            assert frac >= 0.95, (snr_db, frac)


def test_criterion_5_reduction_losslessness(capsys):
    # the K x K reduced solve loses nothing against the L x K full solve
    with checklist_line(capsys, 5, "range-space reduction losslessness"):
        grid = [(L, K) for L in (4, 8, 16) for K in (2, 4)]
        for i in range(100):
            L, K = grid[i % len(grid)]
            ch = generate_rayleigh(L, K, seed=i)
            red = reduce_channel(ch)
            cfg = SolverConfig(Pt=10.0)
            reduced = solve_psla(red, cfg).sum_rate
            full = solve_full_dim(ch, cfg).sum_rate
            assert abs(full - reduced) <= 1e-3 * max(1.0, reduced), (L, K, i)


def test_criterion_6_complexity_scaling(capsys):
    # the precoder step never sees the antenna count: its wall time is
    # flat in L, while the one-off reduction grows; total time grows far
    # slower than the 16x antenna growth
    with checklist_line(capsys, 6, "solver cost independent of antennas"):
        Pt = 10.0
        states = {}
        for L in (16, 256):
            red = reduce_channel(generate_rayleigh(L, 4, seed=0))
            T = random_init((4, 4), Pt, seed=1)
            alpha, beta = update_alpha_beta(red.Hbar, T, red.sigma)
            states[L] = (red.Hbar, T, alpha, beta)

        timers = {L: timeit.Timer(lambda s=states[L]: update_T(*s, Pt)) for L in states}
        timers[16].timeit(number=500)  # warm-up
        # the repeats alternate between the sizes, so the two runs of a pair
        # see the same load from elsewhere, and the median of the pairs'
        # ratios is the cost ratio whatever that load did between pairs
        times = {16: [], 256: []}
        for i in range(9):
            for L in ((16, 256) if i % 2 == 0 else (256, 16)):
                times[L].append(timers[L].timeit(number=500) / 500)
        ratio = median(b / a for a, b in zip(times[16], times[256]))
        t16, t256 = median(times[16]), median(times[256])
        # |t256 - t16| <= 0.20 * max(t16, t256), per pair
        assert 0.8 <= ratio <= 1 / 0.8, (ratio, times)

        # reduce_channel keeps a channel's reduction while the channel lives,
        # so each timed call reduces a fresh ChannelSet of the same H
        def t_reduce(L):
            H = generate_rayleigh(L, 4, seed=0).H
            timer = timeit.Timer(lambda: reduce_channel(ChannelSet(H=H)))
            return median(timer.repeat(repeat=5, number=20)) / 20

        r16, r256 = t_reduce(16), t_reduce(256)
        assert r256 > r16, (r16, r256)

        def t_total(L):
            H = generate_rayleigh(L, 4, seed=0).H
            def run():
                solve_psla(reduce_channel(ChannelSet(H=H)), SolverConfig(Pt=Pt))
            timer = timeit.Timer(run)
            return median(timer.repeat(repeat=5, number=3)) / 3

        total16, total256 = t_total(16), t_total(256)
        assert total256 < 8 * total16, (total16, total256)
        with capsys.disabled():
            print(f"  [criterion 6] T-update {t16*1e6:.1f}us vs {t256*1e6:.1f}us, "
                  f"reduce {r16*1e6:.1f}us vs {r256*1e6:.1f}us, "
                  f"total {total16*1e3:.2f}ms vs {total256*1e3:.2f}ms")


def test_criterion_7_network_round_trip(capsys):
    # random susceptance networks produce unitary-symmetric scattering and
    # survive the inverse map
    with checklist_line(capsys, 7, "scattering round trip"):
        rng = np.random.default_rng(0)
        for i in range(1000):
            n = int(rng.integers(2, 33))
            A = rng.standard_normal((n, n)) * (0.05 / np.sqrt(n))
            B = SusceptanceMatrix(B=(A + A.T) / 2)
            S = scattering_from_susceptance(B)
            rep = check_lossless_reciprocal(S, tol=1e-10)
            assert rep.passed, (i, n, rep)
            if np.linalg.cond(np.eye(n) + S.S) < 1e6:
                back = susceptance_from_scattering(S)
                assert np.max(np.abs(back.B - B.B)) <= 1e-8, (i, n)


def test_criterion_8_tightness_and_stationarity(capsys):
    # after the closed-form auxiliary update the surrogate equals the true
    # sum-rate, and finite differences confirm the update is stationary
    with checklist_line(capsys, 8, "surrogate tightness and stationarity"):
        h = 1e-5
        for i in range(100):
            rng = np.random.default_rng(i)
            K = 3
            m = int(rng.integers(3, 9))
            Hbar = rng.standard_normal((m, K)) + 1j * rng.standard_normal((m, K))
            sigma = np.ones(K)
            Pt = float(rng.uniform(0.5, 50.0))
            T = random_init((m, K), Pt, seed=i)
            alpha, beta = update_alpha_beta(Hbar, T, sigma)
            tight = surrogate_value(Hbar, T, sigma, alpha, beta)
            truth = sum_rate(Hbar, T, sigma)
            assert abs(tight - truth) <= 1e-9, i

            grad = []
            for k in range(K):
                for delta, field in ((h, "alpha"), (h, "beta"), (1j * h, "beta")):
                    hi = (alpha if field == "alpha" else beta).astype(complex).copy()
                    lo = hi.copy()
                    hi[k] += delta
                    lo[k] -= delta
                    if field == "alpha":
                        up = surrogate_value(Hbar, T, sigma, hi.real, beta)
                        dn = surrogate_value(Hbar, T, sigma, lo.real, beta)
                    else:
                        up = surrogate_value(Hbar, T, sigma, alpha, hi)
                        dn = surrogate_value(Hbar, T, sigma, alpha, lo)
                    grad.append((up - dn) / (2 * h))
            assert np.linalg.norm(grad) <= 1e-6, i
