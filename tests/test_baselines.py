"""Validation references: full-dimension solver, zero forcing, oracle."""

import gc
import weakref

import numpy as np
import pytest

import milac.baselines
import milac.channel
from milac import (
    ChannelSet,
    DimensionError,
    OracleConfig,
    RankDeficientError,
    SolverConfig,
    brute_force_oracle,
    generate_rayleigh,
    reduce_channel,
    solve_full_dim,
    solve_psla,
    sum_rate,
    zero_forcing,
)
from milac.baselines import POLISH_STEPS, STEP_SIZE


def test_full_dim_single_user():
    ch = generate_rayleigh(8, 1, seed=3)
    Pt = 10.0
    rep = solve_full_dim(ch, SolverConfig(Pt=Pt))
    expected = np.log2(1 + Pt * np.linalg.norm(ch.H) ** 2)
    assert rep.sum_rate == pytest.approx(expected, rel=1e-6)
    assert rep.T_final is None
    assert rep.Pd.shape == (8, 1)


def test_full_dim_matches_reduced():
    ch = generate_rayleigh(8, 3, seed=6)
    red = reduce_channel(ch)
    Pt = 10.0
    full = solve_full_dim(ch, SolverConfig(Pt=Pt))
    reduced = solve_psla(red, SolverConfig(Pt=Pt))
    assert full.sum_rate == pytest.approx(reduced.sum_rate, rel=1e-3)


def test_full_dim_lifts_reduced_solution():
    # both solvers run the same exact step, so the full L x K iterate is the
    # lifted reduced one, round for round (criterion 5's grid)
    grid = [(L, K) for L in (4, 8, 16) for K in (2, 4)]
    for i in range(100):
        L, K = grid[i % len(grid)]
        ch = generate_rayleigh(L, K, seed=i)
        red = reduce_channel(ch)
        cfg = SolverConfig(Pt=10.0)
        reduced = solve_psla(red, cfg)
        full = solve_full_dim(ch, cfg)
        lifted = red.Q @ reduced.T_final
        assert np.linalg.norm(lifted - full.Pd) <= 1e-9 * np.linalg.norm(full.Pd), (L, K, i)
        assert reduced.iterations == full.iterations, (L, K, i)


def test_full_dim_iterates_in_column_space():
    ch = generate_rayleigh(12, 3, seed=8)
    red = reduce_channel(ch)
    rep = solve_full_dim(ch, SolverConfig(Pt=10.0))
    out_of_range = rep.Pd - red.Q @ (red.Q.conj().T @ rep.Pd)
    ratio = np.linalg.norm(out_of_range) / np.linalg.norm(rep.Pd)
    assert ratio <= 0.05


def test_zero_forcing_identity():
    ch = ChannelSet(H=np.eye(2, dtype=complex))
    P = zero_forcing(ch, Pt=2.0)
    assert np.allclose(P, np.eye(2), atol=1e-12)
    assert abs(ch.H[:, 0].conj() @ P[:, 1]) == 0.0


def test_zero_forcing_nulls_interference():
    ch = generate_rayleigh(8, 3, seed=4)
    P = zero_forcing(ch, Pt=5.0)
    C = ch.H.conj().T @ P
    off = C - np.diag(np.diagonal(C))
    assert np.max(np.abs(off)) <= 1e-9
    # equal per-user power summing to Pt
    powers = np.sum(np.abs(P) ** 2, axis=0)
    assert np.allclose(powers, 5.0 / 3.0, rtol=1e-9)


def test_zero_forcing_below_optimized():
    for seed in range(5):
        ch = generate_rayleigh(6, 3, seed=seed)
        Pt = 10.0
        zf_rate = sum_rate(ch.H, zero_forcing(ch, Pt), ch.sigma)
        opt_rate = solve_psla(reduce_channel(ch), SolverConfig(Pt=Pt)).sum_rate
        assert zf_rate <= opt_rate + 1e-6


def test_zero_forcing_rank_deficient():
    h = generate_rayleigh(4, 1, seed=0).H
    ch = ChannelSet(H=np.hstack([h, h]))
    with pytest.raises(RankDeficientError):
        zero_forcing(ch, Pt=1.0)


def zf_reference(H, Pt):
    """The zero-forcing formula written out, computed afresh."""
    gram = H.conj().T @ H
    D = np.linalg.solve(gram.conj().T, H.conj().T).conj().T
    norms = np.linalg.norm(D, axis=0)
    return np.sqrt(Pt / H.shape[1]) * (D / norms[None, :])


def test_zero_forcing_directions_computed_once_per_channel(monkeypatch):
    # one channel at three powers equals a fresh channel with the same H,
    # bit for bit, and its directions are computed at the first call only
    ch = generate_rayleigh(32, 4, seed=3)
    conds = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a: conds.append(1) or cond(a))
    outputs = []
    for Pt in (1.0, 10.0 ** 1.5, 1000.0):
        P = zero_forcing(ch, Pt)
        assert np.array_equal(P, zero_forcing(ChannelSet(H=ch.H), Pt))
        assert np.array_equal(P, zf_reference(ch.H, Pt))
        assert P.flags.writeable
        outputs.append(P)
    assert len(conds) == 1 + 3  # the shared channel once, each fresh one once
    # every call returns an array of its own
    again = zero_forcing(ch, 1.0)
    again[:] = 0.0
    assert np.array_equal(zero_forcing(ch, 1.0), outputs[0])


def test_zero_forcing_rank_deficient_raises_every_call(monkeypatch):
    h = generate_rayleigh(4, 1, seed=0).H
    ch = ChannelSet(H=np.hstack([h, h]))
    conds = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a: conds.append(1) or cond(a))
    for _ in range(2):
        with pytest.raises(RankDeficientError):
            zero_forcing(ch, Pt=1.0)
    # nothing is kept: the second call computes the directions again
    assert len(conds) == 2
    assert ch not in milac.channel._MEMO


def test_zero_forcing_cache_lives_with_its_channel():
    ch = generate_rayleigh(8, 2, seed=1)
    zero_forcing(ch, 1.0)
    directions = weakref.ref(milac.channel._MEMO[ch][milac.baselines._zf_directions])
    gc.collect()  # only ch can leave the memo below
    before = len(milac.channel._MEMO)
    alive = weakref.ref(ch)
    del ch
    gc.collect()
    assert alive() is None and directions() is None
    assert len(milac.channel._MEMO) == before - 1


def test_oracle_config_validation():
    with pytest.raises(DimensionError):
        OracleConfig(samples=0)
    for count in (2.5, 2.0, np.nan, "3", True):
        with pytest.raises(DimensionError, match="samples must be an integer"):
            OracleConfig(samples=count)
    cfg = OracleConfig(samples=np.int64(7))
    assert cfg.samples == 7 and type(cfg.samples) is int
    # the seed reaches numpy's generator, which refuses a negative one late
    with pytest.raises(DimensionError, match="^seed must be >= 0, got -1$"):
        OracleConfig(samples=10, seed=-1)
    for seed in (2.5, np.nan, "3", True):
        with pytest.raises(DimensionError, match="seed must be an integer"):
            OracleConfig(seed=seed)
    cfg = OracleConfig(seed=np.int64(0))
    assert cfg.seed == 0 and type(cfg.seed) is int


@pytest.mark.parametrize("Pt", [0.0, -1.0, np.nan, np.inf])
def test_baselines_reject_bad_power(Pt):
    # rejected on entry, before a zero, NaN or warning-raising precoder
    with pytest.raises(DimensionError, match="Pt must be finite and positive"):
        zero_forcing(generate_rayleigh(4, 2, seed=0), Pt)
    with pytest.raises(DimensionError, match="Pt must be finite and positive"):
        brute_force_oracle(generate_rayleigh(2, 1, seed=0), Pt, OracleConfig(samples=10))


def test_oracle_single_user_closed_form():
    ch = generate_rayleigh(1, 1, seed=5)
    Pt = 10.0
    value = brute_force_oracle(ch, Pt, OracleConfig(samples=2000, seed=1))
    expected = np.log2(1 + Pt * abs(ch.H[0, 0]) ** 2)
    assert value == pytest.approx(expected, abs=1e-4)


def test_oracle_diagonal_hand_computed():
    # H = 2 I, Pt = 2: equal split, no interference, rate 2 log2(5)
    ch = ChannelSet(H=2.0 * np.eye(2, dtype=complex))
    value = brute_force_oracle(ch, Pt=2.0, cfg=OracleConfig(samples=4000, seed=3))
    assert value == pytest.approx(2 * np.log2(5.0), abs=1e-3)


def test_oracle_monotone_in_samples():
    ch = generate_rayleigh(2, 2, seed=9)
    values = [
        brute_force_oracle(ch, Pt=10.0, cfg=OracleConfig(samples=n, seed=4))
        for n in (50, 200, 1000)
    ]
    assert values[0] <= values[1] <= values[2]


def test_oracle_deterministic():
    ch = generate_rayleigh(2, 2, seed=10)
    cfg = OracleConfig(samples=500, seed=8)
    assert brute_force_oracle(ch, 5.0, cfg) == brute_force_oracle(ch, 5.0, cfg)


def _direct_compass_search(ch, Pt, cfg):
    # the oracle's search written out plainly: each step copies every
    # sample, projects it onto the sphere and evaluates it from scratch
    red = reduce_channel(ch)
    K = ch.K
    noise = red.sigma**2
    Hc = red.Hbar.conj().T

    def project(X):
        return X * np.sqrt(Pt / np.sum(np.abs(X) ** 2, axis=(1, 2)))[:, None, None]

    def rates(X):
        p = np.abs(Hc @ X) ** 2
        d = np.diagonal(p, axis1=1, axis2=2)
        return np.log2(1 + d / (p.sum(axis=2) - d + noise)).sum(axis=1)

    draws = np.random.default_rng(cfg.seed).standard_normal((cfg.samples, 2, K, K))
    X = project(draws[:, 0] + 1j * draws[:, 1])
    vals = rates(X)
    delta = np.full(cfg.samples, STEP_SIZE * np.sqrt(Pt))
    for _ in range(POLISH_STEPS):
        improved = np.zeros(cfg.samples, dtype=bool)
        for i in range(K):
            for j in range(K):
                for step in (1.0, -1.0, 1.0j, -1.0j):
                    cand = X.copy()
                    cand[:, i, j] += delta * step
                    cand = project(cand)
                    cvals = rates(cand)
                    better = cvals > vals
                    X[better] = cand[better]
                    vals[better] = cvals[better]
                    improved |= better
        delta[~improved] *= 0.5
    return float(vals.max())


@pytest.mark.parametrize("seed", [0, 7])
def test_oracle_matches_direct_search(seed):
    # the implicit projection and one-column updates change only rounding
    ch = generate_rayleigh(2, 2, seed=seed)
    for Pt in (1.0, 10.0):
        cfg = OracleConfig(samples=300, seed=seed)
        assert brute_force_oracle(ch, Pt, cfg) == pytest.approx(
            _direct_compass_search(ch, Pt, cfg), rel=1e-12)


def test_oracle_dimension_guard():
    ch = generate_rayleigh(3, 2, seed=0)
    with pytest.raises(DimensionError, match="limit is 8"):
        brute_force_oracle(ch, 1.0, OracleConfig(samples=10))


def test_oracle_cross_validates_solver():
    ch = generate_rayleigh(2, 2, seed=12)
    Pt = 10.0
    opt = solve_psla(reduce_channel(ch), SolverConfig(Pt=Pt)).sum_rate
    oracle = brute_force_oracle(ch, Pt, OracleConfig(samples=20_000, seed=2))
    assert oracle <= opt * 1.01 + 1e-9
    assert opt <= oracle * 1.01 + 1e-9
