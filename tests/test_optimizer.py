"""Fractional-programming solver: closed forms, ascent, convergence."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milac import (
    ChannelSet,
    DimensionError,
    InconsistentSolutionError,
    NumericalError,
    SolveReport,
    SolverConfig,
    check_lossless_reciprocal,
    generate_rayleigh,
    matched_filter_init,
    random_init,
    reduce_channel,
    solve_psla,
    solve_two_layer,
    sum_rate,
    surrogate_value,
    update_T,
    update_alpha_beta,
    user_rates,
)
import milac.optimizer
from milac.baselines import brute_force_oracle, solve_full_dim, zero_forcing
from milac.optimizer import _power_multiplier, project_power, report_record, run_fp


def random_point(Hbar, sigma, Pt, seed):
    """A random precoder on the sphere and its optimal auxiliaries."""
    T = random_init(Hbar.shape, Pt, seed)
    alpha, beta = update_alpha_beta(Hbar, T, sigma)
    return T, alpha, beta


# ---------------------------------------------------------------- rates

def sinrs(H, P, sigma):
    """Per-user SINRs read back from the rates, 2^rate - 1."""
    return np.exp2(user_rates(H, P, sigma)) - 1.0


def test_sinr_orthogonal_unit_power():
    H = np.eye(2, dtype=complex)
    assert sinrs(H, H, np.ones(2)) == pytest.approx([1.0, 1.0])


def test_sinr_single_user():
    h = np.array([[1.0 + 0j], [0.0]])
    p = np.array([[np.sqrt(10) + 0j], [0.0]])
    assert sinrs(h, p, np.ones(1)) == pytest.approx([10.0])


def test_sinr_interference_hand_computed():
    # p2 aligned with h1 turns the full cross power into interference
    H = np.array([[1, 1], [1, -1]], dtype=complex)
    P = np.array([[1, 1], [0, 1]], dtype=complex)
    # desired |h1^H p1|^2 = 1, interference |h1^H p2|^2 = 4, noise 1
    assert sinrs(H, P, np.ones(2)) == pytest.approx([1.0 / 5.0, 0.0])


def test_sum_rate_identity():
    H = np.eye(2, dtype=complex)
    assert sum_rate(H, H, np.ones(2)) == pytest.approx(2.0)


def test_sum_rate_zero_precoder():
    H = np.eye(3, dtype=complex)
    assert sum_rate(H, np.zeros((3, 3), dtype=complex), np.ones(3)) == 0.0


def test_sum_rate_compositional():
    ch = generate_rayleigh(6, 3, seed=4)
    P = random_init((6, 3), 5.0, seed=1)
    per_user = user_rates(ch.H, P, ch.sigma)
    assert sum_rate(ch.H, P, ch.sigma) == pytest.approx(float(np.sum(per_user)))
    # each rate is log2(1 + SINR) with the SINR formed from its definition
    C = np.abs(ch.H.conj().T @ P) ** 2
    gamma = np.diag(C) / (C.sum(axis=1) - np.diag(C) + ch.sigma**2)
    assert per_user == pytest.approx(np.log2(1 + gamma), rel=1e-12)
    assert np.all(gamma >= 0)


def test_dimension_validation():
    with pytest.raises(DimensionError):
        sum_rate(np.eye(2, dtype=complex), np.eye(3, dtype=complex), np.ones(2))
    with pytest.raises(DimensionError):
        sum_rate(np.eye(2, dtype=complex), np.eye(2, dtype=complex), np.ones(3))


@pytest.mark.parametrize("sigma", [[0.0, 0.0], [np.nan, 1.0], [-1.0, -1.0],
                                   [1.0, np.inf], [1.0, -np.inf], [1.0, 0.0]])
def test_rates_reject_bad_noise(sigma):
    # every entry point behind the link check refuses a noise level that is
    # not finite and positive instead of dividing by it
    H = np.eye(2, dtype=complex)
    sigma = np.array(sigma)
    calls = (lambda: sum_rate(H, H, sigma), lambda: user_rates(H, H, sigma),
             lambda: update_alpha_beta(H, H, sigma),
             lambda: surrogate_value(H, H, sigma, np.ones(2), np.ones(2)),
             lambda: run_fp(H, sigma, SolverConfig()))
    for call in calls:
        with pytest.raises(DimensionError, match="sigma"):
            call()


# ------------------------------------------------------- auxiliaries

def test_update_alpha_beta_scalar():
    Hbar = np.ones((1, 1), dtype=complex)
    alpha, beta = update_alpha_beta(Hbar, np.ones((1, 1)), np.ones(1))
    assert alpha[0] == pytest.approx(1.0)
    assert beta[0] == pytest.approx(np.sqrt(2) / 2)


def test_update_alpha_beta_zero_precoder():
    Hbar = np.ones((2, 2), dtype=complex)
    alpha, beta = update_alpha_beta(Hbar, np.zeros((2, 2)), np.ones(2))
    assert np.allclose(alpha, 0.0, atol=0)
    assert np.allclose(beta, 0.0, atol=0)


def test_alpha_beta_stationarity_finite_difference():
    rng = np.random.default_rng(17)
    Hbar = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    sigma = np.ones(3)
    T, alpha, beta = random_point(Hbar, sigma, Pt=4.0, seed=3)
    h = 1e-5
    grad = []
    for k in range(3):
        for field, delta in (("alpha", h), ("beta", h), ("beta", 1j * h)):
            vec_hi = (alpha if field == "alpha" else beta).astype(complex).copy()
            vec_lo = vec_hi.copy()
            vec_hi[k] += delta
            vec_lo[k] -= delta
            if field == "alpha":
                up = surrogate_value(Hbar, T, sigma, vec_hi.real, beta)
                lo = surrogate_value(Hbar, T, sigma, vec_lo.real, beta)
            else:
                up = surrogate_value(Hbar, T, sigma, alpha, vec_hi)
                lo = surrogate_value(Hbar, T, sigma, alpha, vec_lo)
            grad.append((up - lo) / (2 * h))
    assert np.linalg.norm(grad) <= 1e-6


def test_surrogate_zero_state():
    Hbar = np.eye(2, dtype=complex)
    assert surrogate_value(Hbar, np.eye(2), np.ones(2), np.zeros(2), np.zeros(2)) == 0.0


def test_surrogate_scalar_optimum():
    # alpha = 1, beta = sqrt(2)/2 turn the surrogate into the 1-bit rate
    Hbar = np.ones((1, 1), dtype=complex)
    value = surrogate_value(Hbar, np.ones((1, 1)), np.ones(1),
                            np.array([1.0]), np.array([np.sqrt(2) / 2 + 0j]))
    assert value == pytest.approx(1.0)


def test_surrogate_tight_after_update():
    ch = generate_rayleigh(5, 3, seed=23)
    red = reduce_channel(ch)
    T, alpha, beta = random_point(red.Hbar, red.sigma, Pt=10.0, seed=7)
    assert surrogate_value(red.Hbar, T, red.sigma, alpha, beta) == pytest.approx(
        sum_rate(red.Hbar, T, red.sigma), abs=1e-9)


# ------------------------------------------------------- projection

def test_project_power():
    X = np.array([[3.0 + 4j]])
    out = project_power(X, Pt=4.0)
    assert np.sum(np.abs(out) ** 2) == pytest.approx(4.0)
    with pytest.raises(NumericalError):
        project_power(np.zeros((2, 2)), Pt=1.0)


def test_update_T_zero_beta_keeps_T():
    # every beta_k = 0 leaves the surrogate without a linear term
    Hbar = np.eye(2, dtype=complex)
    T = project_power(np.array([[1, 2], [3, 4]], dtype=complex), Pt=2.0)
    out = update_T(Hbar, T, np.zeros(2), np.zeros(2, dtype=complex), Pt=2.0)
    assert np.array_equal(out, T)


def test_round_functions_check_shapes():
    # T must have Hbar's shape and alpha, beta one entry per user
    Hbar, T, a, b = np.eye(2), np.eye(2), np.ones(2), np.ones(2)
    sigma = np.ones(2)
    for call, match in (
            (lambda: update_T(Hbar, np.eye(3), a, b, 1.0), r"^T shape \(3, 3\) does not match"),
            (lambda: update_T(Hbar, T, np.ones(3), b, 1.0), r"^alpha must have shape \(2,\)"),
            (lambda: update_T(Hbar, T, a, np.ones((2, 1)), 1.0), r"^beta must have shape"),
            (lambda: surrogate_value(Hbar, T, sigma, np.ones(3), b), r"^alpha must have shape"),
            (lambda: surrogate_value(Hbar, T, sigma, a, np.ones(1)), r"^beta must have shape"),
            (lambda: update_alpha_beta(Hbar, np.eye(3), sigma), r"^T shape \(3, 3\)")):
        with pytest.raises(DimensionError, match=match):
            call()


def test_update_T_on_sphere():
    ch = generate_rayleigh(4, 2, seed=31)
    red = reduce_channel(ch)
    T, alpha, beta = random_point(red.Hbar, red.sigma, Pt=7.0, seed=5)
    out = update_T(red.Hbar, T, alpha, beta, Pt=7.0)
    assert np.trace(out @ out.conj().T).real == pytest.approx(7.0, rel=1e-10)


@pytest.mark.parametrize("K", [1, 3, 8])
@pytest.mark.parametrize("Pt", [1.0, 100.0, 1e4])
def test_update_T_maximizes_round(K, Pt):
    # the step is the round's maximizer: no point on the sphere has a
    # higher surrogate, and rate >= surrogate plus the final scaling make
    # its rate at least the input's
    rng = np.random.default_rng(K)
    Hbar = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
    sigma = np.ones(K)
    T, alpha, beta = random_point(Hbar, sigma, Pt, seed=K + 1)
    out = update_T(Hbar, T, alpha, beta, Pt)
    rate = sum_rate(Hbar, out, sigma)
    assert rate >= sum_rate(Hbar, T, sigma) - 1e-9
    best = max(surrogate_value(Hbar, random_init((K, K), Pt, seed=s), sigma, alpha, beta)
               for s in range(200))
    assert rate >= best - 1e-9


def dense_round_maximizer(Hbar, alpha, beta, Pt):
    """The round's maximizer from the m x m system, lam found by bisection."""
    m = Hbar.shape[0]
    A = Hbar @ np.diag(np.abs(beta) ** 2) @ Hbar.conj().T
    B = Hbar @ np.diag(np.sqrt(1.0 + alpha) * beta)

    def T_of(lam):
        return np.linalg.lstsq(A + lam * np.eye(m), B, rcond=None)[0]

    def power(lam):
        return np.sum(np.abs(T_of(lam)) ** 2)

    lo, hi = 0.0, 1.0
    if power(lo) > Pt:
        while power(hi) > Pt:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if power(mid) > Pt else (lo, mid)
        lo = hi
    return project_power(T_of(lo), Pt)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (6, 3), (8, 8)])
@pytest.mark.parametrize("Pt", [0.1, 10.0, 1e4])
@pytest.mark.parametrize("beta_scale", [1.0, 100.0])
def test_update_T_matches_dense_reference(shape, Pt, beta_scale):
    # the K x K eigendecomposition route equals the m x m Lagrangian solve,
    # also when the precoder has more rows than users (full dimension); a
    # scaled-up beta shrinks T(0) inside the ball, where lam = 0
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    Hbar = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sigma = np.ones(shape[1])
    T, alpha, beta = random_point(Hbar, sigma, Pt, seed=3)
    beta = beta_scale * beta
    out = update_T(Hbar, T, alpha, beta, Pt)
    ref = dense_round_maximizer(Hbar, alpha, beta, Pt)
    assert np.linalg.norm(out - ref) <= 1e-9 * np.linalg.norm(ref)


# ------------------------------------------------------------ inits

def test_matched_filter_init_on_sphere():
    ch = generate_rayleigh(6, 3, seed=2)
    T0 = matched_filter_init(ch.H, Pt=5.0)
    assert np.trace(T0 @ T0.conj().T).real == pytest.approx(5.0, rel=1e-12)
    # columns aligned with the channels
    for k in range(3):
        cos = abs(np.vdot(ch.H[:, k], T0[:, k])) / (
            np.linalg.norm(ch.H[:, k]) * np.linalg.norm(T0[:, k]))
        assert cos == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NumericalError, match="zero channel column"):
        matched_filter_init(np.eye(3, 2) * [1.0, 0.0], Pt=1.0)


@pytest.mark.parametrize("Pt", [-1.0, 0.0, np.nan, np.inf])
def test_precoder_helpers_reject_bad_power(Pt):
    # a bad Pt fails on entry, before sqrt or the power sphere sees it
    H = np.eye(2, dtype=complex)
    calls = (lambda: matched_filter_init(H, Pt),
             lambda: random_init((2, 2), Pt, 0),
             lambda: update_T(H, H, np.ones(2), np.ones(2, dtype=complex), Pt))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DimensionError, match="^Pt must be finite and positive"):
                call()


def test_random_init_deterministic():
    a = random_init((3, 2), 4.0, seed=9)
    b = random_init((3, 2), 4.0, seed=9)
    assert np.array_equal(a, b)
    assert np.trace(a @ a.conj().T).real == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("shape", [(2, -1), (0, 3), -1, "ab", (2, 1.5), (True, 2), None])
def test_random_init_refuses_bad_dimensions(shape):
    with pytest.raises(DimensionError, match="^random_init dimension must be"):
        random_init(shape, 1.0, 0)


def test_random_init_takes_any_numpy_seed():
    # a count or a list of counts as shape; an int, a list or None as seed
    assert random_init(3, 1.0, [4, 5]).shape == (3,)
    assert np.array_equal(random_init([3, 2], 1.0, [4, 5]), random_init((3, 2), 1.0, [4, 5]))
    assert random_init((np.int64(2), 2), 1.0, None).shape == (2, 2)


# ------------------------------------------------------------ solver

def test_solver_config_validation():
    with pytest.raises(DimensionError):
        SolverConfig(Pt=0.0)
    with pytest.raises(DimensionError):
        SolverConfig(eps=0.0)
    with pytest.raises(DimensionError):
        SolverConfig(max_outer=0)
    for bad in (np.inf, -np.inf, np.nan, -1e-4, "1"):
        with pytest.raises(DimensionError, match="eps must be finite and positive"):
            SolverConfig(eps=bad)
        with pytest.raises(DimensionError, match="Pt must be finite and positive"):
            SolverConfig(Pt=bad)
    for max_outer in (2.5, 2.0, np.nan, np.inf, "3"):
        with pytest.raises(DimensionError):
            SolverConfig(max_outer=max_outer)
    cfg = SolverConfig(max_outer=np.int64(3))
    assert cfg.max_outer == 3 and type(cfg.max_outer) is int


def test_report_rejects_decreasing_history():
    with pytest.raises(InconsistentSolutionError):
        SolveReport(T_final=None, Pd=np.eye(2, dtype=complex),
                    rates=np.ones(2), sum_rate=2.0, iterations=1,
                    objective_history=np.array([2.0, 1.0]), wall_time=0.0,
                    stop_reason="tol")


def test_single_user_matched_filter_optimal():
    ch = generate_rayleigh(8, 1, seed=3)
    red = reduce_channel(ch)
    Pt = 10.0
    rep = solve_psla(red, SolverConfig(Pt=Pt))
    expected = np.log2(1 + Pt * np.linalg.norm(ch.H) ** 2)
    assert rep.sum_rate == pytest.approx(expected, rel=1e-6)
    assert abs(np.trace(rep.T_final @ rep.T_final.conj().T).real - Pt) <= 1e-9 * Pt


def test_solver_monotone_and_feasible():
    ch = generate_rayleigh(16, 4, seed=12)
    red = reduce_channel(ch)
    Pt = 100.0
    rep = solve_psla(red, SolverConfig(Pt=Pt))
    hist = rep.objective_history
    assert np.all(np.diff(hist) >= -1e-8)
    assert rep.sum_rate == pytest.approx(hist[-1])
    assert np.trace(rep.T_final @ rep.T_final.conj().T).real == pytest.approx(
        Pt, rel=1e-10)
    # lifted precoder reproduces the reduced rates on the true channel
    assert sum_rate(ch.H, rep.Pd, ch.sigma) == pytest.approx(rep.sum_rate, abs=1e-9)


def test_iterates_stay_on_sphere():
    ch = generate_rayleigh(8, 3, seed=7)
    red = reduce_channel(ch)
    Pt = 10.0
    T = matched_filter_init(red.Hbar, Pt)
    for _ in range(20):
        alpha, beta = update_alpha_beta(red.Hbar, T, red.sigma)
        T = update_T(red.Hbar, T, alpha, beta, Pt)
        assert np.trace(T @ T.conj().T).real == pytest.approx(Pt, rel=1e-10)


def test_fixed_point_residual_at_convergence():
    ch = generate_rayleigh(12, 4, seed=19)
    red = reduce_channel(ch)
    cfg = SolverConfig(Pt=50.0)
    rep = solve_psla(red, cfg)
    alpha, beta = update_alpha_beta(red.Hbar, rep.T_final, red.sigma)
    out = update_T(red.Hbar, rep.T_final, alpha, beta, cfg.Pt)
    residual = np.linalg.norm(out - rep.T_final) / np.sqrt(cfg.Pt)
    assert residual <= 10 * cfg.eps


def test_custom_init_and_bad_shape():
    ch = generate_rayleigh(4, 2, seed=5)
    red = reduce_channel(ch)
    cfg = SolverConfig(Pt=10.0)
    init = random_init((2, 2), 10.0, seed=77)
    rep = solve_psla(red, cfg, init=init)
    assert rep.iterations >= 1
    with pytest.raises(DimensionError):
        solve_psla(red, cfg, init=np.ones((3, 2), dtype=complex))


def test_run_fp_works_full_dimension():
    ch = generate_rayleigh(6, 2, seed=9)
    T, history, iterations, wall, stop_reason, _ = run_fp(ch.H, ch.sigma, SolverConfig(Pt=10.0))
    assert T.shape == (6, 2)
    assert np.all(np.diff(history) >= -1e-8)
    assert iterations >= 1 and wall >= 0.0
    assert stop_reason == "tol"


def test_stop_reason_tol_and_cap():
    red = reduce_channel(generate_rayleigh(16, 4, seed=12))
    converged = solve_psla(red, SolverConfig(Pt=100.0))
    assert converged.stop_reason == "tol"
    assert converged.iterations < SolverConfig().max_outer
    capped = solve_psla(red, SolverConfig(Pt=100.0, max_outer=1))
    first, second = capped.objective_history
    # the one round still moved the rate by more than eps: not converged
    assert abs(second - first) / max(1.0, first) >= SolverConfig().eps
    assert capped.iterations == 1
    assert capped.stop_reason == "cap"


def test_solve_two_layer_equivalence():
    ch = generate_rayleigh(8, 3, seed=2)
    cfg = SolverConfig(Pt=10.0)
    rep, sol = solve_two_layer(ch, cfg)
    assert abs(sum_rate(ch.H, sol.G, ch.sigma) - sum_rate(ch.H, rep.Pd, ch.sigma)) <= 1e-9
    assert check_lossless_reciprocal(sol.Theta, tol=1e-10).passed
    assert check_lossless_reciprocal(sol.Phi, tol=1e-10).passed


def test_solve_two_layer_certifies_the_analog_rate(monkeypatch):
    # a mapping that realizes a rescaled Pd lowers the analog rate on the
    # channel, which the rate certificate refuses
    ch = generate_rayleigh(8, 3, seed=2)
    mapping = milac.optimizer.map_digital_to_milac

    def rescaled(d):
        return mapping(dataclasses.replace(d, Pd=0.5 * d.Pd))

    monkeypatch.setattr(milac.optimizer, "map_digital_to_milac", rescaled)
    with pytest.raises(InconsistentSolutionError, match="deviates from digital"):
        solve_two_layer(ch, SolverConfig(Pt=10.0))


def test_solve_two_layer_warm_channel_bit_identical():
    # a channel whose reduction is already kept solves exactly as a fresh one
    ch = generate_rayleigh(32, 4, seed=6)
    solve_two_layer(ch, SolverConfig(Pt=1.0))
    for Pt in (10.0, 1000.0):
        cfg = SolverConfig(Pt=Pt)
        (warm, warm_sol), (cold, cold_sol) = (solve_two_layer(c, cfg)
                                              for c in (ch, ChannelSet(H=ch.H)))
        assert warm.sum_rate == cold.sum_rate
        pairs = [(warm.Pd, cold.Pd), (warm_sol.Theta.S, cold_sol.Theta.S)]
        pairs += [(getattr(warm_sol.Phi, f), getattr(cold_sol.Phi, f)) for f in ("V", "T", "Ur")]
        for got, want in pairs:
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.ones((4, 2)), None])
def test_channel_functions_refuse_a_non_channel(bad):
    msg = f"^channel must be a ChannelSet, got {type(bad).__name__}$"
    cfg = SolverConfig(Pt=1.0)
    for call in (lambda: zero_forcing(bad, 1.0), lambda: solve_full_dim(bad, cfg),
                 lambda: solve_two_layer(bad, cfg), lambda: brute_force_oracle(bad, 1.0)):
        with pytest.raises(DimensionError, match=msg):
            call()


def test_solvers_refuse_a_wrong_channel_or_config():
    ch = generate_rayleigh(4, 2, seed=3)
    red = reduce_channel(ch)
    with pytest.raises(DimensionError, match="^reduced channel must be a ReducedChannel, got ChannelSet$"):
        solve_psla(ch, SolverConfig(Pt=1.0))
    for call, bad in ((lambda: solve_psla(red, None), "NoneType"),
                      (lambda: solve_two_layer(ch, {"Pt": 1}), "dict"),
                      (lambda: solve_full_dim(ch, 1.0), "float"),
                      (lambda: run_fp(ch.H, ch.sigma, None), "NoneType")):
        with pytest.raises(DimensionError, match=f"^cfg must be a SolverConfig, got {bad}$"):
            call()


def test_solve_two_layer_rank_one_structure():
    ch = generate_rayleigh(2, 1, seed=15)
    rep, sol = solve_two_layer(ch, SolverConfig(Pt=1.0))
    theta = sol.Theta.S
    assert theta.shape == (2, 2)
    assert theta[0, 0] == 0 and theta[1, 1] == 0
    assert abs(theta[0, 1]) == pytest.approx(1.0, abs=1e-10)
    assert theta[0, 1] == pytest.approx(theta[1, 0])


def test_report_record_serializable():
    ch = generate_rayleigh(4, 2, seed=1)
    red = reduce_channel(ch)
    cfg = SolverConfig(Pt=10.0)
    rep = solve_psla(red, cfg)
    rec = report_record(rep, cfg, seed=1, label="reduced")
    text = json.dumps(rec)
    back = json.loads(text)
    assert back["label"] == "reduced"
    assert back["config"]["Pt"] == 10.0
    assert back["iterations"] == rep.iterations
    assert back["stop_reason"] == rep.stop_reason == "tol"
    assert back["sum_rate"] == pytest.approx(rep.sum_rate)
    # a report built by hand with list rates is recorded alike
    by_hand = dataclasses.replace(rep, rates=list(rep.rates))
    assert report_record(by_hand, cfg, seed=1, label="reduced") == rec


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 2), (4, 2), (6, 3), (8, 4)]),
       st.integers(0, 10_000), st.sampled_from([1.0, 10.0, 100.0]))
def test_solver_invariants_property(shape, seed, Pt):
    L, K = shape
    ch = generate_rayleigh(L, K, seed=seed)
    red = reduce_channel(ch)
    rep = solve_psla(red, SolverConfig(Pt=Pt))
    assert np.all(np.diff(rep.objective_history) >= -1e-8)
    assert np.trace(rep.T_final @ rep.T_final.conj().T).real == pytest.approx(
        Pt, rel=1e-9)
    alpha, beta = update_alpha_beta(red.Hbar, rep.T_final, red.sigma)
    assert surrogate_value(red.Hbar, rep.T_final, red.sigma, alpha, beta) == pytest.approx(
        rep.sum_rate, abs=1e-9)


# ------------------------------------------------------- fused round

def reference_fp(Heff, sigma, cfg, init=None):
    """The solver loop written out from the public functions."""
    T = matched_filter_init(Heff, cfg.Pt) if init is None else project_power(init, cfg.Pt)
    history = [sum_rate(Heff, T, sigma)]
    iterations, stop_reason = 0, "cap"
    for it in range(1, cfg.max_outer + 1):
        alpha, beta = update_alpha_beta(Heff, T, sigma)
        T = update_T(Heff, T, alpha, beta, cfg.Pt)
        rate = sum_rate(Heff, T, sigma)
        prev = history[-1]
        history.append(rate)
        iterations = it
        if abs(rate - prev) / max(1.0, prev) < cfg.eps:
            stop_reason = "tol"
            break
    return T, np.asarray(history), iterations, stop_reason


@pytest.mark.parametrize("shape", [(4, 4), (8, 1), (32, 4), (16, 16), (64, 8)])
@pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
def test_fused_loop_matches_public_round(shape, snr_db):
    # one C = Heff^H T per round must reproduce update_alpha_beta, update_T
    # and sum_rate called in turn, on the reduced and the full channel
    L, K = shape
    Pt = 10.0 ** (snr_db / 10.0)
    for seed in range(5):
        ch = generate_rayleigh(L, K, seed=seed)
        red = reduce_channel(ch)
        for Heff, sigma in ((red.Hbar, red.sigma), (ch.H, ch.sigma)):
            starts = [(None, SolverConfig(Pt=Pt)),
                      (random_init(Heff.shape, Pt, seed=100 + seed), SolverConfig(Pt=Pt)),
                      (None, SolverConfig(Pt=Pt, max_outer=1))]
            for init, cfg in starts:
                T, history, iterations, _, stop_reason, _ = run_fp(Heff, sigma, cfg, init=init)
                T_ref, h_ref, it_ref, stop_ref = reference_fp(Heff, sigma, cfg, init=init)
                assert (iterations, stop_reason) == (it_ref, stop_ref)
                assert history.shape == h_ref.shape
                assert np.max(np.abs(history - h_ref)) <= 1e-12 * max(1.0, h_ref[-1])
                assert np.max(np.abs(T - T_ref)) <= 1e-12 * np.sqrt(Pt)


@pytest.mark.parametrize("L, K, snr_db, init_seed", [
    (32, 4, 10.0, None), (16, 16, 40.0, None), (32, 4, 20.0, 5)])
def test_report_rates_are_user_rates_of_precoder(L, K, snr_db, init_seed):
    # the rates come from the last round's SINRs, bit for bit those of
    # user_rates on the returned precoder, for both solvers
    ch = generate_rayleigh(L, K, seed=L + K)
    red = reduce_channel(ch)
    Pt = 10.0 ** (snr_db / 10.0)
    cfg = SolverConfig(Pt=Pt)
    inits = ((None, None) if init_seed is None else
             (random_init((K, K), Pt, init_seed), random_init((L, K), Pt, init_seed)))
    rep = solve_psla(red, cfg, init=inits[0])
    assert np.array_equal(rep.rates, user_rates(red.Hbar, rep.T_final, red.sigma))
    full = solve_full_dim(ch, cfg, init=inits[1])
    assert np.array_equal(full.rates, user_rates(ch.H, full.Pd, ch.sigma))
    T, history, *_, rates = run_fp(red.Hbar, red.sigma, cfg, init=inits[0])
    assert np.array_equal(rates, user_rates(red.Hbar, T, red.sigma))
    assert history[-1] == rep.sum_rate


def test_run_fp_checks_start_once(monkeypatch):
    # the matched-filter start is built on the validated channel: the power
    # and the channel's shape are checked once per solve, and a zero channel
    # column still fails with the public start's message
    calls = []
    positive = milac.optimizer.check_positive
    monkeypatch.setattr(milac.optimizer, "check_positive",
                        lambda name, value: calls.append(name) or positive(name, value))
    ch = generate_rayleigh(6, 2, seed=9)
    cfg = SolverConfig(Pt=10.0)
    assert calls == ["Pt", "eps"]
    run_fp(ch.H, ch.sigma, cfg)
    assert calls == ["Pt", "eps"]
    with pytest.raises(NumericalError, match="zero channel column"):
        run_fp(np.eye(3, 2) * [1.0, 0.0], np.ones(2), cfg)


def test_run_fp_validates_on_entry():
    ch = generate_rayleigh(6, 2, seed=9)
    cfg = SolverConfig(Pt=10.0)
    with pytest.raises(DimensionError):
        run_fp(ch.H, np.ones(3), cfg)
    with pytest.raises(DimensionError):
        run_fp(ch.H[:, 0], ch.sigma, cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_start_fails_on_entry(monkeypatch, bad):
    steps = []
    step = milac.optimizer._exact_step
    monkeypatch.setattr(milac.optimizer, "_exact_step",
                        lambda *args: steps.append(1) or step(*args))
    ch = generate_rayleigh(6, 2, seed=9)
    cfg = SolverConfig(Pt=10.0)
    for solve, init in ((lambda x: solve_psla(reduce_channel(ch), cfg, init=x),
                         random_init((2, 2), 10.0, seed=1)),
                        (lambda x: solve_full_dim(ch, cfg, init=x),
                         random_init((6, 2), 10.0, seed=1))):
        init[1, 0] = bad
        with pytest.raises(DimensionError, match="^init has non-finite entries$"):
            solve(init)
    assert steps == []
    solve_psla(reduce_channel(ch), cfg)  # the spy sees the steps of a solve
    assert steps


def test_run_fp_rejects_non_finite_objective(monkeypatch):
    # a rate that turns NaN after the start point stops the solve
    rates = iter([1.0, float("nan")])
    monkeypatch.setattr(milac.optimizer, "_rate", lambda alpha: next(rates))
    ch = generate_rayleigh(6, 2, seed=9)
    with pytest.raises(NumericalError, match="objective became nan at iteration 1"):
        run_fp(ch.H, ch.sigma, SolverConfig(Pt=10.0))


def bisect_multiplier(e, w, Pt):
    """Root of sum w / (e + lam)^2 = Pt by bisection, 0 if lam = 0 fits."""
    def power(lam):
        return float(np.sum(w / (e + lam) ** 2))

    if power(0.0) <= Pt:
        return 0.0
    lo, hi = 0.0, float(np.sqrt(np.sum(w) / Pt))
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if power(mid) > Pt else (lo, mid)
    return hi


def numpy_multiplier(e, w, Pt):
    """The same safeguarded Newton with its sums taken by numpy."""
    hi = np.sqrt(w.sum() / Pt)
    lam = 0.0
    for _ in range(60):
        r = 1.0 / (e + lam)
        wr2 = w * r * r
        f = wr2.sum()
        new = min(lam + f * (np.sqrt(f / Pt) - 1.0) / (wr2 @ r), hi)
        if new - lam <= 1e-13 * new:
            return max(new, lam)
        lam = new
    return lam


MULTIPLIER_CASES = {
    "K1": (np.array([2.0]), np.array([50.0]), 1.0),
    "K1-fits": (np.array([2.0]), np.array([3.0]), 1.0),
    "K4-fits": (np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.1, 0.2, 0.3, 0.1]), 10.0),
    "K64": (np.sort(np.random.default_rng(1).exponential(size=64)),
            np.random.default_rng(2).exponential(size=64), 0.5),
    "K64-spread": (np.logspace(-12, 6, 64), np.logspace(-12, 6, 64)[::-1] * 1e-3, 3.0),
    "spread-small-Pt": (np.logspace(-12, 6, 19), np.ones(19), 1e-4),
    "spread-large-Pt": (np.logspace(-12, 6, 19), np.logspace(-12, 6, 19) ** 2, 1e3),
    "spread-tiny-lam": (np.logspace(-12, 6, 19), np.logspace(-12, 6, 19) ** 2, 18.5),
}


@pytest.mark.parametrize("case", sorted(MULTIPLIER_CASES))
def test_power_multiplier_matches_bisection(case):
    e, w, Pt = MULTIPLIER_CASES[case]
    lam = _power_multiplier(e, w, Pt)
    ref = bisect_multiplier(e, w, Pt)
    assert isinstance(lam, float) and lam >= 0.0
    # float sums only reorder the arithmetic of the numpy iteration
    assert abs(lam - numpy_multiplier(e, w, Pt)) <= 1e-12 * lam
    if ref == 0.0:
        assert lam == 0.0
    else:
        assert lam > 0.0
        assert abs(np.sum(w / (e + lam) ** 2) - Pt) <= 1e-10 * Pt
        assert abs(lam - ref) <= 1e-9 * ref
