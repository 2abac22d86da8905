"""Tests of the benchmark's own output checks and span bookkeeping.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each check must accept a right answer and reject a deliberately broken one.
"""

import math

import numpy as np
import pytest

import checks
from checks import CheckFailed


def symmetric_unitary(n, seed=0):
    """U U^T for a random unitary U is unitary and symmetric."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q @ Q.T


def test_sum_rate_and_bound_by_hand():
    H = np.eye(2, dtype=complex)
    Pt = 10.0
    P = math.sqrt(Pt / 2) * np.eye(2)
    assert checks.sum_rate_bits(H, P) == pytest.approx(2 * math.log2(1 + Pt / 2), rel=1e-14)
    assert checks.interference_free_bound(H, Pt) == pytest.approx(2 * math.log2(1 + Pt))
    # all power on user 0's beam: user 1 sees only interference-free noise
    Q = np.array([[math.sqrt(Pt), 0.0], [0.0, 0.0]], dtype=complex)
    assert checks.sum_rate_bits(H, Q) == pytest.approx(math.log2(1 + Pt))
    # user 1's channel picks up user 0's beam as interference
    H2 = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    P2 = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    expected = math.log2(1 + 1.0) + math.log2(1 + 1.0 / (1.0 + 1.0))
    assert checks.sum_rate_bits(H2, P2) == pytest.approx(expected)


def test_check_rate_accepts_truth_rejects_perturbed_and_over_bound():
    H = checks.rayleigh(8, 3, 1)
    P = checks.zf_precoder(H, 5.0)
    own = checks.check_rate("zf", H, P, 5.0, checks.sum_rate_bits(H, P))
    assert own == checks.sum_rate_bits(H, P)
    with pytest.raises(CheckFailed):
        checks.check_rate("zf", H, P, 5.0, own * (1 + 1e-6))
    with pytest.raises(CheckFailed):
        checks.check_rate("zf", H, P, 5.0, float("nan"))
    loud = 100.0 * P  # far off the power sphere, so above the bound for Pt
    with pytest.raises(CheckFailed, match="bound"):
        checks.check_rate("loud", H, loud, 5.0, checks.sum_rate_bits(H, loud))


def test_check_power_rejects_off_sphere():
    H = checks.rayleigh(4, 2, 2)
    P = checks.zf_precoder(H, 3.0)
    checks.check_power("P", P, 3.0)
    with pytest.raises(CheckFailed):
        checks.check_power("P", 1.001 * P, 3.0)


def test_check_beamformer_rejects_perturbed_G():
    Pd = checks.rayleigh(6, 2, 3)
    checks.check_beamformer(Pd * (1 + 1e-12), Pd)
    G = Pd.copy()
    G[0, 0] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_beamformer(G, Pd)
    with pytest.raises(CheckFailed):
        checks.check_beamformer(Pd[:, :1], Pd)


def test_check_lossless_reciprocal_rejects_asymmetric_and_lossy():
    S = symmetric_unitary(5)
    checks.check_lossless_reciprocal("S", S)
    c, s = math.cos(0.3), math.sin(0.3)
    rotation = np.array([[c, -s], [s, c]], dtype=complex)  # unitary, not symmetric
    with pytest.raises(CheckFailed, match="not symmetric"):
        checks.check_lossless_reciprocal("rot", rotation)
    with pytest.raises(CheckFailed, match="not unitary"):
        checks.check_lossless_reciprocal("lossy", 0.999 * S)


def test_check_nondecreasing():
    checks.check_nondecreasing("h", [1.0, 2.0, 2.0, 3.0])
    checks.check_nondecreasing("h", [1.0, 1.0 - 1e-12])
    with pytest.raises(CheckFailed):
        checks.check_nondecreasing("h", [1.0, 2.0, 1.5])
    with pytest.raises(CheckFailed):
        checks.check_nondecreasing("h", [1.0, float("nan")])
    with pytest.raises(CheckFailed):
        checks.check_nondecreasing("h", [])


def test_zf_precoder_nulls_interference_and_check_zf_rate():
    H = checks.rayleigh(6, 3, 4)
    P = checks.zf_precoder(H, 2.0)
    C = H.conj().T @ P
    assert np.allclose(C - np.diag(np.diag(C)), 0, atol=1e-12)
    checks.check_power("zf", P, 2.0)
    rate = checks.check_zf_rate(H, 2.0, checks.sum_rate_bits(H, P))
    matched = H * math.sqrt(2.0 / 3) / np.linalg.norm(H, axis=0)
    with pytest.raises(CheckFailed):
        checks.check_zf_rate(H, 2.0, checks.sum_rate_bits(H, matched))
    assert rate > 0


def test_check_sweep_cell():
    good = {"digital_full": 10.0001, "digital_reduced": 10.0, "two_layer": 10.0,
            "zero_forcing": 9.0}
    checks.check_sweep_cell(good)
    for broken in (
        {k: v for k, v in good.items() if k != "zero_forcing"},
        dict(good, zero_forcing=float("nan")),
        dict(good, two_layer=10.0 + 1e-6),
        dict(good, digital_full=10.2),
    ):
        with pytest.raises(CheckFailed):
            checks.check_sweep_cell(broken)


def test_oracle_checks():
    checks.check_oracle(5.0, 6.0)
    with pytest.raises(CheckFailed):
        checks.check_oracle(6.1, 6.0)
    assert checks.reaches_oracle(4.96, 5.0)
    assert not checks.reaches_oracle(4.9, 5.0)


def test_rayleigh_matches_the_harness_channels():
    milac = pytest.importorskip("milac")
    H = milac.generate_rayleigh(32, 4, 1234).H
    assert np.array_equal(H, checks.rayleigh(32, 4, 1234))


def test_layer_metrics_self_time():
    spans = pytest.importorskip("spans")
    # run_fp [0, 10] with children update_T [1, 3] and compute_xi [4, 5]
    recorded = [
        ("optimizer.run_fp", 0.0, 10.0, -1, 0, [7, 500]),
        ("optimizer.update_T", 1.0, 3.0, 0, 0, None),
        ("optimizer.compute_xi", 4.0, 5.0, 0, 0, None),
        ("mapping.map_digital_to_milac", 11.0, 12.0, -1, 0, None),
        ("network.check_lossless_reciprocal", 11.5, 11.75, 3, 0, None),
    ]
    m = spans.layer_metrics(recorded)
    assert m["optimizer.self_s"][0] == pytest.approx(7.0 + 2.0 + 1.0)
    assert m["mapping.self_s"][0] == pytest.approx(0.75)
    assert m["network.self_s"][0] == pytest.approx(0.25)
    assert m["optimizer.rounds_mean"][0] == 7
    assert m["optimizer.hit_cap"][0] == 0
    assert m["optimizer.xi_calls"][0] == 1
    assert m["baselines.oracle_s_p50"][0] == 0.0


def test_tracer_wraps_every_binding_and_restores():
    milac = pytest.importorskip("milac")
    spans = pytest.importorskip("spans")
    import milac.harness
    import milac.optimizer

    original = milac.optimizer.solve_psla
    ch = milac.generate_rayleigh(6, 2, 5)
    red = milac.reduce_channel(ch)
    tracer = spans.Tracer()
    with tracer.active():
        assert milac.harness.solve_psla is milac.optimizer.solve_psla
        assert milac.optimizer.solve_psla is not original
        report = milac.harness.solve_psla(red, milac.SolverConfig(Pt=4.0))
    assert milac.optimizer.solve_psla is original and milac.harness.solve_psla is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "optimizer.solve_psla"
    assert "optimizer.run_fp" in names and "optimizer.compute_xi" in names
    fp = names.index("optimizer.run_fp")
    assert tracer.spans[fp][3] == 0 and tracer.spans[fp][5][0] == report.iterations
    plain = milac.harness.solve_psla(red, milac.SolverConfig(Pt=4.0))
    assert plain.sum_rate == report.sum_rate
