"""Digital-to-analog beamformer construction and its exactness."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milac import (
    DigitalBeamformer,
    DimensionError,
    FactoredScattering,
    InconsistentSolutionError,
    NegativeEntryError,
    ScatteringMatrix,
    TwoLayerSolution,
    check_lossless_reciprocal,
    effective_beamformer,
    generate_rayleigh,
    load_solution,
    map_digital_to_milac,
    power_step,
    save_matrix,
    save_solution,
    sum_rate,
    verify_phi_feasibility,
)


def random_beamformer(L, K, Pt, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((L, K)) + 1j * rng.standard_normal((L, K))
    X *= np.sqrt(Pt / np.trace(X @ X.conj().T).real)
    return DigitalBeamformer(Pd=X, Pt=Pt)


def test_rank_one_axis_aligned():
    d = DigitalBeamformer(Pd=np.array([[1.0 + 0j], [0.0]]), Pt=1.0)
    sol = map_digital_to_milac(d)
    assert np.allclose(sol.Theta.S, np.array([[0, 1], [1, 0]]), atol=1e-14)
    assert np.allclose(sol.Psqrt, np.array([[4.0]]), atol=1e-14)
    assert np.allclose(sol.W, np.array([[0.5], [0.0]]), atol=1e-14)
    assert np.allclose(sol.F, np.array([[0.5]]), atol=1e-14)
    assert np.allclose(sol.G, d.Pd, atol=1e-14)


def test_identity_beamformer():
    d = DigitalBeamformer(Pd=np.eye(2, dtype=complex), Pt=2.0)
    sol = map_digital_to_milac(d)
    swap = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    assert np.allclose(sol.Theta.S, swap, atol=1e-14)
    assert np.allclose(sol.Phi.S, swap, atol=1e-14)
    assert np.allclose(sol.Psqrt, 4 * np.eye(2), atol=1e-14)
    assert np.allclose(sol.G, np.eye(2), atol=1e-14)


def test_random_reconstruction():
    d = random_beamformer(8, 3, Pt=1.0, seed=3)
    sol = map_digital_to_milac(d)
    err = np.linalg.norm(sol.G - d.Pd) / np.linalg.norm(d.Pd)
    assert err <= 1e-10
    assert check_lossless_reciprocal(sol.Theta, tol=1e-10).passed
    assert check_lossless_reciprocal(sol.Phi, tol=1e-10).passed
    # structural zeros
    K, L = 3, 8
    assert np.all(sol.Theta.S[:K, :K] == 0)
    assert np.all(sol.Theta.S[K:, K:] == 0)
    assert np.all(sol.Phi.S[:K, :K] == 0)


def test_square_edge_case():
    # L = K leaves no orthogonal complement and a zero lower-right block
    d = random_beamformer(4, 4, Pt=4.0, seed=5)
    sol = map_digital_to_milac(d)
    assert np.allclose(sol.Phi.S[4:, 4:], 0.0, atol=1e-12)
    assert np.linalg.norm(sol.G - d.Pd) <= 1e-10 * np.linalg.norm(d.Pd)


def test_rank_deficient_input():
    col = (np.arange(1, 7) + 1j).reshape(6, 1)
    Pd = np.hstack([col, 2 * col])  # rank 1, K = 2
    Pd = Pd / np.sqrt(np.trace(Pd @ Pd.conj().T).real)
    sol = map_digital_to_milac(DigitalBeamformer(Pd=Pd, Pt=1.0))
    gains = np.diag(sol.Psqrt)
    assert gains[1] == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(sol.G - Pd) <= 1e-9 * np.linalg.norm(Pd)


def test_trace_identity_and_budget():
    d = random_beamformer(6, 2, Pt=3.0, seed=8)
    sol = map_digital_to_milac(d)
    trace_P = np.trace(sol.Psqrt @ sol.Psqrt).real
    assert trace_P == pytest.approx(16 * 3.0, rel=1e-9)
    # binding budget rescales the gains onto the budget sphere
    tight = map_digital_to_milac(d, amp_budget=8.0)
    assert np.trace(tight.Psqrt @ tight.Psqrt).real == pytest.approx(8.0, rel=1e-9)


def test_dimension_error_wide_input():
    with pytest.raises(DimensionError):
        DigitalBeamformer(Pd=np.ones((2, 3), dtype=complex), Pt=10.0)


def test_power_violation_rejected():
    with pytest.raises(DimensionError):
        DigitalBeamformer(Pd=np.eye(2, dtype=complex) * 10, Pt=1.0)


def test_effective_beamformer_identity():
    sol = map_digital_to_milac(DigitalBeamformer(Pd=np.eye(2, dtype=complex), Pt=2.0))
    assert np.allclose(effective_beamformer(sol), np.eye(2), atol=1e-12)


def test_effective_beamformer_zero_gains():
    sol = map_digital_to_milac(DigitalBeamformer(Pd=np.eye(2, dtype=complex), Pt=2.0))
    dead = dataclasses.replace(sol, Psqrt=np.zeros((2, 2)))
    assert np.allclose(effective_beamformer(dead), 0.0, atol=0)


def test_effective_beamformer_matches_input():
    d = random_beamformer(5, 2, Pt=1.0, seed=13)
    sol = map_digital_to_milac(d)
    assert np.allclose(effective_beamformer(sol), d.Pd, atol=1e-10)


def test_phi_feasibility_both_signs():
    d = random_beamformer(6, 2, Pt=1.0, seed=21)
    sol = map_digital_to_milac(d)
    U, _, _ = np.linalg.svd(d.Pd, full_matrices=True)
    U1, U2 = U[:, :2], U[:, 2:]
    rep = verify_phi_feasibility(sol.Phi, U1)
    assert rep.passed

    # flipping the sign of the lower-right block stays feasible
    import milac.network as net
    Phi_flipped = sol.Phi.S.copy()
    Phi_flipped[2:, 2:] = U2 @ U2.T
    rep2 = verify_phi_feasibility(net.ScatteringMatrix(S=Phi_flipped), U1)
    assert rep2.passed


def test_phi_feasibility_rejects_identity_block():
    import milac.network as net
    d = random_beamformer(6, 2, Pt=1.0, seed=22)
    sol = map_digital_to_milac(d)
    U, _, _ = np.linalg.svd(d.Pd, full_matrices=True)
    U1 = U[:, :2]
    bad = sol.Phi.S.copy()
    bad[2:, 2:] = np.eye(6)
    rep = verify_phi_feasibility(net.ScatteringMatrix(S=bad), U1)
    assert not rep.passed
    assert rep.orthogonality_residual > 1e-6


def test_power_step_cases():
    out = power_step(np.diag([1.0, 0.5]), p_amp=16 * 1.25)
    assert np.allclose(out, np.diag([4.0, 2.0]), atol=1e-12)
    out = power_step(np.diag([1.0]), p_amp=4.0)
    assert np.allclose(out, np.diag([2.0]), atol=1e-12)
    assert np.allclose(power_step(np.zeros((2, 2)), p_amp=1.0), 0.0, atol=0)
    with pytest.raises(NegativeEntryError):
        power_step(np.diag([-1.0]), p_amp=1.0)
    with pytest.raises(NegativeEntryError):
        power_step(np.diag([1.0 + 1e-3j]), p_amp=1.0)


def test_sum_rate_invariance():
    ch = generate_rayleigh(8, 3, seed=2)
    d = random_beamformer(8, 3, Pt=10.0, seed=2)
    sol = map_digital_to_milac(d)
    r_digital = sum_rate(ch.H, d.Pd, ch.sigma)
    r_analog = sum_rate(ch.H, sol.G, ch.sigma)
    assert r_analog == pytest.approx(r_digital, abs=1e-9)


def test_solution_serialization(tmp_path):
    d = random_beamformer(5, 2, Pt=1.0, seed=30)
    sol = map_digital_to_milac(d)
    save_solution(tmp_path, sol)
    out = load_solution(tmp_path)
    assert np.array_equal(out.Theta.S, sol.Theta.S)
    assert np.array_equal(out.Phi.S, sol.Phi.S)
    assert np.array_equal(out.Psqrt, sol.Psqrt)
    assert np.array_equal(out.F, sol.F)
    assert np.array_equal(out.W, sol.W)
    assert np.array_equal(out.G, sol.G)


def test_derived_blocks_follow_scattering_matrices():
    sol = map_digital_to_milac(random_beamformer(7, 3, Pt=2.0, seed=31))
    assert np.array_equal(sol.F, sol.Theta.S[3:, :3] / 2)
    assert np.array_equal(sol.W, sol.Phi.S[3:, :3] / 2)
    assert np.array_equal(sol.G, sol.W @ sol.Psqrt @ sol.F)
    with pytest.raises(TypeError):
        TwoLayerSolution(Theta=sol.Theta, Phi=sol.Phi, Psqrt=sol.Psqrt, G=sol.G)


def _scaled(Pd):
    Pd = np.asarray(Pd, dtype=complex)
    return DigitalBeamformer(Pd=Pd / np.linalg.norm(Pd), Pt=1.0)


def _one_zero_singular_value():
    rng = np.random.default_rng(41)
    A = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
    return _scaled(np.hstack([A, A @ np.array([[1.0], [2.0 - 1j]])]))


COMPLEMENT_CASES = {
    "square": lambda: random_beamformer(5, 5, Pt=1.0, seed=40),
    "single_stream": lambda: random_beamformer(7, 1, Pt=1.0, seed=41),
    "one_spare_antenna": lambda: random_beamformer(6, 5, Pt=1.0, seed=42),
    "large_array": lambda: random_beamformer(512, 8, Pt=1.0, seed=43),
    "real": lambda: _scaled(np.random.default_rng(44).standard_normal((10, 3))),
    "axis_aligned_2x1": lambda: _scaled([[1.0], [0.0]]),
    "axis_aligned_5x2": lambda: _scaled(np.eye(5)[:, :2]),
    "one_zero_singular_value": _one_zero_singular_value,
}


@pytest.mark.parametrize("case", sorted(COMPLEMENT_CASES))
def test_complement_layer(case):
    d = COMPLEMENT_CASES[case]()
    sol = map_digital_to_milac(d)
    L, K = d.L, d.K
    # the U1 the layer was built from sits in Phi21 unscaled
    U1 = sol.Phi.S[K:, :K]
    assert np.linalg.norm(U1.conj().T @ U1 - np.eye(K)) <= 1e-12
    assert verify_phi_feasibility(sol.Phi, U1, tol=1e-10).passed
    Phi22 = sol.Phi.S[K:, K:]
    target = np.eye(L) - U1 @ U1.conj().T
    assert np.linalg.norm(Phi22 @ Phi22.conj().T - target) <= 1e-12
    assert check_lossless_reciprocal(sol.Phi).symmetry_residual == 0.0
    assert np.linalg.norm(sol.G - d.Pd) <= 1e-12 * max(1.0, np.linalg.norm(d.Pd))


def test_axis_aligned_column_has_zero_reflector():
    # LAPACK leaves a column that already equals e_i unreflected (tau = 0),
    # which the triangular-factor recurrence must survive
    for d in (_scaled([[1.0], [0.0]]), _scaled(np.eye(5)[:, :2])):
        U1 = map_digital_to_milac(d).Phi.S[d.K:, :d.K]
        _, tau = np.linalg.qr(U1, mode="raw")
        assert np.any(tau == 0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 1), (4, 2), (8, 3), (8, 8), (16, 4)]),
       st.integers(0, 10_000), st.floats(0.1, 100.0))
def test_exactness_property(shape, seed, Pt):
    L, K = shape
    d = random_beamformer(L, K, Pt=Pt, seed=seed)
    sol = map_digital_to_milac(d)
    assert np.linalg.norm(sol.G - d.Pd) <= 1e-9 * np.linalg.norm(d.Pd)
    assert check_lossless_reciprocal(sol.Theta, tol=1e-10).passed
    assert check_lossless_reciprocal(sol.Phi, tol=1e-10).passed


def _dense_second_layer(U1):
    """The dense (L+K)-port second layer as the mapping built it before Phi
    was kept factored, written out: its bits are what phi.txt holds."""
    L, K = U1.shape
    h, tau = np.linalg.qr(U1, mode="raw")
    V = np.tril(h.T, -1)
    np.fill_diagonal(V, 1.0)
    VhV = V.conj().T @ V
    T = np.diag(tau)
    for i in range(1, K):
        T[:i, i] = -tau[i] * (T[:i, :i] @ VhV[:i, i])
    Y = V @ T
    b = V[K:].conj()
    Z = (b.T @ b) @ Y.T * -0.5
    Z[:, K:] += b.T
    X = Y @ Z
    X.flat[K * (L + 1)::L + 1] -= 0.5
    Phi = np.zeros((L + K, L + K), dtype=np.complex128)
    Phi[:K, K:] = U1.T
    Phi[K:, :K] = U1
    np.add(X, X.T, out=Phi[K:, K:])
    return Phi


@pytest.mark.parametrize("case", sorted(COMPLEMENT_CASES))
def test_factored_phi_materializes_bit_identical(case, tmp_path):
    d = COMPLEMENT_CASES[case]()
    sol = map_digital_to_milac(d)
    assert isinstance(sol.Phi, FactoredScattering)
    U1 = np.linalg.svd(d.Pd, full_matrices=False)[0]
    assert np.array_equal(sol.Phi.S, _dense_second_layer(U1))
    assert np.array_equal(sol.W, sol.Phi.S[d.K:, :d.K] / 2)
    save_solution(tmp_path, sol)
    assert np.array_equal(load_solution(tmp_path).Phi.S, sol.Phi.S)


def _criterion_1_beamformers():
    grid = [(L, K) for L in (2, 4, 8, 32) for K in (1, 2, 4, 8) if K <= L]
    cases = [(*grid[i % len(grid)], i) for i in range(1000)]
    cases += [(L, K, 5000 + i) for L, K in ((512, 8), (64, 64)) for i in range(4)]
    for L, K, i in cases:
        yield random_beamformer(L, K, Pt=1.0 + (i % 7), seed=i)
    for L, K in ((512, 8), (64, 64), (9, 8), (64, 1)):
        yield random_beamformer(L, K, Pt=1.0, seed=L * K)


def test_factored_check_never_looser_than_dense():
    # rounding differs between the two paths; the factored residual may sit
    # below the dense one of the formed matrix only by far less than
    # SCATTER_TOL = 1e-10
    for d in _criterion_1_beamformers():
        Phi = map_digital_to_milac(d).Phi
        rep = check_lossless_reciprocal(Phi, tol=1e-10)
        dense = check_lossless_reciprocal(Phi.S, tol=1e-10)
        assert rep.unitarity_residual >= dense.unitarity_residual - 1e-13, (d.L, d.K)
        assert rep.symmetry_residual == dense.symmetry_residual == 0.0
        assert rep.passed and dense.passed


def test_mapping_allocates_no_dense_layer():
    rng = np.random.default_rng(9)
    Pd = rng.standard_normal((2048, 4)) + 1j * rng.standard_normal((2048, 4))
    d = DigitalBeamformer(Pd=Pd, Pt=float(np.linalg.norm(Pd) ** 2))
    tracemalloc.start()
    try:
        sol = map_digital_to_milac(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense 2052-port Phi alone is 2052^2 * 16 B = 67 MB
    assert peak < 8e6
    assert np.linalg.norm(sol.G - d.Pd) <= 1e-12 * np.linalg.norm(d.Pd)
    S = sol.Phi.S
    assert S.shape == (2052, 2052)
    assert np.array_equal(S[4:, :4], sol.Phi.U1)
    assert np.array_equal(S, S.T)


def test_mapping_checks_each_layer_once(monkeypatch):
    import milac.mapping
    seen = []

    def counted(S, tol):
        seen.append(type(S).__name__)
        return check_lossless_reciprocal(S, tol=tol)

    monkeypatch.setattr(milac.mapping, "check_lossless_reciprocal", counted)
    map_digital_to_milac(random_beamformer(12, 3, Pt=1.0, seed=4))
    assert seen == ["ScatteringMatrix", "FactoredScattering"]


def test_dense_phi_still_checked_densely(tmp_path):
    # a solution handed a dense Phi, raw or wrapped or from files, is
    # certified by the dense check, which sees any entry
    sol = map_digital_to_milac(random_beamformer(10, 3, Pt=1.0, seed=6))
    dense = np.array(sol.Phi.S)
    for Phi in (dense, ScatteringMatrix(S=dense)):
        out = TwoLayerSolution(Theta=sol.Theta, Phi=Phi, Psqrt=sol.Psqrt)
        assert isinstance(out.Phi, ScatteringMatrix)
        assert np.array_equal(out.G, sol.G)
    bad = dense.copy()
    bad[7, 9] += 1e-9j
    for Phi in (bad, ScatteringMatrix(S=bad)):
        with pytest.raises(InconsistentSolutionError, match="Phi"):
            TwoLayerSolution(Theta=sol.Theta, Phi=Phi, Psqrt=sol.Psqrt)
    save_solution(tmp_path, sol)
    save_matrix(tmp_path / "phi.txt", bad)
    with pytest.raises(InconsistentSolutionError, match="Phi"):
        load_solution(tmp_path)


def test_gains_must_be_finite():
    sol = map_digital_to_milac(random_beamformer(5, 2, Pt=1.0, seed=7))
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, 0.0), complex(0.0, np.nan)):
        gains = np.array(sol.Psqrt, dtype=complex)
        gains[1, 1] = bad
        with pytest.raises(DimensionError, match="non-finite"):
            TwoLayerSolution(Theta=sol.Theta, Phi=sol.Phi, Psqrt=gains)
        with pytest.raises(DimensionError, match="non-finite"):
            power_step(gains, p_amp=1.0)
    off = np.array(sol.Psqrt)
    off[0, 1] = np.inf
    with pytest.raises(DimensionError, match="non-finite"):
        power_step(off, p_amp=1.0)
