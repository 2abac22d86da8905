"""Digital-to-analog beamformer construction and its exactness."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import milac.mapping
from milac import (
    DigitalBeamformer,
    DimensionError,
    FactoredScattering,
    InconsistentSolutionError,
    ScatteringMatrix,
    TwoLayerSolution,
    beamformer_from_scattering,
    check_lossless_reciprocal,
    generate_rayleigh,
    map_digital_to_milac,
    sum_rate,
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


def test_gains_capped_at_budget_for_power_within_rounding():
    # DigitalBeamformer accepts trace(Pd Pd^H) up to Pt (1 + 1e-9); the
    # gains 4 S would then draw more than 16 Pt, and are scaled onto it
    Pt = 1.25
    Pd = np.diag([1.0, 0.5]) * np.sqrt(1 + 8e-10)
    sol = map_digital_to_milac(DigitalBeamformer(Pd=Pd, Pt=Pt))
    gains = np.diag(sol.Psqrt)
    assert np.sum(gains**2) == pytest.approx(16 * Pt, rel=1e-15, abs=0)
    assert np.sum(gains**2) < np.sum((4 * np.diag(Pd).real) ** 2)
    assert np.allclose(gains, [4.0, 2.0], rtol=1e-9, atol=0)


def test_beamformer_needs_a_column():
    for shape in ((3, 0), (0, 0)):
        with pytest.raises(DimensionError, match=r"^need L >= K >= 1, got L=\d, K=0$"):
            DigitalBeamformer(Pd=np.zeros(shape), Pt=1.0)


def test_dimension_error_wide_input():
    with pytest.raises(DimensionError):
        DigitalBeamformer(Pd=np.ones((2, 3), dtype=complex), Pt=10.0)


def test_power_violation_rejected():
    with pytest.raises(DimensionError):
        DigitalBeamformer(Pd=np.eye(2, dtype=complex) * 10, Pt=1.0)
    for Pt in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DimensionError, match="Pt must be finite and positive"):
            DigitalBeamformer(Pd=np.zeros((2, 2)), Pt=Pt)


def test_effective_beamformer_identity():
    sol = map_digital_to_milac(DigitalBeamformer(Pd=np.eye(2, dtype=complex), Pt=2.0))
    assert np.allclose(sol.G, np.eye(2), atol=1e-12)


def test_effective_beamformer_zero_gains():
    sol = map_digital_to_milac(DigitalBeamformer(Pd=np.eye(2, dtype=complex), Pt=2.0))
    dead = dataclasses.replace(sol, Psqrt=np.zeros((2, 2)))
    assert np.allclose(dead.G, 0.0, atol=0)


def test_effective_beamformer_matches_input():
    d = random_beamformer(5, 2, Pt=1.0, seed=13)
    sol = map_digital_to_milac(d)
    assert np.allclose(sol.G, d.Pd, atol=1e-10)


def _phi_feasibility(S, U1):
    """Dense reference check of the second layer against a given U1.

    Frobenius residuals of the upper-left K x K block Phi11, the range
    orthogonality U1^H Phi22, the completeness U1 U1^H + Phi22 Phi22^H - I
    and the symmetry Phi22 - Phi22^T, read off every entry of the
    (L+K) x (L+K) matrix S.
    """
    L, K = U1.shape
    assert S.shape == (L + K, L + K)
    Phi22 = S[K:, K:]
    return {
        "phi11": np.linalg.norm(S[:K, :K]),
        "orthogonality": np.linalg.norm(U1.conj().T @ Phi22),
        "completeness": np.linalg.norm(U1 @ U1.conj().T + Phi22 @ Phi22.conj().T - np.eye(L)),
        "symmetry": np.linalg.norm(Phi22 - Phi22.T),
    }


def test_phi_feasibility_both_signs():
    d = random_beamformer(6, 2, Pt=1.0, seed=21)
    sol = map_digital_to_milac(d)
    U, _, _ = np.linalg.svd(d.Pd, full_matrices=True)
    U1, U2 = U[:, :2], U[:, 2:]
    assert max(_phi_feasibility(sol.Phi.S, U1).values()) <= 1e-10

    # flipping the sign of the lower-right block stays feasible
    Phi_flipped = sol.Phi.S.copy()
    Phi_flipped[2:, 2:] = U2 @ U2.T
    assert max(_phi_feasibility(Phi_flipped, U1).values()) <= 1e-10


def test_phi_feasibility_rejects_identity_block():
    d = random_beamformer(6, 2, Pt=1.0, seed=22)
    sol = map_digital_to_milac(d)
    U, _, _ = np.linalg.svd(d.Pd, full_matrices=True)
    U1 = U[:, :2]
    bad = sol.Phi.S.copy()
    bad[2:, 2:] = np.eye(6)
    residuals = _phi_feasibility(bad, U1)
    assert max(residuals.values()) > 1e-10
    assert residuals["orthogonality"] > 1e-6


def test_power_step_cases():
    # gains are 4 S, whose power 16 trace(S^2) fits the budget 16 Pt
    d = DigitalBeamformer(Pd=np.diag([1.0, 0.5]), Pt=1.25)
    assert np.allclose(map_digital_to_milac(d).Psqrt, np.diag([4.0, 2.0]), atol=1e-12)
    zero = DigitalBeamformer(Pd=np.zeros((2, 2)), Pt=1.0)
    assert np.allclose(map_digital_to_milac(zero).Psqrt, 0.0, atol=0)
    # stored gains must be real and nonnegative
    one = DigitalBeamformer(Pd=np.eye(1), Pt=1.0)
    sol = map_digital_to_milac(one)
    with pytest.raises(DimensionError, match="negative amplifier gain"):
        TwoLayerSolution(Theta=sol.Theta, Phi=sol.Phi, Psqrt=np.diag([-1.0]))
    with pytest.raises(DimensionError, match="must be real"):
        TwoLayerSolution(Theta=sol.Theta, Phi=sol.Phi, Psqrt=np.diag([1.0 + 1e-3j]))


def test_sum_rate_invariance():
    ch = generate_rayleigh(8, 3, seed=2)
    d = random_beamformer(8, 3, Pt=10.0, seed=2)
    sol = map_digital_to_milac(d)
    r_digital = sum_rate(ch.H, d.Pd, ch.sigma)
    r_analog = sum_rate(ch.H, sol.G, ch.sigma)
    assert r_analog == pytest.approx(r_digital, abs=1e-9)


def test_derived_blocks_follow_scattering_matrices():
    sol = map_digital_to_milac(random_beamformer(7, 3, Pt=2.0, seed=31))
    assert np.array_equal(sol.F, sol.Theta.S[3:, :3] / 2)
    assert np.array_equal(sol.W, sol.Phi.S[3:, :3] / 2)
    assert np.array_equal(sol.G, sol.W @ (sol.Psqrt @ sol.F))
    with pytest.raises(TypeError):
        TwoLayerSolution(Theta=sol.Theta, Phi=sol.Phi, Psqrt=sol.Psqrt, G=sol.G)


def test_factored_phi_must_match_theta_streams():
    # a factored Phi carries its own stream count; a 12-port Phi for K=2
    # next to a K=4 Theta would read as an L=8 layer with a 10 x 2 W
    sol = map_digital_to_milac(random_beamformer(6, 4, Pt=1.0, seed=32))
    other = map_digital_to_milac(random_beamformer(10, 2, Pt=1.0, seed=33))
    with pytest.raises(DimensionError, match="2 streams"):
        TwoLayerSolution(Theta=sol.Theta, Phi=other.Phi, Psqrt=sol.Psqrt)
    # a dense Phi carries no stream count: the same 12 ports split as K=4,
    # L=8, and every derived block follows that split
    out = TwoLayerSolution(Theta=sol.Theta, Phi=other.Phi.S, Psqrt=sol.Psqrt)
    assert out.L == 8 and out.W.shape == out.G.shape == (8, 4)


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
    assert max(_phi_feasibility(sol.Phi.S, U1).values()) <= 1e-10
    Phi22 = sol.Phi.S[K:, K:]
    target = np.eye(L) - U1 @ U1.conj().T
    assert np.linalg.norm(Phi22 @ Phi22.conj().T - target) <= 1e-12
    assert check_lossless_reciprocal(sol.Phi).symmetry_residual == 0.0
    assert np.linalg.norm(sol.G - d.Pd) <= 1e-12 * max(1.0, np.linalg.norm(d.Pd))


def test_axis_aligned_column_has_zero_reflector():
    # LAPACK leaves a column of Pd that already equals e_i unreflected
    # (tau = 0), which the triangular-factor recurrence must survive
    for d in (_scaled([[1.0], [0.0]]), _scaled(np.eye(5)[:, :2])):
        _, tau = np.linalg.qr(d.Pd, mode="raw")
        assert np.any(tau == 0)
        sol = map_digital_to_milac(d)
        assert check_lossless_reciprocal(sol.Phi, tol=1e-10).passed
        assert np.linalg.norm(sol.G - d.Pd) <= 1e-12 * np.linalg.norm(d.Pd)


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


def _reflector_factors(Pd):
    """V, T and Ur of the second layer of Pd, written out: the raw
    Householder QR Pd = Q [R; 0] with Q = I - V T V^H and the SVD
    R = Ur S V^H."""
    K = Pd.shape[1]
    h, tau = np.linalg.qr(Pd, mode="raw")
    Ur = np.linalg.svd(np.triu(h[:, :K].T))[0]
    V = np.tril(h.T, -1)
    np.fill_diagonal(V, 1.0)
    VhV = V.conj().T @ V
    T = np.diag(tau)
    for i in range(1, K):
        T[:i, i] = -tau[i] * (T[:i, :i] @ VhV[:i, i])
    return V, T, Ur


def _written_out_factors(V, T, Ur):
    """U1 = Q [Ur; 0], Y = V T and Z = b^T - (b^T b) Y^T / 2 with
    b = E conj(V), so that -U2 U2^T = Y Z + (Y Z)^T - E."""
    K = T.shape[0]
    Y = V @ T
    U1 = -(Y @ (V[:K].conj().T @ Ur))
    U1[:K] += Ur
    b = V[K:].conj()
    Z = (b.T @ b) @ Y.T * -0.5
    Z[:, K:] += b.T
    return U1, Y, Z


def _dense_second_layer(Pd):
    """The dense (L+K)-port second layer of Pd, written out from the
    reflector factors: U1 = Q [Ur; 0] and -U2 U2^T from the same
    reflectors. Its bits are what phi.txt holds."""
    L, K = Pd.shape
    U1, Y, Z = _written_out_factors(*_reflector_factors(Pd))
    X = Y @ Z
    X.flat[K * (L + 1)::L + 1] -= 0.5
    Phi = np.zeros((L + K, L + K), dtype=np.complex128)
    Phi[:K, K:] = U1.T
    Phi[K:, :K] = U1
    np.add(X, X.T, out=Phi[K:, K:])
    return Phi


@pytest.mark.parametrize("case", sorted(COMPLEMENT_CASES))
def test_factored_phi_materializes_bit_identical(case):
    d = COMPLEMENT_CASES[case]()
    sol = map_digital_to_milac(d)
    assert isinstance(sol.Phi, FactoredScattering)
    assert np.array_equal(sol.Phi.S, _dense_second_layer(d.Pd))
    assert np.array_equal(sol.W, sol.Phi.S[d.K:, :d.K] / 2)


def _structured_with_zeros():
    # exact zeros inside the head and below it, and a real column
    A = np.random.default_rng(45).standard_normal((12, 3)) + 0j
    A[:4, 1] = 0.0
    A[::2, 0] = 0.0
    A[1::3, 2] = 0.0
    A[:, 2] += 1j * np.arange(12)
    return _scaled(A)


KERNEL_CASES = {
    "32x4": lambda: random_beamformer(32, 4, Pt=1.0, seed=50),
    "512x8": lambda: random_beamformer(512, 8, Pt=1.0, seed=51),
    "16x16": lambda: random_beamformer(16, 16, Pt=1.0, seed=52),
    "structured_zeros": _structured_with_zeros,
    "axis_aligned_5x2": COMPLEMENT_CASES["axis_aligned_5x2"],
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_layer_kernels_match_written_out_formulas(case):
    # the reflectors, the half-scaled blocks and G equal, bit for bit, the
    # plain formulas: V as the strict lower triangle of the raw QR's h.T
    # with a unit diagonal, and the blocks as halves of Theta21 and Phi21
    d = KERNEL_CASES[case]()
    L, K = d.L, d.K
    sol = map_digital_to_milac(d)
    V, T, Ur = _reflector_factors(d.Pd)
    assert np.array_equal(sol.Phi.V, V)
    assert np.array_equal(sol.Phi.T, T) and np.array_equal(sol.Phi.Ur, Ur)
    F = sol.Theta.S[K:, :K] / 2.0
    W = _written_out_factors(V, T, Ur)[0] / 2.0
    assert np.array_equal(sol.F, F) and np.array_equal(sol.W, W)
    assert np.array_equal(sol.G, W @ (sol.Psqrt @ F))
    assert np.array_equal(beamformer_from_scattering(sol.Phi, K, L), W)
    dense = TwoLayerSolution(Theta=sol.Theta, Phi=sol.Phi.S, Psqrt=sol.Psqrt)
    assert np.array_equal(dense.W, W) and np.array_equal(dense.G, sol.G)
    # the dense layers are bit for bit, signed zeros included, those of the
    # written-out factors
    Vh = np.linalg.svd(np.triu(np.linalg.qr(d.Pd, mode="raw")[0][:, :K].T))[2]
    Theta = np.zeros((2 * K, 2 * K), dtype=np.complex128)
    Theta[:K, K:] = Vh.T
    Theta[K:, :K] = Vh
    for layer, written_out in ((sol.Theta.S, Theta), (sol.Phi.S, _dense_second_layer(d.Pd))):
        assert np.array_equal(layer.view(np.uint64), written_out.view(np.uint64))


@pytest.mark.parametrize("case", ["32x4", "512x8", "16x16", "structured_zeros"])
def test_triangle_is_triu_bit_for_bit(case, monkeypatch):
    # R, the triangle the K x K SVD factors, is np.triu of the raw QR's
    # head to the bit, signed zeros included, though it is cut with a
    # cached read-only mask
    d = KERNEL_CASES[case]()
    K = d.K
    svd = np.linalg.svd
    factored = []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: factored.append(a.copy()) or svd(a, *args, **kw))
    sol = map_digital_to_milac(d)
    monkeypatch.undo()
    R = np.triu(np.linalg.qr(d.Pd, mode="raw")[0].T[:K])
    assert factored[0].dtype == R.dtype == np.complex128
    assert np.array_equal(factored[0].view(np.uint64), R.view(np.uint64))
    assert np.array_equal(sol.Phi.V, _reflector_factors(d.Pd)[0])
    assert np.array_equal(sol.Phi.S, _dense_second_layer(d.Pd))
    mask = milac.mapping._strictly_lower(K)
    assert mask is milac.mapping._strictly_lower(K) and not mask.flags.writeable


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


def reference_factored_unitarity(U1, Y, Z):
    """||Phi^H Phi - I||_F of a factored layer by an independent route: a
    complex QR of Cl[K:] for Cl = [-E A, conj(U1), conj(A)], A = [Y, Z^T],
    so that the lower L - K rows of Phi^H Phi - I have the norm of R Cr,
    Cr = [B; U1^T; conj(B) P] with B = [Z; Y^T] and P = A B - E. Products
    with E = diag(0_K, I_(L-K)) are written as row or column masks, so no
    L x L array is formed."""
    L, K = U1.shape
    A = np.hstack([Y, Z.T])
    B = np.vstack([Z, Y.T])
    EA = A.copy()
    EA[:K] = 0
    gram = U1.conj().T @ U1 - np.eye(K)
    off = (U1.conj().T @ A) @ B
    off[:, K:] -= U1.conj().T[:, K:]  # U1^H P
    BP = (B.conj() @ A) @ B
    BP[:, K:] -= B.conj()[:, K:]  # conj(B) P
    Cl = np.hstack([-EA, U1.conj(), A.conj()])
    Cr = np.vstack([B, U1.T, BP])
    top = Cl[:K] @ Cr - np.eye(K, L)
    low = np.linalg.qr(Cl[K:], mode="r") @ Cr
    return float(np.sqrt(np.linalg.norm(gram) ** 2 + 2 * np.linalg.norm(off) ** 2
                         + np.linalg.norm(top) ** 2 + np.linalg.norm(low) ** 2))


def test_factored_check_matches_reference():
    # the complement cases include axis-aligned columns (tau = 0), a zero
    # singular value, L = K and K = 1, where the real QR of V[K:] is rank
    # deficient or empty
    layers = [map_digital_to_milac(d).Phi for d in _criterion_1_beamformers()]
    layers += [map_digital_to_milac(make()).Phi for make in COMPLEMENT_CASES.values()]
    for Phi in layers:
        rep = check_lossless_reciprocal(Phi, tol=1e-10)
        ref = reference_factored_unitarity(*_written_out_factors(Phi.V, Phi.T, Phi.Ur))
        assert abs(rep.unitarity_residual - ref) <= 1e-13, Phi.V.shape


@pytest.mark.parametrize("L,K", [(9, 8), (12, 3), (16, 16), (2048, 4)])
def test_factored_check_matches_reference_on_perturbed_factors(L, K):
    # L - K < 2K leaves the real QR square, L = K leaves it empty; V is
    # perturbed on its unit diagonal and above it too
    Phi = map_digital_to_milac(random_beamformer(L, K, Pt=1.0, seed=L + K)).Phi
    entries = {"V": [(0, 0), (0, K - 1), (L - 1, 0), (L // 2, K - 1)],
               "T": [(0, K - 1), (K - 1, K // 2)],
               "Ur": [(0, 0), (K - 1, K // 2)]}
    for name, where in entries.items():
        for (i, j) in where:
            for delta in (1e-9, 1e-9j, 1e-3):
                args = dict(V=Phi.V.copy(), T=Phi.T.copy(), Ur=Phi.Ur.copy())
                args[name][i, j] += delta
                rep = check_lossless_reciprocal(FactoredScattering(**args), tol=1e-10)
                ref = reference_factored_unitarity(*_written_out_factors(**args))
                assert rep.unitarity_residual == pytest.approx(ref, rel=1e-6, abs=1e-13), (name, i, j)


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


def test_dense_phi_still_checked_densely():
    # a solution handed a dense Phi, raw or wrapped, is certified by the
    # dense check, which sees any entry
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


def test_gains_must_be_finite():
    sol = map_digital_to_milac(random_beamformer(5, 2, Pt=1.0, seed=7))
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, 0.0), complex(0.0, np.nan)):
        gains = np.array(sol.Psqrt, dtype=complex)
        gains[1, 1] = bad
        with pytest.raises(DimensionError, match="non-finite"):
            TwoLayerSolution(Theta=sol.Theta, Phi=sol.Phi, Psqrt=gains)
    off = np.array(sol.Psqrt)
    off[0, 1] = np.inf
    with pytest.raises(DimensionError, match="non-finite"):
        TwoLayerSolution(Theta=sol.Theta, Phi=sol.Phi, Psqrt=off)
