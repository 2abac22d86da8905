"""Susceptance / admittance / scattering models of the analog network."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from milac import (
    DigitalBeamformer,
    DimensionError,
    FactoredScattering,
    NotRealizableError,
    ScatteringMatrix,
    SusceptanceMatrix,
    admittance_from_components,
    beamformer_from_scattering,
    check_lossless_reciprocal,
    map_digital_to_milac,
    scattering_from_susceptance,
    susceptance_from_scattering,
)
from milac.network import Z0


def random_susceptance(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * scale
    return SusceptanceMatrix(B=(A + A.T) / 2)


def test_reference_impedance():
    # one real reference impedance at every port of both layers
    assert Z0 == 50.0


def test_zero_port_matrices_rejected():
    empty = np.zeros((0, 0))
    for build in (lambda: SusceptanceMatrix(B=empty), lambda: ScatteringMatrix(S=empty),
                  lambda: check_lossless_reciprocal(empty),
                  lambda: scattering_from_susceptance(empty),
                  lambda: susceptance_from_scattering(empty),
                  lambda: beamformer_from_scattering(empty, 0, 0)):
        with pytest.raises(DimensionError, match="at least one port, got shape \\(0, 0\\)"):
            build()


def test_susceptance_requires_symmetry():
    with pytest.raises(DimensionError, match="must be symmetric"):
        SusceptanceMatrix(B=np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(DimensionError, match="must be real"):
        SusceptanceMatrix(B=1j * np.eye(2))
    # storage symmetrizes tiny residue exactly
    eps = 1e-12
    B = SusceptanceMatrix(B=np.array([[0.0, 1.0 + eps], [1.0, 0.0]])).B
    assert np.array_equal(B, B.T)


def test_admittance_all_zero():
    Y = admittance_from_components({}, {}, 2)
    assert np.array_equal(Y, np.zeros((2, 2), dtype=complex))
    assert Y.dtype == np.complex128 and not Y.flags.writeable


def test_admittance_single_interconnection():
    # one susceptive component between ports 0 and 1, no grounds
    Y = admittance_from_components({(0, 1): 1j, (1, 0): 1j}, {}, 2)
    expected = np.array([[1j, -1j], [-1j, 1j]])
    assert np.allclose(Y, expected, atol=0)


def test_admittance_grounds_only():
    Y = admittance_from_components({}, {0: 1j, 1: 1j}, 2)
    assert np.allclose(Y, 1j * np.eye(2), atol=0)


def test_admittance_errors():
    with pytest.raises(DimensionError, match="disagree"):
        admittance_from_components({(0, 1): 1j, (1, 0): 2j}, {}, 2)
    for n in (0, 2.5, "2"):
        with pytest.raises(DimensionError, match="^n must be"):
            admittance_from_components({}, {}, n)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        with pytest.raises(DimensionError, match="non-finite"):
            admittance_from_components({(0, 1): bad}, {}, 2)
        with pytest.raises(DimensionError, match="non-finite"):
            admittance_from_components({}, {1: bad}, 2)
    with pytest.raises(DimensionError):
        admittance_from_components({(0, 2): 1j}, {}, 2)
    with pytest.raises(DimensionError):
        admittance_from_components({(0, 0): 1j}, {}, 2)
    with pytest.raises(DimensionError):
        admittance_from_components({}, {-1: 1j}, 2)
    # a key must be a pair of integer ports (not bools) for offdiag, one for ground
    for offdiag, ground in (({(0.5, 1): 1j}, {}), ({(0, 1, 2): 1j}, {}), ({0: 1j}, {}),
                            ({(True, 1): 1j}, {}), ({}, {0.5: 1j}), ({}, {"a": 1j}),
                            ({}, {True: 1j}), ({}, {2: 1j})):
        with pytest.raises(DimensionError):
            admittance_from_components(offdiag, ground, 2)
    # both arguments are mappings whose values are numbers, not bools or strings
    for bad in ("x", "1j", True, np.True_, None, [1]):
        with pytest.raises(DimensionError, match=r"^offdiag value at \(0, 1\) must be a number"):
            admittance_from_components({(0, 1): bad}, {}, 2)
        with pytest.raises(DimensionError, match="^ground value at 1 must be a number"):
            admittance_from_components({}, {1: bad}, 2)
    for offdiag, ground, name in (([((0, 1), 1j)], {}, "offdiag"), ({}, [1j, 1j], "ground"),
                                  (None, {}, "offdiag"), ({}, None, "ground")):
        with pytest.raises(DimensionError, match=f"^{name} must be a mapping"):
            admittance_from_components(offdiag, ground, 2)


def test_scattering_open_network():
    S = scattering_from_susceptance(SusceptanceMatrix(B=np.zeros((3, 3))))
    assert np.array_equal(S.S, np.eye(3, dtype=complex))


def test_scattering_scalar_case():
    # B = (1/Z0) I gives S = (1-j)/(1+j) I = -j I
    B = SusceptanceMatrix(B=np.eye(2) / Z0)
    S = scattering_from_susceptance(B)
    assert np.allclose(S.S, -1j * np.eye(2), atol=1e-14)


def test_scattering_lossless_reciprocal_random():
    S = scattering_from_susceptance(random_susceptance(6, seed=2, scale=0.05))
    rep = check_lossless_reciprocal(S, tol=1e-10)
    assert rep.passed
    assert rep.unitarity_residual <= 1e-10
    assert rep.symmetry_residual <= 1e-10


def test_susceptance_from_identity():
    B = susceptance_from_scattering(ScatteringMatrix(S=np.eye(2, dtype=complex)))
    assert np.allclose(B.B, 0.0, atol=1e-14)


def test_susceptance_from_scalar_case():
    B = susceptance_from_scattering(ScatteringMatrix(S=-1j * np.eye(2)))
    assert np.allclose(B.B, np.eye(2) / Z0, atol=1e-14)


def test_susceptance_swap_not_realizable():
    swap = ScatteringMatrix(S=np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(NotRealizableError):
        susceptance_from_scattering(swap)


def test_susceptance_rejects_lossy():
    S = ScatteringMatrix(S=0.5 * np.eye(2, dtype=complex))
    with pytest.raises(NotRealizableError):
        susceptance_from_scattering(S)


def test_susceptance_rejects_large_residue():
    # both inputs pass the lossless-reciprocal check at RESIDUE_TOL, but I + S
    # is close enough to singular to amplify their residue past it
    lossy = np.array([[(1 - 4e-9) * np.exp(1j * (np.pi - 0.01))]])
    with pytest.raises(NotRealizableError, match="large imaginary part"):
        susceptance_from_scattering(lossy)
    s = np.exp(1j * (np.pi - np.array([0.05, 0.075])))
    skew = np.diag(s)
    skew[0, 1] = 8e-7j * (1 + s[0]) * (1 + s[1])
    skew[1, 0] = -skew[0, 1]
    with pytest.raises(NotRealizableError, match="large asymmetric part"):
        susceptance_from_scattering(skew)


def test_cayley_round_trip():
    B0 = random_susceptance(5, seed=4, scale=0.02)
    S = scattering_from_susceptance(B0)
    B1 = susceptance_from_scattering(S)
    assert np.allclose(B1.B, B0.B, atol=1e-8)
    S2 = scattering_from_susceptance(B1)
    assert np.allclose(S2.S, S.S, atol=1e-8)


def test_beamformer_block_swap():
    K = 3
    S = np.zeros((2 * K, 2 * K), dtype=complex)
    S[:K, K:] = np.eye(K)
    S[K:, :K] = np.eye(K)
    F = beamformer_from_scattering(ScatteringMatrix(S=S), n_in=K, n_out=K)
    assert np.allclose(F, 0.5 * np.eye(K), atol=0)


def test_beamformer_identity_scattering():
    F = beamformer_from_scattering(
        ScatteringMatrix(S=np.eye(4, dtype=complex)), n_in=2, n_out=2)
    assert np.allclose(F, 0.0, atol=0)


def test_beamformer_dimension_mismatch():
    S = ScatteringMatrix(S=np.eye(4, dtype=complex))
    with pytest.raises(DimensionError):
        beamformer_from_scattering(S, n_in=3, n_out=2)
    # each side must be an integer >= 1, not a float or a bool
    for n_in, n_out in ((1.5, 2.5), (2.0, 2.0), (True, 3), (0, 4), (4, 0)):
        with pytest.raises(DimensionError, match="^n_(in|out) must be"):
            beamformer_from_scattering(S, n_in, n_out)
        with pytest.raises(DimensionError, match="^n_(in|out) must be"):
            beamformer_from_scattering(np.eye(4), n_in, n_out)


def test_beamformer_from_raw_arrays():
    assert np.array_equal(beamformer_from_scattering(np.eye(4), 2, 2), np.zeros((2, 2)))
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.array_equal(beamformer_from_scattering(swap, 1, 1), [[0.5]])
    # a factored second layer gives the same block as its dense form
    d = DigitalBeamformer(Pd=np.eye(6, 2) * np.sqrt(0.5), Pt=1.0)
    Phi = map_digital_to_milac(d).Phi
    assert np.array_equal(beamformer_from_scattering(Phi, 2, 6),
                          beamformer_from_scattering(Phi.S, 2, 6))
    nan = np.eye(4, dtype=complex)
    nan[0, 3] = np.nan
    inf = np.eye(4)
    inf[2, 2] = -np.inf
    for raw, match in ((np.ones(4), "square"), (np.ones((4, 3)), "square"),
                       (np.ones((2, 2, 2)), "square"), (nan, "non-finite"),
                       (inf, "non-finite")):
        with pytest.raises(DimensionError, match=match):
            beamformer_from_scattering(raw, 2, 2)
    with pytest.raises(DimensionError, match="port split"):
        beamformer_from_scattering(np.eye(4), 3, 2)


def test_check_lossless_reciprocal_rejects_bad_tol():
    S = np.eye(2)
    factored = map_digital_to_milac(DigitalBeamformer(Pd=np.eye(3, 1), Pt=1.0)).Phi
    for tol in (-1.0, np.nan, 0.0, np.inf, -np.inf):
        for arg in (S, ScatteringMatrix(S=S), factored):
            with pytest.raises(DimensionError, match="tol"):
                check_lossless_reciprocal(arg, tol=tol)


def test_check_lossless_reciprocal_cases():
    rep = check_lossless_reciprocal(ScatteringMatrix(S=np.eye(2, dtype=complex)))
    assert rep.passed and rep.unitarity_residual == 0 and rep.symmetry_residual == 0

    swap = ScatteringMatrix(S=np.array([[0, 1], [1, 0]], dtype=complex))
    assert check_lossless_reciprocal(swap).passed

    bad = ScatteringMatrix(S=np.array([[0, 2], [2, 0]], dtype=complex))
    rep = check_lossless_reciprocal(bad, tol=1e-10)
    assert not rep.passed
    assert rep.unitarity_residual == pytest.approx(3 * np.sqrt(2))
    assert rep.symmetry_residual == 0

    nan = np.eye(3, dtype=complex)
    nan[1, 2] = np.nan
    inf = np.eye(3)
    inf[0, 0] = np.inf
    for raw, match in ((np.ones(3), "square"), (np.ones((3, 4)), "square"),
                       (np.ones((2, 2, 2)), "square"), (nan, "non-finite"),
                       (inf, "non-finite")):
        with pytest.raises(DimensionError, match=match):
            check_lossless_reciprocal(raw)


def symmetric_unitary(n, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q @ Q.T


def phi_520():
    """The 520-port second layer of a seeded beamformer at (L, K) = (512, 8)."""
    rng = np.random.default_rng(5)
    Pd = rng.standard_normal((512, 8)) + 1j * rng.standard_normal((512, 8))
    d = DigitalBeamformer(Pd=Pd, Pt=float(np.linalg.norm(Pd) ** 2))
    return map_digital_to_milac(d).Phi.S


def dense_residuals(S):
    """The residuals written out as ||S^H S - I||_F and ||S - S^T||_F in
    complex128 arithmetic."""
    S = np.asarray(S, dtype=np.complex128)
    return (np.linalg.norm(S.conj().T @ S - np.eye(S.shape[0])),
            np.linalg.norm(S - S.T))


def test_check_lossless_reciprocal_matches_dense_reference():
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36)))
    cases = [symmetric_unitary(n, seed=n) for n in (1, 2, 8, 36)]
    cases += [
        phi_520(),
        Q,  # unitary, not symmetric
        0.999 * symmetric_unitary(36, seed=3),
        rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)),
        np.eye(5),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        # the Gram is evaluated in float64; the reference takes the same values
        symmetric_unitary(8, seed=4).astype(np.complex64),
    ]
    for S in cases:
        uni, sym = dense_residuals(S)
        for arg in (S, ScatteringMatrix(S=S)):
            rep = check_lossless_reciprocal(arg, tol=1e-10)
            assert abs(rep.unitarity_residual - uni) <= 1e-12
            assert abs(rep.symmetry_residual - sym) <= 1e-12
            if arg is not S:  # complex128, as the reference
                assert rep.symmetry_residual == sym
            assert rep.passed == (uni <= 1e-10 and sym <= 1e-10)
    assert [check_lossless_reciprocal(S).passed for S in cases] == [
        True, True, True, True, True, False, False, False, True, True, False,
    ]


def test_check_lossless_reciprocal_sees_every_entry():
    Phi = phi_520()
    assert check_lossless_reciprocal(Phi, tol=1e-10).passed
    n = Phi.shape[0]
    # upper and lower triangle of every block, the diagonal, both corners
    entries = [(0, 1), (1, 0), (2, 100), (100, 2), (300, 400), (400, 300),
               (5, 5), (n - 1, n - 1), (0, n - 1), (n - 1, 0)]
    for i, j in entries:
        for delta in (1e-9, 1e-9j):
            S = Phi.copy()
            S[i, j] += delta
            rep = check_lossless_reciprocal(S, tol=1e-10)
            uni, _ = dense_residuals(S)
            assert not rep.passed
            assert rep.unitarity_residual > 1e-10
            assert abs(rep.unitarity_residual - uni) <= 1e-12
    # a symmetric imaginary perturbation of a real symmetric orthogonal
    # matrix moves only the imaginary part of S^H S, to first order
    v = np.random.default_rng(2).standard_normal(36)
    H = np.eye(36) - 2 * np.outer(v, v) / (v @ v)
    for i, j in ((3, 20), (20, 3), (7, 7)):
        S = H.astype(complex)
        S[i, j] += 1e-9j
        S[j, i] = S[i, j]
        rep = check_lossless_reciprocal(S, tol=1e-10)
        assert rep.symmetry_residual == 0
        assert not rep.passed and rep.unitarity_residual > 1e-10


def test_singular_network_guard():
    # cond(I + jZ0 B) blows past the limit when susceptances span 12 decades
    B = SusceptanceMatrix(B=np.diag([1e11, 0.0]))
    with pytest.raises(NotRealizableError, match="numerically singular"):
        scattering_from_susceptance(B)


symmetric_entries = st.floats(-0.2, 0.2)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_cayley_properties(n, seed):
    B = random_susceptance(n, seed=seed, scale=0.05)
    S = scattering_from_susceptance(B)
    rep = check_lossless_reciprocal(S, tol=1e-10)
    assert rep.passed
    # sub-blocks of a unitary matrix scaled by 1/2 have spectral norm <= 1/2
    n_in = n // 2
    if n_in >= 1:
        F = beamformer_from_scattering(S, n_in=n_in, n_out=n - n_in)
        assert np.linalg.norm(F, ord=2) <= 0.5 + 1e-12
    # round trip when I + S is well conditioned
    if np.linalg.cond(np.eye(n) + S.S) < 1e6:
        B1 = susceptance_from_scattering(S)
        assert np.allclose(B1.B, B.B, atol=1e-8)


def layer_factors(L, K, seed):
    """V, T and Ur of the second layer map_digital_to_milac builds for a
    seeded L x K beamformer."""
    rng = np.random.default_rng(seed)
    Pd = rng.standard_normal((L, K)) + 1j * rng.standard_normal((L, K))
    Phi = map_digital_to_milac(DigitalBeamformer(Pd=Pd, Pt=float(np.linalg.norm(Pd) ** 2))).Phi
    return Phi.V, Phi.T, Phi.Ur


def test_factored_scattering_validation():
    V, T, Ur = layer_factors(6, 2, seed=1)
    Phi = FactoredScattering(V=V, T=T, Ur=Ur)
    assert Phi.n == 8 and Phi.K == 2
    assert Phi.S is Phi.S and Phi.U1 is Phi.U1  # formed once
    # identity comparison: no elementwise array comparison is attempted
    assert Phi == Phi and Phi != FactoredScattering(V=V, T=T, Ur=Ur)
    for M in (Phi.S, Phi.U1, Phi.V, Phi.T, Phi.Ur):
        assert not M.flags.writeable
    # the caller's arrays are not frozen
    mine = V.copy()
    FactoredScattering(V=mine, T=T, Ur=Ur)
    mine[0, 0] = 0.0
    # any memory layout represents the same matrix; the check reads V[K:]
    # as a real matrix, which needs contiguous rows
    other = FactoredScattering(V=np.asfortranarray(V), T=T.T.copy().T, Ur=Ur)
    assert np.array_equal(other.S, Phi.S)
    assert (check_lossless_reciprocal(other).unitarity_residual
            == check_lossless_reciprocal(Phi).unitarity_residual)
    bad_shapes = [(V[:, 0], T, Ur), (V.T, T, Ur), (V, T[:1], Ur), (V, T, Ur[:, :1]),
                  (V[:1], T, Ur), (V[:, :0], T[:0, :0], Ur[:0, :0])]
    for v, t, u in bad_shapes:
        with pytest.raises(DimensionError, match="not V"):
            FactoredScattering(V=v, T=t, Ur=u)
    for name in ("V", "T", "Ur"):
        for bad in (np.nan, np.inf, 1j * np.inf):
            args = dict(V=V.copy(), T=T.copy(), Ur=Ur.copy())
            args[name][1, 1] = bad
            with pytest.raises(DimensionError, match=f"{name} has non-finite"):
                FactoredScattering(**args)


@pytest.mark.parametrize("L,K", [(512, 8), (32, 4), (9, 8), (64, 1)])
def test_factored_check_sees_perturbed_factors(L, K):
    # a factored layer has no dense entries to perturb, so its factors are:
    # the factored residual must fail where the dense check of the
    # represented matrix fails, and read the same value. V is perturbed on
    # its unit diagonal and above it too, where a mapped layer holds the
    # constants 1 and 0.
    V, T, Ur = layer_factors(L, K, seed=L + K)
    base = check_lossless_reciprocal(FactoredScattering(V=V, T=T, Ur=Ur), tol=1e-10)
    assert base.passed and base.symmetry_residual == 0.0
    entries = {"V": [(0, 0), (0, K - 1), (K - 1, 0), (L - 1, K - 1), (L // 2, K // 2)],
               "T": [(0, 0), (0, K - 1), (K - 1, K - 1), (K // 2, K // 2)],
               "Ur": [(0, 0), (K - 1, 0), (K - 1, K - 1), (K // 2, K // 2)]}
    for name, where in entries.items():
        for (i, j) in where:
            for delta in (1e-9, 1e-9j):
                # V's first row is e_0, so an imaginary change of V[0, 0]
                # leaves V^H V, and with it the unitarity of Q, unchanged to
                # first order; so does one of a real 1 x 1 Ur. Both checks
                # must pass these.
                unseen = delta == 1e-9j and ((name, i, j) == ("V", 0, 0)
                                             or name == "Ur" and K == 1 and not Ur.imag.any())
                # at K=1 the one reflector's entries below row 0 are small
                # (0.10 at row L-1), where a change of 1e-9 moves Phi by less
                # than the tolerance; a change of 1e-8 shows
                if name == "V" and K == 1 and i > 0:
                    delta *= 10
                args = dict(V=V.copy(), T=T.copy(), Ur=Ur.copy())
                args[name][i, j] += delta
                layer = FactoredScattering(**args)
                rep = check_lossless_reciprocal(layer, tol=1e-10)
                dense = check_lossless_reciprocal(layer.S, tol=1e-10)
                uni, sym = dense_residuals(layer.S)
                if unseen:
                    assert rep.passed and dense.passed, (name, i, j, delta)
                    assert max(rep.unitarity_residual, dense.unitarity_residual) <= 1e-13
                else:
                    assert not rep.passed and not dense.passed, (name, i, j, delta)
                    assert rep.unitarity_residual > 1e-10
                    assert rep.unitarity_residual == pytest.approx(uni, rel=1e-6)
                    assert rep.unitarity_residual == pytest.approx(dense.unitarity_residual, rel=1e-6)
                assert rep.symmetry_residual == sym == 0.0
