"""Channel generation, range-space reduction, and the per-channel memo."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import milac.channel
from milac import (
    ChannelSet,
    DimensionError,
    RankDeficientError,
    ReducedChannel,
    SolverConfig,
    generate_rayleigh,
    reduce_channel,
    solve_psla,
)


def test_generate_shape_and_determinism():
    ch = generate_rayleigh(32, 4, seed=7)
    assert ch.H.shape == (32, 4)
    assert ch.L == 32 and ch.K == 4
    again = generate_rayleigh(32, 4, seed=7)
    assert np.array_equal(ch.H, again.H)
    other = generate_rayleigh(32, 4, seed=8)
    assert not np.array_equal(ch.H, other.H)


def test_generate_unit_variance():
    # Monte-Carlo estimate over 1e5 independently seeded scalars.
    draws = np.array([generate_rayleigh(1, 1, seed=s).H[0, 0]
                      for s in range(100_000)])
    var = np.mean(np.abs(draws) ** 2)
    assert abs(var - 1.0) < 0.02
    # circular symmetry: real and imaginary parts each carry half
    assert abs(np.var(draws.real) - 0.5) < 0.02
    assert abs(np.var(draws.imag) - 0.5) < 0.02


def test_generate_invalid_dimensions():
    with pytest.raises(DimensionError):
        generate_rayleigh(2, 3, seed=0)
    with pytest.raises(DimensionError):
        generate_rayleigh(2, 0, seed=0)


@pytest.mark.parametrize("L, K", [(4.5, 2), (4, 2.0), (2, 4)])
def test_generate_rejects_bad_counts(L, K):
    # counts must be integers with L >= K >= 1; a float count is refused,
    # not passed on to numpy
    with pytest.raises(DimensionError):
        generate_rayleigh(L, K, 0)


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True, None, [1, 2]])
def test_generate_refuses_a_bad_seed(seed):
    # a seed is an integer >= 0, as ExperimentSpec's base_seed
    with pytest.raises(DimensionError, match="^seed must be"):
        generate_rayleigh(4, 2, seed)


def test_generate_takes_a_numpy_integer_seed():
    assert np.array_equal(generate_rayleigh(4, 2, np.int64(3)).H, generate_rayleigh(4, 2, 3).H)


@pytest.mark.parametrize("H, sigma, match", [
    ("ab", None, "^H must hold numbers, got dtype <U2$"),
    (np.array([["a"], ["b"]], dtype=object), None, "^H must hold numbers, got dtype object$"),
    (np.eye(2, dtype=bool), None, "^H must hold numbers, got dtype bool$"),
    (np.eye(2), np.array([True, True]), "^sigma must hold real numbers, got dtype bool$"),
    (np.eye(2), [True, False], "^sigma must hold real numbers, got dtype bool$"),
    (np.eye(2), "ab", "^sigma must hold real numbers, got dtype <U2$"),
    (np.eye(2), np.ones(2, dtype=complex), "^sigma must hold real numbers, got dtype complex128$"),
])
def test_channel_set_refuses_non_numeric_input(H, sigma, match):
    with pytest.raises(DimensionError, match=match):
        ChannelSet(H=H, sigma=sigma)


def test_channel_set_takes_integer_input():
    ch = ChannelSet(H=[[1, 0], [0, 2]], sigma=[1, 2])
    assert ch.H.dtype == np.complex128 and ch.sigma.dtype == np.float64
    assert np.array_equal(ch.sigma, [1.0, 2.0])


def test_channel_set_validation():
    with pytest.raises(DimensionError):
        ChannelSet(H=np.ones((2, 3), dtype=complex))
    with pytest.raises(DimensionError):
        ChannelSet(H=np.array([[np.inf + 0j]]))
    with pytest.raises(DimensionError):
        ChannelSet(H=np.eye(2, dtype=complex), sigma=np.array([1.0, 0.0]))
    with pytest.raises(DimensionError):
        ChannelSet(H=np.eye(2, dtype=complex), sigma=np.array([1.0]))


def test_sigma_defaults_to_ones():
    ch = ChannelSet(H=np.eye(3, dtype=complex))
    assert np.array_equal(ch.sigma, np.ones(3))


def test_reduce_identity():
    ch = ChannelSet(H=np.eye(2, dtype=complex))
    red = reduce_channel(ch)
    assert np.allclose(red.Q, np.eye(2), atol=1e-12)
    assert np.allclose(np.linalg.svd(red.Hbar, compute_uv=False), [1.0, 1.0], atol=1e-12)
    assert np.allclose(red.Hbar, np.eye(2), atol=1e-12)


def test_reduce_axis_aligned_column():
    ch = ChannelSet(H=np.array([[2.0 + 0j], [0.0]]))
    red = reduce_channel(ch)
    assert np.allclose(red.Q, np.array([[1.0], [0.0]]), atol=1e-12)
    assert np.allclose(np.linalg.svd(red.Hbar, compute_uv=False), [2.0], atol=1e-12)
    assert np.allclose(red.Hbar, np.array([[2.0]]), atol=1e-12)


def test_reduce_reconstruction_random():
    ch = generate_rayleigh(8, 3, seed=11)
    red = reduce_channel(ch)
    rebuilt = red.Q @ red.Hbar
    err = np.linalg.norm(rebuilt - ch.H) / np.linalg.norm(ch.H)
    assert err <= 1e-10
    assert np.allclose(red.Q.conj().T @ red.Q, np.eye(3), atol=1e-10)
    assert np.array_equal(red.Hbar, red.Q.conj().T @ ch.H)
    # Hbar = Sigma R^H: orthogonal rows whose norms are the singular values
    # of H in descending order
    gram = red.Hbar @ red.Hbar.conj().T
    s = np.sqrt(np.diag(gram).real)
    assert np.allclose(gram, np.diag(s**2), atol=1e-10)
    assert np.allclose(s, np.linalg.svd(ch.H, compute_uv=False), rtol=1e-12)
    assert np.all(np.diff(s) <= 0)


def test_reduce_gram_preserved():
    ch = generate_rayleigh(16, 4, seed=5)
    red = reduce_channel(ch)
    g_full = ch.H.conj().T @ ch.H
    g_red = red.Hbar.conj().T @ red.Hbar
    err = np.linalg.norm(g_red - g_full) / np.linalg.norm(g_full)
    assert err <= 1e-9


def test_reduce_phase_canonical():
    # leading nonzero entry of every Q column is real nonnegative
    for seed in range(5):
        red = reduce_channel(generate_rayleigh(6, 3, seed=seed))
        for j in range(3):
            col = red.Q[:, j]
            lead = col[np.flatnonzero(col != 0)[0]]
            assert lead.imag == 0.0
            assert lead.real >= 0.0


def reference_reduction(H):
    """reduce_channel's phase gauge as the per-column loop it replaced."""
    Q = np.linalg.svd(H, full_matrices=False)[0]
    for j in range(Q.shape[1]):
        i0 = np.flatnonzero(Q[:, j] != 0)[0]
        z = Q[i0, j]
        Q[:, j] *= (z / abs(z)).conjugate()
        Q[i0, j] = abs(z)
    return Q, Q.conj().T @ H


def test_reduce_matches_loop_reference():
    # the vectorized phase divides in another order: agreement to a few
    # ulps of the unit-scale entries, not bit for bit
    zeros_on_top = np.array([[0.0, 0.0], [1j, 0.0], [0.0, 2.0 - 1j]])
    channels = [ChannelSet(H=zeros_on_top), ChannelSet(H=np.eye(3, dtype=complex))]
    channels += [generate_rayleigh(L, K, seed) for L, K in ((6, 3), (32, 4), (16, 16))
                 for seed in range(5)]
    for ch in channels:
        red = reduce_channel(ch)
        for got, want in zip((red.Q, red.Hbar), reference_reduction(ch.H)):
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() <= 16 * np.finfo(float).eps * scale


def test_reduce_rank_deficient(monkeypatch):
    h = generate_rayleigh(4, 1, seed=0).H
    ch = ChannelSet(H=np.hstack([h, h]))
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    for _ in range(2):
        with pytest.raises(RankDeficientError):
            reduce_channel(ch)
    # a reduction that raised is not kept: every call computes it again
    assert len(svds) == 2
    assert ch not in milac.channel._MEMO


def test_reduce_kept_per_channel():
    ch = generate_rayleigh(16, 4, seed=2)
    red = reduce_channel(ch)
    assert reduce_channel(ch) is red
    # kept by channel object, not by value: an equal channel reduces afresh
    fresh = reduce_channel(ChannelSet(H=ch.H, sigma=ch.sigma))
    assert fresh is not red
    for got, want in zip((fresh.Q, fresh.Hbar, fresh.sigma), (red.Q, red.Hbar, red.sigma)):
        assert got.tobytes() == want.tobytes()


def test_memo_keeps_a_value_computed_inside_another():
    ch = generate_rayleigh(8, 2, seed=3)

    def rank(c):
        return reduce_channel(c).Hbar.shape[0]

    assert milac.channel._per_channel(rank, ch) == 2
    kept = milac.channel._MEMO[ch]
    assert set(kept) == {milac.channel._reduce, rank}
    assert reduce_channel(ch) is kept[milac.channel._reduce]


def test_memo_keeps_neither_channel_nor_reduction_alive():
    ch = generate_rayleigh(8, 2, seed=4)
    refs = (weakref.ref(ch), weakref.ref(reduce_channel(ch)))
    gc.collect()  # only ch can leave the memo below
    before = len(milac.channel._MEMO)
    del ch
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(milac.channel._MEMO) == before - 1


@pytest.mark.parametrize("bad", [np.eye(2), None, "H", {"H": np.eye(2)}])
def test_reduce_refuses_a_non_channel(bad):
    with pytest.raises(DimensionError, match=f"^channel must be a ChannelSet, got {type(bad).__name__}$"):
        reduce_channel(bad)


def test_reduce_carries_sigma():
    sigma = np.array([0.5, 2.0])
    ch = ChannelSet(H=generate_rayleigh(4, 2, seed=1).H, sigma=sigma)
    red = reduce_channel(ch)
    assert np.array_equal(red.sigma, sigma)


def test_arrays_read_only():
    ch = generate_rayleigh(3, 2, seed=0)
    with pytest.raises(ValueError):
        ch.H[0, 0] = 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 10_000))
def test_reduction_invariants_property(L, K, seed):
    if L < K:
        L, K = K, L
    ch = generate_rayleigh(L, K, seed=seed)
    red = reduce_channel(ch)
    assert np.allclose(red.Q.conj().T @ red.Q, np.eye(K), atol=1e-10)
    rebuilt = red.Q @ red.Hbar
    assert np.linalg.norm(rebuilt - ch.H) <= 1e-10 * np.linalg.norm(ch.H)
    g_err = np.linalg.norm(red.Hbar.conj().T @ red.Hbar - ch.H.conj().T @ ch.H)
    assert g_err <= 1e-9 * max(1.0, np.linalg.norm(ch.H) ** 2)


def test_reduced_channel_validates_itself():
    red = reduce_channel(generate_rayleigh(4, 2, seed=2))
    again = ReducedChannel(Q=red.Q, Hbar=red.Hbar, sigma=[1, 1])
    assert again.sigma.dtype == np.float64 and not again.Q.flags.writeable
    cases = [
        # the mismatch used to surface as a misleading complaint about sigma
        (dict(Q=np.ones((4, 2)), Hbar=np.ones((3, 3)), sigma=np.ones(3)),
         r"^Hbar must be 2 x 2, got shape \(3, 3\)$"),
        (dict(Q=np.ones((2, 3)), Hbar=np.ones((3, 3)), sigma=np.ones(3)),
         r"^Q must be L x K with L >= K >= 1, got shape \(2, 3\)$"),
        # these ran a full solve before numpy's own error, one round before a
        # NumericalError, and as unit noise
        (dict(Q="ab", Hbar=red.Hbar, sigma=red.sigma), "^Q must hold numbers"),
        (dict(Q=red.Q, Hbar=red.Hbar * np.nan, sigma=red.sigma), "^Hbar has non-finite"),
        (dict(Q=red.Q, Hbar=red.Hbar, sigma=[True, True]), "^sigma must hold real numbers"),
        (dict(Q=red.Q, Hbar=red.Hbar, sigma=[1.0, -1.0]), "^sigma entries must be positive"),
    ]
    for args, match in cases:
        with pytest.raises(DimensionError, match=match):
            solve_psla(ReducedChannel(**args), SolverConfig())
