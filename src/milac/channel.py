"""Multi-user MISO channel containers, Rayleigh generation, and the
range-space reduction that shrinks the precoder search to K dimensions."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, RankDeficientError, check_array, check_count, check_noise,
                     check_type)

RANK_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """Downlink channels for one realization.

    H holds one column per user (L x K), sigma the per-user noise standard
    deviations. Arrays are stored read-only, so an instance can be shared
    by every architecture and SNR point that uses it. Instances hash by
    identity; see _per_channel for what is kept per instance.
    """

    H: np.ndarray
    sigma: np.ndarray = None  # defaults to unit noise

    def __post_init__(self):
        H = check_array("H", self.H, 2)
        L, K = H.shape
        if not (L >= K >= 1):
            raise DimensionError(f"need L >= K >= 1, got L={L}, K={K}")
        sigma = check_noise(np.ones(K) if self.sigma is None else self.sigma, K)
        object.__setattr__(self, "H", _readonly(H))
        object.__setattr__(self, "sigma", _readonly(sigma))

    @property
    def L(self) -> int:
        return self.H.shape[0]

    @property
    def K(self) -> int:
        return self.H.shape[1]


@dataclass(frozen=True, eq=False)
class ReducedChannel:
    """Range basis Q of H and the reduced channel Hbar = Q^H H.

    Q holds the left singular vectors of the economy SVD H = Q Sigma R^H,
    so H = Q Hbar and Hbar = Sigma R^H carries the singular values and the
    right factor. The first nonzero entry of each column of Q is made real
    and nonnegative so the factorization is unique. sigma is copied from
    the source ChannelSet so the reduced problem is self-contained.
    Construction checks that Q is L x K with L >= K >= 1, Hbar K x K and
    both finite, and sigma as ChannelSet does.
    """

    Q: np.ndarray
    Hbar: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        Q = check_array("Q", self.Q, 2)
        L, K = Q.shape
        if not (L >= K >= 1):
            raise DimensionError(f"Q must be L x K with L >= K >= 1, got shape {Q.shape}")
        Hbar = check_array("Hbar", self.Hbar, 2)
        if Hbar.shape != (K, K):
            raise DimensionError(f"Hbar must be {K} x {K}, got shape {Hbar.shape}")
        object.__setattr__(self, "Q", _readonly(Q))
        object.__setattr__(self, "Hbar", _readonly(Hbar))
        object.__setattr__(self, "sigma", _readonly(check_noise(self.sigma, K)))

    @property
    def L(self) -> int:
        return self.Q.shape[0]

    @property
    def K(self) -> int:
        return self.Q.shape[1]


def generate_rayleigh(L: int, K: int, seed) -> ChannelSet:
    """Draw an i.i.d. Rayleigh-fading channel set.

    Each entry is circularly symmetric complex Gaussian with unit variance
    (independent real and imaginary parts of variance 1/2, drawn from a
    PCG64 generator seeded with the integer seed >= 0). The same seed
    reproduces the same matrix on any platform. Noise levels default to 1.
    """
    K = check_count("K", K, 1)
    L = check_count(f"L for K={K}", L, K)
    seed = check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    H = (rng.standard_normal((L, K)) + 1j * rng.standard_normal((L, K))) * np.sqrt(0.5)
    return ChannelSet(H=H)


# ChannelSet -> {fn: fn(ch)}, held weakly: an entry goes with its channel
_MEMO = weakref.WeakKeyDictionary()


def _per_channel(fn, ch):
    """fn(ch), computed once and kept while ch lives; fn's result must not
    refer to ch. A call that raises keeps nothing. DimensionError for
    anything but a ChannelSet."""
    if fn not in _MEMO.get(check_type("channel", ch, ChannelSet), {}):
        value = fn(ch)  # first, as fn may itself keep a value for ch
        _MEMO.setdefault(ch, {})[fn] = value
    return _MEMO[ch][fn]


def reduce_channel(ch: ChannelSet) -> ReducedChannel:
    """Factor H = Q Sigma R^H and form Hbar = Q^H H = Sigma R^H.

    The reduction preserves the Gram matrix (Hbar^H Hbar = H^H H), so any
    precoder expressed in the Q basis achieves the same rates as its
    full-dimension image. Raises RankDeficientError when the smallest
    singular value falls below RANK_TOL times the largest. The reduction
    is computed once per channel and kept while the channel lives.
    """
    return _per_channel(_reduce, ch)


def _reduce(ch: ChannelSet) -> ReducedChannel:
    Q, s, _ = np.linalg.svd(ch.H, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
        raise RankDeficientError(
            f"channel rank deficient: singular values {s[0]:.3e} .. {s[-1]:.3e}"
        )
    # unique representative: rotate each column so its first nonzero entry
    # is real nonnegative; Hbar = Q^H H absorbs the phase
    cols = np.arange(Q.shape[1])
    first = np.argmax(Q != 0, axis=0)
    z = Q[first, cols]
    phase = z / np.abs(z)
    Q *= phase.conj()
    Q[first, cols] = np.abs(z)
    return ReducedChannel(Q=Q, Hbar=Q.conj().T @ ch.H, sigma=ch.sigma)
