"""Output checks of the benchmark, written apart from the program.

Every check recomputes what it needs from the raw matrices with its own
formulas and raises CheckFailed on a mismatch. None of them calls milac,
and none compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

RATE_REL = 1e-9       # own rate formula against the program's rate
MAP_REL = 1e-9        # effective beamformer G against the digital Pd
LOSSLESS_TOL = 1e-10  # Frobenius residuals of S^H S - I and S - S^T
POWER_REL = 1e-9      # ||G||_F^2 against Pt
HISTORY_TOL = 1e-8    # allowed rounding dip in an objective history
REDUCTION_REL = 1e-3  # full-dimension solve against the reduced one
ORACLE_SHARE = 0.99   # multi-start solver against the oracle


class CheckFailed(Exception):
    """An output of the program is wrong."""


def rayleigh(L: int, K: int, seed) -> np.ndarray:
    """The documented channel model: i.i.d. CN(0, 1) entries from PCG64(seed).

    Real and imaginary parts are drawn as two L x K standard-normal blocks
    in that order and scaled by sqrt(1/2).
    """
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((L, K))
    im = rng.standard_normal((L, K))
    return (re + 1j * im) * math.sqrt(0.5)


def sum_rate_bits(H, P, sigma=None) -> float:
    """Sum over users of log2(1 + SINR_k) for channel H (L x K) and precoder P.

    SINR_k = |h_k^H p_k|^2 / (sum_{j != k} |h_k^H p_j|^2 + sigma_k^2).
    """
    H = np.asarray(H, dtype=complex)
    P = np.asarray(P, dtype=complex)
    K = H.shape[1]
    noise = np.ones(K) if sigma is None else np.asarray(sigma, dtype=float) ** 2
    gains = np.abs(np.einsum("lk,lj->kj", H.conj(), P)) ** 2
    total = 0.0
    for k in range(K):
        signal = gains[k, k]
        interference = gains[k].sum() - signal
        total += math.log2(1.0 + signal / (interference + noise[k]))
    return total


def interference_free_bound(H, Pt: float, sigma=None) -> float:
    """sum_k log2(1 + Pt ||h_k||^2 / sigma_k^2): every user alone at full power."""
    H = np.asarray(H, dtype=complex)
    noise = np.ones(H.shape[1]) if sigma is None else np.asarray(sigma, dtype=float) ** 2
    gains = np.sum(np.abs(H) ** 2, axis=0)
    return float(sum(math.log2(1.0 + Pt * g / n) for g, n in zip(gains, noise)))


def zf_precoder(H, Pt: float) -> np.ndarray:
    """Zero forcing from the pseudo-inverse: unit columns of pinv(H^H), Pt/K each."""
    D = np.linalg.pinv(np.asarray(H, dtype=complex).conj().T)
    D = D / np.linalg.norm(D, axis=0, keepdims=True)
    return D * math.sqrt(Pt / D.shape[1])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def check_rate(name: str, H, P, Pt: float, reported: float, sigma=None) -> float:
    """The reported rate of precoder P is its own-formula rate, under the bound.

    Returns the recomputed rate.
    """
    own = sum_rate_bits(H, P, sigma)
    if not math.isfinite(reported) or _rel(reported, own) > RATE_REL:
        raise CheckFailed(f"{name}: reported rate {reported!r} but H and P give {own!r}")
    bound = interference_free_bound(H, Pt, sigma)
    if own > bound * (1 + RATE_REL):
        raise CheckFailed(f"{name}: rate {own!r} above the interference-free bound {bound!r}")
    return own


def check_power(name: str, P, Pt: float) -> None:
    """||P||_F^2 equals the power budget Pt."""
    used = float(np.sum(np.abs(np.asarray(P)) ** 2))
    if abs(used - Pt) > POWER_REL * Pt:
        raise CheckFailed(f"{name}: ||P||_F^2 = {used!r}, budget Pt = {Pt!r}")


def check_beamformer(G, Pd) -> None:
    """The analog effective beamformer G reproduces the digital Pd."""
    G = np.asarray(G)
    Pd = np.asarray(Pd)
    if G.shape != Pd.shape:
        raise CheckFailed(f"G has shape {G.shape}, Pd {Pd.shape}")
    err = np.linalg.norm(G - Pd) / np.linalg.norm(Pd)
    if not err <= MAP_REL:
        raise CheckFailed(f"||G - Pd|| / ||Pd|| = {err:.3e} > {MAP_REL}")


def check_lossless_reciprocal(name: str, S) -> None:
    """S is unitary and symmetric, each to LOSSLESS_TOL in Frobenius norm."""
    S = np.asarray(S, dtype=complex)
    unitarity = np.linalg.norm(S.conj().T @ S - np.eye(S.shape[0]))
    symmetry = np.linalg.norm(S - S.T)
    if not unitarity <= LOSSLESS_TOL:
        raise CheckFailed(f"{name} is not unitary: residual {unitarity:.3e}")
    if not symmetry <= LOSSLESS_TOL:
        raise CheckFailed(f"{name} is not symmetric: residual {symmetry:.3e}")


def check_nondecreasing(name: str, history) -> None:
    """An objective history never drops by more than rounding."""
    h = np.asarray(history, dtype=float)
    if h.size == 0 or not np.all(np.isfinite(h)):
        raise CheckFailed(f"{name}: objective history is empty or not finite")
    drops = np.diff(h)
    if drops.size and drops.min() < -HISTORY_TOL:
        raise CheckFailed(f"{name}: objective history drops by {-drops.min():.3e}")


def check_zf_rate(H, Pt: float, reported: float) -> float:
    """The program's zero-forcing rate matches the pseudo-inverse precoder's."""
    own = sum_rate_bits(H, zf_precoder(H, Pt))
    if not math.isfinite(reported) or _rel(reported, own) > RATE_REL:
        raise CheckFailed(f"zero forcing: rate {reported!r}, pinv precoder gives {own!r}")
    return own


def check_sweep_cell(rates: dict) -> None:
    """One (L, SNR, trial) cell of results.csv.

    rates maps architecture to sum-rate: all four present and finite,
    two_layer equal to digital_reduced, digital_full close to it.
    """
    archs = ("digital_full", "digital_reduced", "two_layer", "zero_forcing")
    if sorted(rates) != sorted(archs):
        raise CheckFailed(f"cell has rows {sorted(rates)}, expected {sorted(archs)}")
    bad = [a for a in archs if not math.isfinite(rates[a])]
    if bad:
        raise CheckFailed(f"non-finite rate for {bad}")
    reduced = rates["digital_reduced"]
    if _rel(rates["two_layer"], reduced) > RATE_REL:
        raise CheckFailed(f"two_layer {rates['two_layer']!r} != digital_reduced {reduced!r}")
    if _rel(rates["digital_full"], reduced) > REDUCTION_REL:
        raise CheckFailed(
            f"digital_full {rates['digital_full']!r} not within {REDUCTION_REL} of {reduced!r}"
        )


def check_oracle(oracle: float, bound: float) -> None:
    """The oracle's best rate respects the interference-free bound."""
    if not (math.isfinite(oracle) and oracle <= bound * (1 + RATE_REL)):
        raise CheckFailed(f"oracle {oracle!r} above the interference-free bound {bound!r}")


def reaches_oracle(solver: float, oracle: float) -> bool:
    """Whether the multi-start solver gets within 1% of the oracle."""
    return solver >= ORACLE_SHARE * oracle
