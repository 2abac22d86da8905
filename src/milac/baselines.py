"""Validation references for the reduced solver: the same fractional
programming loop run in full antenna dimension, a zero-forcing baseline,
and an exhaustive-search oracle for tiny instances.

zero_forcing computes a channel's unit-norm beam directions once and
reuses them at every power while the ChannelSet lives, in the memo that
keeps its reduction (channel._per_channel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, _per_channel, reduce_channel
from .errors import (DimensionError, RankDeficientError, check_count, check_positive,
                     check_type)
from .optimizer import LN2, SolveReport, SolverConfig, run_fp

# the oracle's compass search: sweeps per sample, and the first step on the
# power sphere as a fraction of sqrt(Pt)
POLISH_STEPS = 40
STEP_SIZE = 0.25


@dataclass(frozen=True)
class OracleConfig:
    """Multi-start budget of the brute-force oracle."""

    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "samples", check_count("samples", self.samples, 1))
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))


def solve_full_dim(ch: ChannelSet, cfg: SolverConfig, init=None) -> SolveReport:
    """Run the fractional-programming loop directly on the L x K precoder.

    Identical updates to the reduced solver, just without the range-space
    reduction; used to validate that the reduction loses nothing. Without
    init it starts where solve_psla does, lifted by Q: regularized zero
    forcing. The L x K iterate is reported in the Pd field and T_final is
    None.
    """
    check_type("channel", ch, ChannelSet)
    T, history, _, wall, stop_reason, rates = run_fp(ch.H, ch.sigma, cfg, init=init)
    return SolveReport(
        T_final=None,
        Pd=T,
        rates=rates,
        objective_history=history,
        wall_time=wall,
        stop_reason=stop_reason,
    )


def zero_forcing(ch: ChannelSet, Pt: float) -> np.ndarray:
    """Pseudo-inverse precoder with equal per-user power.

    Beam directions are the columns of H (H^H H)^(-1), which null all
    inter-user interference; each is scaled to power Pt/K. Pt must be
    finite and positive. The normalized directions are computed once per
    ChannelSet and reused at every Pt (see the module docstring).
    """
    Pt = check_positive("Pt", Pt)
    Dn = _per_channel(_zf_directions, ch)
    return np.sqrt(Pt / ch.K) * Dn


def _zf_directions(ch: ChannelSet) -> np.ndarray:
    # read-only unit-norm columns of H (H^H H)^(-1)
    H = ch.H
    gram = H.conj().T @ H
    if np.linalg.cond(gram) >= 1e12:
        raise RankDeficientError("channel Gram matrix is numerically singular")
    D = np.linalg.solve(gram.conj().T, H.conj().T).conj().T  # H (H^H H)^(-1)
    Dn = D / np.linalg.norm(D, axis=0)[None, :]
    Dn.setflags(write=False)
    return Dn


def _abs2(z):
    return z.real**2 + z.imag**2


def _batch_sum_rate(desired, total, noise):
    # per-sample sum rate from each user's desired and total received
    # power; users along axis 0, samples along axis 1
    gamma = desired / (total - desired + noise)
    return np.log1p(gamma).sum(axis=0) / LN2


def brute_force_oracle(ch: ChannelSet, Pt: float, cfg: OracleConfig = OracleConfig()) -> float:
    """Best sum-rate found by dense random search plus local polish.

    Draws cfg.samples points on the reduced-precoder power sphere and
    refines each with a derivative-free compass search: every
    sweep tries plus/minus steps on each real coordinate (projected back
    onto the sphere) and halves a sample's step size after a sweep without
    improvement. The search never looks at the solver being audited.

    The projection is kept implicit: each sample stores an unscaled X with
    its squared norm n, and stands for the point sqrt(Pt / n) X on the
    sphere. A step on entry (i, j) then changes only X[i, j], column j of
    C = Hbar^H X and n, and each SINR of the projected point,
    c^2 d / (c^2 t - c^2 d + sigma^2) with c^2 = Pt / n, is evaluated from
    the unscaled powers d and t. A step costs O(samples * K) elementwise
    work, not a copy and a batched product of the whole sample tensor.

    Deterministic given cfg.seed. Each sample's randomness occupies its own
    contiguous generator block and the polish is noise-free and
    elementwise, so enlarging `samples` keeps earlier samples' results
    unchanged and the best-of-N value is non-decreasing in N. Limited to
    2*L*K <= 8 real dimensions, and Pt must be finite and positive.
    """
    Pt = check_positive("Pt", Pt)
    check_type("channel", ch, ChannelSet)
    if 2 * ch.L * ch.K > 8:
        raise DimensionError(
            f"instance has {2 * ch.L * ch.K} real dimensions, limit is 8"
        )
    red = reduce_channel(ch)
    K = ch.K
    noise = (red.sigma**2)[:, None]
    Hc = red.Hbar.conj().T
    rng = np.random.default_rng(cfg.seed)
    draws = rng.standard_normal((cfg.samples, 2, K, K))
    # samples along the last axis, so every entry X[i, j] is one contiguous vector
    X = np.moveaxis(draws[:, 0] + 1j * draws[:, 1], 0, -1).copy()
    X *= np.sqrt(Pt / _abs2(X).sum(axis=(0, 1)))
    nrm2 = _abs2(X).sum(axis=(0, 1))
    # C[k, b] = hbar_k^H x_b: column b is beam b seen by every user
    C = (Hc[:, :, None, None] * X[None]).sum(axis=1)
    p = _abs2(C)
    users = np.arange(K)
    vals = _batch_sum_rate(p[users, users], p.sum(axis=1), noise * (nrm2 / Pt))
    delta = np.full(cfg.samples, STEP_SIZE * np.sqrt(Pt))
    steps = [sgn * unit for unit in (1.0, 1.0j) for sgn in (1.0, -1.0)]
    for _ in range(POLISH_STEPS):
        improved = np.zeros(cfg.samples, dtype=bool)
        for i in range(K):
            for j in range(K):
                for step in steps:
                    # delta is measured on the sphere, where X is scaled by sqrt(Pt / n)
                    ds = (delta * step) * np.sqrt(nrm2 / Pt)
                    x_ij = X[i, j] + ds
                    cand_nrm2 = nrm2 - _abs2(X[i, j]) + _abs2(x_ij)
                    col = C[:, j] + ds * Hc[:, i, None]
                    pcol = _abs2(col)
                    total = pcol.copy()
                    for b in range(K):
                        if b != j:
                            total += p[:, b]
                    desired = p[users, users]
                    desired[j] = pcol[j]
                    cvals = _batch_sum_rate(desired, total, noise * (cand_nrm2 / Pt))
                    better = cvals > vals
                    np.copyto(X[i, j], x_ij, where=better)
                    np.copyto(C[:, j], col, where=better)
                    np.copyto(p[:, j], pcol, where=better)
                    np.copyto(nrm2, cand_nrm2, where=better)
                    np.copyto(vals, cvals, where=better)
                    improved |= better
        delta[~improved] *= 0.5
    return float(vals.max())
