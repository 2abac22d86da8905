"""Validation references for the reduced solver: the same fractional
programming loop run in full antenna dimension, a zero-forcing baseline,
and an exhaustive-search oracle for tiny instances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, reduce_channel
from .errors import DimensionError, DimensionTooLargeError, RankDeficientError
from .optimizer import LN2, SolveReport, SolverConfig, run_fp, sum_rate, user_rates


@dataclass(frozen=True)
class OracleConfig:
    """Multi-start budget of the brute-force oracle."""

    samples: int = 100_000
    polish_steps: int = 40
    step_size: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise DimensionError(f"samples must be >= 1, got {self.samples}")
        if self.polish_steps < 0:
            raise DimensionError(f"polish_steps must be >= 0, got {self.polish_steps}")
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise DimensionError(f"step_size must be positive, got {self.step_size}")


def solve_full_dim(ch: ChannelSet, cfg: SolverConfig, init=None) -> SolveReport:
    """Run the fractional-programming loop directly on the L x K precoder.

    Identical updates to the reduced solver, just without the range-space
    reduction; used to validate that the reduction loses nothing. The
    L x K iterate is reported in the Pd field and T_final is None.
    """
    T, history, iterations, wall = run_fp(ch.H, ch.sigma, cfg, init=init)
    return SolveReport(
        T_final=None,
        Pd=T,
        rates=user_rates(ch.H, T, ch.sigma),
        sum_rate=float(history[-1]),
        iterations=iterations,
        objective_history=history,
        wall_time=wall,
    )


def zero_forcing(ch: ChannelSet, Pt: float) -> np.ndarray:
    """Pseudo-inverse precoder with equal per-user power.

    Beam directions are the columns of H (H^H H)^(-1), which null all
    inter-user interference; each is scaled to power Pt/K.
    """
    H = ch.H
    gram = H.conj().T @ H
    if np.linalg.cond(gram) >= 1e12:
        raise RankDeficientError("channel Gram matrix is numerically singular")
    D = np.linalg.solve(gram.conj().T, H.conj().T).conj().T  # H (H^H H)^(-1)
    norms = np.linalg.norm(D, axis=0)
    return np.sqrt(Pt / ch.K) * (D / norms[None, :])


def _batch_sum_rate(Hc, X, noise):
    # Hc = Hbar^H precomputed; X stacks precoders along axis 0
    C = Hc @ X
    p = np.abs(C) ** 2
    desired = np.diagonal(p, axis1=1, axis2=2)
    total = p.sum(axis=2)
    gamma = desired / (total - desired + noise[None, :])
    return np.log1p(gamma).sum(axis=1) / LN2


def _project_batch(X, Pt):
    nrm2 = np.sum(np.abs(X) ** 2, axis=(1, 2))
    return X * np.sqrt(Pt / nrm2)[:, None, None]


def brute_force_oracle(ch: ChannelSet, Pt: float, cfg: OracleConfig = OracleConfig()) -> float:
    """Best sum-rate found by dense random search plus local polish.

    Draws cfg.samples points on the reduced-precoder power sphere and
    refines each with a derivative-free compass search: every
    sweep tries plus/minus steps on each real coordinate (projected back
    onto the sphere) and halves a sample's step size after a sweep without
    improvement. The search never looks at the solver being audited.

    Deterministic given cfg.seed. Each sample's randomness occupies its own
    contiguous generator block and the polish is noise-free, so enlarging
    `samples` keeps earlier samples' results unchanged and the best-of-N
    value is non-decreasing in N. Limited to 2*L*K <= 8 real dimensions.
    """
    if 2 * ch.L * ch.K > 8:
        raise DimensionTooLargeError(
            f"instance has {2 * ch.L * ch.K} real dimensions, limit is 8"
        )
    red = reduce_channel(ch)
    K = ch.K
    noise = red.sigma**2
    Hc = red.Hbar.conj().T
    rng = np.random.default_rng(cfg.seed)
    draws = rng.standard_normal((cfg.samples, 2, K, K))
    X = np.ascontiguousarray(draws[:, 0] + 1j * draws[:, 1])
    X = _project_batch(X, Pt)
    vals = _batch_sum_rate(Hc, X, noise)
    delta = np.full(cfg.samples, cfg.step_size * np.sqrt(Pt))
    steps = [sgn * unit for unit in (1.0, 1.0j) for sgn in (1.0, -1.0)]
    for _ in range(cfg.polish_steps):
        improved = np.zeros(cfg.samples, dtype=bool)
        for i in range(K):
            for j in range(K):
                for step in steps:
                    cand = X.copy()
                    cand[:, i, j] += delta * step
                    cand = _project_batch(cand, Pt)
                    cvals = _batch_sum_rate(Hc, cand, noise)
                    better = cvals > vals
                    if np.any(better):
                        X[better] = cand[better]
                        vals[better] = cvals[better]
                        improved |= better
        delta[~improved] *= 0.5
    return float(vals.max())
