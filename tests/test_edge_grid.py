"""The two-layer solve at the edges of its operating range.

Three kinds of channel, from i.i.d. Rayleigh draws: i.i.d.; exponential
transmit correlation 0.9 between neighbouring antennas, applied as
cholesky(R) @ H; and per-user noise powers spread over 20 dB. Each kind
and shape is one ChannelSet solved at every SNR point, so all but the
first solve find its reduction already kept.

The gates are what holds on every cell: no solve raises, the analog
beamformer reaches the digital sum-rate within 1e-9 bits, every
objective history is non-decreasing up to rounding (a round may lose at
most 64 eps of max(1, rate), since at -30 dB on L=K=1 one loses 3e-20
bits; the largest relative loss on the grid is 2.2e-16), every solve
stops on the tolerance or the iteration cap, and every solve ends at or
above zero forcing, within 1e-9 of max(1, ZF rate), wherever
zero_forcing is defined (a matched-filter start ended below it on 24 of
the 90 cells, by up to 52%).
"""

import numpy as np
import pytest

from milac import (
    ChannelSet,
    RankDeficientError,
    SolverConfig,
    generate_rayleigh,
    snr_to_power,
    solve_two_layer,
    sum_rate,
    zero_forcing,
)

# K=1, L=K, L=K+1, K=L/2 and a large array
SHAPES = ((1, 1), (4, 1), (8, 8), (9, 8), (16, 8), (256, 128))
SNR_DB = (-30.0, 0.0, 20.0, 40.0, 60.0)
KINDS = ("iid", "correlated", "noise_spread")
ROUNDING = 64 * np.finfo(float).eps


def edge_channel(kind: str, L: int, K: int, seed: int) -> ChannelSet:
    H = generate_rayleigh(L, K, seed).H
    if kind == "correlated":
        lag = np.arange(L)
        R = 0.9 ** np.abs(lag[:, None] - lag[None, :])
        return ChannelSet(H=np.linalg.cholesky(R) @ H)
    if kind == "noise_spread":
        # sigma_k^2 from 1 to 100
        return ChannelSet(H=H, sigma=10.0 ** np.linspace(0.0, 1.0, K))
    return ChannelSet(H=H)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("L, K", SHAPES)
def test_two_layer_solve_holds_at_the_edges(L, K, kind):
    ch = edge_channel(kind, L, K, seed=L + K)
    for snr_db in SNR_DB:
        Pt = snr_to_power(snr_db)
        rep, sol = solve_two_layer(ch, SolverConfig(Pt=Pt))
        where = (kind, L, K, snr_db)
        digital = sum_rate(ch.H, rep.Pd, ch.sigma)
        assert abs(sum_rate(ch.H, sol.G, ch.sigma) - digital) <= 1e-9, where
        hist = rep.objective_history
        assert np.all(np.diff(hist) >= -ROUNDING * np.maximum(1.0, hist[:-1])), where
        assert rep.stop_reason in ("tol", "cap"), where
        try:
            zf = sum_rate(ch.H, zero_forcing(ch, Pt), ch.sigma)
        except RankDeficientError:
            continue
        assert rep.sum_rate >= zf - 1e-9 * max(1.0, zf), (where, rep.sum_rate, zf)
