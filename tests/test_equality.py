"""Array-holding value classes compare and hash by identity."""

import numpy as np
import pytest

from milac import (
    ChannelSet,
    DigitalBeamformer,
    ScatteringMatrix,
    SolverConfig,
    SusceptanceMatrix,
    generate_rayleigh,
    map_digital_to_milac,
    reduce_channel,
    solve_psla,
)


def _beamformer():
    return DigitalBeamformer(Pd=0.5 * np.eye(3, 2), Pt=1.0)


FACTORIES = {
    "ChannelSet": lambda: ChannelSet(H=np.eye(2)),
    "ReducedChannel": lambda: reduce_channel(generate_rayleigh(4, 2, seed=0)),
    "DigitalBeamformer": _beamformer,
    "TwoLayerSolution": lambda: map_digital_to_milac(_beamformer()),
    "ScatteringMatrix": lambda: ScatteringMatrix(S=np.eye(2)),
    "SusceptanceMatrix": lambda: SusceptanceMatrix(B=np.eye(2)),
    "FactoredScattering": lambda: map_digital_to_milac(_beamformer()).Phi,
    "SolveReport": lambda: solve_psla(reduce_channel(generate_rayleigh(4, 2, seed=0)),
                                      SolverConfig(Pt=10.0)),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_identity_equality_and_hash(name):
    make = FACTORIES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == a
    assert (a == b) is False
    assert (a != b) is True
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
