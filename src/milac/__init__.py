"""Analog beamforming with two-layer microwave linear analog computers.

Network-theoretic models of lossless reciprocal multiports, the
closed-form mapping of arbitrary digital beamformers onto two cascaded
analog layers, and a reduced-dimension fractional-programming solver for
the multi-user downlink sum-rate, plus baselines and a Monte-Carlo
experiment harness.
"""

from .baselines import OracleConfig, brute_force_oracle, solve_full_dim, zero_forcing
from .channel import (
    ChannelSet,
    ReducedChannel,
    generate_rayleigh,
    reduce_channel,
)
from .errors import (
    DimensionError,
    InconsistentSolutionError,
    MilacError,
    NotRealizableError,
    NumericalError,
    RankDeficientError,
)
from .harness import (
    ExperimentSpec,
    SweepRow,
    run_experiment,
    snr_to_power,
    summarize,
)
from .mapping import (
    DigitalBeamformer,
    TwoLayerSolution,
    map_digital_to_milac,
)
from .network import (
    FactoredScattering,
    LosslessReciprocalReport,
    ScatteringMatrix,
    SusceptanceMatrix,
    admittance_from_components,
    beamformer_from_scattering,
    check_lossless_reciprocal,
    scattering_from_susceptance,
    susceptance_from_scattering,
)
from .optimizer import (
    SolveReport,
    SolverConfig,
    matched_filter_init,
    random_init,
    solve_psla,
    solve_two_layer,
    sum_rate,
    surrogate_value,
    update_T,
    update_alpha_beta,
    user_rates,
)

__all__ = [
    # baselines
    "OracleConfig", "brute_force_oracle", "solve_full_dim", "zero_forcing",
    # channel
    "ChannelSet", "ReducedChannel", "generate_rayleigh", "reduce_channel",
    # errors
    "DimensionError", "InconsistentSolutionError", "MilacError",
    "NotRealizableError", "NumericalError", "RankDeficientError",
    # harness
    "ExperimentSpec", "SweepRow", "run_experiment", "snr_to_power", "summarize",
    # mapping
    "DigitalBeamformer", "TwoLayerSolution", "map_digital_to_milac",
    # network
    "FactoredScattering", "LosslessReciprocalReport", "ScatteringMatrix",
    "SusceptanceMatrix", "admittance_from_components", "beamformer_from_scattering",
    "check_lossless_reciprocal", "scattering_from_susceptance",
    "susceptance_from_scattering",
    # optimizer
    "SolveReport", "SolverConfig", "matched_filter_init", "random_init", "solve_psla",
    "solve_two_layer", "sum_rate", "surrogate_value", "update_T", "update_alpha_beta",
    "user_rates",
]
__version__ = "0.1.0"
