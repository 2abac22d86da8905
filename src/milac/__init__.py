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
    load_channel,
    reduce_channel,
    save_channel,
)
from .errors import (
    AsymmetricComponentError,
    DegenerateProjectionError,
    DimensionError,
    DimensionTooLargeError,
    InconsistentSolutionError,
    MatrixFormatError,
    MilacError,
    NegativeEntryError,
    NonFiniteObjectiveError,
    NotRealizableError,
    RankDeficientError,
    ResidueTooLargeError,
    SingularNetworkError,
)
from .harness import (
    ExperimentSpec,
    SweepResult,
    SweepRow,
    run_experiment,
    snr_to_power,
    summarize,
)
from .mapping import (
    DigitalBeamformer,
    PhiFeasibilityReport,
    TwoLayerSolution,
    effective_beamformer,
    load_solution,
    map_digital_to_milac,
    power_step,
    save_solution,
    verify_phi_feasibility,
)
from .matio import load_matrix, save_matrix
from .network import (
    AdmittanceMatrix,
    FactoredScattering,
    LosslessReciprocalReport,
    ReferenceImpedance,
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
    sinr,
    solve_psla,
    solve_two_layer,
    sum_rate,
    surrogate_value,
    update_T,
    update_alpha_beta,
    user_rates,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
