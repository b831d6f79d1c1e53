"""Phase diffusion in quantum linear amplifiers.

Closed-form photon statistics, the small-noise phase variance, the
inverse-moment expansion that goes beyond it, trajectory ensembles for the
underlying stochastic model, and full phase distributions from a Fock-space
master-equation reference.
"""

__version__ = "0.1.0"

from .params import AmplifierParams, CoherentInput
from .moments import (
    gain,
    mean_photon,
    photon_variance,
    inverse_snr,
    high_gain_inverse_snr,
)
from .smallnoise import small_noise_phase_variance
from .expansion import mean_inverse, phase_variance_expansion, truncation_diagnostic
from .sde import (
    SdeConfig,
    TrajectoryEnsemble,
    VariableStats,
    simulate_polar,
    simulate_inverse,
    ensemble_stats,
)
from .distributions import (
    FockState,
    PhaseDensity,
    eta,
    evolve_density_series,
    fock_cutoff,
    p_function_phase_density,
    pegg_barnett_distribution,
    distribution_variance,
)
from .config import (ConfigError, ExperimentConfig, validate_config, experiment_defaults,
                     list_experiments)
from .errors import GuardTripError
from .experiments import ResultBundle, run_experiment

__all__ = [
    "AmplifierParams",
    "CoherentInput",
    "gain",
    "mean_photon",
    "photon_variance",
    "inverse_snr",
    "high_gain_inverse_snr",
    "small_noise_phase_variance",
    "mean_inverse",
    "phase_variance_expansion",
    "truncation_diagnostic",
    "SdeConfig",
    "TrajectoryEnsemble",
    "VariableStats",
    "simulate_polar",
    "simulate_inverse",
    "ensemble_stats",
    "FockState",
    "PhaseDensity",
    "eta",
    "evolve_density_series",
    "fock_cutoff",
    "p_function_phase_density",
    "pegg_barnett_distribution",
    "distribution_variance",
    "ConfigError",
    "ExperimentConfig",
    "validate_config",
    "experiment_defaults",
    "GuardTripError",
    "ResultBundle",
    "list_experiments",
    "run_experiment",
]
