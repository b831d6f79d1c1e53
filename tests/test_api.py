"""The package's public names: growth or loss shows up here, in review."""

import phasediff
import phasediff.expansion

PUBLIC = [
    "AmplifierParams", "CoherentInput", "ConfigError", "ExperimentConfig", "FockState",
    "GuardTripError", "PhaseDensity", "ResultBundle", "SdeConfig", "TrajectoryEnsemble",
    "VariableStats", "distribution_variance", "ensemble_stats", "eta", "evolve_density_series",
    "experiment_defaults", "fock_cutoff", "gain", "high_gain_inverse_snr", "inverse_snr",
    "list_experiments", "mean_inverse", "mean_photon", "p_function_phase_density",
    "pegg_barnett_distribution", "phase_variance_expansion", "photon_variance",
    "run_experiment", "simulate_inverse", "simulate_polar", "small_noise_phase_variance",
    "truncation_diagnostic", "validate_config",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 33
    assert sorted(phasediff.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in phasediff.__all__:
        assert getattr(phasediff, name) is not None, name


def test_expansion_names_are_pinned():
    assert sorted(phasediff.expansion.__all__) == [
        "mean_inverse", "phase_variance_expansion", "truncation_diagnostic"]
