"""The package's public names: growth or loss shows up here, in review."""

import dataclasses
import inspect

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


def test_simulator_options_are_pinned():
    # by default a simulation stores and reduces every variable it records
    for simulate, names in [(phasediff.simulate_polar, ("n", "phi")),
                            (phasediff.simulate_inverse, ("upsilon",))]:
        parameters = inspect.signature(simulate).parameters.values()
        assert [p.name for p in parameters if p.kind is p.POSITIONAL_OR_KEYWORD] == [
            "params", "input", "config"]
        assert {p.name: p.default for p in parameters if p.kind is p.KEYWORD_ONLY} == {
            "store": names, "reduce": names}


def test_sde_config_fields_are_pinned():
    # the batch width is a class constant, and any guard trip aborts: neither is a field
    assert [f.name for f in dataclasses.fields(phasediff.SdeConfig)] == [
        "dt", "t_max", "n_traj", "master_seed", "floor_epsilon", "record_every"]


def test_fock_surface_is_pinned():
    # the cutoff rule has one tail, the phase window starts at 0 and the input phase is
    # params.INPUT_PHASE: none is a parameter
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(phasediff.pegg_barnett_distribution) == ["state"]
    assert names(phasediff.fock_cutoff) == ["params", "input", "t"]
    assert [f.name for f in dataclasses.fields(phasediff.FockState)] == ["band"]
    assert [f.name for f in dataclasses.fields(phasediff.CoherentInput)] == ["amplitude_sq"]
