"""Experiment configuration: one flat JSON document per run, fully validated.

A config is a flat key/value JSON object.  Every field except master_seed has
an experiment-specific default; the resolved document (defaults merged with
the user's keys) is echoed into the run metadata so the metadata alone pins
the run.  Validation is aggregated: all problems are reported at once, each
naming its field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .params import AmplifierParams, CoherentInput
from .sde import SdeConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_document", "validate_config",
           "experiment_defaults"]


class ConfigError(ValueError):
    """Aggregated validation failure; .errors is a list of (field, message)."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{f}: {m}" for f, m in self.errors))

    def as_record(self) -> dict:
        return {
            "error": "validation",
            "details": [{"field": f, "message": m} for f, m in self.errors],
        }


_COMMON_DEFAULTS: dict = {
    "kappa_up": 1.0,
    "kappa_down": 0.0,
    "amplitude_sq": 2.25,
    "theta": float(np.pi),
    "dt": 1e-3,
    "t_max": 6.0,
    "n_traj": 500,
    "master_seed": None,  # required: runs must be explicitly seeded
    "expansion_order": 4,
    "floor_epsilon": 1e-6,
    "max_guard_trips": 0,
    "record_every": 10,
    "chunk_size": 512,
    "noise_thinning": 1,
    "out": "results",
}

# experiment name -> (description, overrides/extras, uses_sde, uses_expansion)
_EXPERIMENTS: dict[str, tuple[str, dict, bool, bool]] = {
    "number-fan": (
        "photon-number trajectory fan with ensemble mean vs the closed form",
        {"kappa_up": 2.0, "amplitude_sq": 3.0, "theta": 0.0, "n_traj": 50,
         "dt": 5e-4, "t_max": 2.0, "record_every": 20},
        True, False,
    ),
    "variance-compare": (
        "sample phase variance vs inverse-moment orders and the small-noise bound",
        {"t_max": 6.0, "record_every": 10},
        True, True,
    ),
    "snr-input": (
        "inverse signal-to-noise ratio over time for several input strengths",
        {"n0_list": [2.0, 3.0, 6.0, 13.0], "t_max": 6.0, "n_time_points": 301},
        False, False,
    ),
    "snr-nonideal": (
        "inverse SNR vs time and its high-gain limit vs input, per loss level",
        {"amplitude_sq": 3.0, "nonideal_pairs": [[0.6, 0.4], [0.7, 0.3], [0.8, 0.2], [1.0, 0.0]],
         "t_max": 15.0, "n_time_points": 301, "input_grid_max": 30.0, "input_grid_points": 301},
        False, False,
    ),
    "inverse-expansion": (
        "mean reciprocal photon number: trajectories vs expansion orders",
        {"kappa_up": 2.0, "amplitude_sq": 3.0, "theta": 0.0, "n_traj": 200,
         "dt": 5e-4, "t_max": 2.0, "record_every": 20, "expansion_order": 3},
        True, True,
    ),
    "dist-converge": (
        "phase densities from the closed form and the Fock reference at two times",
        {"times": [0.1, 4.0], "cutoff_s": None, "tail_bound": 1e-10},
        False, False,
    ),
    "variance-from-dist": (
        "phase variance over time from both phase densities",
        {"t_min": 0.1, "t_max": 4.0, "n_time_points": 16, "cutoff_s": None,
         "tail_bound": 1e-10},
        False, False,
    ),
}

_IDEAL_ONLY = {"dist-converge", "variance-from-dist"}


def experiment_defaults(experiment: str) -> dict:
    """Fully-resolved default document for one experiment."""
    if experiment not in _EXPERIMENTS:
        raise KeyError(experiment)
    doc = dict(_COMMON_DEFAULTS)
    doc.update(_EXPERIMENTS[experiment][1])
    doc["experiment"] = experiment
    return doc


def experiment_registry() -> dict[str, str]:
    return {name: spec[0] for name, spec in _EXPERIMENTS.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    resolved: dict = field(repr=False)
    params: AmplifierParams = None
    input: CoherentInput = None
    sde: SdeConfig | None = None
    expansion_order: int = 4
    out_dir: Path = Path("results")


_NUMERIC = (int, float)


def _check_type(doc, errors, key, kinds, predicate=None, describe=""):
    v = doc.get(key)
    if isinstance(v, bool) or not isinstance(v, kinds):
        errors.append((key, f"expected {describe or kinds}, got {v!r}"))
        return None
    if predicate is not None and not predicate(v):
        errors.append((key, f"invalid value {v!r}{': ' + describe if describe else ''}"))
        return None
    return v


def parse_document(raw) -> dict:
    """Config document from JSON text (bytes/str) or a dict, sidecars unwrapped.

    A run-metadata document (with a "config" key) is accepted and unwrapped,
    so any emitted metadata file can be fed straight back in.
    """
    if isinstance(raw, (bytes, str)):
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError([("<document>", f"not valid JSON: {exc}")]) from exc
    else:
        doc = raw
    if not isinstance(doc, dict):
        raise ConfigError([("<document>", "top level must be a JSON object")])
    if "config" in doc and isinstance(doc["config"], dict):
        doc = doc["config"]
    return doc


def validate_config(raw) -> ExperimentConfig:
    """Parse (see parse_document) and validate a config document.

    All violations are collected and raised together as a ConfigError.
    """
    errors: list[tuple[str, str]] = []
    doc = parse_document(raw)

    experiment = doc.get("experiment")
    if experiment not in _EXPERIMENTS:
        raise ConfigError([
            ("experiment", f"unknown experiment {experiment!r}; valid: {sorted(_EXPERIMENTS)}")
        ])
    _, overrides, uses_sde, uses_expansion = _EXPERIMENTS[experiment]

    resolved = experiment_defaults(experiment)
    unknown = set(doc) - set(resolved)
    for key in sorted(unknown):
        errors.append((key, "unknown field for this experiment"))
    resolved.update({k: v for k, v in doc.items() if k in resolved})

    if resolved.get("master_seed") is None:
        errors.append(("master_seed", "required (pass a 64-bit seed; runs must be reproducible)"))
    else:
        _check_type(resolved, errors, "master_seed", int,
                    lambda v: 0 <= v < 2**64, "a 64-bit unsigned integer")

    for key in ("kappa_up", "kappa_down", "amplitude_sq", "theta", "dt", "t_max", "floor_epsilon"):
        _check_type(resolved, errors, key, _NUMERIC, describe="a number")
    for key in ("n_traj", "expansion_order", "record_every", "chunk_size",
                "noise_thinning", "max_guard_trips"):
        _check_type(resolved, errors, key, int, describe="an integer")
    _check_type(resolved, errors, "out", str, describe="a path string")

    params = input_ = sde = None
    if not errors:
        try:
            params = AmplifierParams(resolved["kappa_up"], resolved["kappa_down"])
        except ValueError as exc:
            errors.append(("kappa_up/kappa_down", str(exc)))
        try:
            input_ = CoherentInput(resolved["amplitude_sq"], resolved["theta"])
        except ValueError as exc:
            errors.append(("amplitude_sq", str(exc)))
        try:
            sde = SdeConfig(
                dt=resolved["dt"], t_max=resolved["t_max"], n_traj=resolved["n_traj"],
                master_seed=resolved["master_seed"], floor_epsilon=resolved["floor_epsilon"],
                max_guard_trips=resolved["max_guard_trips"], record_every=resolved["record_every"],
                chunk_size=resolved["chunk_size"], noise_thinning=resolved["noise_thinning"],
            )
        except ValueError as exc:
            errors.append(("dt/t_max/n_traj", str(exc)))

        if uses_expansion:
            if resolved["expansion_order"] < 1:
                errors.append(("expansion_order", "must be >= 1"))
            if resolved["amplitude_sq"] <= 1.0:
                errors.append((
                    "amplitude_sq",
                    "the inverse-moment expansion needs amplitude_sq > 1 "
                    f"(initial moments 1/N^n(0) diverge otherwise); got {resolved['amplitude_sq']}",
                ))
        if experiment in _IDEAL_ONLY and resolved["kappa_down"] != 0.0:
            errors.append(("kappa_down",
                           "the closed-form phase density needs the lossless amplifier "
                           "(kappa_down = 0)"))
        if experiment == "snr-nonideal":
            for i, pair in enumerate(resolved.get("nonideal_pairs", [])):
                try:
                    AmplifierParams(*pair)
                except (TypeError, ValueError) as exc:
                    errors.append((f"nonideal_pairs[{i}]", str(exc)))
        if experiment in ("dist-converge", "variance-from-dist"):
            cut = resolved.get("cutoff_s")
            if cut is not None and (isinstance(cut, bool) or not isinstance(cut, int) or cut < 8):
                errors.append(("cutoff_s", f"must be null (auto) or an integer >= 8, got {cut!r}"))
        if experiment == "dist-converge":
            times = resolved.get("times")
            if (not isinstance(times, list) or not times
                    or any(not isinstance(t, _NUMERIC) or t <= 0 for t in times)
                    or sorted(times) != times):
                errors.append(("times", "must be a sorted list of positive times"))
        if experiment == "variance-from-dist":
            t_min = _check_type(resolved, errors, "t_min", _NUMERIC, describe="a number")
            if t_min is not None and not 0 < t_min <= resolved["t_max"]:
                errors.append(("t_min", f"must satisfy 0 < t_min <= t_max, got {t_min!r}"))

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        experiment=experiment,
        resolved=resolved,
        params=params,
        input=input_,
        sde=sde,
        expansion_order=int(resolved["expansion_order"]),
        out_dir=Path(resolved["out"]),
    )
