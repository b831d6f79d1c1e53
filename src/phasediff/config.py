"""Experiment configuration: one flat JSON document per run, fully validated.

Each experiment has its own schema: a flat key/value document holding every
field the experiment reads, with its default, and no other field.  Schemas are
assembled from small groups (amplifier rates, SDE integration, Fock-space
cutoff) plus the run fields master_seed (required) and out.  A field outside
the experiment's schema is rejected.  The resolved document (defaults merged
with the user's keys) is echoed into the run metadata so the metadata alone
pins the run.  Validation is aggregated: all problems are reported at once,
each naming its field.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

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


_AMPLIFIER = {"kappa_up": 1.0, "kappa_down": 0.0}
_SDE = {
    "dt": 1e-3,
    "t_max": 6.0,
    "n_traj": 500,
    "floor_epsilon": 1e-6,
    "max_guard_trips": 0,
    "record_every": 10,
    "chunk_size": 4096,
    "noise_thinning": 1,
}
_FOCK = {"cutoff_s": None, "tail_bound": 1e-10}
_RUN = {"master_seed": None, "out": "results"}  # master_seed is required

# experiment name -> (description, schema: every field it reads, with its default)
_EXPERIMENTS: dict[str, tuple[str, dict]] = {
    "number-fan": (
        "photon-number trajectory fan with ensemble mean vs the closed form",
        {**_AMPLIFIER, "kappa_up": 2.0, "amplitude_sq": 3.0,
         **_SDE, "n_traj": 50, "dt": 5e-4, "t_max": 2.0, "record_every": 20},
    ),
    "variance-compare": (
        "sample phase variance vs inverse-moment orders and the small-noise bound",
        {**_AMPLIFIER, "amplitude_sq": 2.25, "theta": math.pi, **_SDE, "expansion_order": 4},
    ),
    "snr-input": (
        "inverse signal-to-noise ratio over time for several input strengths",
        {**_AMPLIFIER, "n0_list": [2.0, 3.0, 6.0, 13.0], "t_max": 6.0, "n_time_points": 301},
    ),
    "snr-nonideal": (
        "inverse SNR vs time and its high-gain limit vs input, per loss level",
        {"amplitude_sq": 3.0, "nonideal_pairs": [[0.6, 0.4], [0.7, 0.3], [0.8, 0.2], [1.0, 0.0]],
         "t_max": 15.0, "n_time_points": 301, "input_grid_max": 30.0, "input_grid_points": 301},
    ),
    "inverse-expansion": (
        "mean reciprocal photon number: trajectories vs expansion orders",
        {**_AMPLIFIER, "kappa_up": 2.0, "amplitude_sq": 3.0,
         **_SDE, "n_traj": 200, "dt": 5e-4, "t_max": 2.0, "record_every": 20,
         "expansion_order": 3},
    ),
    "dist-converge": (
        "phase densities from the closed form and the Fock reference at two times",
        {**_AMPLIFIER, "amplitude_sq": 2.25, "theta": math.pi, **_FOCK, "times": [0.1, 4.0]},
    ),
    "variance-from-dist": (
        "phase variance over time from both phase densities",
        {**_AMPLIFIER, "amplitude_sq": 2.25, "theta": math.pi, **_FOCK,
         "t_min": 0.1, "t_max": 4.0, "n_time_points": 16},
    ),
}


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    # JSON admits 1e400, Infinity and NaN; they parse to non-finite floats
    return _integer(v) or isinstance(v, float) and math.isfinite(v)


def _list_of(v, item) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(item(x) for x in v)


# field -> (predicate, description of a valid value); one entry per schema field
_CHECKS = {
    "kappa_up": (_number, "a number"),
    "kappa_down": (_number, "a number"),
    "amplitude_sq": (_number, "a number"),
    "theta": (_number, "a number"),
    "dt": (_number, "a number"),
    "t_max": (lambda v: _number(v) and v > 0, "a number > 0"),
    "t_min": (_number, "a number"),
    "n_traj": (_integer, "an integer"),
    "floor_epsilon": (_number, "a number"),
    "max_guard_trips": (_integer, "an integer"),
    "record_every": (_integer, "an integer"),
    "chunk_size": (_integer, "an integer"),
    "noise_thinning": (_integer, "an integer"),
    "expansion_order": (lambda v: _integer(v) and v >= 1, "an integer >= 1"),
    "n_time_points": (lambda v: _integer(v) and v >= 1, "an integer >= 1"),
    "n0_list": (lambda v: _list_of(v, lambda n: _number(n) and n > 0),
                "a non-empty list of numbers > 0"),
    "nonideal_pairs": (lambda v: isinstance(v, list) and len(v) > 0,
                       "a non-empty list of [kappa_up, kappa_down] pairs"),
    "input_grid_max": (lambda v: _number(v) and v > 0, "a number > 0"),
    "input_grid_points": (lambda v: _integer(v) and v >= 1, "an integer >= 1"),
    "cutoff_s": (lambda v: v is None or _integer(v) and v >= 8,
                 "null (auto) or an integer >= 8"),
    "tail_bound": (lambda v: _number(v) and 0 < v < 1, "a number in (0, 1)"),
    "times": (lambda v: _list_of(v, lambda t: _number(t) and t > 0) and sorted(v) == v,
              "a sorted non-empty list of times > 0"),
    "master_seed": (lambda v: _integer(v) and 0 <= v < 2**64,
                    "a 64-bit unsigned integer (required; runs must be reproducible)"),
    "out": (lambda v: isinstance(v, str), "a path string"),
}


def experiment_defaults(experiment: str) -> dict:
    """Fully-resolved default document for one experiment (a fresh copy on each call)."""
    if experiment not in _EXPERIMENTS:
        raise KeyError(experiment)
    return copy.deepcopy({**_EXPERIMENTS[experiment][1], **_RUN, "experiment": experiment})


def experiment_registry() -> dict[str, str]:
    return {name: spec[0] for name, spec in _EXPERIMENTS.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run; params, input and sde are None when the schema lacks their fields."""

    experiment: str
    resolved: dict = field(repr=False)
    params: AmplifierParams | None = None
    input: CoherentInput | None = None
    sde: SdeConfig | None = None
    out_dir: Path = Path("results")


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

    resolved = experiment_defaults(experiment)
    for key in sorted(set(doc) - set(resolved)):
        errors.append((key, "unknown field for this experiment"))
    # copied so the resolved lists are shared with neither the schema nor the caller
    resolved.update(copy.deepcopy({k: v for k, v in doc.items() if k in resolved}))

    for key, value in resolved.items():
        if key != "experiment":
            valid, describe = _CHECKS[key]
            if not valid(value):
                errors.append((key, f"expected {describe}, got {value!r}"))

    params = input_ = sde = None
    if not errors:
        if "kappa_up" in resolved:
            try:
                params = AmplifierParams(resolved["kappa_up"], resolved["kappa_down"])
            except ValueError as exc:
                errors.append(("kappa_up/kappa_down", str(exc)))
        if "amplitude_sq" in resolved:
            try:
                input_ = CoherentInput(
                    **{k: resolved[k] for k in ("amplitude_sq", "theta") if k in resolved})
            except ValueError as exc:
                errors.append(("amplitude_sq", str(exc)))
        if "dt" in resolved:
            try:
                sde = SdeConfig(master_seed=resolved["master_seed"],
                                **{k: resolved[k] for k in _SDE})
            except ValueError as exc:
                errors.append(("dt/t_max/n_traj", str(exc)))

        if "expansion_order" in resolved and resolved["amplitude_sq"] <= 1.0:
            errors.append((
                "amplitude_sq",
                "the inverse-moment expansion needs amplitude_sq > 1 "
                f"(initial moments 1/N^n(0) diverge otherwise); got {resolved['amplitude_sq']}",
            ))
        for i, pair in enumerate(resolved.get("nonideal_pairs", [])):
            try:
                AmplifierParams(*pair)
            except (TypeError, ValueError) as exc:
                errors.append((f"nonideal_pairs[{i}]", str(exc)))
        t_min = resolved.get("t_min")
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
        out_dir=Path(resolved["out"]),
    )
