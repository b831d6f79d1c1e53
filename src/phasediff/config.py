"""Experiment configuration: one flat JSON document per run, fully validated.

Each experiment has its own schema: a flat key/value document holding every
field the experiment reads, with its default, and no other field.  Schemas are
assembled from small groups (amplifier rates, SDE integration) plus the run
fields master_seed (required) and out.  A field outside the experiment's
schema is rejected, so an older sidecar that sets a removed field exits with a
validation error: chunk_size, cutoff_s, tail_bound, the cap on guard trips
per trajectory (any floor contact aborts one), or theta (the amplifier is
phase-insensitive, so the input phase only rotates the output and no reported
variance depends on it; every run's input is at theta = pi).  The resolved
document (defaults merged with the user's keys) is echoed into the run
metadata so the metadata alone pins the run.  Validation is aggregated: all
problems are reported at once, each naming its field.

The Fock cutoff is no field: validation resolves a Fock run's times (its
record's rule) and distributions.fock_cutoff, the one cutoff rule, at the
last of them, and the config carries both to the run, which records the
cutoff in the sidecar.  Validation refuses, naming times or t_max, a run whose
cutoff that rule refuses or whose Fock arrays exceed physical memory, and,
naming n_traj, an SDE run whose arrays (phasediff.sde._integrate_bytes of its
record's simulator, store and reduce) do.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .distributions import MIN_GAIN_EXPONENT, _fock_bytes, fock_cutoff
from .params import AmplifierParams, CoherentInput
from .sde import SdeConfig, _integrate_bytes, _physical_memory

__all__ = ["ConfigError", "ExperimentConfig", "parse_document", "validate_config",
           "experiment_defaults", "list_experiments"]


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
    "record_every": 10,
}
_RUN = {"master_seed": None, "out": "results"}  # master_seed is required

# theta of every CoherentInput a run builds: the input phase only rotates the
# output, so no reported variance depends on it, and every recorded output was
# made at pi
_INPUT_PHASE = math.pi


class _Experiment(NamedTuple):
    """A registered experiment: its description and its schema (every field it
    reads, with its default); an SDE run's (simulator name, store, reduce); a
    Fock run's (rule for its times, fields naming its earliest and latest time)."""

    description: str
    schema: dict
    sde: tuple[str, tuple[str, ...], tuple[str, ...]] | None = None
    fock: tuple[Callable[[dict], tuple[float, ...]], str, str] | None = None


_EXPERIMENTS = {
    "number-fan": _Experiment(
        "photon-number trajectory fan with ensemble mean vs the closed form",
        {**_AMPLIFIER, "kappa_up": 2.0, "amplitude_sq": 3.0,
         **_SDE, "n_traj": 50, "dt": 5e-4, "t_max": 2.0, "record_every": 20},
        sde=("simulate_polar", ("n",), ("n",)),
    ),
    "variance-compare": _Experiment(
        "sample phase variance vs inverse-moment orders and the small-noise bound",
        {**_AMPLIFIER, "amplitude_sq": 2.25, **_SDE, "expansion_order": 4},
        sde=("simulate_polar", (), ("phi",)),
    ),
    "snr-input": _Experiment(
        "inverse signal-to-noise ratio over time for several input strengths",
        {**_AMPLIFIER, "n0_list": [2.0, 3.0, 6.0, 13.0], "t_max": 6.0, "n_time_points": 301},
    ),
    "snr-nonideal": _Experiment(
        "inverse SNR vs time and its high-gain limit vs input, per loss level",
        {"amplitude_sq": 3.0, "nonideal_pairs": [[0.6, 0.4], [0.7, 0.3], [0.8, 0.2], [1.0, 0.0]],
         "t_max": 15.0, "n_time_points": 301, "input_grid_max": 30.0, "input_grid_points": 301},
    ),
    "inverse-expansion": _Experiment(
        "mean reciprocal photon number: trajectories vs expansion orders",
        {**_AMPLIFIER, "kappa_up": 2.0, "amplitude_sq": 3.0,
         **_SDE, "n_traj": 200, "dt": 5e-4, "t_max": 2.0, "record_every": 20,
         "expansion_order": 3},
        sde=("simulate_inverse", (), ("upsilon",)),
    ),
    "dist-converge": _Experiment(
        "phase densities from the closed form and the Fock reference at two times",
        {**_AMPLIFIER, "amplitude_sq": 2.25, "times": [0.1, 4.0]},
        fock=(lambda r: tuple(float(t) for t in r["times"]), "times", "times"),
    ),
    "variance-from-dist": _Experiment(
        "phase variance over time from both phase densities",
        {**_AMPLIFIER, "amplitude_sq": 2.25, "t_min": 0.1, "t_max": 4.0, "n_time_points": 16},
        fock=(lambda r: tuple(np.linspace(r["t_min"], r["t_max"], r["n_time_points"]).tolist()),
              "t_min", "t_max"),
    ),
}


def list_experiments() -> dict[str, str]:
    """Registered experiment names with one-line descriptions."""
    return {name: record.description for name, record in _EXPERIMENTS.items()}


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    # JSON admits 1e400, Infinity and NaN; they parse to non-finite floats
    return _integer(v) or isinstance(v, float) and math.isfinite(v)


def _list_of(v, item) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(item(x) for x in v)


_POSITIVE = (lambda v: _number(v) and v > 0, "a number > 0")
_COUNT = (lambda v: _integer(v) and v >= 1, "an integer >= 1")

# field -> (predicate, description of a valid value); one entry per schema field
_CHECKS = {
    "kappa_up": (_number, "a number"),
    "kappa_down": (_number, "a number"),
    "amplitude_sq": (_number, "a number"),
    "dt": _POSITIVE,
    "t_max": _POSITIVE,
    "t_min": (_number, "a number"),
    "n_traj": (lambda v: _integer(v) and v >= 2, "an integer >= 2"),  # statistics need two
    "floor_epsilon": _POSITIVE,
    "record_every": _COUNT,
    "expansion_order": _COUNT,
    "n_time_points": _COUNT,
    "n0_list": (lambda v: _list_of(v, lambda n: _number(n) and n > 0),
                "a non-empty list of numbers > 0"),
    "nonideal_pairs": (lambda v: _list_of(v, lambda p: isinstance(p, list) and len(p) == 2
                                          and all(_number(x) for x in p)),
                       "a non-empty list of [kappa_up, kappa_down] pairs of numbers"),
    "input_grid_max": _POSITIVE,
    "input_grid_points": _COUNT,
    "times": (lambda v: _list_of(v, lambda t: _number(t) and t > 0) and sorted(v) == v,
              "a sorted non-empty list of times > 0"),
    "master_seed": (lambda v: _integer(v) and 0 <= v < 2**64,
                    "a 64-bit unsigned integer (required; runs must be reproducible)"),
    "out": (lambda v: isinstance(v, str), "a path string"),
}


def _fock_cutoff(params: AmplifierParams, input_: CoherentInput, times: tuple[float, ...],
                key: str) -> tuple[int | None, list]:
    """The Fock cutoff at a run's last time, and [(key, message)] when the
    cutoff rule refuses that time or the run's arrays exceed physical memory."""
    have = _physical_memory()
    try:
        cutoff = fock_cutoff(params, input_, times[-1])
    except ValueError as exc:
        return None, [(key, f"{exc}: no Fock basis that large fits the {have:.3g} bytes of "
                            "physical memory")]
    need = _fock_bytes(input_, cutoff, len(times), have)
    return cutoff, [] if need <= have else [(key, (
        f"needs at least {need:.3g} bytes (a Fock cutoff of {cutoff} at {len(times)} times), "
        f"more than the {have:.3g} bytes of physical memory"))]


def experiment_defaults(experiment: str) -> dict:
    """Fully-resolved default document for one experiment (a fresh copy on each call)."""
    return copy.deepcopy({**_EXPERIMENTS[experiment].schema, **_RUN, "experiment": experiment})


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run; params, input and sde are None when the schema lacks their fields,
    and times and cutoff_s (the Fock cutoff at the last time) when it is no Fock run."""

    experiment: str
    resolved: dict = field(repr=False)
    params: AmplifierParams | None = None
    input: CoherentInput | None = None
    sde: SdeConfig | None = None
    out_dir: Path = Path("results")
    times: tuple[float, ...] | None = None
    cutoff_s: int | None = None


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

    record = _EXPERIMENTS[experiment]
    params = input_ = sde = times = cutoff_s = None
    if not errors:
        if "kappa_up" in resolved:
            try:
                params = AmplifierParams(resolved["kappa_up"], resolved["kappa_down"])
            except ValueError as exc:
                errors.append(("kappa_up/kappa_down", str(exc)))
        if "amplitude_sq" in resolved:
            try:
                input_ = CoherentInput(resolved["amplitude_sq"], _INPUT_PHASE)
            except ValueError as exc:
                errors.append(("amplitude_sq", str(exc)))
        if "dt" in resolved:
            try:
                sde = SdeConfig(master_seed=resolved["master_seed"],
                                **{k: resolved[k] for k in _SDE})
            except ValueError as exc:
                errors.append(("dt/t_max/n_traj", str(exc)))

        if sde is not None:
            need, have = _integrate_bytes(sde, *record.sde), _physical_memory()
            if need > have:
                errors.append(("n_traj", f"{sde.n_traj} trajectories of {sde.n_recorded} "
                                         f"recorded times need {need:.3g} bytes, more than the "
                                         f"{have:.3g} bytes of physical memory"))
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
        elif params is not None and record.fock is not None:
            rule, first, last = record.fock
            times = rule(resolved)
            # the phase densities need a gain above 1 at their earliest time (see eta)
            if not params.kappa_minus * times[0] > MIN_GAIN_EXPONENT:
                errors.append((first, f"kappa_minus * t must exceed {MIN_GAIN_EXPONENT:g} "
                                      f"(a gain above 1), got t = {times[0]!r}"))
            elif not errors:
                cutoff_s, fock_errors = _fock_cutoff(params, input_, times, last)
                errors += fock_errors

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        experiment=experiment,
        resolved=resolved,
        params=params,
        input=input_,
        sde=sde,
        out_dir=Path(resolved["out"]),
        times=times,
        cutoff_s=cutoff_s,
    )
