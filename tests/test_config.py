"""Per-experiment config schemas, aggregated errors and the sidecar round trip."""

import json
import sys

import pytest

import phasediff
from phasediff import ConfigError, experiment_defaults, list_experiments, run_experiment
from phasediff import validate_config
from phasediff.config import _CHECKS, _EXPERIMENTS

AMPLIFIER = ["kappa_up", "kappa_down"]
SDE = ["dt", "t_max", "n_traj", "floor_epsilon", "record_every"]
RUN = ["master_seed", "out"]

SCHEMAS = {
    "number-fan": AMPLIFIER + ["amplitude_sq"] + SDE + RUN,
    "variance-compare": AMPLIFIER + ["amplitude_sq", "expansion_order"] + SDE + RUN,
    "inverse-expansion": AMPLIFIER + ["amplitude_sq", "expansion_order"] + SDE + RUN,
    "snr-input": AMPLIFIER + ["n0_list", "t_max", "n_time_points"] + RUN,
    "snr-nonideal": ["amplitude_sq", "nonideal_pairs", "t_max", "n_time_points",
                     "input_grid_max", "input_grid_points"] + RUN,
    "dist-converge": AMPLIFIER + ["amplitude_sq", "times"] + RUN,
    "variance-from-dist": AMPLIFIER + ["amplitude_sq", "t_min", "t_max", "n_time_points"] + RUN,
}

# seconds-long configs, one per registered experiment
SMALL = {
    "number-fan": {"n_traj": 20},
    "variance-compare": {"n_traj": 40, "t_max": 1.0},
    "inverse-expansion": {"n_traj": 40},
    "snr-input": {},
    "snr-nonideal": {},
    "dist-converge": {"amplitude_sq": 6.0, "times": [0.2, 0.5]},
    "variance-from-dist": {"t_max": 0.5, "n_time_points": 3},
}


@pytest.mark.parametrize("experiment", sorted(SCHEMAS))
def test_schema_holds_the_fields_the_experiment_reads(experiment):
    doc = experiment_defaults(experiment)
    assert doc.pop("experiment") == experiment
    assert sorted(doc) == sorted(SCHEMAS[experiment])


def test_schemas_cover_every_experiment():
    assert sorted(SCHEMAS) == sorted(SMALL) == sorted(list_experiments())
    assert sum(len(fields) for fields in SCHEMAS.values()) == 61


def test_every_check_belongs_to_a_field():
    # a field removed from every schema leaves no predicate behind
    assert set(_CHECKS) == set().union(*SCHEMAS.values())


def test_analytic_objects_built_only_from_their_fields():
    cfg = validate_config({"experiment": "snr-input", "master_seed": 1})
    assert cfg.sde is None and cfg.input is None and cfg.params is not None
    cfg = validate_config({"experiment": "snr-nonideal", "master_seed": 1})
    assert cfg.sde is None and cfg.params is None and cfg.input.amplitude_sq == 3.0


def test_resolved_lists_are_not_shared():
    cfg = validate_config({"experiment": "snr-input", "master_seed": 1})
    cfg.resolved["n0_list"].append(99.0)
    assert experiment_defaults("snr-input")["n0_list"] == [2.0, 3.0, 6.0, 13.0]
    assert validate_config(
        {"experiment": "snr-input", "master_seed": 1}).resolved["n0_list"] == [2.0, 3.0, 6.0, 13.0]
    experiment_defaults("dist-converge")["times"].append(9.0)
    assert experiment_defaults("dist-converge")["times"] == [0.1, 4.0]
    mine = [1.5, 2.5]
    cfg = validate_config({"experiment": "snr-input", "master_seed": 1, "n0_list": mine})
    cfg.resolved["n0_list"].append(99.0)
    assert mine == [1.5, 2.5]


def test_errors_are_aggregated():
    doc = {"experiment": "snr-input", "master_seed": 1,
           "n_time_points": "many", "n0_list": [0.0], "dt": 1e-3}
    with pytest.raises(ConfigError) as info:
        validate_config(doc)
    assert sorted(f for f, _ in info.value.errors) == ["dt", "n0_list", "n_time_points"]


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_sidecar_reruns_bit_identically(tmp_path, experiment):
    doc = {"experiment": experiment, "master_seed": 20240611, "out": str(tmp_path),
           **SMALL[experiment]}
    first = dict(run_experiment(validate_config(doc)).csv_files)  # read before the rerun
    sidecar = tmp_path / f"{experiment}.meta.json"
    metas = [json.loads(sidecar.read_text())]
    second = run_experiment(validate_config(sidecar.read_text()))
    metas.append(json.loads(sidecar.read_text()))
    assert second.csv_files == first  # the rerun's files, read back
    # the rerun writes to the same directory, so only the timing fields vary
    for meta in metas:
        del meta["written_at"], meta["wall_time_s"]
    assert metas[1] == metas[0]


@pytest.mark.parametrize("experiment", ["inverse-expansion", "variance-compare"])
def test_first_order_sidecar_is_strict_json(tmp_path, experiment):
    # order 1 has no last-term share; the sidecar records null, never NaN
    doc = {"experiment": experiment, "master_seed": 3, "out": str(tmp_path),
           "expansion_order": 1, **SMALL[experiment]}
    first = dict(run_experiment(validate_config(doc)).csv_files)  # read before the rerun
    text = (tmp_path / f"{experiment}.meta.json").read_text()

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    meta = json.loads(text, parse_constant=refuse)
    assert meta["truncation_diagnostic"] == {"order_k": 1, "last_term_share": None,
                                             "flagged": False}
    second = run_experiment(validate_config(text))
    assert second.csv_files == first


def test_validation_plans_the_fock_times_the_run_uses(tmp_path, monkeypatch):
    # one time: the run's last time is t_min, and validation sizes that, not t_max
    # (a Fock cutoff of 2e10 at t_max 20 would need 5e12 bytes)
    sized = []
    real = phasediff.config._fock_bytes

    def sizing(input_, cutoff, n_times, limit):
        sized.append((cutoff, n_times))
        return real(input_, cutoff, n_times, limit)

    monkeypatch.setattr(phasediff.config, "_fock_bytes", sizing)
    cfg = validate_config({"experiment": "variance-from-dist", "master_seed": 1,
                           "n_time_points": 1, "t_max": 20.0, "out": str(tmp_path)})
    cutoff = phasediff.fock_cutoff(cfg.params, cfg.input, 0.1)
    assert cfg.times == (0.1,) and cfg.cutoff_s == cutoff
    assert sized == [(cutoff, 1)]
    run_experiment(cfg)
    meta = json.loads((tmp_path / "variance-from-dist.meta.json").read_text())
    assert meta["cutoff_s"] == cutoff


@pytest.mark.parametrize("experiment", sorted(n for n, rec in _EXPERIMENTS.items() if rec.fock))
def test_fock_cutoff_is_taken_once_in_validation(tmp_path, monkeypatch, experiment):
    calls = []
    real = phasediff.distributions.fock_cutoff

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in [m for name, m in sys.modules.items() if name.startswith("phasediff")]:
        if getattr(module, "fock_cutoff", None) is real:
            monkeypatch.setattr(module, "fock_cutoff", counting)
    cfg = validate_config({"experiment": experiment, "master_seed": 1, "out": str(tmp_path),
                           **SMALL[experiment]})
    assert len(calls) == 1
    run_experiment(cfg)
    assert len(calls) == 1
