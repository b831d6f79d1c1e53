"""CLI exit codes: 0 success, 2 validation failure, 3 numerical guard; JSON records on stderr."""

import json
from pathlib import Path

import pytest

from phasediff.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_success_writes_csv_and_sidecar(tmp_path, capsys):
    code, out, _ = run(capsys, "snr-input", "--seed", "1", "--out", str(tmp_path))
    assert code == 0
    written = out.split()
    assert len(written) == 2 and all(Path(p).exists() for p in written)
    sidecar = written[-1]
    code, out, _ = run(capsys, "validate", "--config", sidecar)
    assert code == 0
    assert json.loads(out)["experiment"] == "snr-input"


def test_analytic_experiment_ignores_sde_limits(tmp_path, capsys):
    # t_max below the SDE default dt: snr-input runs no SDE, so nothing to reject
    config = write(tmp_path, "cfg.json", '{"t_max": 0.0005}')
    code, _, _ = run(capsys, "snr-input", "--config", config, "--seed", "1",
                     "--out", str(tmp_path))
    assert code == 0


@pytest.mark.parametrize(
    "command, text, field",
    [
        ("number-fan", "{not json", "<document>"),
        ("number-fan", "[1, 2]", "<document>"),
        ("variance-from-dist", '{"t_min": 0.0}', "t_min"),
        ("variance-from-dist", '{"t_min": -0.5}', "t_min"),
        ("variance-from-dist", '{"t_min": 3.0, "t_max": 2.0}', "t_min"),
        ("snr-input", '{"n_time_points": "many"}', "n_time_points"),
        ("snr-input", '{"n_time_points": -3}', "n_time_points"),
        ("snr-input", '{"n0_list": "abc"}', "n0_list"),
        ("snr-input", '{"n0_list": [0.0]}', "n0_list"),
        ("snr-nonideal", '{"nonideal_pairs": 3}', "nonideal_pairs"),
        ("dist-converge", '{"tail_bound": 0}', "tail_bound"),
        ("variance-from-dist", '{"n_time_points": 0}', "n_time_points"),
        ("snr-nonideal", '{"input_grid_points": 1.5}', "input_grid_points"),
        ("snr-input --n-traj 5", "{}", "n_traj"),
        ("snr-input", '{"t_max": 1e400}', "t_max"),
        ("dist-converge", '{"theta": NaN}', "theta"),
        ("number-fan --t-max 2.05 --dt 0.1", "{}", "dt/t_max/n_traj"),
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, command, text, field):
    config = write(tmp_path, "cfg.json", text)
    code, _, err = run(capsys, *command.split(), "--config", config, "--seed", "1",
                       "--out", str(tmp_path))
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "validation"
    assert [d["field"] for d in record["details"]] == [field]


def test_sidecar_of_another_experiment_exits_2(tmp_path, capsys):
    # number-fan's fields all fit variance-compare's schema, so only the name tells
    code, out, _ = run(capsys, "number-fan", "--seed", "1", "--n-traj", "4",
                       "--out", str(tmp_path))
    assert code == 0
    code, _, err = run(capsys, "variance-compare", "--config", out.split()[-1])
    assert code == 2
    assert [d["field"] for d in json.loads(err)["details"]] == ["experiment"]


@pytest.mark.parametrize("command", ["number-fan", "validate"])
def test_missing_config_exits_2(tmp_path, capsys, command):
    code, _, err = run(capsys, command, "--config", str(tmp_path / "absent.json"))
    assert code == 2
    assert json.loads(err)["details"][0]["field"] == "--config"


@pytest.mark.parametrize("order, flagged", [(3, False), (20, True)])
def test_inverse_expansion_records_truncation_share(tmp_path, capsys, order, flagged):
    # E[1/N] orders past the series' turning point run away (order 20 gives
    # 5e5 at t = 2 against a Monte Carlo 0.01); the sidecar must say so
    code, out, _ = run(capsys, "inverse-expansion", "--seed", "1", "--k-order", str(order),
                       "--out", str(tmp_path))
    assert code == 0
    diag = json.loads(Path(out.split()[-1]).read_text())["truncation_diagnostic"]
    assert diag["order_k"] == order
    assert diag["flagged"] is flagged


def test_guard_trip_exits_3(tmp_path, capsys):
    config = write(tmp_path, "cfg.json", '{"cutoff_s": 8, "times": [4.0]}')
    code, _, err = run(capsys, "dist-converge", "--config", config, "--seed", "1",
                       "--out", str(tmp_path))
    assert code == 3
    record = json.loads(err)
    assert record["error"] == "numerical-guard"
    assert "top Fock level" in record["message"]
