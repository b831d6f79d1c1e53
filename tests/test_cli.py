"""CLI exit codes: 0 success, 2 validation failure, 3 numerical guard; JSON records on stderr."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import phasediff
from phasediff.cli import main
from phasediff.config import _EXPERIMENTS
from phasediff.distributions import _fock_bytes
from phasediff.sde import _integrate_bytes


PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


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
        ("dist-converge", '{"amplitude_sq": NaN}', "amplitude_sq"),
        ("number-fan --t-max 2.05 --dt 0.1", "{}", "dt/t_max/n_traj"),
        ("number-fan --dt 1e-300", "{}", "dt/t_max/n_traj"),  # 2e300 steps
        ("number-fan --dt 5e-324", "{}", "dt/t_max/n_traj"),  # t_max/dt overflows
        ("number-fan --dt 1e-15", "{}", "dt/t_max/n_traj"),  # a 2e15-byte step mask
        ("number-fan", '{"dt": -0.001}', "dt"),
        ("number-fan", '{"n_traj": 0}', "n_traj"),
        ("number-fan", '{"n_traj": 1}', "n_traj"),  # statistics need two trajectories
        ("variance-compare", '{"n_traj": 1}', "n_traj"),
        ("inverse-expansion", '{"n_traj": 1}', "n_traj"),
        ("number-fan", '{"floor_epsilon": 0}', "floor_epsilon"),
        ("number-fan", '{"record_every": 0}', "record_every"),
        ("number-fan", '{"chunk_size": 0}', "chunk_size"),  # an engine constant, not a field
        ("number-fan", '{"config": {"chunk_size": 4096}}', "chunk_size"),  # an older sidecar
        ("number-fan", '{"config": {"max_guard_trips": 0}}', "max_guard_trips"),  # any trip aborts
        ("dist-converge", '{"config": {"cutoff_s": null}}', "cutoff_s"),  # the cutoff is
        ("variance-from-dist", '{"config": {"tail_bound": 1e-10}}', "tail_bound"),  # no field
        # the input phase is no field: it only rotates the output
        ("variance-compare", '{"config": {"theta": 3.141592653589793}}', "theta"),
        ("dist-converge", '{"config": {"theta": 0.3}}', "theta"),
        ("variance-from-dist", '{"config": {"theta": -2}}', "theta"),
        ("inverse-expansion", '{"record_every": 0, "floor_epsilon": 0}',
         "floor_epsilon,record_every"),
        ("dist-converge", '{"times": [1e-13, 0.1]}', "times"),
        ("variance-from-dist", '{"t_min": 1e-13}', "t_min"),
        ("snr-nonideal", '{"nonideal_pairs": [[Infinity, 0]]}', "nonideal_pairs"),
        ("snr-nonideal", '{"nonideal_pairs": [[1e400, 0]]}', "nonideal_pairs"),
        ("snr-nonideal", '{"nonideal_pairs": [[NaN, 0]]}', "nonideal_pairs"),
        ("snr-nonideal", '{"nonideal_pairs": [[0.6], [0.7, 0.3]]}', "nonideal_pairs"),
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, command, text, field):
    config = write(tmp_path, "cfg.json", text)
    code, _, err = run(capsys, *command.split(), "--config", config, "--seed", "1",
                       "--out", str(tmp_path))
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "validation"
    assert [d["field"] for d in record["details"]] == field.split(",")


def test_number_fan_whose_paths_exceed_memory_exits_2(tmp_path, capsys, monkeypatch):
    # enough trajectories that the stored photon-number paths (201 recorded
    # times) exceed physical memory while the guard counts still fit: refused
    # in validation, before anything is mapped
    def refuse(*shape, **kwargs):
        raise AssertionError(f"mapped an array of shape {shape}")

    monkeypatch.setattr(phasediff.sde, "_mapped", refuse)
    n_traj = PHYSICAL_MEMORY // (8 * 201) + 1
    code, _, err = run(capsys, "number-fan", "--seed", "1", "--n-traj", str(n_traj),
                       "--out", str(tmp_path))
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "validation"
    assert [d["field"] for d in record["details"]] == ["n_traj"]
    assert "physical memory" in record["details"][0]["message"]


@pytest.mark.parametrize("command", sorted(n for n, record in _EXPERIMENTS.items() if record.sde))
def test_sde_arrays_just_past_memory_exit_2(tmp_path, capsys, monkeypatch, command):
    # the default run's count of the arrays it makes, stored or not: a byte
    # less memory is refused, naming n_traj, before anything is mapped; that
    # much validates
    def refuse(*shape, **kwargs):
        raise AssertionError(f"mapped an array of shape {shape}")

    sde = phasediff.validate_config({"experiment": command, "master_seed": 1}).sde
    need = _integrate_bytes(sde, *_EXPERIMENTS[command].sde)
    assert need > 8 * sde.n_traj * sde.n_recorded  # more than one path array
    monkeypatch.setattr(phasediff.sde, "_mapped", refuse)
    monkeypatch.setattr(phasediff.config, "_physical_memory", lambda: need - 1)
    code, _, err = run(capsys, command, "--seed", "1", "--out", str(tmp_path))
    assert code == 2
    record = json.loads(err)
    assert [d["field"] for d in record["details"]] == ["n_traj"]
    assert f"need {need:.3g} bytes" in record["details"][0]["message"]
    monkeypatch.setattr(phasediff.config, "_physical_memory", lambda: need)
    phasediff.validate_config({"experiment": command, "master_seed": 1})


@pytest.mark.parametrize("command, doc, field", [
    # kappa_minus t = 20: the cutoff search used to run past its pole (NaN);
    # the cutoff is 1.1e10 or more, 8.8e10 bytes of log-factorials alone
    ("dist-converge", {"times": [0.1, 20.0]}, "times"),
    ("variance-from-dist", {"t_max": 20.0}, "t_max"),
    ("dist-converge", {"times": [0.1, 800.0]}, "times"),  # past the cutoff rule's domain
])
def test_fock_arrays_beyond_memory_exit_2(tmp_path, capsys, monkeypatch, command, doc, field):
    # refused from the sizes alone, before any Fock array is made
    def refuse(*args):
        raise AssertionError("built a log-factorial table")

    monkeypatch.setattr(phasediff.distributions, "_log_factorials", refuse)
    config = write(tmp_path, "cfg.json", json.dumps(doc))
    code, _, err = run(capsys, command, "--config", config, "--seed", "1", "--out", str(tmp_path))
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "validation"
    assert [d["field"] for d in record["details"]] == [field]
    assert "physical memory" in record["details"][0]["message"]


@pytest.mark.parametrize("command, field, n_times", [
    ("dist-converge", "times", 2), ("variance-from-dist", "t_max", 16)])
def test_fock_arrays_just_past_memory_exit_2(tmp_path, capsys, monkeypatch, command, field,
                                             n_times):
    # the default run's exact count (4.0 is both defaults' last time): a byte
    # less memory is refused, that much validates
    inp = phasediff.CoherentInput(2.25)
    cutoff = phasediff.fock_cutoff(phasediff.AmplifierParams(1.0), inp, 4.0)
    need = _fock_bytes(inp, cutoff, n_times, math.inf)
    monkeypatch.setattr(phasediff.config, "_physical_memory", lambda: need - 1)
    code, _, err = run(capsys, command, "--seed", "1", "--out", str(tmp_path))
    assert code == 2
    record = json.loads(err)
    assert [d["field"] for d in record["details"]] == [field]
    assert f"needs at least {need:.3g} bytes" in record["details"][0]["message"]
    assert "physical memory" in record["details"][0]["message"]
    monkeypatch.setattr(phasediff.config, "_physical_memory", lambda: need)
    phasediff.validate_config({"experiment": command, "master_seed": 1})


@pytest.mark.parametrize("command", ["variance-compare", "inverse-expansion"])
def test_overflowing_expansion_order_exits_3(tmp_path, capsys, command):
    # the series' terms (n-1)! x^(n-1) overflow long before order 1000
    code, _, err = run(capsys, command, "--seed", "1", "--k-order", "1000", "--n-traj", "8",
                       "--t-max", "1", "--out", str(tmp_path))
    assert code == 3
    record = json.loads(err)
    assert record["error"] == "numerical-guard"
    assert "non-finite value inf" in record["message"]
    assert any("overflow" in w for w in record["warnings"])


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
    # a floor this high aborts most trajectories, past the abort-fraction limit
    config = write(tmp_path, "cfg.json", '{"n_traj": 20, "floor_epsilon": 2.9}')
    code, _, err = run(capsys, "number-fan", "--config", config, "--seed", "1",
                       "--out", str(tmp_path))
    assert code == 3
    record = json.loads(err)
    assert record["error"] == "numerical-guard"
    assert "16/20 trajectories tripped the positivity guard" in record["message"]


def test_warnings_go_into_the_failure_record(tmp_path, capsys):
    # the rates overflow the moments, a NaN reaches the CSV writer: stderr is one record
    config = write(tmp_path, "cfg.json", '{"kappa_up": 1e308}')
    code, _, err = run(capsys, "snr-input", "--config", config, "--seed", "1",
                       "--out", str(tmp_path))
    assert code == 3
    record = json.loads(err)
    assert record["error"] == "numerical-guard"
    assert any("overflow" in w for w in record["warnings"])


def test_warnings_are_issued_again_on_success(tmp_path, capsys):
    config = write(tmp_path, "cfg.json", '{"t_min": 4.0, "n_time_points": 1}')
    with pytest.warns(UserWarning, match="recentered window carries"):
        code, _, _ = run(capsys, "variance-from-dist", "--config", config, "--seed", "1",
                         "--out", str(tmp_path))
    assert code == 0


@pytest.mark.parametrize("blocker", ["file", "csv-name-taken"])
def test_unwritable_out_exits_2(tmp_path, capsys, blocker):
    if blocker == "file":  # the directory cannot be made
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
    else:  # the directory exists but a CSV cannot be written into it
        (tmp_path / "snr-input.csv").mkdir()
        out = tmp_path
    code, _, err = run(capsys, "snr-input", "--seed", "1", "--out", str(out))
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "validation"
    assert [d["field"] for d in record["details"]] == ["out"]
    assert "directory" in record["details"][0]["message"]


def test_cold_start_never_imports_scipy(tmp_path):
    # a fresh interpreter, so that no other test has imported scipy already;
    # every experiment runs, the phase densities included, and none loads it
    # (the package takes erf and the log-factorials from math, and its
    # sidecars record no scipy version)
    script = textwrap.dedent("""
        import json, sys
        import phasediff, phasediff.cli
        from phasediff.config import experiment_defaults, validate_config
        for name in phasediff.list_experiments():
            validate_config({**experiment_defaults(name), "master_seed": 1})
        out = sys.argv[1]
        tiny = {
            "number-fan": {"n_traj": 4},
            "variance-compare": {"n_traj": 8, "t_max": 0.5},
            "snr-input": {},
            "snr-nonideal": {},
            "inverse-expansion": {"n_traj": 8, "t_max": 0.5},
            "dist-converge": {"times": [0.5]},
            "variance-from-dist": {"t_max": 0.5, "n_time_points": 2},
        }
        assert sorted(tiny) == sorted(phasediff.list_experiments())
        for name, fields in tiny.items():
            with open(f"{out}/{name}.json", "w") as f:
                json.dump(fields, f)
            assert phasediff.cli.main([name, "--config", f"{out}/{name}.json",
                                       "--seed", "1", "--out", out]) == 0, name
        assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
    """)
    src = str(Path(phasediff.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, field", [
    (["snr-input", "--seed", "abc"], "--seed"),
    (["snr-input", "--bogus", "3"], "--bogus"),
    ([], "command"),
    (["validate"], "--config"),
])
def test_malformed_command_line_exits_2_with_a_record(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "validation"
    assert [d["field"] for d in record["details"]] == [field]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert "usage: phasediff" in capsys.readouterr().out
