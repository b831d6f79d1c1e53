"""Tests of the benchmark itself: tiny-scale smoke runs and negative checks.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 918273645


def _bench(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def _csv(header, rows):
    return "\n".join([",".join(header)] + [",".join(format(v, ".17g") for v in r) for r in rows]) + "\n"


def _from_reference(ref: dict) -> str:
    """Rebuild a CSV body from a reference record that keeps every row."""
    assert ref["stride"] == 1
    cols = [ref["columns"][h]["sample"] for h in ref["header"]]
    return _csv(ref["header"], list(zip(*cols)))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--scale", "tiny", "--seconds", "0.5",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_held_out_seed_passes_the_checks():
    proc = _bench("--workload", "sde-csv", "--scale", "tiny", "--seconds", "0.5",
                  "--trace", "1", "--seed", str(HELD_OUT_SEED))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fan-csv", "--seed", "1", "--seconds", "1", "--trace", "0",
                  root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fock_reference_admits_round_off_and_rejects_a_changed_state():
    ref = workloads.load_reference("tiny")
    files = {name: _from_reference(ref[name])
             for name in ("dist-converge.t1.csv", "dist-converge.t2.csv")}
    assert workloads.check_experiment("dist-converge", files, ref) == []

    r = ref["dist-converge.t2.csv"]
    pb = r["columns"]["pegg_barnett"]["sample"]
    for shift, ok in ((5e-11, True), (1e-4, False)):
        changed = dict(r, columns=dict(r["columns"], pegg_barnett=dict(
            r["columns"]["pegg_barnett"], sample=[v + shift for v in pb])))
        problems = workloads.check_experiment(
            "dist-converge", dict(files, **{"dist-converge.t2.csv": _from_reference(changed)}), ref)
        assert (problems == []) is ok, problems


def test_perturbed_snr_value_fails():
    ref = workloads.load_reference("tiny")
    body = _from_reference(ref["snr-input.csv"])
    assert workloads.check_experiment("snr-input", {"snr-input.csv": body}, ref) == []
    header, rows = workloads.parse_csv(body)
    rows[150, 2] *= 1 + 1e-6
    problems = workloads.check_experiment("snr-input", {"snr-input.csv": _csv(header, rows)}, ref)
    assert problems and "inverse_snr_n0_3" in problems[0]


def test_monte_carlo_deviation_beyond_the_z_limit_fails():
    header = ["t", "sample_variance", "sample_variance_se", "expansion_k4", "expansion_k1",
              "small_noise"]
    rows = [[0.0, 1e-26, 1e-31, 0.0, 0.0, 0.0], [0.1, 0.103, 0.001, 0.1, 0.1, 0.1]]
    assert workloads.check_experiment("variance-compare", {"variance-compare.csv": _csv(header, rows)}, {}) == []
    rows[1][1] = 0.1 + 1.01 * workloads.Z_MAX * 0.001
    assert workloads.check_experiment("variance-compare", {"variance-compare.csv": _csv(header, rows)}, {})


def _runner(docs):
    return run.Runner(docs, workloads.check_experiment, workloads.load_reference("tiny"),
                      tracer.Tracer())


def test_repeat_that_changes_the_bytes_fails(tmp_path):
    ref = workloads.load_reference("tiny")
    runner = _runner([])
    body = _from_reference(ref["snr-input.csv"])
    assert runner.check("snr-input", {"snr-input.csv": body}) == []
    header, rows = workloads.parse_csv(body)
    rows[150, 2] *= 1 + 1e-15  # inside the reference tolerance, but not the same bytes
    problems = runner.check("snr-input", {"snr-input.csv": _csv(header, rows)})
    assert problems == ["CSV bodies differ from the first pass with the same seed"]


@pytest.mark.parametrize("doc, error", [
    ({"experiment": "snr-input", "n_traj": -1}, "ConfigError"),
    ({"experiment": "number-fan", "n_traj": 20, "floor_epsilon": 2.9}, "GuardTripError"),
])
def test_errors_are_recorded_as_failed_runs(tmp_path, doc, error):
    runner = _runner([dict(doc, master_seed=1, out=str(tmp_path))])
    p = runner.one_pass(traced=True)
    assert not p.ok and runner.attempted == 1 and runner.failed == 1
    assert runner.failures[0].startswith(f"pass 0 {doc['experiment']}: {error}: ")
    assert any(s.error and s.error.startswith(error) for s in runner.tracer.spans)


def test_edge_warnings_are_counted_not_shown(tmp_path, capsys):
    docs = [dict(workloads.WORKLOADS["fock-phase"]["tiny"][0], master_seed=1, out=str(tmp_path))]
    runner = _runner(docs)
    p = runner.one_pass(traced=True)
    assert p.ok and p.warnings == 3
    metrics = runner.tracer.layer_metrics([0])
    assert metrics["distributions.distribution_variance.edge_warnings"] == 3
    assert "UserWarning" not in capsys.readouterr().err
