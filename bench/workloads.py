"""Workload definitions and output checks for the phasediff benchmark.

A workload is a list of experiment config documents (fields not listed keep
their experiment defaults); the benchmark adds master_seed and out.  The
"tiny" scale is a seconds-long version of each workload for the benchmark's
own tests; it exercises the same experiments and checks.

Every check takes the CSV bodies of one experiment run and returns a list of
problems (empty when the run is correct):

* Monte-Carlo columns must agree with the analytic column they estimate:
  |estimate - exact| <= Z_MAX * se + ABS_SLACK on every row.  The slack
  admits the rounding of the deterministic t = 0 row, where se is ~1e-16.
* Seed-independent experiments must match the values recorded from the
  seed commit in reference.json (see make_reference.py): analytic columns
  within ANALYTIC_TOL, master-equation columns within FOCK_TOL.
* dist-converge: the L1 distance between the Pegg-Barnett and P-function
  densities must shrink from the first time to the last.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = {
    "sde-csv": {
        "full": [
            {"experiment": "variance-compare", "n_traj": 4000},
            {"experiment": "inverse-expansion", "n_traj": 4000},
            {"experiment": "number-fan", "n_traj": 800, "record_every": 5},
            {"experiment": "snr-input", "n_time_points": 3001},
            {"experiment": "snr-nonideal", "n_time_points": 3001, "input_grid_points": 3001},
        ],
        "tiny": [
            {"experiment": "variance-compare", "n_traj": 200, "t_max": 2.0},
            {"experiment": "inverse-expansion", "n_traj": 200},
            {"experiment": "number-fan", "n_traj": 40, "record_every": 5},
            {"experiment": "snr-input"},
            {"experiment": "snr-nonideal"},
        ],
    },
    "fock-phase": {
        "full": [
            {"experiment": "variance-from-dist", "t_max": 2.5, "n_time_points": 8},
            {"experiment": "dist-converge", "amplitude_sq": 6.0, "times": [0.5, 2.0]},
        ],
        "tiny": [
            {"experiment": "variance-from-dist", "t_max": 0.5, "n_time_points": 3},
            {"experiment": "dist-converge", "amplitude_sq": 6.0, "times": [0.2, 0.5]},
        ],
    },
}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_EXPERIMENTS = ("snr-input", "snr-nonideal", "variance-from-dist", "dist-converge")

Z_MAX = 5.0
ABS_SLACK = 1e-12
# (atol, rtol).  FOCK_TOL admits the ~5e-12 change in rho that an exact
# Gaussian-channel solution makes, and rejects a wrong state: a gain rate 0.05%
# off moves Pegg-Barnett values by 1e-6 to 4e-6.
ANALYTIC_TOL = (1e-12, 1e-9)
FOCK_TOL = (1e-6, 0.0)
FOCK_COLUMNS = {"pegg_barnett", "variance_pegg_barnett"}
# Reference columns keep every row up to this many rows, else a stride sample
# plus full-column sums.
FULL_ROWS = 512
SAMPLES = 64


def parse_csv(body: str, n_cols: int | None = None) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV body; n_cols keeps only the leading columns."""
    lines = body.splitlines()
    if n_cols is None:
        rows = [line.split(",") for line in lines]
    else:
        rows = [line.split(",", n_cols)[:n_cols] for line in lines]
    return rows[0], np.array(rows[1:], dtype=float)


def summarize(body: str) -> dict:
    """Reference record of one CSV: header, row count, sampled rows, column sums."""
    header, data = parse_csv(body)
    n = len(data)
    stride = 1 if n <= FULL_ROWS else n // SAMPLES
    return {
        "header": header,
        "rows": n,
        "stride": stride,
        "columns": {
            name: {
                "sample": data[::stride, j].tolist(),
                "fsum": math.fsum(data[:, j]),
                "l1": math.fsum(np.abs(data[:, j])),
            }
            for j, name in enumerate(header)
        },
    }


def load_reference(scale: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[scale]


def _compare(name: str, body: str, ref: dict) -> list[str]:
    header, data = parse_csv(body)
    if ref["header"] != header:
        return [f"{name}: header {header} differs from the reference"]
    if len(data) != ref["rows"]:
        return [f"{name}: {len(data)} rows, reference has {ref['rows']}"]
    problems = []
    for j, col in enumerate(header):
        atol, rtol = FOCK_TOL if col in FOCK_COLUMNS else ANALYTIC_TOL
        want = np.array(ref["columns"][col]["sample"])
        got = data[:: ref["stride"], j]
        dev = np.abs(got - want)
        bad = dev > atol + rtol * np.abs(want)
        if bad.any():
            i = int(np.argmax(bad))
            problems.append(f"{name}:{col} row {i * ref['stride']} is {float(got[i])!r}, "
                            f"reference {float(want[i])!r}")
            continue
        fsum_dev = abs(math.fsum(data[:, j]) - ref["columns"][col]["fsum"])
        if fsum_dev > atol * len(data) + rtol * ref["columns"][col]["l1"]:
            problems.append(f"{name}:{col} column sum is off the reference by {fsum_dev:.3e}")
    return problems


def _z_check(name: str, estimate, se, exact) -> list[str]:
    dev = np.abs(estimate - exact)
    bad = dev > Z_MAX * se + ABS_SLACK
    if not bad.any():
        return []
    i = int(np.argmax(bad))
    return [f"{name}: row {i} deviates by {dev[i]:.3e} with standard error {se[i]:.3e} "
            f"(limit {Z_MAX} se)"]


def _l1_distances(files: dict[str, str]) -> list[float]:
    out = []
    for name in sorted(files):
        _, data = parse_csv(files[name])
        h = data[1, 0] - data[0, 0]
        out.append(float(np.abs(data[:, 1] - data[:, 2]).sum() * h))
    return out


def check_experiment(experiment: str, files: dict[str, str], reference: dict) -> list[str]:
    """Problems found in one experiment run's CSV bodies (name -> text)."""
    if experiment == "variance-compare":
        header, d = parse_csv(files["variance-compare.csv"])
        # columns: t, sample_variance, sample_variance_se, expansion_k<order>, ...
        return _z_check(f"variance-compare:{header[3]}", d[:, 1], d[:, 2], d[:, 3])
    if experiment == "inverse-expansion":
        header, d = parse_csv(files["inverse-expansion.csv"])
        # columns: t, mc_mean, mc_se, expansion_k1 .. expansion_k<order>
        return _z_check(f"inverse-expansion:{header[-1]}", d[:, 1], d[:, 2], d[:, -1])
    if experiment == "number-fan":
        _, d = parse_csv(files["number-fan.csv"], n_cols=4)
        # columns: t, sample_mean, sample_se, analytic_mean, traj_000 ...
        return _z_check("number-fan:analytic_mean", d[:, 1], d[:, 2], d[:, 3])
    if experiment not in REFERENCE_EXPERIMENTS:
        raise KeyError(f"no check for experiment {experiment!r}")
    problems = []
    for name in sorted(set(files) | {k for k in reference if k.startswith(experiment + ".")}):
        if name not in files or name not in reference:
            problems.append(f"{name}: produced {name in files}, in reference {name in reference}")
        else:
            problems += _compare(name, files[name], reference[name])
    if experiment == "dist-converge" and not problems:
        l1 = _l1_distances(files)
        if not l1[-1] < l1[0]:
            problems.append(f"dist-converge: L1(Pegg-Barnett, P-function) does not shrink: {l1}")
    return problems
