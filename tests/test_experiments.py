"""Experiment runners: the abort-fraction guard, the CSV writer (its refusal of
non-finite values, its bytes against a per-cell writer), and every registered
experiment at its default config."""

import numpy as np
import pytest

from phasediff import GuardTripError, TrajectoryEnsemble, list_experiments, run_experiment
from phasediff import validate_config
from phasediff.experiments import _check_aborts, _csv_body


def ensemble(aborted, guard_counts):
    n = len(aborted)
    return TrajectoryEnsemble(
        times=np.linspace(0.0, 1.0, 3),
        seeds=np.stack([np.full(n, 7), np.arange(n)], axis=1),
        guard_counts=np.asarray(guard_counts),
        aborted=np.asarray(aborted, dtype=bool),
    )


class TestAbortGuard:
    def test_share_at_the_limit_is_recorded(self):
        aborted = np.zeros(50, dtype=bool)
        aborted[[3, 17, 21, 40, 49]] = True  # 5/50 = exactly 10%
        counts = np.where(aborted, 2, 0)
        counts[8] = 1  # clamped but not aborted
        metadata = {}
        _check_aborts(ensemble(aborted, counts), metadata)
        assert metadata == {
            "aborted_trajectories": 5,
            "aborted_indices": [3, 17, 21, 40, 49],
            "guard_trips_total": 11,
        }

    def test_share_above_the_limit_raises(self):
        aborted = np.zeros(50, dtype=bool)
        aborted[:6] = True
        with pytest.raises(GuardTripError, match="6/50 trajectories"):
            _check_aborts(ensemble(aborted, aborted.astype(int)), {})


def csv_body_by_cell(header, columns):
    """Per-cell writer: one format call per value."""
    lines = [",".join(header)]
    for i in range(len(columns[0])):
        lines.append(",".join(format(float(c[i]), ".17g") for c in columns))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_csv_writer_refuses_non_finite(value):
    for j in range(3):
        columns = [np.linspace(0.0, 1.0, 4) for _ in range(3)]
        columns[j][2] = value
        with pytest.raises(GuardTripError, match=f"non-finite value {value!r} in column 'c{j}'"):
            _csv_body(["c0", "c1", "c2"], columns)


def test_csv_writer_matches_per_cell_formatting():
    rng = np.random.default_rng(5)
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 1e16,
                        2.0**53, 2.0**53 + 2, 0.1, 1 / 3, np.pi, 2.2250738585072014e-308])
    columns = [special, rng.standard_normal(len(special)) * 10.0 ** rng.integers(-20, 20, len(special)),
               np.arange(len(special), dtype=float), special[::-1].copy()]
    header = ["a", "b", "c", "d"]
    body = _csv_body(header, columns)
    assert body == csv_body_by_cell(header, columns)
    assert body.splitlines()[1].split(",")[0] == "-0"


@pytest.mark.parametrize("experiment", sorted(list_experiments()))
def test_default_config_runs(tmp_path, experiment):
    cfg = validate_config({"experiment": experiment, "master_seed": 1, "out": str(tmp_path)})
    bundle = run_experiment(cfg)
    assert bundle.csv_files
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*bundle.csv_files, f"{experiment}.meta.json"])
