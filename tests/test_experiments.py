"""Experiment runners: the abort-fraction guard, the CSV writer's refusal of
non-finite values, and every registered experiment at its default config."""

import numpy as np
import pytest

from phasediff import GuardTripError, TrajectoryEnsemble, list_experiments, run_experiment
from phasediff import validate_config
from phasediff.experiments import _check_aborts, _fmt


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_csv_writer_refuses_non_finite(value):
    with pytest.raises(GuardTripError, match="non-finite"):
        _fmt(value)


@pytest.mark.parametrize("experiment", sorted(list_experiments()))
def test_default_config_runs(tmp_path, experiment):
    cfg = validate_config({"experiment": experiment, "master_seed": 1, "out": str(tmp_path)})
    bundle = run_experiment(cfg)
    assert bundle.csv_files
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*bundle.csv_files, f"{experiment}.meta.json"])
