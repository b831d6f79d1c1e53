"""Experiment runners: the abort-fraction guard, the CSV writer (its refusal of
non-finite values, its bytes against a per-cell writer), and every registered
experiment at its default config."""

import os
import signal
import time

import numpy as np
import pytest

from phasediff import GuardTripError, TrajectoryEnsemble, list_experiments, run_experiment
from phasediff import validate_config
from phasediff import _fork, experiments, sde
from phasediff.config import _EXPERIMENTS
from phasediff.experiments import _check_aborts, _csv_body
from phasediff.sde import _integrate_bytes


def ensemble(guard_counts):
    return TrajectoryEnsemble(times=np.linspace(0.0, 1.0, 3), guard_counts=np.asarray(guard_counts))


class TestAbortGuard:
    def test_share_at_the_limit_is_recorded(self):
        counts = np.zeros(50, dtype=int)
        counts[[3, 17, 21, 40, 49]] = 2  # 5/50 = exactly 10%
        metadata = {}
        _check_aborts(ensemble(counts), metadata)
        assert metadata == {
            "aborted_trajectories": 5,
            "aborted_indices": [3, 17, 21, 40, 49],
            "guard_trips_total": 10,
        }

    def test_share_above_the_limit_raises(self):
        counts = np.zeros(50, dtype=int)
        counts[:6] = 1
        with pytest.raises(GuardTripError, match="6/50 trajectories"):
            _check_aborts(ensemble(counts), {})


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


def special_columns():
    rng = np.random.default_rng(5)
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 1e16,
                        2.0**53, 2.0**53 + 2, 0.1, 1 / 3, np.pi, 2.2250738585072014e-308])
    return [special, rng.standard_normal(len(special)) * 10.0 ** rng.integers(-20, 20, len(special)),
            np.arange(len(special), dtype=float), special[::-1].copy()]


def test_csv_writer_matches_per_cell_formatting():
    columns = special_columns()
    header = ["a", "b", "c", "d"]
    body = _csv_body(header, columns)
    assert body == csv_body_by_cell(header, columns)
    assert body.splitlines()[1].split(",")[0] == "-0"


class TestForkedCsvWriter:
    """Large tables are formatted by forked workers, one range of rows each."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Sets the worker count, makes every table large, and counts the forks."""
        pids = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        def set_workers(n):
            monkeypatch.setattr(_fork, "_WORKERS", n)
            monkeypatch.setattr(experiments, "_CSV_CELLS", 1)
            monkeypatch.setattr(os, "fork", counting_fork)
            return pids
        return set_workers

    @staticmethod
    def failing_rows(action):
        """A row formatter that calls action() for every range but the first."""
        real = experiments._format_rows

        def format_rows(table, row, lo, hi, report):
            if lo:
                action()
            return real(table, row, lo, hi, report)
        return format_rows

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("rows", [0, 1, 2, 7, 15])
    def test_matches_per_cell_formatting(self, forks, workers, rows):
        pids = forks(workers)
        columns = [c[:rows] for c in special_columns()]
        header = ["a", "b", "c", "d"]
        assert _csv_body(header, columns) == csv_body_by_cell(header, columns)
        assert len(pids) == (min(workers, rows) if min(workers, rows) > 1 else 0)
        assert_no_children()

    def test_child_error_reaches_caller(self, forks, monkeypatch):
        forks(3)

        def fail():
            raise ValueError("row formatting failed")

        monkeypatch.setattr(experiments, "_format_rows", self.failing_rows(fail))
        with pytest.raises(ValueError, match=r"^row formatting failed$"):
            _csv_body(["a", "b", "c", "d"], special_columns())
        assert_no_children()

    def test_killed_child_makes_the_call_raise(self, forks, monkeypatch):
        forks(2)
        parent = os.getpid()

        def die():
            if os.getpid() == parent:
                raise AssertionError("the rows were formatted in the calling process")
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(experiments, "_format_rows", self.failing_rows(die))
        with pytest.raises(RuntimeError, match=rf"rows 7-14 died \(killed by signal {int(signal.SIGKILL)}\)"):
            _csv_body(["a", "b", "c", "d"], special_columns())
        assert_no_children()

    def test_failure_kills_the_other_children(self, forks, monkeypatch):
        forks(2)
        real = experiments._format_rows

        def format_rows(table, row, lo, hi, report):
            if lo:
                raise ValueError("row formatting failed")
            time.sleep(20)  # the first range would take 20 s
            return real(table, row, lo, hi, report)

        monkeypatch.setattr(experiments, "_format_rows", format_rows)
        t0 = time.monotonic()
        with pytest.raises(ValueError, match=r"^row formatting failed$"):
            _csv_body(["a", "b", "c", "d"], special_columns())
        assert time.monotonic() - t0 < 10
        assert_no_children()


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("experiment", sorted(list_experiments()))
def test_default_config_runs(tmp_path, experiment):
    cfg = validate_config({"experiment": experiment, "master_seed": 1, "out": str(tmp_path)})
    bundle = run_experiment(cfg)
    assert bundle.csv_files
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*bundle.csv_files, f"{experiment}.meta.json"])


@pytest.mark.parametrize("experiment, simulator, stored, reduced", [
    ("number-fan", "simulate_polar", ["n"], ["n"]),
    ("variance-compare", "simulate_polar", [], ["phi"]),
    ("inverse-expansion", "simulate_inverse", [], ["upsilon"]),
])
def test_sde_experiments_keep_only_what_they_write(tmp_path, monkeypatch, experiment, simulator,
                                                   stored, reduced):
    ensembles = []
    real = getattr(experiments, simulator)

    def keeping(*args, **kw):
        ensembles.append(real(*args, **kw))
        return ensembles[-1]

    monkeypatch.setattr(experiments, simulator, keeping)
    run_experiment(validate_config({"experiment": experiment, "master_seed": 1, "n_traj": 64,
                                    "t_max": 1.0, "out": str(tmp_path)}))
    (ens,) = ensembles
    assert sorted(ens.variables()) == stored
    assert sorted(ens.moments) == reduced


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("experiment", sorted(n for n, rec in _EXPERIMENTS.items() if rec.sde))
def test_sde_runs_make_what_validation_counts(tmp_path, monkeypatch, experiment, workers):
    # without os.fork the ranges run one after another in this process, so
    # every mapping is seen; forked, they are held at once, as counted
    mapped = []
    real = sde._mapped

    def tally(*shape, **kw):
        array = real(*shape, **kw)
        mapped.append(array.nbytes)
        return array

    monkeypatch.setattr(_fork, "_WORKERS", workers)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(sde, "_mapped", tally)
    cfg = validate_config({"experiment": experiment, "master_seed": 1, "n_traj": 200,
                           "t_max": 1.0, "out": str(tmp_path)})
    run_experiment(cfg)
    c = cfg.sde  # the step mask and the recorded steps and times come from the heap
    heap = c.n_steps + 1 + 16 * c.n_recorded
    assert heap + sum(mapped) == _integrate_bytes(c, *_EXPERIMENTS[experiment].sde)
