"""phasediff._fork.run_ranges: how many ranges, where, and what comes back."""

import os
import pickle

import numpy as np
import pytest

from phasediff import _fork


def own_range(lo, hi, report):
    return f"{lo},{hi}".encode()


# what fn may return, made from its range; the str and the arrays outgrow one
# pipe read (64 kB), and the str is not ASCII
RESULTS = [
    lambda lo, hi, report: None,
    own_range,
    lambda lo, hi, report: f"rows {lo}-{hi}, φ\n" * 5000,
    lambda lo, hi, report: {"x": np.arange(lo, hi, dtype=float), "rows": np.full((hi - lo, 1000), lo)},
]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("smallest", [1, 4])
@pytest.mark.parametrize("n", [0, 1, 3, 4, 9, 40])
def test_ranges_cover_the_indices_one_per_usable_cpu(monkeypatch, workers, smallest, n):
    monkeypatch.setattr(_fork, "_WORKERS", workers)
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    ranges = [tuple(map(int, r.split(b","))) for r in _fork.run_ranges(own_range, n, smallest)]
    want = max(1, min(workers, n // smallest))
    assert len(ranges) == want
    edges = [lo for lo, _ in ranges] + [ranges[-1][1]]
    assert edges[0] == 0 and edges[-1] == n
    assert all(hi == next_lo for (_, hi), next_lo in zip(ranges, edges[1:]))
    sizes = [hi - lo for lo, hi in ranges]
    assert max(sizes) - min(sizes) <= 1
    assert len(forks) == (want if want > 1 else 0)
    # a forked child's result comes back as an equal object of the same type
    for fn in RESULTS:
        got = _fork.run_ranges(fn, n, smallest)
        expected = [fn(lo, hi, None) for lo, hi in ranges]
        assert [type(r) for r in got] == [type(r) for r in expected]
        np.testing.assert_equal(got, expected)


def test_a_result_that_cannot_be_pickled_is_raised_in_the_caller(monkeypatch):
    monkeypatch.setattr(_fork, "_WORKERS", 2)
    with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
        _fork.run_ranges(lambda lo, hi, report: lambda: lo, 2, 1)


def test_a_child_that_sends_no_result_makes_the_call_raise(monkeypatch):
    monkeypatch.setattr(_fork, "_WORKERS", 2)
    with pytest.raises(RuntimeError, match=r"items 1-1 died \(exit status 0\)"):
        _fork.run_ranges(lambda lo, hi, report: os._exit(0) if lo else None, 2, 1)


def test_without_fork_every_range_runs_in_the_calling_process(monkeypatch):
    monkeypatch.setattr(_fork, "_WORKERS", 3)
    pid = lambda lo, hi, report: os.getpid()
    assert os.getpid() not in _fork.run_ranges(pid, 9, 1)
    forked = [_fork.run_ranges(fn, 9, 1) for fn in RESULTS]
    monkeypatch.delattr(os, "fork")
    assert _fork.run_ranges(pid, 9, 1) == [os.getpid()] * 3
    for fn, want in zip(RESULTS, forked):
        got = _fork.run_ranges(fn, 9, 1)
        assert [type(r) for r in got] == [type(r) for r in want]
        np.testing.assert_equal(got, want)
