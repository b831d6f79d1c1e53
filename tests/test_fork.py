"""The split rule of phasediff._fork.run_ranges: how many ranges, and where."""

import os

import pytest

from phasediff import _fork


def own_range(lo, hi, report):
    return f"{lo},{hi}".encode()


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
    ranges = [tuple(map(int, bytes(r).split(b","))) for r in
              _fork.run_ranges(own_range, n, smallest)]
    want = max(1, min(workers, n // smallest))
    assert len(ranges) == want
    edges = [lo for lo, _ in ranges] + [ranges[-1][1]]
    assert edges[0] == 0 and edges[-1] == n
    assert all(hi == next_lo for (_, hi), next_lo in zip(ranges, edges[1:]))
    sizes = [hi - lo for lo, hi in ranges]
    assert max(sizes) - min(sizes) <= 1
    assert len(forks) == (want if want > 1 else 0)
