"""Spans around the calls phasediff.experiments makes into each layer.

The experiment runners look their layer functions up as globals of
phasediff.experiments at call time, so replacing those names for the length
of a traced pass records one span per call without touching the package.
The benchmark wraps its own calls to validate_config and run_experiment the
same way.  A span holds its name ("<module>.<function>"), start and end
(perf_counter seconds), the index of its parent span, the pass id, counts
taken from the object the call returned, and the error it raised, if any.
Spans stay in memory until the run ends.

Self time is a span's duration minus its direct children's.  The layer calls
run one at a time inside run_experiment, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

# name looked up in phasediff.experiments -> the package module it belongs to
TRACED = {
    "simulate_polar": "sde",
    "simulate_inverse": "sde",
    "ensemble_stats": "sde",
    "fock_cutoff": "distributions",
    "evolve_density_series": "distributions",
    "pegg_barnett_distribution": "distributions",
    "p_function_phase_density": "distributions",
    "distribution_variance": "distributions",
    "phase_variance_expansion": "expansion",
    "truncation_diagnostic": "expansion",
    "build_table": "expansion",
    "initial_inverse_moments": "expansion",
    "mean_inverse": "expansion",
    "mean_photon": "moments",
    "inverse_snr": "moments",
    "high_gain_inverse_snr": "moments",
    "small_noise_phase_variance": "smallnoise",
}
_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "busy_s": "s", "self_s": "s", "traced_wall_s": "s", "untraced_wall_s": "s", "overhead_s": "s",
    "traj_steps_per_s": "1/s", "cells_per_s": "1/s", "csv_mb_per_s": "MB/s",
    "noise_mb": "MB", "paths_mb": "MB", "rho_mb": "MB",
    "self_share": "fraction", "aborted_frac": "fraction", "overhead_frac": "fraction",
}
MODULES = ("config", "experiments", "sde", "distributions", "expansion", "moments", "smallnoise")
_MB = 1e6


def _ensemble_counts(args, ens):
    cfg = ens.config
    noise_rows = min(cfg.chunk_size, ens.n_traj)
    return {
        "traj_steps": ens.n_traj * cfg.n_steps,
        # the (chunk, n_steps, 2) float64 increment block _draw_increments fills
        "noise_mb": noise_rows * cfg.n_steps * 2 * 8 / _MB,
        "paths_mb": sum(p.nbytes for p in ens.variables().values()) / _MB,
        "aborted": int(ens.aborted.sum()),
        "n_traj": ens.n_traj,
        "guard_trips": int(ens.guard_counts.sum()),
    }


_COUNTERS = {
    "simulate_polar": _ensemble_counts,
    "simulate_inverse": _ensemble_counts,
    "ensemble_stats": lambda args, stats: {
        "cells": sum(s.n_used * len(s.mean) for s in stats.values()),
    },
    "evolve_density_series": lambda args, states: {
        "states": len(states),
        "cutoff_s": max(s.cutoff_s for s in states),
        "rho_mb": sum(s.rho.nbytes for s in states) / _MB,
    },
    "pegg_barnett_distribution": lambda args, dens: {"grid_points": len(dens.phi_grid)},
    "p_function_phase_density": lambda args, dens: {"grid_points": int(np.size(dens))},
    "distribution_variance": lambda args, var: {"grid_points": len(args[0].density)},
    "run_experiment": lambda args, bundle: {
        "csv_bytes": sum(len(body) for body in bundle.csv_files.values()),
    },
}
_MAX_COUNTS = {"cutoff_s"}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    pass_id: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None


class Tracer:
    """Records spans; wrap() and patched() install it around calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def wrap(self, module: str, fn):
        name = f"{module}.{fn.__name__}"
        count = _COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        self._stack[-1] if self._stack else None, self.pass_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts.update(count(args, result))
            return result

        return traced

    @contextmanager
    def patched(self, experiments_module):
        """Trace the layer functions experiments_module calls, for the with block."""
        originals = {name: getattr(experiments_module, name)
                     for name in TRACED if hasattr(experiments_module, name)}
        for name, fn in originals.items():
            setattr(experiments_module, name, self.wrap(TRACED[name], fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(experiments_module, name, fn)

    def note_warning(self) -> None:
        """Count a warning against the innermost open span."""
        if self._stack:
            counts = self.spans[self._stack[-1]].counts
            counts["warnings"] = counts.get("warnings", 0) + 1

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

    def layer_metrics(self, pass_ids) -> dict[str, float]:
        """Per-layer metrics, each the median over the given passes."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        per_pass = [
            _pass_metrics([(s, s.end - s.start - child[i])
                           for i, s in enumerate(self.spans) if s.pass_id == p])
            for p in pass_ids
        ]
        return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def unit(metric: str) -> str:
    """Unit of a metric, from its last dotted part; anything unlisted is a count."""
    return _UNITS.get(metric.rsplit(".", 1)[-1], "count")


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _pass_metrics(spans: list[tuple[Span, float]]) -> dict[str, float]:
    """Metrics of one pass from its (span, self time) pairs."""
    busy = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(float))
    for s, self_time in spans:
        busy[s.name] += s.end - s.start
        self_t[s.name] += self_time
        calls[s.name] += 1
        for k, v in s.counts.items():
            prev = counts[s.name][k]
            counts[s.name][k] = max(prev, v) if k in _MAX_COUNTS else prev + v
    total = sum(self_t.values())

    m = {"config.validate_config.busy_s": busy["config.validate_config"]}
    run = "experiments.run_experiment"
    m[f"{run}.self_s"] = self_t[run]
    m[f"{run}.csv_bytes"] = counts[run]["csv_bytes"]
    m[f"{run}.csv_mb_per_s"] = _rate(counts[run]["csv_bytes"] / _MB, self_t[run])
    for name in ("sde.simulate_polar", "sde.simulate_inverse"):
        c = counts[name]
        m[f"{name}.busy_s"] = busy[name]
        m[f"{name}.traj_steps"] = c["traj_steps"]
        m[f"{name}.traj_steps_per_s"] = _rate(c["traj_steps"], busy[name])
        m[f"{name}.noise_mb"] = c["noise_mb"]
        m[f"{name}.paths_mb"] = c["paths_mb"]
        m[f"{name}.aborted_frac"] = _rate(c["aborted"], c["n_traj"])
        m[f"{name}.guard_trips"] = c["guard_trips"]
    name = "sde.ensemble_stats"
    m[f"{name}.busy_s"] = busy[name]
    m[f"{name}.cells"] = counts[name]["cells"]
    m[f"{name}.cells_per_s"] = _rate(counts[name]["cells"], busy[name])
    name = "distributions.evolve_density_series"
    m[f"{name}.busy_s"] = busy[name]
    m[f"{name}.self_share"] = _rate(self_t[name], total)
    for k in ("states", "cutoff_s", "rho_mb"):
        m[f"{name}.{k}"] = counts[name][k]
    m["distributions.fock_cutoff.busy_s"] = busy["distributions.fock_cutoff"]
    for fn in ("pegg_barnett_distribution", "p_function_phase_density", "distribution_variance"):
        name = f"distributions.{fn}"
        m[f"{name}.busy_s"] = busy[name]
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.grid_points"] = counts[name]["grid_points"]
    m["distributions.distribution_variance.edge_warnings"] = \
        counts["distributions.distribution_variance"]["warnings"]
    for fn, module in TRACED.items():
        if module in ("expansion", "moments", "smallnoise"):
            m[f"{module}.{fn}.busy_s"] = busy[f"{module}.{fn}"]
            m[f"{module}.{fn}.calls"] = calls[f"{module}.{fn}"]
    for module in MODULES:
        m[f"{module}.self_share"] = _rate(
            sum(v for k, v in self_t.items() if k.startswith(module + ".")), total)
    return {k: float(v) for k, v in m.items()}
