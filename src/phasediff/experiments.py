"""Registered experiments: each reproduces one figure-style dataset as CSV.

Outputs are written under the config's out directory: one or more
<experiment>[.<part>].csv files plus an <experiment>.meta.json sidecar whose
"config" key is the fully-resolved document (feeding that sidecar back to the
CLI reruns the experiment bit-identically; only the sidecar's written_at,
wall_time_s and config.out fields vary between reruns).  Numbers are written
with 17 significant digits and NaN/Inf are refused, so CSV bodies round-trip
exactly.  A large table (at least _CSV_CELLS cells per worker) is formatted
by forked workers, one contiguous range of rows each
(phasediff._fork.run_ranges, which carries each range's text back), into the
same text the calling process would write.

The Monte Carlo columns (sample_mean, sample_variance, mc_mean and their
standard errors) are sample statistics conditional on no floor contact: the
trajectories that touched the positivity floor are aborted and excluded, and
the sidecar counts them (aborted_trajectories).  Unconditionally, E[1/N(t)]
and the unwrapped phase variance are infinite for t > 0 (see phasediff.sde).
Every Monte Carlo column comes from the statistics the SDE workers reduce
(phasediff.sde), the one route to them.  variance-compare and
inverse-expansion keep no path; number-fan keeps only the photon-number paths
it writes.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _pkg_version
from ._fork import run_ranges
from .config import ConfigError, ExperimentConfig, experiment_registry
from .distributions import (
    PhaseDensity,
    distribution_variance,
    evolve_density_series,
    fock_cutoff,
    p_function_phase_density,
    pegg_barnett_distribution,
)
from .errors import GuardTripError
from .expansion import mean_inverse, phase_variance_expansion, truncation_diagnostic
from .moments import high_gain_inverse_snr, inverse_snr, mean_photon
from .params import AmplifierParams, CoherentInput
from .sde import ensemble_stats, simulate_inverse, simulate_polar
from .smallnoise import small_noise_phase_variance

__all__ = ["ResultBundle", "run_experiment", "list_experiments"]

ABORT_FRACTION_LIMIT = 0.10

_CSV_CELLS = 1 << 16  # fewest cells a CSV worker formats


@dataclass(frozen=True, eq=False)
class ResultBundle:
    """CSV payloads (name -> text body) and the metadata sidecar for one run."""

    experiment: str
    csv_files: dict[str, str]
    metadata: dict = field(repr=False)
    written: list[str] = field(default_factory=list)


def _csv_body(header: list[str], columns: list[np.ndarray]) -> str:
    if len(header) != len(columns):
        raise ValueError("header/column count mismatch")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("ragged columns")
    table = np.column_stack(columns)
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        i, j = bad[0]
        raise GuardTripError(
            f"non-finite value {float(table[i, j])!r} in column {header[j]!r}, row {i}, "
            "reached the CSV writer")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    # each worker's range holds at least _CSV_CELLS cells: ceil(_CSV_CELLS / columns) rows
    parts = run_ranges(functools.partial(_format_rows, table, row), n,
                       -(-_CSV_CELLS // len(columns)), what="rows")
    del table  # the numbers need not outlive their text: 5 MB of number-fan's peak
    return "".join([",".join(header) + "\n", *parts])


def _format_rows(table: np.ndarray, row: str, lo: int, hi: int, report) -> str:
    """Rows lo..hi-1 of table in the row template."""
    return "".join([row % tuple(r) for r in table[lo:hi].tolist()])


def _check_aborts(ensemble, metadata):
    n_aborted = int(ensemble.aborted.sum())
    metadata["aborted_trajectories"] = n_aborted
    metadata["aborted_indices"] = np.flatnonzero(ensemble.aborted).tolist()
    metadata["guard_trips_total"] = int(ensemble.guard_counts.sum())
    if n_aborted > ABORT_FRACTION_LIMIT * ensemble.n_traj:
        raise GuardTripError(
            f"{n_aborted}/{ensemble.n_traj} trajectories tripped the positivity "
            "guard; the model is outside its validity for this configuration"
        )


def _run_number_fan(cfg: ExperimentConfig):
    ens = simulate_polar(cfg.params, cfg.input, cfg.sde, store=("n",), reduce=("n",))
    meta_extra: dict = {}
    _check_aborts(ens, meta_extra)
    stats = ensemble_stats(ens, "n")["n"]
    t = ens.times
    analytic = mean_photon(cfg.params, cfg.input.amplitude_sq, t)
    header = ["t", "sample_mean", "sample_se", "analytic_mean"]
    cols = [t, stats.mean, stats.se_mean, analytic]
    for i in range(ens.n_traj):
        header.append(f"traj_{i:03d}")
        cols.append(ens.n_paths[i])
    prov = {"t": "grid", "sample_mean": "monte-carlo", "sample_se": "monte-carlo",
            "analytic_mean": "analytic", "traj_*": "monte-carlo"}
    return {"number-fan.csv": _csv_body(header, cols)}, prov, meta_extra


def _run_variance_compare(cfg: ExperimentConfig):
    ens = simulate_polar(cfg.params, cfg.input, cfg.sde, store=(), reduce=("phi",))
    meta_extra: dict = {}
    _check_aborts(ens, meta_extra)
    stats = ensemble_stats(ens, "phi")["phi"]
    t = ens.times
    k = cfg.resolved["expansion_order"]
    orders = phase_variance_expansion(cfg.params, cfg.input, k, t)
    v_sn = small_noise_phase_variance(cfg.params, cfg.input, t)
    meta_extra["truncation_diagnostic"] = truncation_diagnostic(orders)
    header = ["t", "sample_variance", "sample_variance_se",
              f"expansion_k{k}", "expansion_k1", "small_noise"]
    cols = [t, stats.variance, stats.se_variance, orders[-1], orders[0], v_sn]
    prov = {"t": "grid", "sample_variance": "monte-carlo",
            "sample_variance_se": "monte-carlo", f"expansion_k{k}": "analytic",
            "expansion_k1": "analytic", "small_noise": "analytic"}
    return {"variance-compare.csv": _csv_body(header, cols)}, prov, meta_extra


def _run_snr_input(cfg: ExperimentConfig):
    t = np.linspace(0.0, cfg.resolved["t_max"], cfg.resolved["n_time_points"])
    header, cols = ["t"], [t]
    for n0 in cfg.resolved["n0_list"]:
        header.append(f"inverse_snr_n0_{n0:g}")
        cols.append(inverse_snr(cfg.params, CoherentInput(n0), t))
    prov = {h: ("grid" if h == "t" else "analytic") for h in header}
    return {"snr-input.csv": _csv_body(header, cols)}, prov, {}


def _run_snr_nonideal(cfg: ExperimentConfig):
    pairs = [AmplifierParams(*p) for p in cfg.resolved["nonideal_pairs"]]
    t = np.linspace(0.0, cfg.resolved["t_max"], cfg.resolved["n_time_points"])
    header, cols = ["t"], [t]
    for p in pairs:
        header.append(f"inverse_snr_ku{p.kappa_up:g}_kd{p.kappa_down:g}")
        cols.append(inverse_snr(p, cfg.input, t))
    time_csv = _csv_body(header, cols)

    a_grid = np.linspace(0.0, cfg.resolved["input_grid_max"], cfg.resolved["input_grid_points"])
    header2, cols2 = ["amplitude_sq"], [a_grid]
    for p in pairs:
        header2.append(f"high_gain_inverse_snr_ku{p.kappa_up:g}_kd{p.kappa_down:g}")
        cols2.append(high_gain_inverse_snr(p, a_grid))
    prov = {"t": "grid", "amplitude_sq": "grid", "inverse_snr_*": "analytic",
            "high_gain_inverse_snr_*": "analytic"}
    return {
        "snr-nonideal.time.csv": time_csv,
        "snr-nonideal.highgain.csv": _csv_body(header2, cols2),
    }, prov, {}


def _run_inverse_expansion(cfg: ExperimentConfig):
    ens = simulate_inverse(cfg.params, cfg.input, cfg.sde, store=(), reduce=("upsilon",))
    meta_extra: dict = {}
    _check_aborts(ens, meta_extra)
    stats = ensemble_stats(ens, "upsilon")["upsilon"]
    t = ens.times
    header = ["t", "mc_mean", "mc_se"]
    cols = [t, stats.mean, stats.se_mean]
    orders = mean_inverse(cfg.params, cfg.input, cfg.resolved["expansion_order"], t)
    meta_extra["truncation_diagnostic"] = truncation_diagnostic(orders)
    for k, row in enumerate(orders, start=1):
        header.append(f"expansion_k{k}")
        cols.append(row)
    prov = {"t": "grid", "mc_mean": "monte-carlo", "mc_se": "monte-carlo",
            "expansion_k*": "analytic"}
    return {"inverse-expansion.csv": _csv_body(header, cols)}, prov, meta_extra


def _dist_cutoff(cfg: ExperimentConfig, t_final: float) -> int:
    cut = cfg.resolved["cutoff_s"]
    if cut is None:
        cut = fock_cutoff(cfg.params, cfg.input, t_final, cfg.resolved["tail_bound"])
    return int(cut)


def _run_dist_converge(cfg: ExperimentConfig):
    times = [float(t) for t in cfg.resolved["times"]]
    cutoff = _dist_cutoff(cfg, times[-1])
    states = evolve_density_series(cfg.params, cfg.input, cutoff, times)
    phi0 = cfg.input.theta - np.pi
    files, meta_extra = {}, {"cutoff_s": cutoff, "times": times}
    for i, (t, state) in enumerate(zip(times, states), start=1):
        pb = pegg_barnett_distribution(state, phi0)
        p_closed = p_function_phase_density(cfg.params, cfg.input, t, pb.phi_grid)
        files[f"dist-converge.t{i}.csv"] = _csv_body(
            ["phi", "p_function", "pegg_barnett"],
            [pb.phi_grid, p_closed, pb.density],
        )
    prov = {"phi": "grid", "p_function": "analytic", "pegg_barnett": "master-equation"}
    return files, prov, meta_extra


def _run_variance_from_dist(cfg: ExperimentConfig):
    times = np.linspace(cfg.resolved["t_min"], cfg.resolved["t_max"],
                        cfg.resolved["n_time_points"])
    cutoff = _dist_cutoff(cfg, float(times[-1]))
    states = evolve_density_series(cfg.params, cfg.input, cutoff, times)
    phi0 = cfg.input.theta - np.pi
    var_pb = np.array([
        distribution_variance(pegg_barnett_distribution(s, phi0)) for s in states
    ])
    grid = phi0 + 2 * np.pi * np.arange(4096) / 4096
    var_p = np.array([
        distribution_variance(PhaseDensity(
            grid, p_function_phase_density(cfg.params, cfg.input, float(t), grid)))
        for t in times
    ])
    prov = {"t": "grid", "variance_p_function": "analytic",
            "variance_pegg_barnett": "master-equation"}
    body = _csv_body(["t", "variance_p_function", "variance_pegg_barnett"],
                     [times, var_p, var_pb])
    return {"variance-from-dist.csv": body}, prov, {"cutoff_s": cutoff}


_RUNNERS = {
    "number-fan": _run_number_fan,
    "variance-compare": _run_variance_compare,
    "snr-input": _run_snr_input,
    "snr-nonideal": _run_snr_nonideal,
    "inverse-expansion": _run_inverse_expansion,
    "dist-converge": _run_dist_converge,
    "variance-from-dist": _run_variance_from_dist,
}


def list_experiments() -> dict[str, str]:
    """Registered experiment names with one-line descriptions."""
    return experiment_registry()


def _out_error(cfg: ExperimentConfig, exc: OSError) -> ConfigError:
    return ConfigError([("out", f"cannot write {exc.filename or cfg.out_dir}: "
                                f"{exc.strerror or exc}")])


def run_experiment(cfg: ExperimentConfig) -> ResultBundle:
    """Run one registered experiment and write its CSVs + metadata sidecar.

    The out directory is made before the run; a ConfigError naming "out" is
    raised when it cannot be made or written.
    """
    import scipy

    try:  # before the run, so that a run with nowhere to write fails at once
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _out_error(cfg, exc) from exc
    t0 = time.perf_counter()
    files, provenance, meta_extra = _RUNNERS[cfg.experiment](cfg)
    wall = time.perf_counter() - t0

    metadata = {
        "experiment": cfg.experiment,
        "config": cfg.resolved,
        "columns": provenance,
        "csv_files": sorted(files),
        "versions": {
            "phasediff": _pkg_version,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_s": wall,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    metadata.update(meta_extra)

    written = []
    try:
        for name, body in files.items():
            path = cfg.out_dir / name
            path.write_text(body)
            written.append(str(path))
        meta_path = cfg.out_dir / f"{cfg.experiment}.meta.json"
        meta_path.write_text(
            json.dumps(metadata, indent=2, sort_keys=True, allow_nan=False) + "\n")
    except OSError as exc:
        raise _out_error(cfg, exc) from exc
    written.append(str(meta_path))
    return ResultBundle(experiment=cfg.experiment, csv_files=files,
                        metadata=metadata, written=written)
