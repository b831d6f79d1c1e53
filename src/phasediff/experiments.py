"""Registered experiments: each reproduces one figure-style dataset as CSV.

Outputs are written under the config's out directory: one or more
<experiment>[.<part>].csv files plus an <experiment>.meta.json sidecar whose
"config" key is the fully-resolved document (feeding that sidecar back to the
CLI reruns the experiment bit-identically; only the sidecar's written_at,
wall_time_s and config.out fields vary between reruns).  Numbers are written
with 17 significant digits and NaN/Inf are refused, so CSV bodies round-trip
exactly.  A runner returns each CSV as its header line and its float table;
run_experiment writes them.  The rows are formatted as ASCII bytes into one
shared anonymous mapping, by forked workers when the table is large (at least
_CSV_CELLS cells per worker, phasediff._fork.run_ranges), one contiguous
range of rows each; a worker sends back only its byte count, and the calling
process copies the slices to the file, so it never holds the CSV's text.

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
import mmap
import time
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from ._fork import run_ranges, split_ranges
from .config import _EXPERIMENTS, ConfigError, ExperimentConfig
from .distributions import (
    PhaseDensity,
    _offset_sums,
    _pegg_barnett,
    distribution_variance,
    p_function_phase_density,
)
from .errors import GuardTripError
from .expansion import mean_inverse, phase_variance_expansion, truncation_diagnostic
from .moments import high_gain_inverse_snr, inverse_snr, mean_photon
from .params import AmplifierParams, CoherentInput
from .sde import ensemble_stats, simulate_inverse, simulate_polar  # noqa: F401 (called by name)
from .smallnoise import small_noise_phase_variance

__all__ = ["ResultBundle", "run_experiment"]

ABORT_FRACTION_LIMIT = 0.10

_CSV_CELLS = 1 << 16  # fewest cells a CSV worker formats
_CSV_BLOCK = 1 << 12  # most cells formatted into one bytes object
_CELL_BYTES = 25  # longest %.17g of a float64 (24 characters) and its separator


class _WrittenCsv(Mapping):
    """Read-only name -> text of the CSVs a run wrote, read from the file on
    each access."""

    def __init__(self, out_dir: Path, names):
        self._out_dir, self._names = out_dir, tuple(names)

    def __getitem__(self, name: str) -> str:
        if name not in self._names:
            raise KeyError(name)
        return (self._out_dir / name).read_text()

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


@dataclass(frozen=True, eq=False)
class ResultBundle:
    """One run's CSVs (name -> text, read from the written file on access, in
    the order the run wrote them) and its metadata sidecar."""

    experiment: str
    csv_files: Mapping[str, str]
    metadata: dict = field(repr=False)
    written: list[str] = field(default_factory=list)


def _csv_body(header: list[str], columns: list[np.ndarray]) -> tuple[str, np.ndarray]:
    """The header line and the (rows, columns) table of one CSV; raise before
    anything is written when the columns are ragged or a value is not finite."""
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
    return ",".join(header) + "\n", table


def _write_csv(path: Path, head: str, table: np.ndarray) -> None:
    """Write head, then table's rows with every value as %.17g, to path.

    Rows lo..hi-1 are formatted into bytes lo * slot to hi * slot of one
    shared anonymous mapping, where slot = columns * _CELL_BYTES holds the
    longest row, so ranges never overlap; the file is opened only once every
    range is done, so a failed range leaves it as it was.
    """
    rows, cols = table.shape
    row = b",".join([b"%.17g"] * cols) + b"\n"
    slot = cols * _CELL_BYTES
    smallest = -(-_CSV_CELLS // cols)  # each worker's range holds at least _CSV_CELLS cells
    with mmap.mmap(-1, max(rows * slot, 1)) as buf:  # mmap refuses a length of 0
        sizes = run_ranges(functools.partial(_format_rows, table, row, buf, slot), rows,
                           smallest, what="rows")
        with open(path, "wb") as f, memoryview(buf) as view:
            f.write(head.encode())
            for (lo, _), size in zip(split_ranges(rows, smallest), sizes):
                f.write(view[lo * slot:lo * slot + size])


def _format_rows(table: np.ndarray, row: bytes, buf, slot: int, lo: int, hi: int,
                 report) -> int:
    """Write rows lo..hi-1 of table in the row template into buf from byte
    lo * slot on, a block of rows at a time; return the byte count."""
    step = max(1, _CSV_BLOCK // table.shape[1])
    at = start = lo * slot
    for b in range(lo, hi, step):
        data = b"".join([row % tuple(r) for r in table[b:min(b + step, hi)].tolist()])
        buf[at:at + len(data)] = data
        at += len(data)
    return at - start


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


def _simulated(cfg: ExperimentConfig):
    """The ensemble of the simulator the experiment's record names (the global
    of that name, looked up per call), with the record's store and reduce; the
    statistics of the one variable it reduces, and its abort record."""
    simulator, store, reduce = _EXPERIMENTS[cfg.experiment].sde
    ens = globals()[simulator](cfg.params, cfg.input, cfg.sde, store=store, reduce=reduce)
    meta_extra: dict = {}
    _check_aborts(ens, meta_extra)
    (name,) = reduce
    return ens, ensemble_stats(ens, name)[name], meta_extra


def _run_number_fan(cfg: ExperimentConfig):
    ens, stats, meta_extra = _simulated(cfg)
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
    ens, stats, meta_extra = _simulated(cfg)
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
    time_table = _csv_body(header, cols)

    a_grid = np.linspace(0.0, cfg.resolved["input_grid_max"], cfg.resolved["input_grid_points"])
    header2, cols2 = ["amplitude_sq"], [a_grid]
    for p in pairs:
        header2.append(f"high_gain_inverse_snr_ku{p.kappa_up:g}_kd{p.kappa_down:g}")
        cols2.append(high_gain_inverse_snr(p, a_grid))
    prov = {"t": "grid", "amplitude_sq": "grid", "inverse_snr_*": "analytic",
            "high_gain_inverse_snr_*": "analytic"}
    return {
        "snr-nonideal.time.csv": time_table,
        "snr-nonideal.highgain.csv": _csv_body(header2, cols2),
    }, prov, {}


def _run_inverse_expansion(cfg: ExperimentConfig):
    ens, stats, meta_extra = _simulated(cfg)
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


def _run_dist_converge(cfg: ExperimentConfig):
    sums = _offset_sums(cfg.params, cfg.input, cfg.cutoff_s, cfg.times)
    files, meta_extra = {}, {"cutoff_s": cfg.cutoff_s, "times": list(cfg.times)}
    for i, (t, c) in enumerate(zip(cfg.times, sums), start=1):
        pb = _pegg_barnett(c, cfg.cutoff_s + 1)
        p_closed = p_function_phase_density(cfg.params, cfg.input, t, pb.phi_grid)
        files[f"dist-converge.t{i}.csv"] = _csv_body(
            ["phi", "p_function", "pegg_barnett"],
            [pb.phi_grid, p_closed, pb.density],
        )
    prov = {"phi": "grid", "p_function": "analytic", "pegg_barnett": "master-equation"}
    return files, prov, meta_extra


def _run_variance_from_dist(cfg: ExperimentConfig):
    sums = _offset_sums(cfg.params, cfg.input, cfg.cutoff_s, cfg.times)
    var_pb = np.array([distribution_variance(_pegg_barnett(c, cfg.cutoff_s + 1)) for c in sums])
    grid = 2 * np.pi * np.arange(4096) / 4096
    var_p = np.array([
        distribution_variance(PhaseDensity(
            grid, p_function_phase_density(cfg.params, cfg.input, t, grid)))
        for t in cfg.times
    ])
    prov = {"t": "grid", "variance_p_function": "analytic",
            "variance_pegg_barnett": "master-equation"}
    table = _csv_body(["t", "variance_p_function", "variance_pegg_barnett"],
                      [np.array(cfg.times), var_p, var_pb])
    return {"variance-from-dist.csv": table}, prov, {"cutoff_s": cfg.cutoff_s}


_RUNNERS = {
    "number-fan": _run_number_fan,
    "variance-compare": _run_variance_compare,
    "snr-input": _run_snr_input,
    "snr-nonideal": _run_snr_nonideal,
    "inverse-expansion": _run_inverse_expansion,
    "dist-converge": _run_dist_converge,
    "variance-from-dist": _run_variance_from_dist,
}


def _out_error(cfg: ExperimentConfig, exc: OSError) -> ConfigError:
    return ConfigError([("out", f"cannot write {exc.filename or cfg.out_dir}: "
                                f"{exc.strerror or exc}")])


def run_experiment(cfg: ExperimentConfig) -> ResultBundle:
    """Run one registered experiment and write its CSVs + metadata sidecar.

    The out directory is made before the run; a ConfigError naming "out" is
    raised when it cannot be made or written.
    """
    try:  # before the run, so that a run with nowhere to write fails at once
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _out_error(cfg, exc) from exc
    t0 = time.perf_counter()
    tables, provenance, meta_extra = _RUNNERS[cfg.experiment](cfg)
    paths = [cfg.out_dir / name for name in tables]
    meta_path = cfg.out_dir / f"{cfg.experiment}.meta.json"
    try:
        for path, (head, table) in zip(paths, tables.values()):
            _write_csv(path, head, table)
        metadata = {
            "experiment": cfg.experiment,
            "config": cfg.resolved,
            "columns": provenance,
            "csv_files": sorted(tables),
            "versions": {
                "phasediff": _pkg_version,
                "numpy": np.__version__,
            },
            "wall_time_s": time.perf_counter() - t0,  # the run and its CSVs
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        metadata.update(meta_extra)
        meta_path.write_text(
            json.dumps(metadata, indent=2, sort_keys=True, allow_nan=False) + "\n")
    except OSError as exc:
        raise _out_error(cfg, exc) from exc
    return ResultBundle(experiment=cfg.experiment, csv_files=_WrittenCsv(cfg.out_dir, tables),
                        metadata=metadata, written=[*map(str, paths), str(meta_path)])
