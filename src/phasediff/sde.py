"""Euler-Maruyama ensembles for the photon number/phase pair and for 1/N.

Reproducibility contract: trajectory i draws its noise from
numpy.random.default_rng(SeedSequence([master_seed, i])) (PCG64) as one
stream of standard normals, two per step (number noise, then phase noise),
each scaled by sqrt(dt), so a rerun with the same SdeConfig is bit-identical
however the trajectories are batched, and both simulators see the same
Brownian increments trajectory by trajectory.  Statistics are reduced over
the trajectory axis in index order.

Engine: the trajectories are split into contiguous ranges, each at least
_TILE trajectories wide, by phasediff._fork.run_ranges, which picks the
number of ranges (at most one per usable CPU) and runs each in a forked
child (one range, for one usable CPU or fewer than two tiles of
trajectories, runs in the calling process).  A worker loops over its range
up to chunk_size trajectories at a time, stepped together as one wide array
through time blocks of _BLOCK_STEPS steps: it draws one block's increments,
time-major, (steps, columns, trajectories), so a step reads contiguous rows,
then steps through them (the inverse process keeps only the number-noise
column).  A PCG64 stream read in blocks equals the stream read in one call,
and the steppers evaluate each trajectory's update with the same
floating-point operations whatever the batch width, so neither the ranges,
nor the batching, nor the block length changes a sampled value.

A child writes the recorded paths and guard counts in place, into anonymous
shared memory mappings (_mapped) made before the fork, and sends its
progress records to the parent.  Every engine array has a mapping of its
own, so the memory a run holds does not depend on the malloc heap's history.
Progress goes to the "phasediff.sde" logger, from the calling process: one
DEBUG record per stepped time block of each batch.

The schemes are plain Euler-Maruyama (the equations are Ito equations; the
weak order-1 accuracy is all the moment comparisons need — swapping in a
higher-order scheme would only touch the two _stepper routines).
"""

from __future__ import annotations

import logging
import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from ._fork import run_ranges
from .errors import GuardTripError
from .params import AmplifierParams, CoherentInput

__all__ = [
    "SdeConfig",
    "TrajectoryEnsemble",
    "VariableStats",
    "simulate_polar",
    "simulate_inverse",
    "ensemble_stats",
]


@dataclass(frozen=True)
class SdeConfig:
    """Integration grid, ensemble size and reproducibility knobs.

    floor_epsilon is the positivity floor: photon numbers are clamped to it
    (and the reciprocal process is additionally capped at 1/floor_epsilon,
    which is the same breakdown seen from the other side).  Every clamp counts
    as a guard trip; a trajectory with more than max_guard_trips trips is
    marked aborted.  The default of zero aborts on first contact: a clamped
    path is an integrator overshoot into the region where 1/N moments diverge,
    and keeping it silently would bias every statistic built on the ensemble.

    chunk_size is the number of trajectories a worker steps together (default
    4096, so each worker's range of an ensemble up to that size is one
    batch); it bounds memory, since each worker holds one noise block of at
    most _BLOCK_STEPS x 2 x chunk_size doubles, and changes no sampled value.
    The engine picks its worker count itself (see the module docstring); no
    field sets it, and no worker count changes a sampled value either.
    record_every only thins the stored grid.  Every step draws exactly two
    normals per trajectory (number noise, then phase noise), each scaled by
    sqrt(dt).
    """

    dt: float
    t_max: float
    n_traj: int
    master_seed: int
    floor_epsilon: float = 1e-6
    max_guard_trips: int = 0
    record_every: int = 1
    chunk_size: int = 4096

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_max < self.dt:
            raise ValueError(f"t_max must be >= dt, got {self.t_max}")
        steps = self.t_max / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(
                f"t_max must be a whole number of steps dt, got t_max/dt = {steps!r}")
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj}")
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        if not self.floor_epsilon > 0:
            raise ValueError("floor_epsilon must be > 0")
        for name in ("max_guard_trips", "record_every", "chunk_size"):
            v = getattr(self, name)
            if v != int(v) or (v < 0 if name == "max_guard_trips" else v < 1):
                raise ValueError(f"{name} must be a {'non-negative' if name == 'max_guard_trips' else 'positive'} integer, got {v}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))

    def recorded_steps(self) -> np.ndarray:
        ks = np.arange(0, self.n_steps + 1, self.record_every)
        if ks[-1] != self.n_steps:
            ks = np.append(ks, self.n_steps)
        return ks


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Recorded paths plus per-trajectory provenance.

    Phases are accumulated unwrapped (no modular reduction): the distribution
    stays single-peaked in this regime, and unwrapped accumulation is what the
    windowed variance presumes.
    """

    times: np.ndarray
    guard_counts: np.ndarray               # clamp events per trajectory
    aborted: np.ndarray                    # guard_counts > max_guard_trips
    n_paths: np.ndarray | None = None
    phi_paths: np.ndarray | None = None
    upsilon_paths: np.ndarray | None = None
    config: SdeConfig | None = field(default=None, repr=False)

    @property
    def n_traj(self) -> int:
        return len(self.guard_counts)

    def variables(self) -> dict[str, np.ndarray]:
        out = {}
        for name, paths in (
            ("n", self.n_paths),
            ("phi", self.phi_paths),
            ("upsilon", self.upsilon_paths),
        ):
            if paths is not None:
                out[name] = paths
        return out


# Each worker holds one noise block, 375 x columns x width doubles: 24 MB across
# the workers of a 4000-path polar ensemble, 12 MB for the inverse one.  Longer
# blocks cut the per-call overhead of the draw, but memory goes with them.
_BLOCK_STEPS = 375                   # time steps per noise block
_TILE = 32                           # trajectories per transpose tile (192 kB); the narrowest range

_log = logging.getLogger("phasediff.sde")


def _mapped(*shape: int, dtype=np.float64) -> np.ndarray:
    """A zero-filled array in an anonymous shared memory mapping of its own.

    The mapping is released when the array's last view goes.  Shared, a forked
    worker's writes reach the parent in place.  Carved from the malloc heap, a
    19 MB path array can leave a hole that later ensembles reuse or not,
    depending on where small objects land and on whether transparent huge pages
    are free, which moves the peak resident size of a run by about 20 MB from
    one run to the next.
    """
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, dtype.itemsize * math.prod(shape)), dtype=dtype).reshape(shape)


def _progress(start: int, stop: int, k: int, n_steps: int) -> None:
    _log.debug("trajectories %d-%d: %d/%d steps", start, stop - 1, k, n_steps)


def _noise_blocks(config: SdeConfig, start: int, stop: int, report, columns: int):
    """Wiener increments of trajectories start..stop-1, one time block at a time.

    Both normals of every step are drawn, as the stream layout requires,
    but only the first `columns` (1: number noise; 2: number and phase noise)
    are scaled into the blocks.  Yields (b, columns, width) arrays, time-major,
    b <= _BLOCK_STEPS, all views of one buffer: a block is valid until the
    next one is requested.  Once the caller asks for the block after the one
    ending at step k, report(start, stop, k) is called.
    """
    width = stop - start
    n_steps = config.n_steps
    scale = np.sqrt(config.dt)
    seed = int(config.master_seed)
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in range(start, stop)]
    b_max = min(_BLOCK_STEPS, n_steps)
    buffer = _mapped(b_max, columns, width)
    tile_buf = _mapped(_TILE, b_max, 2)
    for k0 in range(0, n_steps, _BLOCK_STEPS):
        k1 = min(k0 + _BLOCK_STEPS, n_steps)
        b = k1 - k0
        out = buffer[:b]
        for t0 in range(0, width, _TILE):
            t1 = min(t0 + _TILE, width)
            tile = tile_buf[: t1 - t0, :b]
            for j in range(t0, t1):
                rngs[j].standard_normal(out=tile[j - t0])
            np.multiply(tile[:, :, :columns].transpose(1, 2, 0), scale, out=out[:, :, t0:t1])
        yield out
        report(start, stop, k1)


def _integrate(params, input, config, stepper, n_vars, noise_columns):
    ks = config.recorded_steps()
    rec_mask = np.zeros(config.n_steps + 1, dtype=bool)
    rec_mask[ks] = True
    n = config.n_traj
    paths = [_mapped(n, len(ks)) for _ in range(n_vars)]
    guard_counts = _mapped(n, dtype=np.int64)

    def run_range(lo, hi, report):
        for start in range(lo, hi, config.chunk_size):
            stop = min(start + config.chunk_size, hi)
            block = slice(start, stop)
            blocks = _noise_blocks(config, start, stop, report, noise_columns)
            stepper(params, input, config, blocks, rec_mask, [p[block] for p in paths],
                    guard_counts[block])

    run_ranges(run_range, n, _TILE,
               lambda start, stop, k: _progress(start, stop, k, config.n_steps), "trajectories")
    return paths, guard_counts, guard_counts > config.max_guard_trips, ks * config.dt


def _polar_stepper(params, input, config, blocks, rec_mask, chunk_paths, guard_counts):
    ku, km = params.kappa_up, params.kappa_minus
    dt, floor = config.dt, config.floor_epsilon
    m = len(guard_counts)
    n_val = np.full(m, float(input.amplitude_sq))
    phi_val = np.full(m, float(input.theta))
    n_store, phi_store = chunk_paths
    rec = 0
    n_store[:, 0] = n_val
    phi_store[:, 0] = phi_val
    trips = np.zeros(m, dtype=np.int64)
    k = 0
    for dw in blocks:
        for dw_k in dw:
            phi_val = phi_val + np.sqrt(ku / (2.0 * n_val)) * dw_k[1]
            n_val = n_val + (ku + km * n_val) * dt + np.sqrt(2.0 * ku * n_val) * dw_k[0]
            below = n_val < floor
            if below.any():
                trips += below
                n_val = np.maximum(n_val, floor)
            k += 1
            if rec_mask[k]:
                rec += 1
                n_store[:, rec] = n_val
                phi_store[:, rec] = phi_val
    guard_counts += trips


def _inverse_stepper(params, input, config, blocks, rec_mask, chunk_paths, guard_counts):
    ku, km = params.kappa_up, params.kappa_minus
    dt, floor = config.dt, config.floor_epsilon
    ceil = 1.0 / floor
    m = len(guard_counts)
    u_val = np.full(m, 1.0 / float(input.amplitude_sq))
    (u_store,) = chunk_paths
    rec = 0
    u_store[:, 0] = u_val
    trips = np.zeros(m, dtype=np.int64)
    k = 0
    for dw in blocks:
        for dw_k in dw:
            u_val = (
                u_val
                - (km * u_val - ku * u_val**2) * dt
                - np.sqrt(2.0 * ku * (u_val * u_val * u_val)) * dw_k[0]
            )
            outside = (u_val < floor) | (u_val > ceil)
            if outside.any():
                trips += outside
                u_val = np.clip(u_val, floor, ceil)
            k += 1
            if rec_mask[k]:
                rec += 1
                u_store[:, rec] = u_val
    guard_counts += trips


def simulate_polar(params: AmplifierParams, input: CoherentInput, config: SdeConfig) -> TrajectoryEnsemble:
    """Integrate the coupled number/phase pair from the deterministic start.

    dPhi = sqrt(kappa_up / 2N) dV_phi and
    dN = (kappa_up + kappa_minus N) dt + sqrt(2 kappa_up N) dV_N
    with independent increments, both evaluated at the step's start (Ito).
    """
    paths, guard_counts, aborted, times = _integrate(
        params, input, config, _polar_stepper, n_vars=2, noise_columns=2
    )
    return TrajectoryEnsemble(
        times=times, guard_counts=guard_counts, aborted=aborted,
        n_paths=paths[0], phi_paths=paths[1], config=config,
    )


def simulate_inverse(params: AmplifierParams, input: CoherentInput, config: SdeConfig) -> TrajectoryEnsemble:
    """Integrate the reciprocal process U = 1/N directly.

    dU = -(kappa_minus U - kappa_up U^2) dt - sqrt(2 kappa_up U^3) dV_N,
    U(0) = 1/|alpha|^2.  The stream layout matches simulate_polar (column 0 is
    the number noise), so runs with one master_seed share Brownian paths with the
    mapped 1/N of the polar simulation.
    """
    if input.amplitude_sq <= 1.0:
        raise ValueError(
            f"amplitude_sq must exceed 1 for the reciprocal process, got {input.amplitude_sq}"
        )
    paths, guard_counts, aborted, times = _integrate(
        params, input, config, _inverse_stepper, n_vars=1, noise_columns=1
    )
    return TrajectoryEnsemble(
        times=times, guard_counts=guard_counts, aborted=aborted,
        upsilon_paths=paths[0], config=config,
    )


@dataclass(frozen=True, eq=False)
class VariableStats:
    """Per-time ensemble statistics over the non-aborted trajectories.

    se_variance is None unless ensemble_stats was asked for it.
    """

    mean: np.ndarray
    variance: np.ndarray
    se_mean: np.ndarray
    se_variance: np.ndarray | None
    n_used: int


def ensemble_stats(ensemble: TrajectoryEnsemble, *names: str,
                   se_variance: bool = False) -> dict[str, VariableStats]:
    """Mean/variance time series with standard errors for the named variables.

    names picks among ensemble.variables() ("n", "phi", "upsilon"); none means
    every recorded one.  The variance is the unbiased (ddof=1) estimator.  Its
    standard error comes from the fourth central moment,
    Var(s^2) ~= (m4 - s^4 (n-3)/(n-1)) / n with m4 = mean((dev^2)^2), and is
    computed only when se_variance is set.  Aborted trajectories are excluded
    (they sit outside the model's validity), which requires at least two clean
    trajectories.  Each variable is reduced in place in one copy of its kept
    paths, held in a mapping of its own (_mapped): dev, then dev^2, then
    dev^4.
    """
    kept = np.flatnonzero(~ensemble.aborted)
    n = len(kept)
    if n < 2:
        raise GuardTripError(
            f"only {n} non-aborted trajectories of {ensemble.n_traj}; "
            "statistics need at least 2"
        )
    variables = ensemble.variables()
    out = {}
    for name in names or variables:
        paths = variables[name]
        # mode="raise", and so np.compress, would stage `out` in a heap temporary
        # as large as the copy; the indices are in range, so "clip" moves none
        dev = np.take(paths, kept, axis=0, mode="clip",
                      out=_mapped(n, *paths.shape[1:], dtype=paths.dtype))
        mean = dev.mean(axis=0)
        dev -= mean
        var = np.square(dev, out=dev).sum(axis=0) / (n - 1)
        m4 = np.square(dev, out=dev).mean(axis=0) if se_variance else None
        out[name] = VariableStats(
            mean=mean,
            variance=var,
            se_mean=np.sqrt(var / n),
            se_variance=(np.sqrt(np.maximum(m4 - var**2 * (n - 3) / (n - 1), 0.0) / n)
                         if se_variance else None),
            n_used=n,
        )
    return out
