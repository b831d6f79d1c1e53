"""Euler-Maruyama ensembles for the photon number/phase pair and for 1/N.

Reproducibility contract: trajectory i draws its noise from
numpy.random.default_rng(SeedSequence([master_seed, i])) (PCG64) as one
stream of standard normals, two per step (number noise, then phase noise),
each scaled by sqrt(dt), so a rerun with the same SdeConfig is bit-identical
however the trajectories are batched, and both simulators see the same
Brownian increments trajectory by trajectory.

Statistics: the trajectories fall into tiles of _TILE consecutive indices.
Each tile's non-aborted rows are reduced to their count, mean and central
sums M2, M3, M4 per recorded time, and the tiles are merged along a fixed
binary tree over tile indices (node (level, i) covers tiles i 2^level ..
(i + 1) 2^level - 1; Chan, Golub & LeVeque's update for the mean and M2,
Pebay's for M3 and M4).  The statistics therefore depend on the paths alone,
not on the worker count, the batch width or the CPU count.  The workers are
their one production route: ensemble_stats reads the roots they leave and
never reduces a stored path.  They are sample statistics conditional on no
floor contact: any contact aborts a trajectory and excludes it, because a
trajectory that touched the floor is not a sample of the unclamped process.
That is also what makes them finite.  N(t) has density e^-eta / nbar > 0
at N = 0 for t > 0, so E[1/N(t)] = infinity, and so is the unwrapped phase
variance; only the floor and the abort rule keep the sample moments of 1/N
and of the phase finite.

Engine: the tiles are split into contiguous ranges by
phasediff._fork.run_ranges, which picks the number of ranges (at most one per
usable CPU) and runs each in a forked child (one range, for one usable CPU or
a single tile, runs in the calling process); no tile straddles two ranges.
A worker loops over its range one batch at a time, SdeConfig.chunk_size
trajectories rounded up to whole tiles, stepped together as one wide array
through time blocks of _BLOCK_STEPS steps: it draws one block's increments,
time-major, (steps, columns, trajectories), so a step reads contiguous rows,
then steps through them (the inverse process keeps only the number-noise
column).  A PCG64 stream read in blocks equals the stream read in one call,
and the steppers evaluate each trajectory's update with the same
floating-point operations whatever the batch width, so neither the ranges,
nor the batching, nor the block length changes a sampled value.

The caller picks which variables' paths to store and which variables'
statistics to reduce.  A stored path goes into an anonymous shared memory
mapping (_mapped) made before the fork, which the child writes in place; a
variable that is only reduced is recorded into the worker's own batch
buffer.  Either way the worker returns the roots of the whole subtrees of
tiles it finished (O(log n_traj) of them), {(level, i): _Moments} per
variable, which phasediff._fork carries back to the calling process to finish
the tree.  So a run that stores no path holds no n_traj x recorded-times
array anywhere.  Every engine array has a mapping of its own,
so the memory a run holds does not depend on the malloc heap's history.
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
import os
import sys
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from ._fork import run_ranges, split_ranges
from .errors import GuardTripError
from .params import INPUT_PHASE, AmplifierParams, CoherentInput

__all__ = [
    "SdeConfig",
    "TrajectoryEnsemble",
    "VariableStats",
    "simulate_polar",
    "simulate_inverse",
    "ensemble_stats",
]


def _physical_memory() -> int:
    """Bytes of physical memory, the bound on what one run may hold."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass(frozen=True)
class SdeConfig:
    """Integration grid, ensemble size and reproducibility knobs.

    floor_epsilon is the positivity floor: photon numbers are clamped to it
    (and the reciprocal process is additionally capped at 1/floor_epsilon,
    which is the same breakdown seen from the other side).  Every clamp counts
    as a guard trip, and a trajectory with any guard trip is aborted: a
    clamped path is an integrator overshoot into the region where 1/N moments
    diverge, and keeping it would bias every statistic built on the ensemble.

    chunk_size is the engine's batch width, a class constant no caller sets;
    it bounds each worker's buffers and changes no sampled value.
    The engine picks its worker count itself (see the module docstring); no
    field sets it, and no worker count changes a sampled value either.
    dt, t_max and floor_epsilon are ints or finite floats, and n_traj,
    record_every and master_seed are ints (none of them bools); record_every
    only thins the stored grid.  A grid whose step mask, recorded times and
    guard counts alone would not fit in physical memory is refused
    (phasediff.config checks every array a run makes, _integrate_bytes of
    the simulator, store and reduce each experiment's record names).
    Every step draws exactly two normals per trajectory (number noise, then
    phase noise), each scaled by sqrt(dt).
    """

    dt: float
    t_max: float
    n_traj: int
    master_seed: int
    floor_epsilon: float = 1e-6
    record_every: int = 1
    chunk_size: ClassVar[int] = 4096

    def __post_init__(self):
        for name in ("dt", "t_max", "floor_epsilon"):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not abs(v) <= sys.float_info.max):  # refuses NaN, infinities and past them
                raise ValueError(f"{name} must be an int or a finite float, got {v!r}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_max < self.dt:
            raise ValueError(f"t_max must be >= dt, got {self.t_max}")
        steps = self.t_max / self.dt
        if not steps < 2**53:  # from 2**53 on every double is whole: n_steps would be wrong
            raise ValueError(f"t_max/dt must be below 2**53 steps, got {steps!r}")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(
                f"t_max must be a whole number of steps dt, got t_max/dt = {steps!r}")
        for name, low, high, bounds in (("n_traj", 1, math.inf, ">= 1"),
                                        ("record_every", 1, math.inf, ">= 1"),
                                        ("master_seed", 0, 2**64, "in [0, 2**64)")):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or not low <= v < high:
                raise ValueError(f"{name} must be an int {bounds}, got {v!r}")
        if not self.floor_epsilon > 0:
            raise ValueError("floor_epsilon must be > 0")
        # every run holds _integrate's step mask (a byte per step), the recorded
        # grid and the guard counts (8 bytes per entry), whatever it stores
        need = self.n_steps + 1 + 8 * (self.n_recorded + self.n_traj)
        have = _physical_memory()
        if need > have:
            raise ValueError(
                f"t_max/dt = {steps:.4g} steps and {self.n_traj} trajectories need {need:.3g} "
                f"bytes for the step mask, recorded grid and guard counts, more than the "
                f"{have:.3g} bytes of physical memory")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))

    @property
    def n_recorded(self) -> int:
        """Length of recorded_steps(), without building it."""
        return -(-self.n_steps // self.record_every) + 1

    def recorded_steps(self) -> np.ndarray:
        ks = np.arange(0, self.n_steps + 1, self.record_every)
        if ks[-1] != self.n_steps:
            ks = np.append(ks, self.n_steps)
        return ks


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Recorded paths and reduced statistics plus per-trajectory provenance.

    A path field is None unless the simulation stored that variable; moments
    maps each variable the simulation reduced to the root of its tile tree
    (see the module docstring); ensemble_stats reads those, never the paths.
    Any guard trip aborts a trajectory: aborted is guard_counts > 0.

    Phases are accumulated unwrapped (no modular reduction): the distribution
    stays single-peaked in this regime, and unwrapped accumulation is what the
    windowed variance presumes.
    """

    times: np.ndarray
    guard_counts: np.ndarray               # clamp events per trajectory
    n_paths: np.ndarray | None = None
    phi_paths: np.ndarray | None = None
    upsilon_paths: np.ndarray | None = None
    config: SdeConfig | None = field(default=None, repr=False)
    moments: dict = field(default_factory=dict, repr=False)

    @property
    def n_traj(self) -> int:
        return len(self.guard_counts)

    @property
    def aborted(self) -> np.ndarray:
        return self.guard_counts > 0

    def variables(self) -> dict[str, np.ndarray]:
        paths = {"n": self.n_paths, "phi": self.phi_paths, "upsilon": self.upsilon_paths}
        return {name: p for name, p in paths.items() if p is not None}


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
    seed = config.master_seed
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


def _batch_width(config: SdeConfig) -> int:
    """Trajectories a worker steps at once: chunk_size rounded up to whole tiles."""
    return -(-config.chunk_size // _TILE) * _TILE


# simulator -> the variables it records and the noise columns its stepper draws
_SIMULATORS = {"simulate_polar": (("n", "phi"), 2), "simulate_inverse": (("upsilon",), 1)}


def _integrate_bytes(config: SdeConfig, simulator: str, store, reduce) -> int:
    """Bytes of the arrays _integrate makes for a run of `simulator` (its name)
    that stores the paths of the variables in `store` and reduces those in
    `reduce`.

    The calling process holds the step mask, the recorded steps and times, the
    guard counts and the stored paths.  Each worker, one per range of
    run_ranges, all forked at once, holds one batch buffer per variable it
    reduces but does not store and a noise block with its tile buffer, each
    as wide as the worker's first batch.
    """
    columns, stored, reduced = _SIMULATORS[simulator][1], len(store), len(set(reduce) - set(store))
    n, m = config.n_traj, config.n_recorded
    b = min(_BLOCK_STEPS, config.n_steps)
    total = config.n_steps + 1 + 16 * m + 8 * n * (1 + stored * m)
    for lo, hi in split_ranges(-(-n // _TILE), 1):
        width = min(_batch_width(config), min(hi * _TILE, n) - lo * _TILE)
        total += 8 * (width * (reduced * m + b * columns) + _TILE * b * 2)
    return total


def _integrate(params, input, config, stepper, simulator, store, reduce):
    """Run stepper over the ensemble; store and reduce name the variables wanted."""
    names, noise_columns = _SIMULATORS[simulator]
    for name in (*store, *reduce):
        if name not in names:
            raise ValueError(f"unknown variable {name!r}; this simulation records {names}")
    ks = config.recorded_steps()
    rec_mask = np.zeros(config.n_steps + 1, dtype=bool)
    rec_mask[ks] = True
    n, m = config.n_traj, len(ks)
    n_tiles = -(-n // _TILE)
    paths = {name: _mapped(n, m) for name in names if name in store}
    guard_counts = _mapped(n, dtype=np.int64)
    reduced = [name for name in names if name in reduce]
    batch = _batch_width(config)

    def run_range(lo, hi, report):
        lo, hi = lo * _TILE, min(hi * _TILE, n)
        own = {name: _mapped(min(batch, hi - lo), m) for name in reduced if name not in paths}
        trees = {name: {} for name in reduced}
        for start in range(lo, hi, batch):
            stop = min(start + batch, hi)
            rows = slice(start, stop)
            recorded = {name: p[rows] for name, p in paths.items()}
            recorded.update((name, buf[:stop - start]) for name, buf in own.items())
            blocks = _noise_blocks(config, start, stop, report, noise_columns)
            stepper(params, input, config, blocks, rec_mask,
                    [recorded.get(name) for name in names], guard_counts[rows])
            kept = guard_counts[rows] == 0
            for name in reduced:
                _reduce_rows(recorded[name], kept, start // _TILE, trees[name], n_tiles)
        return trees

    parts = run_ranges(run_range, n_tiles, 1,
                       lambda start, stop, k: _log.debug("trajectories %d-%d: %d/%d steps",
                                                         start, stop - 1, k, config.n_steps),
                       "trajectory tiles")
    trees = {name: {} for name in reduced}
    for part in parts:
        for name, nodes in part.items():
            for (level, i), node in nodes.items():
                _insert(trees[name], level, i, node, n_tiles)
    return TrajectoryEnsemble(
        times=ks * config.dt, guard_counts=guard_counts, config=config,
        moments={name: _root(tree) for name, tree in trees.items()},
        **{f"{name}_paths": p for name, p in paths.items()},
    )


class _Moments(NamedTuple):
    """Count, mean and central sums of powers 2, 3 and 4 of a set of rows, per time."""

    count: int
    mean: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    m4: np.ndarray


def _tile_moments(x: np.ndarray) -> _Moments | None:
    """Moments of the rows of x (rows x times); None when there are none.

    x is made C-contiguous first, so the column sums always run row by row
    in index order, whatever array x was taken from.
    """
    k = len(x)
    if not k:
        return None
    x = np.ascontiguousarray(x)
    mean = x.sum(axis=0) / k
    dev = x - mean
    d2 = dev * dev
    m2 = d2.sum(axis=0)
    dev *= d2
    m3 = dev.sum(axis=0)
    d2 *= d2
    return _Moments(k, mean, m2, m3, d2.sum(axis=0))


def _merge(a: _Moments | None, b: _Moments | None) -> _Moments | None:
    """Moments of the union of two disjoint row sets (Chan et al.; Pebay)."""
    if a is None:
        return b
    if b is None:
        return a
    na, nb = a.count, b.count
    n = na + nb
    d = b.mean - a.mean
    dn = d / n
    dn2 = dn * dn
    t = d * dn * (na * nb)  # d^2 na nb / n
    return _Moments(
        n,
        a.mean + dn * nb,
        a.m2 + b.m2 + t,
        a.m3 + b.m3 + t * dn * (na - nb) + 3.0 * dn * (na * b.m2 - nb * a.m2),
        a.m4 + b.m4 + t * dn2 * (na * na - na * nb + nb * nb)
        + 6.0 * dn2 * (na * na * b.m2 + nb * nb * a.m2) + 4.0 * dn * (na * b.m3 - nb * a.m3),
    )


def _insert(tree: dict, level: int, i: int, node: _Moments | None, n_tiles: int) -> None:
    """Add node (level, i) to tree, merging it upward while its sibling is held.

    Node (level, i) covers tiles i 2^level .. (i + 1) 2^level - 1 (those
    below n_tiles); a left node with no sibling below n_tiles moves up as it
    is.  Each node's value depends only on its children's, so any order of
    insertion leaves the same nodes; once every tile is in, one is left.
    """
    while (1 << level) < n_tiles:
        if i % 2:
            if (level, i - 1) not in tree:
                break
            node = _merge(tree.pop((level, i - 1)), node)
        elif (i + 1) << level < n_tiles:
            if (level, i + 1) not in tree:
                break
            node = _merge(node, tree.pop((level, i + 1)))
        level, i = level + 1, i // 2
    tree[level, i] = node


def _reduce_rows(x: np.ndarray, kept: np.ndarray, first_tile: int, tree: dict,
                 n_tiles: int) -> None:
    """Insert the tiles of x (whole tiles from first_tile on) and their kept rows."""
    for t0 in range(0, len(x), _TILE):
        tile = slice(t0, t0 + _TILE)
        _insert(tree, 0, first_tile + t0 // _TILE, _tile_moments(x[tile][kept[tile]]), n_tiles)


def _root(tree: dict) -> _Moments | None:
    (node,) = tree.values()
    return node


def _polar_stepper(params, input, config, blocks, rec_mask, chunk_paths, guard_counts):
    ku, km = params.kappa_up, params.kappa_minus
    dt, floor = config.dt, config.floor_epsilon
    m = len(guard_counts)
    n_val = np.full(m, float(input.amplitude_sq))
    phi_val = np.full(m, INPUT_PHASE)
    n_store, phi_store = chunk_paths
    rec = 0
    if n_store is not None:
        n_store[:, 0] = n_val
    if phi_store is not None:
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
                if n_store is not None:
                    n_store[:, rec] = n_val
                if phi_store is not None:
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
    if u_store is not None:
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
                if u_store is not None:
                    u_store[:, rec] = u_val
    guard_counts += trips


def simulate_polar(params: AmplifierParams, input: CoherentInput, config: SdeConfig, *,
                   store=("n", "phi"), reduce=("n", "phi")) -> TrajectoryEnsemble:
    """Integrate the coupled number/phase pair from the deterministic start
    (N, Phi) = (|alpha|^2, INPUT_PHASE) = (amplitude_sq, pi).

    dPhi = sqrt(kappa_up / 2N) dV_phi and
    dN = (kappa_up + kappa_minus N) dt + sqrt(2 kappa_up N) dV_N
    with independent increments, both evaluated at the step's start (Ito).
    store names the variables ("n", "phi") whose paths are kept, reduce
    those whose statistics the workers reduce for ensemble_stats (by default
    both of each); a variable named in neither is not recorded.
    """
    return _integrate(params, input, config, _polar_stepper, "simulate_polar", store, reduce)


def simulate_inverse(params: AmplifierParams, input: CoherentInput, config: SdeConfig, *,
                     store=("upsilon",), reduce=("upsilon",)) -> TrajectoryEnsemble:
    """Integrate the reciprocal process U = 1/N directly.

    dU = -(kappa_minus U - kappa_up U^2) dt - sqrt(2 kappa_up U^3) dV_N,
    U(0) = 1/|alpha|^2.  The stream layout matches simulate_polar (column 0 is
    the number noise), so runs with one master_seed share Brownian paths with the
    mapped 1/N of the polar simulation.  store and reduce name "upsilon" or
    nothing, as in simulate_polar.  E[U(t)] = E[1/N(t)] is infinite for t > 0
    (see the module docstring); the sample mean estimates it conditional on no
    floor contact.
    """
    if input.amplitude_sq <= 1.0:
        raise ValueError(
            f"amplitude_sq must exceed 1 for the reciprocal process, got {input.amplitude_sq}"
        )
    return _integrate(params, input, config, _inverse_stepper, "simulate_inverse", store, reduce)


@dataclass(frozen=True, eq=False)
class VariableStats:
    """Per-time ensemble statistics over the non-aborted trajectories."""

    mean: np.ndarray
    variance: np.ndarray
    se_mean: np.ndarray
    se_variance: np.ndarray
    n_used: int


def ensemble_stats(ensemble: TrajectoryEnsemble, *names: str) -> dict[str, VariableStats]:
    """Mean/variance time series with standard errors for the named variables.

    names picks among the variables the simulation reduced ("n", "phi",
    "upsilon"); none means every one of them.  The variance is the
    unbiased (ddof=1) estimator.  Its standard error comes from the fourth
    central moment, Var(s^2) ~= (m4 - s^4 (n-3)/(n-1)) / n with m4 = M4 / n.
    Aborted trajectories are excluded (they sit outside the model's validity),
    which requires at least two clean trajectories, so every statistic is
    conditional on no floor contact.  Everything is read from
    ensemble.moments, the roots the workers reduced (see the module
    docstring); a stored path is never read, so a variable that was stored
    but not reduced is unknown here.
    """
    held = tuple(ensemble.moments)
    for name in names:
        if name not in held:
            raise ValueError(f"unknown variable {name!r}; this ensemble reduced {held}")
    n = int(np.count_nonzero(~ensemble.aborted))
    if n < 2:
        raise GuardTripError(
            f"only {n} non-aborted trajectories of {ensemble.n_traj}; "
            "statistics need at least 2"
        )
    out = {}
    for name in names or held:
        root = ensemble.moments[name]
        var = root.m2 / (n - 1)
        out[name] = VariableStats(
            mean=root.mean,
            variance=var,
            se_mean=np.sqrt(var / n),
            se_variance=np.sqrt(np.maximum(root.m4 / n - var**2 * (n - 3) / (n - 1), 0.0) / n),
            n_used=n,
        )
    return out
