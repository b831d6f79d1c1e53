"""Euler-Maruyama ensembles for the photon number/phase pair and for 1/N.

Reproducibility contract: trajectory i draws its noise from
numpy.random.default_rng(SeedSequence([master_seed, i])) (PCG64) as one
stream of standard normals, two per sub-step (number noise, then phase
noise), so a rerun with the same SdeConfig is bit-identical however the
trajectories are batched, and both simulators see the same Brownian
increments trajectory by trajectory.  Statistics are reduced over the
trajectory axis in index order.

Engine: up to chunk_size trajectories are stepped together as one wide array,
through time blocks of _BLOCK_STEPS steps.  Each block's increments are laid
out time-major, (steps, 2, trajectories), so a step reads contiguous rows.
While the calling thread steps block b, _DRAW_WORKERS threads (one per usable
CPU, at most three) draw block b+1, each from its own disjoint range of
trajectories.  A PCG64 stream read in blocks equals the stream read in one
call, and the steppers evaluate each trajectory's update with the same
floating-point operations whatever the batch width, so neither the batching
nor the block length nor the worker count changes a sampled value.  The
recorded paths, the noise blocks and the workers' tiles each get an anonymous
memory mapping of their own (_mapped), allocated by the calling thread, so
the memory a run holds does not depend on the malloc heap's history or on
thread timing.  Progress goes to the "phasediff.sde" logger: one DEBUG record
per finished time block.

The schemes are plain Euler-Maruyama (the equations are Ito equations; the
weak order-1 accuracy is all the moment comparisons need — swapping in a
higher-order scheme would only touch the two _stepper routines).
"""

from __future__ import annotations

import logging
import math
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

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

    chunk_size is the number of trajectories stepped together (default 4096,
    so ensembles up to that size run as one batch); it bounds memory, since
    the two noise blocks in flight hold 2 x _BLOCK_STEPS x 2 x chunk_size
    doubles, and changes no sampled value.  record_every only thins the stored
    grid.  noise_thinning draws each increment as a sum of that many
    sub-draws, so a run at (dt, thinning 2) shares its Brownian path with a
    run at (dt/2, thinning 1) — used for step-refinement checks with common
    random numbers.
    """

    dt: float
    t_max: float
    n_traj: int
    master_seed: int
    floor_epsilon: float = 1e-6
    max_guard_trips: int = 0
    record_every: int = 1
    chunk_size: int = 4096
    noise_thinning: int = 1

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
        for name in ("max_guard_trips", "record_every", "chunk_size", "noise_thinning"):
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
    seeds: np.ndarray                      # (n_traj, 2) = (master_seed, index)
    guard_counts: np.ndarray               # clamp events per trajectory
    aborted: np.ndarray                    # guard_counts > max_guard_trips
    n_paths: np.ndarray | None = None
    phi_paths: np.ndarray | None = None
    upsilon_paths: np.ndarray | None = None
    config: SdeConfig | None = field(default=None, repr=False)

    @property
    def n_traj(self) -> int:
        return self.seeds.shape[0]

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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# Two noise blocks are in flight, 2 x 375 x 2 x chunk_size doubles: 49 MB at
# the default chunk_size.  Longer blocks cut the per-call overhead of the draw
# but put the engine's buffers, not the statistics, at the peak resident size
# of a variance-compare run (750 steps: +40 MB).  Drawing a block on one thread
# costs about three times stepping it, so three workers keep up with the
# stepping thread; more would add threads, each with its own stack and malloc
# arena, and no speed.
_BLOCK_STEPS = 375                   # time steps per noise block
_TILE = 32                           # trajectories per transpose tile (192 kB)
_DRAW_WORKERS = min(_usable_cpus(), 3)  # threads drawing the next block

_log = logging.getLogger("phasediff.sde")


def _mapped(*shape: int) -> np.ndarray:
    """A zero-filled float64 array in an anonymous memory mapping of its own.

    The mapping is released when the array's last view goes.  Carved from the
    malloc heap, a 19 MB path array can leave a hole that later ensembles
    reuse or not, depending on where small objects land and on whether
    transparent huge pages are free, which moves the peak resident size of a
    run by about 20 MB from one run to the next.
    """
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}  # not on Windows
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape), **private)).reshape(shape)


def _noise_blocks(config: SdeConfig, start: int, stop: int, pool: ThreadPoolExecutor):
    """Wiener increments of trajectories start..stop-1, one time block at a time.

    Yields (b, 2, width) arrays, time-major, b <= _BLOCK_STEPS; a yielded
    block is valid until the next one is requested, because two buffers take
    turns.  While the caller steps block i, the pool's workers draw block i+1,
    each into its own disjoint range of trajectories.
    """
    width = stop - start
    n_steps, thin = config.n_steps, config.noise_thinning
    scale = np.sqrt(config.dt / thin)
    seed = int(config.master_seed)
    spans = [(k0, min(k0 + _BLOCK_STEPS, n_steps)) for k0 in range(0, n_steps, _BLOCK_STEPS)]
    workers = min(_DRAW_WORKERS, width)
    edges = [width * w // workers for w in range(workers + 1)]
    rngs = [None] * width
    # Every array the workers write is mapped here, in the calling thread.
    b_max = spans[0][1]
    buffers = [_mapped(b_max, 2, width) for _ in spans[:2]]
    tiles = [_mapped(_TILE, b_max, 2) for _ in range(workers)]
    sub_draws = [_mapped(b_max * thin, 2) if thin > 1 else None for _ in range(workers)]

    def draw(out, lo, hi, tile_buf, xi_buf):
        b = out.shape[0]
        for t0 in range(lo, hi, _TILE):
            t1 = min(t0 + _TILE, hi)
            tile = tile_buf[: t1 - t0, :b]
            for j in range(t0, t1):
                if rngs[j] is None:
                    rngs[j] = np.random.default_rng(np.random.SeedSequence([seed, start + j]))
                if thin == 1:
                    rngs[j].standard_normal(out=tile[j - t0])
                else:
                    xi = xi_buf[: b * thin]
                    rngs[j].standard_normal(out=xi)
                    np.sum(xi.reshape(b, thin, 2), axis=1, out=tile[j - t0])
            np.multiply(tile.transpose(1, 2, 0), scale, out=out[:, :, t0:t1])

    def submit(i):
        k0, k1 = spans[i]
        out = buffers[i % 2][: k1 - k0]
        return out, [pool.submit(draw, out, lo, hi, tiles[w], sub_draws[w])
                     for w, (lo, hi) in enumerate(zip(edges, edges[1:]))]

    ahead = submit(0)
    for i, (_, k1) in enumerate(spans):
        dw, pending = ahead
        for future in pending:
            future.result()
        if i + 1 < len(spans):
            ahead = submit(i + 1)
        yield dw
        _log.debug("trajectories %d-%d: %d/%d steps", start, stop - 1, k1, n_steps)


def _integrate(params, input, config, stepper, n_vars):
    ks = config.recorded_steps()
    rec_mask = np.zeros(config.n_steps + 1, dtype=bool)
    rec_mask[ks] = True
    n = config.n_traj
    paths = [_mapped(n, len(ks)) for _ in range(n_vars)]
    guard_counts = np.zeros(n, dtype=np.int64)
    with ThreadPoolExecutor(max_workers=_DRAW_WORKERS) as pool:
        for start in range(0, n, config.chunk_size):
            stop = min(start + config.chunk_size, n)
            block = slice(start, stop)
            stepper(params, input, config, _noise_blocks(config, start, stop, pool), rec_mask,
                    [p[block] for p in paths], guard_counts[block])
    seeds = np.column_stack([np.full(n, config.master_seed, dtype=np.uint64), np.arange(n, dtype=np.uint64)])
    aborted = guard_counts > config.max_guard_trips
    return paths, guard_counts, aborted, ks * config.dt, seeds


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
                - np.sqrt(2.0 * ku * u_val**3) * dw_k[0]
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
    paths, guard_counts, aborted, times, seeds = _integrate(
        params, input, config, _polar_stepper, n_vars=2
    )
    return TrajectoryEnsemble(
        times=times, seeds=seeds, guard_counts=guard_counts, aborted=aborted,
        n_paths=paths[0], phi_paths=paths[1], config=config,
    )


def simulate_inverse(params: AmplifierParams, input: CoherentInput, config: SdeConfig) -> TrajectoryEnsemble:
    """Integrate the reciprocal process U = 1/N directly.

    dU = -(kappa_minus U - kappa_up U^2) dt - sqrt(2 kappa_up U^3) dV_N,
    U(0) = 1/|alpha|^2.  The stream layout matches simulate_polar (column 0 is
    the number noise), so runs with equal seeds share Brownian paths with the
    mapped 1/N of the polar simulation.
    """
    if input.amplitude_sq <= 1.0:
        raise ValueError(
            f"amplitude_sq must exceed 1 for the reciprocal process, got {input.amplitude_sq}"
        )
    paths, guard_counts, aborted, times, seeds = _integrate(
        params, input, config, _inverse_stepper, n_vars=1
    )
    return TrajectoryEnsemble(
        times=times, seeds=seeds, guard_counts=guard_counts, aborted=aborted,
        upsilon_paths=paths[0], config=config,
    )


@dataclass(frozen=True, eq=False)
class VariableStats:
    """Per-time ensemble statistics over the non-aborted trajectories."""

    mean: np.ndarray
    variance: np.ndarray
    se_mean: np.ndarray
    se_variance: np.ndarray
    n_used: int


def ensemble_stats(ensemble: TrajectoryEnsemble) -> dict[str, VariableStats]:
    """Mean/variance time series with standard errors for each recorded variable.

    The variance is the unbiased (ddof=1) estimator; its standard error comes
    from the fourth central moment, Var(s^2) ~= (m4 - s^4 (n-3)/(n-1)) / n.
    Aborted trajectories are excluded (they sit outside the model's validity),
    which requires at least two clean trajectories.
    """
    keep = ~ensemble.aborted
    n = int(keep.sum())
    if n < 2:
        raise GuardTripError(
            f"only {n} non-aborted trajectories of {ensemble.n_traj}; "
            "statistics need at least 2"
        )
    out = {}
    for name, paths in ensemble.variables().items():
        x = paths[keep]
        mean = x.mean(axis=0)
        dev = x - mean
        var = (dev**2).sum(axis=0) / (n - 1)
        m4 = (dev**4).mean(axis=0)
        se_var = np.sqrt(np.maximum(m4 - var**2 * (n - 3) / (n - 1), 0.0) / n)
        out[name] = VariableStats(
            mean=mean,
            variance=var,
            se_mean=np.sqrt(var / n),
            se_variance=se_var,
            n_used=n,
        )
    return out
