"""Euler-Maruyama ensembles for the photon number/phase pair and for 1/N.

Reproducibility contract: trajectory i draws its noise from
numpy.random.default_rng(SeedSequence([master_seed, i])) (PCG64) as one
stream of standard normals, two per sub-step (number noise, then phase
noise), so a rerun with the same SdeConfig is bit-identical however the
trajectories are batched, and both simulators see the same Brownian
increments trajectory by trajectory.  Statistics are reduced over the
trajectory axis in index order.

Engine: the trajectories are split into contiguous ranges, one per worker
(at most one per usable CPU, each at least _TILE trajectories wide).  A
worker loops over its range up to chunk_size trajectories at a time, stepped
together as one wide array through time blocks of _BLOCK_STEPS steps: it
draws one block's increments, time-major, (steps, 2, trajectories), so a step
reads contiguous rows, then steps through them.  A PCG64 stream read in
blocks equals the stream read in one call, and the steppers evaluate each
trajectory's update with the same floating-point operations whatever the
batch width, so neither the ranges, nor the batching, nor the block length
changes a sampled value.

Each worker is a child made by os.fork(): it shares the parent's imported
modules, so nothing is pickled or imported to start it.  It writes the
recorded paths and guard counts in place, into anonymous shared memory
mappings (_mapped) made before the fork, sends progress records and any
exception on a pipe, and leaves through os._exit.  A child imports nothing,
logs nothing, calls no BLAS and flushes no stdio, so it never touches a lock
or buffer that another thread of the parent held at the fork.  With one
worker (one usable CPU, fewer than two tiles of trajectories, or no os.fork)
the same loop runs in the calling process.  Every engine array has a mapping
of its own, so the memory a run holds does not depend on the malloc heap's
history.  Progress goes to the "phasediff.sde" logger, from the calling
process: one DEBUG record per stepped time block of each batch.

The schemes are plain Euler-Maruyama (the equations are Ito equations; the
weak order-1 accuracy is all the moment comparisons need — swapping in a
higher-order scheme would only touch the two _stepper routines).
"""

from __future__ import annotations

import gc
import logging
import math
import mmap
import os
import pickle
import selectors
import signal
import struct
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

    chunk_size is the number of trajectories a worker steps together (default
    4096, so each worker's range of an ensemble up to that size is one
    batch); it bounds memory, since each worker holds one noise block of at
    most _BLOCK_STEPS x 2 x chunk_size doubles, and changes no sampled value.
    The engine picks its worker count itself (see the module docstring); no
    field sets it, and no worker count changes a sampled value either.
    record_every only thins the stored grid.  noise_thinning draws each
    increment as a sum of that many sub-draws, so a run at (dt, thinning 2)
    shares its Brownian path with a run at (dt/2, thinning 1) — used for
    step-refinement checks with common random numbers.
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


# Each worker holds one noise block, 375 x 2 x width doubles: 24 MB across the
# workers of a 4000-path ensemble.  Longer blocks cut the per-call overhead of
# the draw, but memory goes with them.
_BLOCK_STEPS = 375                   # time steps per noise block
_TILE = 32                           # trajectories per transpose tile (192 kB); the narrowest range
_WORKERS = _usable_cpus()            # most ranges an ensemble is split into

_log = logging.getLogger("phasediff.sde")

# A child's pipe carries (start, stop, steps) per stepped block of the batch
# start..stop-1; (-1, size, 0) announces the child's pickled exception, size bytes.
_RECORD = struct.Struct("=3q")


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


def _noise_blocks(config: SdeConfig, start: int, stop: int, report):
    """Wiener increments of trajectories start..stop-1, one time block at a time.

    Yields (b, 2, width) arrays, time-major, b <= _BLOCK_STEPS, all views of
    one buffer: a block is valid until the next one is requested.  Once the
    caller asks for the block after the one ending at step k, report(start,
    stop, k) is called.
    """
    width = stop - start
    n_steps, thin = config.n_steps, config.noise_thinning
    scale = np.sqrt(config.dt / thin)
    seed = int(config.master_seed)
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in range(start, stop)]
    b_max = min(_BLOCK_STEPS, n_steps)
    buffer = _mapped(b_max, 2, width)
    tile_buf = _mapped(_TILE, b_max, 2)
    xi_buf = _mapped(b_max * thin, 2) if thin > 1 else None
    for k0 in range(0, n_steps, _BLOCK_STEPS):
        k1 = min(k0 + _BLOCK_STEPS, n_steps)
        b = k1 - k0
        out = buffer[:b]
        for t0 in range(0, width, _TILE):
            t1 = min(t0 + _TILE, width)
            tile = tile_buf[: t1 - t0, :b]
            for j in range(t0, t1):
                if thin == 1:
                    rngs[j].standard_normal(out=tile[j - t0])
                else:
                    xi = xi_buf[: b * thin]
                    rngs[j].standard_normal(out=xi)
                    np.sum(xi.reshape(b, thin, 2), axis=1, out=tile[j - t0])
            np.multiply(tile.transpose(1, 2, 0), scale, out=out[:, :, t0:t1])
        yield out
        report(start, stop, k1)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _child(run_range, lo: int, hi: int, fd: int):
    """Body of a forked worker: run one range, report through fd, never return.

    It imports nothing, logs nothing, calls no BLAS, collects no garbage (so
    no finalizer of an object copied from the parent runs) and leaves through
    os._exit, so no stdio buffer or exit handler of the parent runs twice.
    """
    gc.disable()
    code = 1
    try:
        run_range(lo, hi, lambda start, stop, k: _write_all(fd, _RECORD.pack(start, stop, k)))
        code = 0
    except BaseException as exc:
        payload = pickle.dumps(exc)
        _write_all(fd, _RECORD.pack(-1, len(payload), 0) + payload)
    finally:
        os._exit(code)


def _fork_ranges(run_range, ranges, n_steps: int) -> None:
    """Run run_range(lo, hi, report) for each range in a forked child.

    The parent relays each child's progress records to the log as they come,
    re-raises the first exception a child reports, and raises if a child ends
    any other way than by finishing its range, so partial paths never return.
    Children still running when the call leaves, by return or by exception
    (KeyboardInterrupt included), are killed; every child is reaped.
    """
    pids, spans = {}, {}             # read end -> pid while not reaped, -> (lo, hi)
    try:
        for lo, hi in ranges:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(run_range, lo, hi, w)
            os.close(w)
            pids[r], spans[r] = pid, (lo, hi)
        pending = dict.fromkeys(pids, b"")
        with selectors.DefaultSelector() as sel:
            for r in pids:
                sel.register(r, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    r = key.fd
                    data = os.read(r, 1 << 16)
                    if data:
                        pending[r] = _relay(pending[r] + data, n_steps)
                        continue
                    sel.unregister(r)
                    _, status = os.waitpid(pids[r], 0)
                    del pids[r]
                    if status:
                        _raise_failure(pending[r], status, *spans[r])
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for r in spans:
            os.close(r)


def _relay(data: bytes, n_steps: int) -> bytes:
    """Log the progress records at the head of data; return the rest."""
    size = _RECORD.size
    while len(data) >= size:
        start, stop, k = _RECORD.unpack_from(data)
        if start < 0:
            break
        _progress(start, stop, k, n_steps)
        data = data[size:]
    return data


def _raise_failure(rest: bytes, status: int, lo: int, hi: int):
    """Re-raise a failed child's reported exception, or report how it died."""
    size = _RECORD.size
    if len(rest) > size and len(rest) == size + _RECORD.unpack_from(rest)[1]:
        raise pickle.loads(rest[size:])  # written by our own forked child
    code = os.waitstatus_to_exitcode(status)
    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
    raise RuntimeError(f"the worker for trajectories {lo}-{hi - 1} died ({how}) "
                       "before finishing its range")


def _integrate(params, input, config, stepper, n_vars):
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
            stepper(params, input, config, _noise_blocks(config, start, stop, report), rec_mask,
                    [p[block] for p in paths], guard_counts[block])

    # ranges at least one tile wide, at most one per usable CPU
    workers = max(1, min(_WORKERS, n // _TILE)) if hasattr(os, "fork") else 1
    if workers == 1:
        run_range(0, n, lambda start, stop, k: _progress(start, stop, k, config.n_steps))
    else:
        edges = [n * w // workers for w in range(workers + 1)]
        _fork_ranges(run_range, zip(edges, edges[1:]), config.n_steps)
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
    Var(s^2) ~= (m4 - s^4 (n-3)/(n-1)) / n, and is computed only when
    se_variance is set.  Aborted trajectories are excluded (they sit outside
    the model's validity), which requires at least two clean trajectories.
    Each variable is reduced in a copy of its kept paths plus one temporary.
    """
    keep = ~ensemble.aborted
    n = int(keep.sum())
    if n < 2:
        raise GuardTripError(
            f"only {n} non-aborted trajectories of {ensemble.n_traj}; "
            "statistics need at least 2"
        )
    variables = ensemble.variables()
    out = {}
    for name in names or variables:
        dev = variables[name][keep]
        mean = dev.mean(axis=0)
        dev -= mean
        m4 = np.power(dev, 4).mean(axis=0) if se_variance else None
        var = np.square(dev, out=dev).sum(axis=0) / (n - 1)
        out[name] = VariableStats(
            mean=mean,
            variance=var,
            se_mean=np.sqrt(var / n),
            se_variance=(np.sqrt(np.maximum(m4 - var**2 * (n - 3) / (n - 1), 0.0) / n)
                         if se_variance else None),
            n_used=n,
        )
    return out
