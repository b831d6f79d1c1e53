"""Trajectory engine: reproducibility, guards, statistics, convergence."""

import dataclasses
import functools
import logging
import math
import mmap
import os
import signal

import numpy as np
import pytest
import scipy.special
import scipy.stats

from phasediff import _fork, sde
from phasediff import (
    AmplifierParams,
    CoherentInput,
    GuardTripError,
    SdeConfig,
    TrajectoryEnsemble,
    ensemble_stats,
    eta,
    mean_inverse,
    mean_photon,
    p_function_phase_density,
    photon_variance,
    simulate_inverse,
    simulate_polar,
    small_noise_phase_variance,
)

IDEAL_1 = AmplifierParams(1.0, 0.0)
IDEAL_2 = AmplifierParams(2.0, 0.0)


def small_cfg(**kw):
    base = dict(dt=1e-3, t_max=0.5, n_traj=64, master_seed=42, record_every=50)
    base.update(kw)
    return SdeConfig(**base)


def oracle_increments(config, indices, thin=1):
    """Each trajectory's whole stream in one draw, shape (len(indices), n_steps, 2).

    With thin > 1 each increment sums `thin` consecutive draws, scaled by
    sqrt(dt / thin): the Brownian path of the same stream at step dt / thin,
    seen every thin-th step (common random numbers for step refinement).
    """
    n_steps = config.n_steps
    out = np.empty((len(indices), n_steps, 2))
    for j, idx in enumerate(indices):
        rng = np.random.default_rng(np.random.SeedSequence([int(config.master_seed), int(idx)]))
        out[j] = rng.standard_normal((n_steps * thin, 2)).reshape(n_steps, thin, 2).sum(axis=1)
    out *= np.sqrt(config.dt / thin)
    return out


def oracle_polar_stepper(params, input, config, dw, rec_mask, chunk_paths, guard_counts):
    ku, km = params.kappa_up, params.kappa_minus
    dt, floor = config.dt, config.floor_epsilon
    m = dw.shape[0]
    n_val = np.full(m, float(input.amplitude_sq))
    phi_val = np.full(m, np.pi)
    n_store, phi_store = chunk_paths
    rec = 0
    n_store[:, 0] = n_val
    phi_store[:, 0] = phi_val
    trips = np.zeros(m, dtype=np.int64)
    for k in range(config.n_steps):
        phi_val = phi_val + np.sqrt(ku / (2.0 * n_val)) * dw[:, k, 1]
        n_val = n_val + (ku + km * n_val) * dt + np.sqrt(2.0 * ku * n_val) * dw[:, k, 0]
        below = n_val < floor
        if below.any():
            trips += below
            n_val = np.maximum(n_val, floor)
        if rec_mask[k + 1]:
            rec += 1
            n_store[:, rec] = n_val
            phi_store[:, rec] = phi_val
    guard_counts += trips


def oracle_inverse_stepper(params, input, config, dw, rec_mask, chunk_paths, guard_counts,
                           cube=lambda u: u * u * u):
    ku, km = params.kappa_up, params.kappa_minus
    dt, floor = config.dt, config.floor_epsilon
    ceil = 1.0 / floor
    m = dw.shape[0]
    u_val = np.full(m, 1.0 / float(input.amplitude_sq))
    (u_store,) = chunk_paths
    rec = 0
    u_store[:, 0] = u_val
    trips = np.zeros(m, dtype=np.int64)
    for k in range(config.n_steps):
        u_val = (
            u_val
            - (km * u_val - ku * u_val**2) * dt
            - np.sqrt(2.0 * ku * cube(u_val)) * dw[:, k, 0]
        )
        outside = (u_val < floor) | (u_val > ceil)
        if outside.any():
            trips += outside
            u_val = np.clip(u_val, floor, ceil)
        if rec_mask[k + 1]:
            rec += 1
            u_store[:, rec] = u_val
    guard_counts += trips


def oracle_simulate(params, input, config, stepper, n_vars, thin=1):
    """Whole-stream noise and strided stepping in chunks of 512 trajectories."""
    ks = config.recorded_steps()
    rec_mask = np.zeros(config.n_steps + 1, dtype=bool)
    rec_mask[ks] = True
    n = config.n_traj
    paths = [np.empty((n, len(ks))) for _ in range(n_vars)]
    guard_counts = np.zeros(n, dtype=np.int64)
    for start in range(0, n, 512):
        block = slice(start, min(start + 512, n))
        dw = oracle_increments(config, np.arange(start, block.stop), thin)
        stepper(params, input, config, dw, rec_mask,
                [p[block] for p in paths], guard_counts[block])
    return paths, guard_counts


# (simulator, oracle stepper, path fields, input, floor): both floors are
# touched by several trajectories, so guard counts and aborts are compared too
ENGINES = {
    "polar": (simulate_polar, oracle_polar_stepper, ("n_paths", "phi_paths"),
              CoherentInput(1.2), 1.0),
    "inverse": (simulate_inverse, oracle_inverse_stepper, ("upsilon_paths",),
                CoherentInput(1.2), 0.4),
}


def with_oracle_moments(ensemble):
    """A copy of ensemble whose moments the oracle reduced from its stored paths.

    Each stored variable's non-aborted rows go through the workers' own tiles
    and tree (sde._reduce_rows, sde._root), so a simulation's moments equal
    these bit for bit; hand-built ensembles get their statistics this way.
    """
    kept = ~ensemble.aborted
    n_tiles = -(-ensemble.n_traj // sde._TILE)
    moments = {}
    for name, paths in ensemble.variables().items():
        tree = {}
        sde._reduce_rows(paths, kept, 0, tree, n_tiles)
        moments[name] = sde._root(tree)
    return dataclasses.replace(ensemble, moments=moments)


class StepperFailed(Exception):
    pass


def stepper_calling(action, at_block):
    """A polar stepper that calls action() when it reaches block at_block."""
    real_stepper = sde._polar_stepper

    def stepper(params, input, config, blocks, *rest):
        def interrupted(blocks):
            for i, dw in enumerate(blocks):
                if i == at_block:
                    action()
                yield dw
        real_stepper(params, input, config, interrupted(blocks), *rest)

    return stepper


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def set_batch(monkeypatch):
    """Sets the engine's batch width, SdeConfig.chunk_size (rounded up to whole tiles)."""
    def set_batch(n):
        monkeypatch.setattr(SdeConfig, "chunk_size", n)
    return set_batch


def owner(a):
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


class TestEngineMatchesOracle:
    """Worker ranges, time blocks and batch width change no bit of any output."""

    @staticmethod
    def config(**kw):
        # 23 steps, recorded every 4th step plus the last
        base = dict(dt=0.01, t_max=0.23, n_traj=12, master_seed=2024, record_every=4)
        base.update(kw)
        return SdeConfig(**base)

    @pytest.fixture
    def set_workers(self, monkeypatch):
        """Sets the engine's worker count for the 12-trajectory config (up to 3)."""
        def set_workers(n):
            monkeypatch.setattr(_fork, "_WORKERS", n)
            monkeypatch.setattr(sde, "_TILE", 4)
        return set_workers

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("refine", [1, 3])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 5, 26])
    @pytest.mark.parametrize("batch", [1, 7, None])
    def test_bit_identical(self, monkeypatch, set_workers, set_batch, engine, refine, workers,
                           block, batch):
        # refine = 3 steps the same span at dt / 3 (69 steps, recorded every
        # 12th), so block 26 also cuts the stream into uneven blocks; batch 1
        # and 7 step tiles of 4 one and two at a time, None keeps the default
        simulate, stepper, fields, inp, floor = ENGINES[engine]
        set_workers(workers)
        if batch is not None:
            set_batch(batch)
        monkeypatch.setattr(sde, "_BLOCK_STEPS", block)
        cfg = self.config(dt=0.01 / refine, record_every=4 * refine, floor_epsilon=floor)
        assert cfg.n_steps == 23 * refine
        assert block in (1, 5, 23 + 3)
        ens = simulate(IDEAL_2, inp, cfg)
        paths, guard_counts = oracle_simulate(IDEAL_2, inp, cfg, stepper, len(fields))
        for name, want in zip(fields, paths):
            assert np.array_equal(getattr(ens, name), want), name
        assert np.array_equal(ens.guard_counts, guard_counts)
        assert np.array_equal(ens.aborted, guard_counts > 0)
        assert ens.aborted.any() and not ens.aborted.all()
        assert np.array_equal(ens.times, cfg.recorded_steps() * cfg.dt)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_statistics_independent_of_workers_and_batches(self, set_workers, set_batch,
                                                            engine):
        # 40 trajectories in 10 tiles of 4: two workers finish uneven subtrees
        # (tiles 0-3 and 4; 5, 6-7 and 8-9) that the calling process completes
        simulate, _, fields, inp, floor = ENGINES[engine]
        names = [f.removesuffix("_paths") for f in fields]
        set_workers(1)
        cfg = self.config(n_traj=40, floor_epsilon=floor)
        stored = simulate(IDEAL_2, inp, cfg, reduce=())
        assert stored.aborted.any() and not stored.aborted.all()
        want = ensemble_stats(with_oracle_moments(stored))
        for workers in (1, 2, 3):
            set_workers(workers)
            for batch in (7, 32, 4096):
                set_batch(batch)
                ens = simulate(IDEAL_2, inp, self.config(n_traj=40, floor_epsilon=floor),
                               store=(), reduce=names)
                assert np.array_equal(ens.guard_counts, stored.guard_counts)
                got = ensemble_stats(ens)
                for name in names:
                    for field in ("mean", "variance", "se_mean", "se_variance"):
                        assert np.array_equal(getattr(got[name], field),
                                              getattr(want[name], field)), (workers, field)

    @pytest.mark.parametrize("workers, batch, largest", [(2, 4096, 0), (1, 5, 8)])
    def test_statistics_only_run_maps_no_paths_in_the_caller(self, monkeypatch, set_workers,
                                                              set_batch, workers, batch,
                                                              largest):
        # forked workers map their batches in the child; in-process, the batch
        # buffer is the batch width rounded up to whole tiles of 4, not n_traj
        set_workers(workers)
        set_batch(batch)
        shapes = []
        real_mapped = sde._mapped

        def recording_mapped(*shape, **kw):
            shapes.append(shape)
            return real_mapped(*shape, **kw)

        monkeypatch.setattr(sde, "_mapped", recording_mapped)
        cfg = self.config(n_traj=40)
        ens = simulate_polar(IDEAL_2, CoherentInput(3.0), cfg, store=(), reduce=("phi",))
        assert ens.n_paths is None and ens.phi_paths is None and ens.upsilon_paths is None
        assert ens.variables() == {} and list(ens.moments) == ["phi"]
        m = len(cfg.recorded_steps())
        rows = [shape[0] for shape in shapes if shape[1:] == (m,)]
        assert max(rows, default=0) == largest
        assert (40,) in shapes  # the guard counts

    def test_unknown_variable_is_refused(self):
        with pytest.raises(ValueError, match="unknown variable 'upsilon'"):
            simulate_polar(IDEAL_2, CoherentInput(3.0), self.config(), reduce=("upsilon",))
        with pytest.raises(ValueError, match="unknown variable 'n'"):
            simulate_inverse(IDEAL_2, CoherentInput(3.0), self.config(), store=("n",))
        reduced = simulate_polar(IDEAL_2, CoherentInput(3.0), self.config(), store=(),
                                 reduce=("phi",))
        with pytest.raises(ValueError, match=r"unknown variable 'n'; .* \('phi',\)"):
            ensemble_stats(reduced, "n")
        polar = simulate_polar(IDEAL_2, CoherentInput(3.0), self.config())
        with pytest.raises(ValueError, match=r"unknown variable 'upsilon'; .* \('n', 'phi'\)"):
            ensemble_stats(polar, "upsilon")
        stored = simulate_polar(IDEAL_2, CoherentInput(3.0), self.config(), reduce=())
        assert sorted(stored.variables()) == ["n", "phi"]
        with pytest.raises(ValueError, match=r"unknown variable 'n'; this ensemble reduced \(\)"):
            ensemble_stats(stored, "n")  # stored paths are never read

    def test_children_reaped_on_return(self, monkeypatch, set_workers):
        set_workers(3)
        forks = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        simulate_polar(IDEAL_2, CoherentInput(3.0), self.config())
        assert len(forks) == 3
        assert_no_children()

    def test_child_error_reaches_caller_and_children_are_reaped(self, monkeypatch, set_workers):
        set_workers(3)

        def fail():
            raise StepperFailed("stepper failed on block 2")

        monkeypatch.setattr(sde, "_BLOCK_STEPS", 5)
        monkeypatch.setattr(sde, "_polar_stepper", stepper_calling(fail, at_block=2))
        with pytest.raises(StepperFailed, match=r"^stepper failed on block 2$"):
            simulate_polar(IDEAL_2, CoherentInput(3.0), self.config())
        assert_no_children()

    def test_killed_child_makes_the_call_raise(self, monkeypatch, set_workers):
        set_workers(2)
        parent = os.getpid()

        def die():
            if os.getpid() == parent:
                raise AssertionError("the stepper ran in the calling process")
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(sde, "_BLOCK_STEPS", 5)
        monkeypatch.setattr(sde, "_polar_stepper", stepper_calling(die, at_block=1))
        with pytest.raises(RuntimeError, match=rf"died \(killed by signal {int(signal.SIGKILL)}\)"):
            simulate_polar(IDEAL_2, CoherentInput(3.0), self.config())
        assert_no_children()

    def test_paths_and_noise_blocks_have_their_own_mappings(self, monkeypatch, set_workers):
        set_workers(1)  # in-process, where the stepper can be watched
        owners = []
        real_stepper = sde._polar_stepper

        def spying_stepper(params, input, config, blocks, *rest):
            def spy(blocks):
                for dw in blocks:
                    owners.append(owner(dw))
                    yield dw
            real_stepper(params, input, config, spy(blocks), *rest)

        monkeypatch.setattr(sde, "_polar_stepper", spying_stepper)
        monkeypatch.setattr(sde, "_BLOCK_STEPS", 5)
        ens = simulate_polar(IDEAL_2, CoherentInput(3.0), self.config())
        assert len(owners) == 5
        assert all(isinstance(o, mmap.mmap) for o in owners)
        assert len({id(o) for o in owners}) == 1  # one noise buffer, reused
        outputs = [ens.n_paths, ens.phi_paths, ens.guard_counts]
        assert all(isinstance(owner(a), mmap.mmap) for a in outputs)
        assert len({id(owner(a)) for a in outputs}) == 3
        # shared: a forked child's writes reach this process
        pid = os.fork()
        if pid == 0:
            try:
                for a in outputs:
                    a[-1, ...] = -7
            finally:
                os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        assert all(np.all(a[-1] == -7) for a in outputs)

    def test_inverse_blocks_hold_only_the_number_noise(self, monkeypatch, set_workers):
        set_workers(1)  # in-process, where the stepper can be watched
        shapes = []
        real_stepper = sde._inverse_stepper

        def spying_stepper(params, input, config, blocks, *rest):
            def spy(blocks):
                for dw in blocks:
                    shapes.append(dw.shape)
                    yield dw
            real_stepper(params, input, config, spy(blocks), *rest)

        monkeypatch.setattr(sde, "_inverse_stepper", spying_stepper)
        monkeypatch.setattr(sde, "_BLOCK_STEPS", 10)
        simulate_inverse(IDEAL_2, CoherentInput(3.0), self.config())
        assert shapes == [(10, 1, 12), (10, 1, 12), (3, 1, 12)]

    def test_cube_stays_within_rounding_of_pow(self):
        # u*u*u in place of libm's u**3 moves paths by rounding only, and no
        # guard trip or abort
        weak, floor = ENGINES["inverse"][3:]
        pow_stepper = functools.partial(oracle_inverse_stepper, cube=lambda u: u**3)
        for inp, cfg in [
            (weak, self.config(floor_epsilon=floor, t_max=2.0, n_traj=40)),
            (CoherentInput(3.0), SdeConfig(dt=5e-4, t_max=2.0, n_traj=200, master_seed=1,
                                           record_every=200)),
        ]:
            ens = simulate_inverse(IDEAL_2, inp, cfg)
            (want,), guard_counts = oracle_simulate(IDEAL_2, inp, cfg, pow_stepper, 1)
            assert ens.guard_counts.any()
            assert np.array_equal(ens.guard_counts, guard_counts)
            assert np.array_equal(ens.aborted, guard_counts > 0)
            np.testing.assert_allclose(ens.upsilon_paths, want, rtol=1e-12, atol=0)

    def test_progress_logged_per_block(self, monkeypatch, caplog, set_workers, set_batch):
        monkeypatch.setattr(sde, "_BLOCK_STEPS", 10)
        set_batch(2)  # rounded up to one tile of 4
        expected = {  # records of each worker's range, in order
            1: [["0-3", "4-7", "8-11"]],
            2: [["0-3"], ["4-7", "8-11"]],  # whole tiles of 4
            3: [["0-3"], ["4-7"], ["8-11"]],
        }
        for n_workers, ranges in expected.items():
            set_workers(n_workers)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="phasediff.sde"):
                simulate_polar(IDEAL_2, CoherentInput(3.0), self.config())
            got = [r.getMessage() for r in caplog.records if r.name == "phasediff.sde"]
            assert len(got) == 3 * 3
            for batches in ranges:
                want = [f"trajectories {b}: {k}/23 steps" for b in batches for k in (10, 20, 23)]
                assert [m for m in got if m in want] == want


class TestReproducibility:
    def test_identical_config_identical_paths(self):
        inp = CoherentInput(3.0)
        a = simulate_polar(IDEAL_1, inp, small_cfg())
        b = simulate_polar(IDEAL_1, inp, small_cfg())
        assert np.array_equal(a.n_paths, b.n_paths)
        assert np.array_equal(a.phi_paths, b.phi_paths)

    def test_chunking_does_not_change_paths(self, set_batch):
        inp = CoherentInput(3.0)
        set_batch(1)  # one tile of 32 per batch
        a = simulate_polar(IDEAL_1, inp, small_cfg())
        set_batch(10_000)
        b = simulate_polar(IDEAL_1, inp, small_cfg())
        assert np.array_equal(a.n_paths, b.n_paths)
        assert np.array_equal(a.phi_paths, b.phi_paths)

    def test_recording_stride_only_thins_the_grid(self):
        inp = CoherentInput(3.0)
        dense = simulate_polar(IDEAL_1, inp, small_cfg(record_every=1))
        thin = simulate_polar(IDEAL_1, inp, small_cfg(record_every=100))
        idx = np.isin(dense.times, thin.times)
        assert np.array_equal(dense.n_paths[:, idx], thin.n_paths)

    def test_polar_and_inverse_share_number_noise(self):
        # both simulators consume the same stream layout
        inp = CoherentInput(5.0)
        cfg = small_cfg(n_traj=16)
        pol = simulate_polar(IDEAL_1, inp, cfg)
        inv = simulate_inverse(IDEAL_1, inp, cfg)
        # one Euler step from the same start through the same increment:
        # 1/N_1 and U_1 agree to O(dt^2)
        assert np.allclose(1.0 / pol.n_paths[:, 1], inv.upsilon_paths[:, 1], atol=5e-3)


class TestPolar:
    def test_deterministic_start(self):
        ens = simulate_polar(IDEAL_2, CoherentInput(3.0), small_cfg())
        assert np.all(ens.n_paths[:, 0] == 3.0)
        assert np.all(ens.phi_paths[:, 0] == np.pi)

    def test_number_moments_match_closed_forms(self):
        cfg = SdeConfig(dt=5e-4, t_max=1.5, n_traj=4000, master_seed=101, record_every=300)
        ens = simulate_polar(IDEAL_2, CoherentInput(3.0), cfg)
        stats = ensemble_stats(ens)["n"]
        keep = ~ens.aborted
        mean = mean_photon(IDEAL_2, 3.0, ens.times)
        z1 = np.abs(stats.mean - mean)[1:] / stats.se_mean[1:]
        assert z1.max() < 3.0
        m2_mc = (ens.n_paths[keep] ** 2).mean(axis=0)
        m2_se = (ens.n_paths[keep] ** 2).std(axis=0, ddof=1) / np.sqrt(keep.sum())
        m2 = photon_variance(IDEAL_2, CoherentInput(3.0), ens.times) + mean**2
        assert (np.abs(m2_mc - m2)[1:] / m2_se[1:]).max() < 3.0

    def test_number_follows_the_exact_law(self):
        """2N(t)/nbar is noncentral chi-square, 2 degrees of freedom, noncentrality 2 eta.

        The pair is the polar form of the complex Ornstein-Uhlenbeck process, so
        N(t) has the CIR transition law (Cox, Ingersoll & Ross, Econometrica 53,
        385 (1985)) with nbar = r (G - 1) and eta = G n0 / nbar.  A KS test on the
        non-aborted paths checks the law, not precision: an oracle with the gain
        rate 5% too high still gave p = 0.05-0.15.  Seen here: no abort,
        p = 0.79, 0.63, 0.23, 0.23; over seeds 1-5 the lowest was 0.041.
        """
        cfg = SdeConfig(dt=1e-3, t_max=1.0, n_traj=2000, master_seed=1, record_every=250)
        n0 = 3.0
        ens = simulate_polar(IDEAL_1, CoherentInput(n0), cfg, store=("n",))
        kept = ~ens.aborted
        for j, t in enumerate(ens.times[1:], start=1):
            gain = np.exp(IDEAL_1.kappa_minus * t)
            nbar = IDEAL_1.noise_ratio * (gain - 1.0)
            law = scipy.stats.ncx2(df=2, nc=2.0 * gain * n0 / nbar)
            assert scipy.stats.kstest(2.0 * ens.n_paths[kept, j] / nbar, law.cdf).pvalue > 0.01, t

    def test_wrapped_phase_variance_is_the_p_function_variance(self):
        """Phi(t) wrapped into [0, 2pi), about the input phase pi, has the P-function density.

        variance-compare physics (ideal, n0 = 2.25), over every
        stored path, aborted or not: the wrapped phase is finite whatever the
        floor does, unlike the unwrapped one.  4,000 paths, seed 1; the oracle
        is a 200,001-point trapezoid of the density.  Seen here: z = -0.99 and
        -0.30; over seeds 1-5 at most 2.8.  Phase noise sqrt(kappa_up / N) in
        place of sqrt(kappa_up / 2N) gives z = 15-18.

        The first circular moment E[cos(Phi - pi)] of that density is
        a1 = Gamma(3/2)/Gamma(2) sqrt(eta) 1F1(1/2; 2; -eta) in closed form
        (a 200,001-point trapezoid of the density matches it within 1.2e-16).
        Seen here: z = 0.55 and 0.44; over seeds 1-5 at most 3.0.  The phase
        noise sqrt(kappa_up / N) gives z = -19.0 and -17.8.
        """
        inp = CoherentInput(2.25)
        cfg = SdeConfig(dt=1e-3, t_max=3.0, n_traj=4000, master_seed=1, record_every=1000)
        ens = simulate_polar(IDEAL_1, inp, cfg, store=("phi",))
        n = cfg.n_traj
        for j, t in ((1, 1.0), (3, 3.0)):
            assert ens.times[j] == pytest.approx(t)
            dev = np.mod(ens.phi_paths[:, j], 2 * np.pi)
            dev -= dev.mean()
            var = (dev**2).sum() / (n - 1)
            se = np.sqrt(((dev**4).mean() - var**2 * (n - 3) / (n - 1)) / n)
            d = np.linspace(-np.pi, np.pi, 200_001)
            density = p_function_phase_density(IDEAL_1, inp, t, np.pi + d)
            exact = np.trapezoid(d**2 * density, d)
            assert abs(var - exact) < 4 * se, (t, var, exact, se)
            e = float(eta(IDEAL_1, inp.amplitude_sq, t))
            a1 = (scipy.special.gamma(1.5) / scipy.special.gamma(2.0) * np.sqrt(e)
                  * scipy.special.hyp1f1(0.5, 2.0, -e))
            cos = np.cos(ens.phi_paths[:, j] - np.pi)
            se_cos = cos.std(ddof=1) / np.sqrt(n)
            assert abs(cos.mean() - a1) < 4 * se_cos, (t, cos.mean(), a1, se_cos)

    def test_phase_mean_constant(self):
        cfg = SdeConfig(dt=1e-3, t_max=3.0, n_traj=2000, master_seed=55, record_every=300)
        ens = simulate_polar(IDEAL_1, CoherentInput(2.25), cfg)
        stats = ensemble_stats(ens)["phi"]
        z = np.abs(stats.mean - np.pi)[1:] / stats.se_mean[1:]
        assert z.max() < 3.0

    def test_phase_variance_bounded_below_by_small_noise(self):
        cfg = SdeConfig(dt=1e-3, t_max=4.0, n_traj=500, master_seed=2, record_every=100)
        inp = CoherentInput(2.25)
        ens = simulate_polar(IDEAL_1, inp, cfg)
        stats = ensemble_stats(ens, "phi")["phi"]
        sn = small_noise_phase_variance(IDEAL_1, inp, ens.times)
        assert np.all(stats.variance >= sn - 3 * stats.se_variance)

    def test_weak_diffusion_freezes_phase(self):
        p = AmplifierParams(0.01, 0.0)
        cfg = SdeConfig(dt=1e-3, t_max=1.0, n_traj=400, master_seed=7, record_every=1000)
        ens = simulate_polar(p, CoherentInput(2.0), cfg)
        v = ensemble_stats(ens)["phi"].variance[-1]
        assert v < 5 * (p.kappa_up * 1.0 / (2 * 2.0))  # ~ kappa_up t / 2 n0


class TestWeakConvergence:
    def test_halving_dt_within_monte_carlo_error(self):
        # common random numbers: the oracle at (dt, each increment the sum of
        # two draws) and the engine at dt/2 share the Brownian path, isolating
        # the discretization difference
        inp = CoherentInput(3.0)
        n = 10_000
        cfg = SdeConfig(dt=2e-3, t_max=1.0, n_traj=n, master_seed=77, record_every=100)
        (n_paths, _), guard_counts = oracle_simulate(IDEAL_1, inp, cfg, oracle_polar_stepper,
                                                     2, thin=2)
        coarse = with_oracle_moments(TrajectoryEnsemble(
            times=cfg.recorded_steps() * cfg.dt, guard_counts=guard_counts, n_paths=n_paths))
        fine = simulate_polar(
            IDEAL_1, inp,
            SdeConfig(dt=1e-3, t_max=1.0, n_traj=n, master_seed=77, record_every=200),
        )
        assert np.allclose(coarse.times, fine.times)
        sc = ensemble_stats(coarse)["n"]
        sf = ensemble_stats(fine)["n"]
        gap = np.abs(sc.mean - sf.mean)[1:]
        se = np.maximum(sc.se_mean, sf.se_mean)[1:]
        assert np.all(gap < se)


class TestInverseProcess:
    def test_initial_value(self):
        ens = simulate_inverse(IDEAL_2, CoherentInput(3.0), small_cfg())
        assert np.all(ens.upsilon_paths[:, 0] == pytest.approx(1.0 / 3.0))

    def test_rejects_weak_input(self):
        with pytest.raises(ValueError):
            simulate_inverse(IDEAL_1, CoherentInput(0.9), small_cfg())

    def test_mean_decreasing_for_ideal_amplifier(self):
        cfg = SdeConfig(dt=5e-4, t_max=2.0, n_traj=500, master_seed=5, record_every=200)
        ens = simulate_inverse(IDEAL_2, CoherentInput(3.0), cfg)
        stats = ensemble_stats(ens)["upsilon"]
        assert np.all(np.diff(stats.mean) < 2 * stats.se_mean[1:])

    def test_tracks_expansion(self):
        cfg = SdeConfig(dt=5e-4, t_max=2.0, n_traj=500, master_seed=5, record_every=200)
        ens = simulate_inverse(IDEAL_2, CoherentInput(3.0), cfg)
        stats = ensemble_stats(ens)["upsilon"]
        k3 = mean_inverse(IDEAL_2, CoherentInput(3.0), 3, ens.times)[-1]
        z = np.abs(stats.mean - k3)[1:] / stats.se_mean[1:]
        assert z.max() < 3.0

    def test_pathwise_consistency_with_mapped_number(self):
        # same Brownian path, so |E[U_direct] - E[1/N]| is discretization
        # difference; away from low-number dips it shrinks with the step
        def gap(amplitude, dt, seed):
            inp = CoherentInput(amplitude)
            cfg = SdeConfig(dt=dt, t_max=1.0, n_traj=400, master_seed=seed,
                            record_every=int(round(0.5 / dt)))
            pol = simulate_polar(IDEAL_2, inp, cfg)
            inv = simulate_inverse(IDEAL_2, inp, cfg)
            keep = ~(pol.aborted | inv.aborted)
            mapped = (1.0 / pol.n_paths[keep]).mean(axis=0)
            direct = inv.upsilon_paths[keep].mean(axis=0)
            return np.abs(mapped - direct).max()

        coarse, fine = gap(8.0, 1e-3, 31), gap(8.0, 1e-4, 31)
        assert coarse < 2e-4
        assert fine < 1e-4
        assert fine < coarse

    def test_statistics_consistent_at_weak_input(self):
        # at the few-photon point the two routes agree within sampling noise
        inp = CoherentInput(3.0)
        cfg = SdeConfig(dt=1e-3, t_max=2.0, n_traj=400, master_seed=31, record_every=250)
        pol = simulate_polar(IDEAL_2, inp, cfg)
        inv = simulate_inverse(IDEAL_2, inp, cfg)
        keep = ~(pol.aborted | inv.aborted)
        mapped = (1.0 / pol.n_paths[keep]).mean(axis=0)
        direct = inv.upsilon_paths[keep].mean(axis=0)
        se = (1.0 / pol.n_paths[keep]).std(axis=0, ddof=1) / np.sqrt(keep.sum())
        assert np.all(np.abs(mapped - direct)[1:] < np.maximum(3 * se[1:], 1e-3))


class TestGuards:
    def test_floor_crossings_abort_and_report(self):
        # weak input close to the floor: dips below are certain
        p = AmplifierParams(2.0, 0.0)
        cfg = SdeConfig(dt=1e-3, t_max=1.0, n_traj=64, master_seed=9,
                        floor_epsilon=1.0, record_every=100)
        ens = simulate_polar(p, CoherentInput(1.2), cfg)
        assert ens.guard_counts.sum() > 0
        assert np.array_equal(ens.aborted, ens.guard_counts > 0)

    def test_stats_need_two_clean_trajectories(self):
        ens = with_oracle_moments(TrajectoryEnsemble(
            times=np.array([0.0, 1.0]),
            guard_counts=np.array([3, 0]),
            n_paths=np.array([[1.0, 1.0], [2.0, 2.0]]),
        ))
        with pytest.raises(GuardTripError):
            ensemble_stats(ens)

    def test_upsilon_ceiling_prevents_overflow(self):
        # seeds where the reciprocal process would otherwise run away
        cfg = SdeConfig(dt=5e-4, t_max=2.0, n_traj=200, master_seed=1, record_every=200)
        ens = simulate_inverse(IDEAL_2, CoherentInput(3.0), cfg)
        assert np.all(np.isfinite(ens.upsilon_paths))
        assert np.all(ens.upsilon_paths <= 1.0 / cfg.floor_epsilon)


def oracle_ensemble_stats(ensemble, fourth=lambda dev: (dev**2) ** 2):
    """The reduction of every variable with its temporaries kept apart."""
    keep = ~ensemble.aborted
    n = int(keep.sum())
    out = {}
    for name, paths in ensemble.variables().items():
        x = paths[keep]
        mean = x.mean(axis=0)
        dev = x - mean
        var = (dev**2).sum(axis=0) / (n - 1)
        m4 = fourth(dev).mean(axis=0)
        se_var = np.sqrt(np.maximum(m4 - var**2 * (n - 3) / (n - 1), 0.0) / n)
        out[name] = dict(mean=mean, variance=var, se_mean=np.sqrt(var / n), se_variance=se_var)
    return n, out


class TestEnsembleStats:
    @staticmethod
    def aborting_ensemble(engine, **kw):
        simulate, _, fields, inp, floor = ENGINES[engine]
        cfg = SdeConfig(dt=0.01, t_max=0.5, n_traj=300, master_seed=8, record_every=5,
                        floor_epsilon=floor)
        ens = simulate(IDEAL_2, inp, cfg, **kw)
        assert ens.aborted.any() and not ens.aborted.all()
        return ens, [f.removesuffix("_paths") for f in fields]

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_stored_paths_match_worker_route_bit_for_bit(self, engine):
        # the oracle reduces the stored paths; the workers reduced them while
        # stepping, with or without storing them
        ens, names = self.aborting_ensemble(engine)
        reduced, _ = self.aborting_ensemble(engine, store=(), reduce=names)
        assert reduced.variables() == {} and sorted(reduced.moments) == sorted(names)
        assert np.array_equal(reduced.guard_counts, ens.guard_counts)
        oracle = with_oracle_moments(ens)
        for name in names:
            for simulated in (ens, reduced):
                got, want = simulated.moments[name], oracle.moments[name]
                assert got.count == want.count == int((~ens.aborted).sum())
                for field in ("mean", "m2", "m3", "m4"):
                    assert np.array_equal(getattr(got, field), getattr(want, field)), field
        for chosen in [(), *[(name,) for name in names]]:
            want = ensemble_stats(oracle, *chosen)
            for simulated in (ens, reduced):
                got = ensemble_stats(simulated, *chosen)
                assert sorted(got) == sorted(want) == sorted(chosen or names)
                for name, stats in got.items():
                    assert stats.n_used == want[name].n_used
                    for field in ("mean", "variance", "se_mean", "se_variance"):
                        assert np.array_equal(getattr(stats, field),
                                              getattr(want[name], field)), field

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_two_pass_oracle_agrees_within_rounding(self, engine):
        # the tile/tree merge and the two-pass reduction round differently:
        # within 5e-14 relative on rows with t > 0 (1.4e-15 seen here, 1.6e-14
        # at 4000 paths); the t = 0 row is the exact start value, mean x0 and
        # every spread 0, so each route's round-off of it is bounded in units of
        # x0 (its square for the second moments): over the 123 kept copies of
        # x0 = pi the oracle's sums miss the mean by 2.0e-15 x0 and the
        # variance by 3.9e-30 x0^2
        ens, _ = self.aborting_ensemble(engine)
        _, want = oracle_ensemble_stats(ens)
        _, with_pow = oracle_ensemble_stats(ens, fourth=lambda dev: dev**4)
        for name, stats in ensemble_stats(ens).items():
            x0 = ens.variables()[name][0, 0]
            for oracle in (want[name], with_pow[name]):
                for field, zero_tol in [("mean", 4e-15 * x0), ("variance", 1e-29 * x0**2),
                                        ("se_mean", 4e-16 * x0), ("se_variance", 1e-31 * x0**2)]:
                    got, ref = getattr(stats, field), oracle[field]
                    np.testing.assert_allclose(got[1:], ref[1:], rtol=5e-14, atol=0)
                    exact = x0 if field == "mean" else 0.0
                    assert abs(got[0] - exact) <= zero_tol, field
                    assert abs(ref[0] - exact) <= zero_tol, field

    def test_constant_paths_have_zero_variance(self):
        ens = with_oracle_moments(TrajectoryEnsemble(
            times=np.array([0.0, 1.0, 2.0]),
            guard_counts=np.zeros(4, dtype=int),
            phi_paths=np.full((4, 3), 1.3),
        ))
        stats = ensemble_stats(ens)["phi"]
        assert np.all(stats.variance == 0.0)
        assert np.all(stats.se_variance == 0.0)
        assert np.all(stats.mean == 1.3)

    def test_phase_variance_levels_off(self):
        cfg = SdeConfig(dt=1e-3, t_max=8.0, n_traj=500, master_seed=2, record_every=400)
        ens = simulate_polar(IDEAL_1, CoherentInput(13.0), cfg)
        v = ensemble_stats(ens)["phi"].variance
        early = v[len(v) // 4] - v[0]
        late = v[-1] - v[3 * len(v) // 4]
        assert late < early / 4

    def test_standard_error_scaling(self):
        inp = CoherentInput(4.0)
        stats = {}
        for n in (500, 2000):  # 4x trajectories -> half the standard error
            cfg = SdeConfig(dt=1e-3, t_max=1.0, n_traj=n, master_seed=3, record_every=100)
            stats[n] = ensemble_stats(simulate_polar(IDEAL_1, inp, cfg))["n"]
        ratio = (stats[500].se_mean[1:] / stats[2000].se_mean[1:]).mean()
        assert 1.7 < ratio < 2.3


class TestConfigValidation:
    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            SdeConfig(dt=0.0, t_max=1.0, n_traj=1, master_seed=0)
        with pytest.raises(ValueError):
            SdeConfig(dt=0.1, t_max=0.05, n_traj=1, master_seed=0)
        with pytest.raises(ValueError, match="whole number of steps"):
            SdeConfig(dt=0.1, t_max=2.05, n_traj=1, master_seed=0)
        with pytest.raises(ValueError):
            SdeConfig(dt=0.1, t_max=1.0, n_traj=0, master_seed=0)
        with pytest.raises(ValueError):
            SdeConfig(dt=0.1, t_max=1.0, n_traj=1, master_seed=-1)
        # refused from the sizes alone, before anything is allocated
        with pytest.raises(ValueError, match="physical memory"):  # a 2e15-byte step mask
            SdeConfig(dt=1e-15, t_max=2.0, n_traj=1, master_seed=0)
        with pytest.raises(ValueError, match="physical memory"):  # 2**63 bytes of guard counts
            SdeConfig(dt=0.1, t_max=1.0, n_traj=2**60, master_seed=0)

    @pytest.mark.parametrize("field, value", [
        ("n_traj", 2.5), ("n_traj", 2.0), ("n_traj", True), ("n_traj", np.int64(2)),
        ("record_every", 2.0), ("record_every", True), ("record_every", 0),
        ("master_seed", 1.5), ("master_seed", False), ("master_seed", "1"),
        ("master_seed", 2**64),
        ("dt", True), ("dt", math.nan), ("dt", "0.1"), ("t_max", math.inf),
        pytest.param("t_max", 10**400, id="t_max-int_past_float"),
        ("floor_epsilon", True), ("floor_epsilon", math.inf), ("floor_epsilon", np.int64(1)),
    ])
    def test_counts_must_be_ints(self, field, value):
        # a float count would fail deep in the engine, and master_seed=1.5 would run as seed 1;
        # dt, t_max and floor_epsilon may be floats, but finite ones: floor_epsilon=inf
        # would run every path into NaN
        kw = dict(dt=0.1, t_max=1.0, n_traj=2, master_seed=0, record_every=1)
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            SdeConfig(**{**kw, field: value})

    def test_batch_width_is_not_a_field(self):
        with pytest.raises(TypeError, match="chunk_size"):
            SdeConfig(dt=0.1, t_max=1.0, n_traj=1, master_seed=0, chunk_size=8)

    def test_final_step_always_recorded(self):
        for every in (1, 7, 250, 300, 1000, 5000):  # 1000 steps, divided evenly or not
            cfg = SdeConfig(dt=1e-3, t_max=1.0, n_traj=1, master_seed=0, record_every=every)
            assert cfg.recorded_steps()[-1] == cfg.n_steps
            assert cfg.n_recorded == len(cfg.recorded_steps())
