"""Trajectory engine: reproducibility, guards, statistics, convergence."""

import logging
import mmap
import os
import signal

import numpy as np
import pytest

from phasediff import sde
from phasediff import (
    AmplifierParams,
    CoherentInput,
    GuardTripError,
    SdeConfig,
    TrajectoryEnsemble,
    ensemble_stats,
    mean_inverse,
    mean_photon,
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


def oracle_increments(config, indices):
    """Each trajectory's whole stream in one draw, shape (len(indices), n_steps, 2)."""
    thin = config.noise_thinning
    n_steps = config.n_steps
    out = np.empty((len(indices), n_steps, 2))
    for j, idx in enumerate(indices):
        rng = np.random.default_rng(np.random.SeedSequence([int(config.master_seed), int(idx)]))
        xi = rng.standard_normal((n_steps * thin, 2))
        if thin == 1:
            out[j] = xi
        else:
            out[j] = xi.reshape(n_steps, thin, 2).sum(axis=1)
    out *= np.sqrt(config.dt / thin)
    return out


def oracle_polar_stepper(params, input, config, dw, rec_mask, chunk_paths, guard_counts):
    ku, km = params.kappa_up, params.kappa_minus
    dt, floor = config.dt, config.floor_epsilon
    m = dw.shape[0]
    n_val = np.full(m, float(input.amplitude_sq))
    phi_val = np.full(m, float(input.theta))
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


def oracle_inverse_stepper(params, input, config, dw, rec_mask, chunk_paths, guard_counts):
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
            - np.sqrt(2.0 * ku * u_val**3) * dw[:, k, 0]
        )
        outside = (u_val < floor) | (u_val > ceil)
        if outside.any():
            trips += outside
            u_val = np.clip(u_val, floor, ceil)
        if rec_mask[k + 1]:
            rec += 1
            u_store[:, rec] = u_val
    guard_counts += trips


def oracle_simulate(params, input, config, stepper, n_vars):
    """Whole-stream noise and strided stepping in chunks of 512 trajectories."""
    ks = config.recorded_steps()
    rec_mask = np.zeros(config.n_steps + 1, dtype=bool)
    rec_mask[ks] = True
    n = config.n_traj
    paths = [np.empty((n, len(ks))) for _ in range(n_vars)]
    guard_counts = np.zeros(n, dtype=np.int64)
    for start in range(0, n, 512):
        block = slice(start, min(start + 512, n))
        dw = oracle_increments(config, np.arange(start, block.stop))
        stepper(params, input, config, dw, rec_mask,
                [p[block] for p in paths], guard_counts[block])
    return paths, guard_counts


# (simulator, oracle stepper, path fields, input, floor): both floors are
# touched by several trajectories, so guard counts and aborts are compared too
ENGINES = {
    "polar": (simulate_polar, oracle_polar_stepper, ("n_paths", "phi_paths"),
              CoherentInput(1.2, 0.4), 1.0),
    "inverse": (simulate_inverse, oracle_inverse_stepper, ("upsilon_paths",),
                CoherentInput(1.2), 0.4),
}


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


def owner(a):
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


class TestEngineMatchesOracle:
    """Worker ranges, time blocks and batch width change no bit of any output."""

    @staticmethod
    def config(**kw):
        # 23 steps, recorded every 4th step plus the last
        base = dict(dt=0.01, t_max=0.23, n_traj=12, master_seed=2024, record_every=4,
                    max_guard_trips=1)
        base.update(kw)
        return SdeConfig(**base)

    @pytest.fixture
    def set_workers(self, monkeypatch):
        """Sets the engine's worker count for the 12-trajectory config (up to 3)."""
        def set_workers(n):
            monkeypatch.setattr(sde, "_WORKERS", n)
            monkeypatch.setattr(sde, "_TILE", 4)
        return set_workers

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("thinning", [1, 3])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 5, 26])
    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_bit_identical(self, monkeypatch, set_workers, engine, thinning, workers, block, chunk_size):
        simulate, stepper, fields, inp, floor = ENGINES[engine]
        set_workers(workers)
        monkeypatch.setattr(sde, "_BLOCK_STEPS", block)
        kw = {} if chunk_size is None else {"chunk_size": chunk_size}
        cfg = self.config(noise_thinning=thinning, floor_epsilon=floor, **kw)
        assert block in (1, 5, cfg.n_steps + 3)
        ens = simulate(IDEAL_2, inp, cfg)
        paths, guard_counts = oracle_simulate(IDEAL_2, inp, cfg, stepper, len(fields))
        for name, want in zip(fields, paths):
            assert np.array_equal(getattr(ens, name), want), name
        assert np.array_equal(ens.guard_counts, guard_counts)
        assert np.array_equal(ens.aborted, guard_counts > cfg.max_guard_trips)
        assert ens.aborted.any() and not ens.aborted.all()
        assert np.array_equal(ens.times, cfg.recorded_steps() * cfg.dt)

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

    def test_progress_logged_per_block(self, monkeypatch, caplog, set_workers):
        monkeypatch.setattr(sde, "_BLOCK_STEPS", 10)
        expected = {  # records of each worker's range, in order
            1: [["0-1", "2-3", "4-5", "6-7", "8-9", "10-11"]],
            2: [["0-1", "2-3", "4-5"], ["6-7", "8-9", "10-11"]],
            3: [["0-1", "2-3"], ["4-5", "6-7"], ["8-9", "10-11"]],
        }
        for n_workers, ranges in expected.items():
            set_workers(n_workers)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="phasediff.sde"):
                simulate_polar(IDEAL_2, CoherentInput(3.0), self.config(chunk_size=2))
            got = [r.getMessage() for r in caplog.records if r.name == "phasediff.sde"]
            assert len(got) == 6 * 3
            for batches in ranges:
                want = [f"trajectories {b}: {k}/23 steps" for b in batches for k in (10, 20, 23)]
                assert [m for m in got if m in want] == want


class TestReproducibility:
    def test_identical_config_identical_paths(self):
        inp = CoherentInput(3.0, 0.3)
        a = simulate_polar(IDEAL_1, inp, small_cfg())
        b = simulate_polar(IDEAL_1, inp, small_cfg())
        assert np.array_equal(a.n_paths, b.n_paths)
        assert np.array_equal(a.phi_paths, b.phi_paths)

    def test_chunking_does_not_change_paths(self):
        inp = CoherentInput(3.0)
        a = simulate_polar(IDEAL_1, inp, small_cfg(chunk_size=1))
        b = simulate_polar(IDEAL_1, inp, small_cfg(chunk_size=10_000))
        assert np.array_equal(a.n_paths, b.n_paths)
        assert np.array_equal(a.phi_paths, b.phi_paths)

    def test_recording_stride_only_thins_the_grid(self):
        inp = CoherentInput(3.0)
        dense = simulate_polar(IDEAL_1, inp, small_cfg(record_every=1))
        thin = simulate_polar(IDEAL_1, inp, small_cfg(record_every=100))
        idx = np.isin(dense.times, thin.times)
        assert np.array_equal(dense.n_paths[:, idx], thin.n_paths)

    def test_seed_labels(self):
        ens = simulate_polar(IDEAL_1, CoherentInput(2.0), small_cfg(n_traj=5))
        assert ens.seeds.tolist() == [[42, i] for i in range(5)]

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
        ens = simulate_polar(IDEAL_2, CoherentInput(3.0, 0.7), small_cfg())
        assert np.all(ens.n_paths[:, 0] == 3.0)
        assert np.all(ens.phi_paths[:, 0] == 0.7)

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

    def test_phase_mean_constant(self):
        cfg = SdeConfig(dt=1e-3, t_max=3.0, n_traj=2000, master_seed=55, record_every=300)
        ens = simulate_polar(IDEAL_1, CoherentInput(2.25, np.pi), cfg)
        stats = ensemble_stats(ens)["phi"]
        z = np.abs(stats.mean - np.pi)[1:] / stats.se_mean[1:]
        assert z.max() < 3.0

    def test_phase_variance_bounded_below_by_small_noise(self):
        cfg = SdeConfig(dt=1e-3, t_max=4.0, n_traj=500, master_seed=2, record_every=100)
        inp = CoherentInput(2.25, np.pi)
        ens = simulate_polar(IDEAL_1, inp, cfg)
        stats = ensemble_stats(ens, "phi", se_variance=True)["phi"]
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
        # common random numbers: (dt, thinning 2) and (dt/2, thinning 1)
        # share the Brownian path, isolating the discretization difference
        inp = CoherentInput(3.0)
        n = 10_000
        coarse = simulate_polar(
            IDEAL_1, inp,
            SdeConfig(dt=2e-3, t_max=1.0, n_traj=n, master_seed=77,
                      record_every=100, noise_thinning=2),
        )
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
        relaxed = simulate_polar(
            p, CoherentInput(1.2),
            SdeConfig(dt=1e-3, t_max=1.0, n_traj=64, master_seed=9,
                      floor_epsilon=1.0, record_every=100, max_guard_trips=10**9),
        )
        assert not relaxed.aborted.any()
        assert np.all(relaxed.n_paths >= 1.0)

    def test_stats_need_two_clean_trajectories(self):
        ens = TrajectoryEnsemble(
            times=np.array([0.0, 1.0]),
            seeds=np.array([[0, 0], [0, 1]], dtype=np.uint64),
            guard_counts=np.array([3, 0]),
            aborted=np.array([True, False]),
            n_paths=np.array([[1.0, 1.0], [2.0, 2.0]]),
        )
        with pytest.raises(GuardTripError):
            ensemble_stats(ens)

    def test_upsilon_ceiling_prevents_overflow(self):
        # seeds where the reciprocal process would otherwise run away
        cfg = SdeConfig(dt=5e-4, t_max=2.0, n_traj=200, master_seed=1, record_every=200)
        ens = simulate_inverse(IDEAL_2, CoherentInput(3.0), cfg)
        assert np.all(np.isfinite(ens.upsilon_paths))
        assert np.all(ens.upsilon_paths <= 1.0 / cfg.floor_epsilon)


def oracle_ensemble_stats(ensemble):
    """The reduction of every variable with its temporaries kept apart."""
    keep = ~ensemble.aborted
    n = int(keep.sum())
    out = {}
    for name, paths in ensemble.variables().items():
        x = paths[keep]
        mean = x.mean(axis=0)
        dev = x - mean
        var = (dev**2).sum(axis=0) / (n - 1)
        m4 = (dev**4).mean(axis=0)
        se_var = np.sqrt(np.maximum(m4 - var**2 * (n - 3) / (n - 1), 0.0) / n)
        out[name] = dict(mean=mean, variance=var, se_mean=np.sqrt(var / n), se_variance=se_var)
    return n, out


class TestEnsembleStats:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_matches_oracle_bit_for_bit(self, engine):
        simulate, _, _, inp, floor = ENGINES[engine]
        cfg = SdeConfig(dt=0.01, t_max=0.5, n_traj=300, master_seed=8, record_every=5,
                        floor_epsilon=floor)
        ens = simulate(IDEAL_2, inp, cfg)
        assert ens.aborted.any() and not ens.aborted.all()
        before = {name: paths.copy() for name, paths in ens.variables().items()}
        n, want = oracle_ensemble_stats(ens)
        for names in [(), *[(name,) for name in want]]:
            for with_se in (False, True):
                got = ensemble_stats(ens, *names, se_variance=with_se)
                assert sorted(got) == sorted(names or want)
                for name, stats in got.items():
                    assert stats.n_used == n
                    for field in ("mean", "variance", "se_mean"):
                        assert np.array_equal(getattr(stats, field), want[name][field]), field
                    if with_se:
                        assert np.array_equal(stats.se_variance, want[name]["se_variance"])
                    else:
                        assert stats.se_variance is None
        for name, paths in ens.variables().items():
            assert np.array_equal(paths, before[name])

    def test_constant_paths_have_zero_variance(self):
        ens = TrajectoryEnsemble(
            times=np.array([0.0, 1.0, 2.0]),
            seeds=np.zeros((4, 2), dtype=np.uint64),
            guard_counts=np.zeros(4, dtype=int),
            aborted=np.zeros(4, dtype=bool),
            phi_paths=np.full((4, 3), 1.3),
        )
        stats = ensemble_stats(ens, se_variance=True)["phi"]
        assert np.all(stats.variance == 0.0)
        assert np.all(stats.se_variance == 0.0)
        assert np.all(stats.mean == 1.3)

    def test_phase_variance_levels_off(self):
        cfg = SdeConfig(dt=1e-3, t_max=8.0, n_traj=500, master_seed=2, record_every=400)
        ens = simulate_polar(IDEAL_1, CoherentInput(13.0, np.pi), cfg)
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

    def test_final_step_always_recorded(self):
        cfg = SdeConfig(dt=1e-3, t_max=1.0, n_traj=1, master_seed=0, record_every=300)
        assert cfg.recorded_steps()[-1] == cfg.n_steps
