"""Fock-space output state and phase densities against RK4, offset-sum and closed-form oracles."""

import math

import numpy as np
import pytest
from scipy.special import erf, gammaln

from phasediff import (
    AmplifierParams,
    CoherentInput,
    FockState,
    GuardTripError,
    eta,
    evolve_density_series,
    fock_cutoff,
    mean_photon,
    p_function_phase_density,
    pegg_barnett_distribution,
    photon_variance,
)
from phasediff.distributions import _check_band, _chernoff_count_cutoff, _erf, _log_factorials

IDEAL_1 = AmplifierParams(1.0, 0.0)
LOSSY = AmplifierParams(1.0, 0.3)


def random_params(rng):
    ku = rng.uniform(0.5, 2.0)
    kd = rng.uniform(0.0, 0.5) * ku * rng.integers(0, 2)  # half the cases lossless
    return AmplifierParams(ku, kd)


def rk4_master_equation(params, input, cutoff_s, times):
    """Offset bands from classical RK4 on the truncated master equation.

    The band B[k, n] = rho[n+k, n] is stepped with the cutoff-truncated gain
    and loss operators, which keeps the trace at 1 on the truncated space: the
    top level neither decays nor feeds out under gain.  Offsets whose initial
    entries are all below 1e-17 are left out (the generator never couples
    offsets).  The step is capped for stability of explicit RK4 on the
    amplification chain, whose field of values reaches ~2 (kappa_up +
    kappa_down) d.  Slow: use small cutoffs.
    """
    d = cutoff_s + 1
    n = np.arange(d)
    c = np.exp(-input.amplitude_sq / 2 + n * np.log(input.amplitude_sq) / 2 - gammaln(n + 1) / 2)
    c = c * np.exp(1j * n * input.theta)
    c /= np.linalg.norm(c)
    kmax = d - 1
    for k in range(d):
        if np.abs(c[k:] * c[: d - k].conj()).max() < 1e-17:
            kmax = min(k + 8, d - 1)
            break

    kk = np.arange(kmax + 1)[:, None].astype(float)
    nn = n[None, :].astype(float)
    valid = nn <= d - 1 - kk
    f_row = np.where(nn + kk < d - 1, nn + kk + 1.0, 0.0)
    f_col = np.where(nn < d - 1, nn + 1.0, 0.0)
    c_loss = np.where(nn <= d - 2 - kk, params.kappa_down * np.sqrt((nn + kk + 1) * (nn + 1)), 0.0)
    c_gain = np.where((nn >= 1) & valid, params.kappa_up * np.sqrt((nn + kk) * nn), 0.0)
    c_decay = np.where(
        valid, -0.5 * (params.kappa_down * (2 * nn + kk) + params.kappa_up * (f_row + f_col)), 0.0
    )

    def rhs(band):
        out = c_decay * band
        out[:, :-1] += c_loss[:, :-1] * band[:, 1:]
        out[:, 1:] += c_gain[:, 1:] * band[:, :-1]
        return out

    band = np.zeros((kmax + 1, d), dtype=complex)
    for k in range(kmax + 1):
        band[k, : d - k] = c[k:] * c[: d - k].conj()
    dt = min(1e-3 / params.kappa_up, 2.5 / (2.0 * (params.kappa_up + params.kappa_down) * d))
    out, t_now = [], 0.0
    for t in times:
        steps = max(1, int(np.ceil((t - t_now) / dt - 1e-12)))
        h = (t - t_now) / steps
        for _ in range(steps if t > t_now else 0):
            k1 = rhs(band)
            k2 = rhs(band + 0.5 * h * k1)
            k3 = rhs(band + 0.5 * h * k2)
            k4 = rhs(band + h * k3)
            band = band + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_now = t
        out.append(band)
    return out


def coherent_state(input, cutoff_s):
    """Truncated coherent-state density matrix, renormalized to unit trace.

    The amplitudes come from the recurrence c_n = c_(n-1) alpha / sqrt(n),
    not from the log-gamma form the package uses.
    """
    alpha = np.sqrt(input.amplitude_sq) * np.exp(1j * input.theta)
    c = np.empty(cutoff_s + 1, dtype=complex)
    c[0] = np.exp(-input.amplitude_sq / 2)
    for n in range(1, cutoff_s + 1):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    c /= np.linalg.norm(c)
    return np.outer(c, c.conj())


def pegg_barnett_by_offsets(rho, phi_0):
    """Pegg-Barnett density summed offset by offset from the dense matrix."""
    d = len(rho)
    phi = phi_0 + 2 * np.pi * np.arange(d) / d
    dens = np.full(d, np.trace(rho).real)
    for k in range(1, d):
        dens += 2 * (np.trace(rho, offset=-k) * np.exp(-1j * k * phi)).real
    return np.maximum(dens / (2 * np.pi), 0.0)


def band_of(rho, kmax):
    """Offset band of a dense matrix, zero past the cutoff."""
    d = len(rho)
    band = np.zeros((kmax + 1, d), dtype=complex)
    for k in range(kmax + 1):
        band[k, : d - k] = np.diagonal(rho, -k)
    return band


def evolve(params, input, cutoff_s, t):
    return evolve_density_series(params, input, cutoff_s, [t])[0]


def photon_moments(state):
    p = state.band[0].real
    n = np.arange(len(p))
    mean = (n * p).sum()
    return p.sum(), mean, ((n - mean) ** 2 * p).sum()


class TestClosedFormAgainstRk4:
    @pytest.mark.parametrize(
        "params, input, times",
        [
            (IDEAL_1, CoherentInput(2.25, np.pi), [0.3, 0.8]),
            (LOSSY, CoherentInput(3.0, 0.7), [0.2, 0.7]),
            (AmplifierParams(2.0, 0.0), CoherentInput(6.0, -1.2), [0.1, 0.25]),
        ],
    )
    def test_density_and_pegg_barnett_agree(self, params, input, times):
        cutoff = fock_cutoff(params, input, times[-1])
        states = evolve_density_series(params, input, cutoff, times)
        for state, band in zip(states, rk4_master_equation(params, input, cutoff, times)):
            assert state.band.shape == band.shape
            assert np.abs(state.band - band).max() < 1e-10
            oracle = FockState(cutoff_s=cutoff, band=band)
            pb = pegg_barnett_distribution(state, input.theta - np.pi).density
            pb_oracle = pegg_barnett_distribution(oracle, input.theta - np.pi).density
            assert np.abs(pb - pb_oracle).max() < 1e-10

    def test_times_are_independent(self):
        inp = CoherentInput(2.25, 0.4)
        series = evolve_density_series(LOSSY, inp, 80, [0.6, 0.1, 0.3])
        for t, state in zip([0.6, 0.1, 0.3], series):
            np.testing.assert_array_equal(state.band, evolve(LOSSY, inp, 80, t).band)


class TestPhotonStatistics:
    def test_trace_mean_and_variance_match_closed_forms(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            params = random_params(rng)
            inp = CoherentInput(rng.uniform(0.5, 8.0), rng.uniform(-np.pi, np.pi))
            t = rng.uniform(0.05, 1.5)
            state = evolve(params, inp, fock_cutoff(params, inp, t), t)
            trace, mean, var = photon_moments(state)
            assert trace == pytest.approx(1.0, abs=1e-12)
            assert mean == pytest.approx(mean_photon(params, inp.amplitude_sq, t), rel=1e-9)
            # photon_variance is the normally ordered (phase-space) variance; the
            # quantum number variance adds the shot-noise term <N>
            want = photon_variance(params, inp, t) + mean_photon(params, inp.amplitude_sq, t)
            assert var == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("t", [0.0, 1e-9])
    def test_small_time_is_the_coherent_input(self, t):
        inp = CoherentInput(3.0, 1.1)
        for params in (IDEAL_1, LOSSY):
            state = evolve(params, inp, 60, t)
            np.testing.assert_allclose(state.rho, coherent_state(inp, 60), rtol=0, atol=1e-8)
        if t == 0.0:
            exact = evolve(LOSSY, inp, 60, 0.0).rho
            assert np.abs(exact - coherent_state(inp, 60)).max() < 1e-15

    @pytest.mark.parametrize(
        "params, amplitude_sq, t, tail",
        [
            (IDEAL_1, 2.25, 1.0, 1e-10),
            (IDEAL_1, 6.0, 2.0, 1e-8),
            (LOSSY, 3.0, 1.5, 1e-10),
            (AmplifierParams(2.0, 0.5), 0.5, 0.7, 1e-12),
        ],
    )
    def test_fock_cutoff_tail_is_below_bound(self, params, amplitude_sq, t, tail):
        inp = CoherentInput(amplitude_sq, 0.0)
        s = fock_cutoff(params, inp, t, tail)
        populations = evolve(params, inp, 2 * s, t).band[0].real
        assert populations[s + 1:].sum() <= tail

    @pytest.mark.parametrize("thermal", [1e3, 1e8, 4.85e8, 1e12])
    def test_cutoff_search_stays_below_the_pole(self, thermal):
        # from a thermal part of about 1e8 on (kappa_minus t = 18.4 at r = 1) a
        # zeta grid starting at 1e-8 would lie past the pole at 1/thermal.  A
        # thermal count has P(X > s) = (n / (1 + n))^(s + 1) exactly; the
        # Chernoff cutoff bounds it, 1.187 times the exact one at each n here
        s = _chernoff_count_cutoff(0.0, thermal, 1e-10)
        exact = math.ceil(math.log(1e10) / math.log1p(1.0 / thermal)) - 1
        assert exact <= s <= 1.2 * exact


class TestGuards:
    def test_small_cutoff_trips_top_population_guard(self):
        with pytest.raises(GuardTripError, match="top Fock level"):
            evolve_density_series(IDEAL_1, CoherentInput(2.25, 0.0), 8, [4.0])

    def test_guard_counts_population_past_the_cutoff(self):
        inp = CoherentInput(2.25, 0.0)
        p = evolve(IDEAL_1, inp, 400, 2.0).band[0].real
        at_or_past = p[::-1].cumsum()[::-1]
        # a cutoff whose top level alone passes but whose escaped population does not
        s = int(np.flatnonzero((p < 1e-6) & (at_or_past > 2e-6))[0])
        with pytest.raises(GuardTripError, match="top Fock level"):
            evolve(IDEAL_1, inp, s, 2.0)
        evolve(IDEAL_1, inp, fock_cutoff(IDEAL_1, inp, 2.0), 2.0)

    def test_band_edge_guard(self):
        band = np.zeros((6, 20), dtype=complex)
        band[0, 0] = 1.0
        _check_band(band, 20, 1.0, 0.0)
        band[-1, 3] = 1e-9
        with pytest.raises(GuardTripError, match="band edge"):
            _check_band(band, 20, 1.0, 0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            evolve_density_series(IDEAL_1, CoherentInput(1.0), 40, [0.1, -0.1])


class TestFockState:
    def test_rejects_malformed_bands(self):
        good = band_of(coherent_state(CoherentInput(2.0, 0.3), 30), 12)
        FockState(cutoff_s=30, band=good)
        for shape in ((13, 30), (13, 32), (32, 31), (31,), (0, 31)):
            with pytest.raises(ValueError, match="band must be"):
                FockState(cutoff_s=30, band=np.zeros(shape, dtype=complex))
        cases = {
            "diagonal must be real": (0, 2, 1e-11j),
            "past the cutoff": (12, 25, 1e-300),
            "trace must be 1": (0, 5, 1e-8),
        }
        for message, (k, n, delta) in cases.items():
            bad = good.copy()
            bad[k, n] += delta
            with pytest.raises(ValueError, match=message):
                FockState(cutoff_s=30, band=bad)

    def test_dense_view_is_the_band_and_exactly_hermitian(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            params = random_params(rng)
            inp = CoherentInput(rng.uniform(0.5, 8.0), rng.uniform(-np.pi, np.pi))
            t = rng.uniform(0.05, 1.5)
            state = evolve(params, inp, fock_cutoff(params, inp, t), t)
            rho = state.rho
            d = state.cutoff_s + 1
            kmax = state.band.shape[0] - 1
            for k in range(kmax + 1):
                np.testing.assert_array_equal(np.diagonal(rho, -k), state.band[k, : d - k])
            assert not np.any(np.tril(rho, -kmax - 1))
            np.testing.assert_array_equal(rho, rho.conj().T)


class TestPhaseDensities:
    def test_pegg_barnett_is_normalized(self):
        inp = CoherentInput(2.25, 0.3)
        for params, t in ((IDEAL_1, 0.5), (LOSSY, 1.0)):
            pb = pegg_barnett_distribution(evolve(params, inp, fock_cutoff(params, inp, t), t), -2.0)
            assert pb.density.sum() * pb.spacing == pytest.approx(1.0, abs=1e-12)

    def test_fft_matches_the_offset_sums(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            params = random_params(rng)
            inp = CoherentInput(rng.uniform(0.5, 8.0), rng.uniform(-np.pi, np.pi))
            t = rng.uniform(0.05, 1.5)
            phi_0 = rng.uniform(-np.pi, np.pi)
            state = evolve(params, inp, fock_cutoff(params, inp, t), t)
            pb = pegg_barnett_distribution(state, phi_0).density
            assert np.abs(pb - pegg_barnett_by_offsets(state.rho, phi_0)).max() < 1e-13

    def test_fft_matches_the_offset_sums_on_a_full_width_band(self):
        rng = np.random.default_rng(19)
        for cutoff in (8, 33, 64):
            a = rng.normal(size=(cutoff + 1, 3)) + 1j * rng.normal(size=(cutoff + 1, 3))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            state = FockState(cutoff_s=cutoff, band=band_of(rho, cutoff))
            phi_0 = rng.uniform(-np.pi, np.pi)
            pb = pegg_barnett_distribution(state, phi_0).density
            assert np.abs(pb - pegg_barnett_by_offsets(rho, phi_0)).max() < 1e-13

    def test_p_function_is_normalized_and_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            params = AmplifierParams(rng.uniform(0.5, 2.0))
            inp = CoherentInput(rng.uniform(0.2, 10.0), rng.uniform(-np.pi, np.pi))
            t = rng.uniform(0.05, 3.0)
            grid = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
            p = p_function_phase_density(params, inp, t, grid)
            assert p.sum() * (grid[1] - grid[0]) == pytest.approx(1.0, abs=1e-10)
            d = rng.uniform(0.0, np.pi, 64)
            np.testing.assert_allclose(
                p_function_phase_density(params, inp, t, inp.theta + d),
                p_function_phase_density(params, inp, t, inp.theta - d),
                rtol=1e-12, atol=1e-15,
            )

    @pytest.mark.parametrize("kappa_down", [0.0, 0.3, 0.8])
    def test_eta_is_the_signal_to_noise_ratio_of_the_fock_state(self, kappa_down):
        # eta = |<a>|^2 / nbar with nbar = <N> - |<a>|^2 the thermal occupation
        params = AmplifierParams(1.0, kappa_down)
        inp = CoherentInput(3.0, 0.6)
        for t in (0.2, 1.0, 2.5):
            state = evolve(params, inp, fock_cutoff(params, inp, t), t)
            n = np.arange(state.cutoff_s + 1)
            a_mean = (np.sqrt(n + 1) * state.band[1]).sum()
            n_mean = (n * state.band[0].real).sum()
            signal = abs(a_mean) ** 2
            assert eta(params, inp.amplitude_sq, t) == pytest.approx(
                signal / (n_mean - signal), rel=1e-9)

    def test_lossy_p_function_approaches_pegg_barnett(self):
        # with loss the P-function density still converges to the Fock
        # reference as the gain grows
        params, inp = LOSSY, CoherentInput(6.0, 0.0)
        times = [0.3, 3.0]
        cutoff = fock_cutoff(params, inp, times[-1])
        distances = []
        for t, state in zip(times, evolve_density_series(params, inp, cutoff, times)):
            pb = pegg_barnett_distribution(state, inp.theta - np.pi)
            p = p_function_phase_density(params, inp, t, pb.phi_grid)
            distances.append(np.abs(p - pb.density).sum() * pb.spacing)
        assert distances[-1] < distances[0] / 10

    def test_p_function_tends_to_uniform_as_eta_vanishes(self):
        grid = np.linspace(-np.pi, np.pi, 257)
        previous = np.inf
        for amplitude_sq in (1e-2, 1e-4, 1e-6, 1e-8):
            inp = CoherentInput(amplitude_sq, 0.5)
            assert eta(IDEAL_1, amplitude_sq, 2.0) < 2 * amplitude_sq
            dev = np.abs(p_function_phase_density(IDEAL_1, inp, 2.0, grid) - 1 / (2 * np.pi)).max()
            assert dev < previous
            previous = dev
        assert previous < 1e-4


def ulps(a, b):
    """|a - b| in units in the last place of the larger magnitude."""
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


class TestScipyFreeHelpers:
    """math.lgamma and math.erf, as the package uses them, against scipy.special."""

    def test_log_factorials_match_gammaln(self):
        # j up to 4,999 covers n + k <= 2 cutoff_s at cutoffs to 2,499; seen: at most 4 ulp
        log_fact = _log_factorials(5000)
        assert log_fact[0] == log_fact[1] == 0.0
        assert ulps(log_fact, gammaln(np.arange(5000) + 1.0)).max() <= 4

    def test_erf_matches_scipy(self):
        x = np.linspace(-8.0, 8.0, 200_001)  # seen: at most 3 ulp
        assert ulps(_erf(x), erf(x)).max() <= 4
        assert _erf(x[:6].reshape(2, 3)).shape == (2, 3)
        assert _erf(np.asarray(0.5)).shape == ()
