"""Fock-space output state and phase densities against RK4, offset-sum and closed-form oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import erf, gammaln, pdtrc

from phasediff import (
    AmplifierParams,
    CoherentInput,
    FockState,
    GuardTripError,
    PhaseDensity,
    distribution_variance,
    eta,
    evolve_density_series,
    fock_cutoff,
    gain,
    mean_photon,
    p_function_phase_density,
    pegg_barnett_distribution,
    photon_variance,
)
from phasediff.distributions import (
    CUTOFF_TAIL,
    _band_blocks,
    _band_kmax,
    _check_guards,
    _chernoff_count_cutoff,
    _erf,
    _log_factorials,
    _offset_sums,
)

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
    c = c * np.exp(1j * n * np.pi)
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
    alpha = np.sqrt(input.amplitude_sq) * np.exp(1j * np.pi)
    c = np.empty(cutoff_s + 1, dtype=complex)
    c[0] = np.exp(-input.amplitude_sq / 2)
    for n in range(1, cutoff_s + 1):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    c /= np.linalg.norm(c)
    return np.outer(c, c.conj())


def pegg_barnett_by_offsets(rho):
    """Pegg-Barnett density summed offset by offset from the dense matrix."""
    d = len(rho)
    phi = 2 * np.pi * np.arange(d) / d
    dens = np.full(d, np.trace(rho).real)
    for k in range(1, d):
        dens += 2 * (np.trace(rho, offset=-k) * np.exp(-1j * k * phi)).real
    return np.maximum(dens / (2 * np.pi), 0.0)


def band_of(rho, kmax):
    """Offset band of a dense matrix, zero past the cutoff, in the matrix's dtype."""
    d = len(rho)
    band = np.zeros((kmax + 1, d), dtype=rho.dtype)
    for k in range(kmax + 1):
        band[k, : d - k] = np.diagonal(rho, -k)
    return band


def dense_of(band):
    """Hermitian dense matrix whose lower offsets are a complex band's rows."""
    d = band.shape[1]
    rho = np.zeros((d, d), dtype=complex)
    for k in range(len(band)):
        rho += np.diag(band[k, : d - k], -k)
        if k:
            rho += np.diag(band[k, : d - k].conj(), k)
    return rho


def evolve(params, input, cutoff_s, t):
    return evolve_density_series(params, input, cutoff_s, [t])[0]


def photon_moments(state):
    p = state.band[0]
    n = np.arange(len(p))
    mean = (n * p).sum()
    return p.sum(), mean, ((n - mean) ** 2 * p).sum()


def oracle_log_bound(coherent_part, thermal_part, s):
    """min over zeta of the log Chernoff bound on P(X > s), by scipy's bounded
    minimizer over log zeta (shifted by log thermal_part, so the pole is at 0)."""
    b, n = coherent_part, thermal_part
    scale = n if n > 0 else 1.0

    def log_bound(x):
        zeta = math.exp(x) / scale
        return b * zeta / (1.0 - n * zeta) - math.log1p(-n * zeta) - (s + 1) * math.log1p(zeta)

    found = minimize_scalar(log_bound, bounds=(-60.0, -1e-12 if n > 0 else 20.0),
                            method="bounded", options={"xatol": 1e-12})
    return min(found.fun, 0.0)  # the bound is 1 at zeta = 0


class TestClosedFormAgainstRk4:
    @pytest.mark.parametrize(
        "params, input, times",
        [
            (IDEAL_1, CoherentInput(2.25), [0.3, 0.8]),
            (LOSSY, CoherentInput(3.0), [0.2, 0.7]),
            (AmplifierParams(2.0, 0.0), CoherentInput(6.0), [0.1, 0.25]),
        ],
    )
    def test_density_and_pegg_barnett_agree(self, params, input, times):
        cutoff = fock_cutoff(params, input, times[-1])
        states = evolve_density_series(params, input, cutoff, times)
        for state, band in zip(states, rk4_master_equation(params, input, cutoff, times)):
            assert state.band.shape == band.shape
            phase = np.exp(1j * np.arange(len(band)) * np.pi)[:, None]
            assert np.abs(state.band * phase - band).max() < 1e-10
            pb = pegg_barnett_distribution(state).density
            pb_oracle = pegg_barnett_by_offsets(dense_of(band))
            assert np.abs(pb - pb_oracle).max() < 1e-10

    def test_times_are_independent(self):
        inp = CoherentInput(2.25)
        series = evolve_density_series(LOSSY, inp, 80, [0.6, 0.1, 0.3])
        for t, state in zip([0.6, 0.1, 0.3], series):
            np.testing.assert_array_equal(state.band, evolve(LOSSY, inp, 80, t).band)


class TestPhotonStatistics:
    def test_trace_mean_and_variance_match_closed_forms(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            params = random_params(rng)
            inp = CoherentInput(rng.uniform(0.5, 8.0))
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
        inp = CoherentInput(3.0)
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
            (IDEAL_1, 1553.0, 1e-9, 1e-10),  # the output nearest the input
        ],
    )
    def test_fock_cutoff_tail_is_below_bound(self, params, amplitude_sq, t, tail):
        # the Chernoff cutoff on the output's coherent and thermal parts, at
        # each tail, and fock_cutoff's at its own, for the output and for the
        # input's Poisson count (scipy's pdtrc and its own Chernoff cutoff)
        inp = CoherentInput(amplitude_sq)
        g = float(gain(params, t))
        s = _chernoff_count_cutoff(g * amplitude_sq, params.noise_ratio * (g - 1.0), tail)
        populations = evolve(params, inp, 2 * s, t).band[0]
        assert populations[s + 1:].sum() <= tail
        s = fock_cutoff(params, inp, t)
        populations = evolve(params, inp, 2 * s, t).band[0]
        assert populations[s + 1:].sum() <= CUTOFF_TAIL
        assert pdtrc(s, amplitude_sq) <= CUTOFF_TAIL
        assert s >= _chernoff_count_cutoff(amplitude_sq, 0.0, CUTOFF_TAIL)

    @pytest.mark.parametrize("thermal", [1e3, 1e8, 4.85e8, 1e12])
    def test_cutoff_search_stays_below_the_pole(self, thermal):
        # from a thermal part of about 1e8 on (kappa_minus t = 18.4 at r = 1) the
        # bound's minimizer lies below 1e-8, next to the pole at 1/thermal.  A
        # thermal count has P(X > s) = (n / (1 + n))^(s + 1) exactly; the
        # Chernoff cutoff bounds it, 1.187 times the exact one at each n here
        s = _chernoff_count_cutoff(0.0, thermal, 1e-10)
        exact = math.ceil(math.log(1e10) / math.log1p(1.0 / thermal)) - 1
        assert exact <= s <= 1.2 * exact

    @pytest.mark.parametrize("coherent_part, thermal_part, tail", [
        *[(b, 0.0, tail) for b in (0.05, 2.25, 1553.0, 1e5) for tail in (1e-10, 1e-36)],
        *[(0.0, n, tail) for n in (1e3, 1e8, 4.85e8, 1e12) for tail in (1e-10, 1e-36)],
        pytest.param(float(gain(IDEAL_1, 4.0)) * 2.25, float(gain(IDEAL_1, 4.0)) - 1.0, 1e-10,
                     id="variance-from-dist-t4"),
    ])
    def test_cutoff_is_the_chernoff_bounds_exact_answer(self, coherent_part, thermal_part, tail):
        # the smallest s whose bound, minimized by a search that solves no
        # quadratic, is at most the tail
        s = _chernoff_count_cutoff(coherent_part, thermal_part, tail)
        assert oracle_log_bound(coherent_part, thermal_part, s) <= math.log(tail)
        assert s == 0 or oracle_log_bound(coherent_part, thermal_part, s - 1) > math.log(tail)

    def test_cutoff_never_decreases_as_the_count_or_its_confidence_grows(self):
        # the bound grows with each at every zeta, so its exact cutoff cannot fall
        rng = np.random.default_rng(58)
        for _ in range(300):
            b = 10.0 ** rng.uniform(-2.0, 5.0)
            n = 10.0 ** rng.uniform(-12.0, 5.0) * rng.integers(0, 2)  # half thermal-free
            tail = 10.0 ** rng.uniform(-40.0, -3.0)
            up = 1.0 + 10.0 ** rng.uniform(-9.0, 0.0)
            s = _chernoff_count_cutoff(b, n, tail)
            assert _chernoff_count_cutoff(b * up, n, tail) >= s, (b, n, tail, up)
            assert _chernoff_count_cutoff(b, n * up if n else up - 1.0, tail) >= s, (b, n, tail, up)
            assert _chernoff_count_cutoff(b, n, tail / up) >= s, (b, n, tail, up)

    @pytest.mark.parametrize("t, amplitude_sq", [(700.0, 2.25), (709.0, 2.25), (800.0, 2.25),
                                                 (1.0, 1e300)])
    def test_fock_cutoff_refuses_a_mean_past_its_domain(self, t, amplitude_sq):
        # these used to warn of overflow, or raise OverflowError at t = 709
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"below 2\*\*53"):
                fock_cutoff(IDEAL_1, CoherentInput(amplitude_sq), t)

    def test_fock_cutoff_is_quiet_inside_its_domain(self):
        inp = CoherentInput(2.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a gain of exp(1e-300), which rounds to 1: no thermal part
            assert fock_cutoff(IDEAL_1, inp, 1e-300) == fock_cutoff(IDEAL_1, inp, 0.0)
            # exact below 2**53 (a 60-digit check agrees), within the doubles' spacing past it
            assert fock_cutoff(IDEAL_1, inp, 33.0) == 8_917_238_378_842_495
            assert fock_cutoff(IDEAL_1, inp, 35.0) > 1e16  # mean 5.1e15


class TestGuards:
    def test_small_cutoff_trips_top_population_guard(self):
        with pytest.raises(GuardTripError, match="top Fock level"):
            evolve_density_series(IDEAL_1, CoherentInput(2.25), 8, [4.0])

    def test_guard_counts_population_past_the_cutoff(self):
        inp = CoherentInput(2.25)
        p = evolve(IDEAL_1, inp, 400, 2.0).band[0]
        at_or_past = p[::-1].cumsum()[::-1]
        # a cutoff whose top level alone passes but whose escaped population does not
        s = int(np.flatnonzero((p < 1e-6) & (at_or_past > 2e-6))[0])
        with pytest.raises(GuardTripError, match="top Fock level"):
            evolve(IDEAL_1, inp, s, 2.0)
        evolve(IDEAL_1, inp, fock_cutoff(IDEAL_1, inp, 2.0), 2.0)

    def test_input_past_a_small_cutoff_trips_the_guard_quietly(self):
        # levels 0..48 of an amplitude_sq 1000 input all underflow as plain
        # amplitudes; normalized in log space they give kmax, not 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GuardTripError, match="top Fock level"):
                evolve_density_series(IDEAL_1, CoherentInput(1000.0), 48, [0.5])

    def test_guards_read_their_two_scalars(self):
        _check_guards(1.0, 1e-6, 1e-10)  # each at its limit passes
        with pytest.raises(GuardTripError, match="band edge reached 1.00e-09 at t=1.0"):
            _check_guards(1.0, 0.0, 1e-9)
        with pytest.raises(GuardTripError, match="top Fock level and beyond hold 2.00e-06"):
            _check_guards(1.0, 2e-6, 1e-9)  # the top level is checked first

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            evolve_density_series(IDEAL_1, CoherentInput(1.0), 40, [0.1, -0.1])


def whole_table_kmax(input, d):
    """_band_kmax's rule on all d levels, with scipy's gammaln."""
    n = np.arange(d)
    log_c = n * math.log(input.amplitude_sq) / 2 - gammaln(n + 1.0) / 2
    c = np.exp(log_c - log_c.max())
    c /= np.sqrt((c**2).sum())
    for k in range(d):
        if np.max(c[k:] * c[: d - k]) < 1e-17:
            return min(k + 8, d - 1)
    return d - 1


class TestBandSize:
    @pytest.mark.parametrize("amplitude_sq", [0.05, 1.01, 2.25, 30.0, 1000.0])
    def test_kmax_from_the_input_support_matches_the_whole_table(self, amplitude_sq):
        inp = CoherentInput(amplitude_sq)
        s_in = _chernoff_count_cutoff(amplitude_sq, 0.0, 1e-10)
        for d in (10, 49, s_in + 1, 2 * s_in, 20_000):
            assert _band_kmax(inp, d) == whole_table_kmax(inp, d), d

    @pytest.mark.parametrize("amplitude_sq, times, ceiling", [
        # the benchmark's variance-from-dist and dist-converge, and the default
        # variance-from-dist, whose bands take about 2.1, 0.7 and 15.7 MB
        pytest.param(2.25, np.linspace(0.1, 2.5, 8), 1e6, id="bench"),
        pytest.param(6.0, np.array([0.5, 2.0]), 1e6, id="bench-dist-converge"),
        pytest.param(2.25, np.linspace(0.1, 4.0, 16), 2e6, id="default")])
    def test_streamed_sums_hold_no_band(self, amplitude_sq, times, ceiling):
        inp = CoherentInput(amplitude_sq)
        cutoff = fock_cutoff(IDEAL_1, inp, times[-1])
        tracemalloc.start()
        try:
            sums = _offset_sums(IDEAL_1, inp, cutoff, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sums.shape == (len(times), _band_kmax(inp, cutoff + 1) + 1)
        assert peak <= ceiling


def separate_ratio_bands(params, input, log_fact, d, kmax, times):
    """Untruncated output bands (times, kmax + 1, d), zero past the cutoff,
    with the recurrence's ratios in their own (d, times, kmax + 1) array.

    The same floating-point operations in the same order, each band formed
    from fresh temporaries over all n at once: the streamed blocks must
    reproduce it bit for bit.
    """
    t = times[:, None]
    nbar = params.noise_ratio * np.expm1(params.kappa_minus * t)
    beta_sq = gain(params, t) * input.amplitude_sq
    y = beta_sq / (1.0 + nbar)
    k = np.arange(kmax + 1)[None, :]
    ratios = np.ones((d, len(times), kmax + 1))
    if d > 1:
        ratios[1] = (1 + k) * nbar + y
    nbar_sq = nbar**2
    step = np.empty_like(ratios[0])
    for n0 in range(1, d - 1, 64):
        ns = np.arange(n0, min(n0 + 64, d - 1))
        firsts = (2 * ns[:, None, None] + 1 + k) * nbar + y
        seconds = (ns[:, None, None] + k) * nbar_sq
        for n, first, second in zip(ns.tolist(), firsts, seconds):
            np.divide(second, ratios[n], out=step)
            np.subtract(first, step, out=step)
            np.divide(step, n + 1, out=ratios[n + 1])

    n = np.arange(d)
    kk = k[0][:, None]
    levels = n + kk + 1
    log_fact_ratio = 0.5 * (log_fact[n] - log_fact[n + kk])
    log1p_nbar = np.log1p(nbar)
    half_log_beta_sq = 0.5 * np.log(beta_sq)
    inside = n + kk < d
    bands = np.empty((len(times), kmax + 1, d))
    for i in range(len(times)):
        log_band = np.log(ratios[:, i])
        np.cumsum(log_band, axis=0, out=log_band)
        log_band = (
            log_band.T
            - levels * log1p_nbar[i]
            + log_fact_ratio
            + kk * half_log_beta_sq[i]
            - y[i]
        )
        bands[i] = np.where(inside, np.exp(log_band), 0.0)
    return bands


def first_guard_trip(bands, d, times):
    """The message evolve_density_series raises on these bands, or None."""
    for t, band in zip(times, bands):
        try:
            _check_guards(t, band[0, d - 1] + (1.0 - band[0].sum()),
                          band[-3:].max() if len(band) >= 4 else 0.0)
        except GuardTripError as exc:
            return str(exc)
    return None


def streamed_bands(params, input, d, kmax, times):
    """The bands _band_blocks streams, gathered into one array."""
    bands = np.empty((len(times), kmax + 1, d))
    for n0, block in _band_blocks(params, input, times, d, kmax):
        bands[:, :, n0:n0 + block.shape[1]] = block.transpose(0, 2, 1)
    return bands


def outcome(route, *args):
    """What a Fock route returns, and the message of the GuardTripError it raises."""
    try:
        return route(*args), None
    except GuardTripError as exc:
        return None, str(exc)


class TestBandsInPlace:
    def test_bands_match_the_separate_ratio_array(self):
        # every time count from 1 to 7 and 16; t = 0 in some; at the full cutoff,
        # a quarter of it, and cutoffs so small that the guards trip or d <= 2
        rng = np.random.default_rng(23)
        outcomes = set()
        for case in range(40):
            params = random_params(rng)
            inp = CoherentInput(rng.uniform(0.05, 8.0))
            times = np.sort(rng.uniform(0.0, 2.0, (1, 2, 3, 4, 5, 6, 7, 16)[case % 8]))
            if case % 5 == 0:
                times[0] = 0.0
            full = fock_cutoff(params, inp, times[-1])
            for cutoff in (full, full // 4, 8, 1, 0):
                d = cutoff + 1
                kmax = _band_kmax(inp, d)
                log_fact = _log_factorials(d + kmax)
                expected = separate_ratio_bands(params, inp, log_fact, d, kmax, times)
                assert np.array_equal(streamed_bands(params, inp, d, kmax, times),
                                      expected), (case, cutoff)
                message = first_guard_trip(expected, d, times)
                states, raised = outcome(evolve_density_series, params, inp, cutoff, times)
                sums, streamed_raised = outcome(_offset_sums, params, inp, cutoff, times)
                assert raised == streamed_raised == message, (case, cutoff)
                if message is None:
                    trace = expected[:, 0].sum(axis=1)
                    for state, band, tr in zip(states, expected, trace):
                        assert np.array_equal(state.band, band / tr), (case, cutoff)
                    np.testing.assert_allclose(sums, expected.sum(axis=2) / trace[:, None],
                                               rtol=1e-14, atol=0)
                outcomes.add(message and message.split()[0])
        assert outcomes == {None, "top", "coherence"}

    @pytest.mark.parametrize("params, amplitude_sq, times", [
        (IDEAL_1, 2.25, [0.0, 0.4, 1.5]), (LOSSY, 6.0, [0.2]), (IDEAL_1, 30.0, [0.1, 0.3])])
    def test_states_share_one_real_nonnegative_array(self, params, amplitude_sq, times):
        inp = CoherentInput(amplitude_sq)
        cutoff = fock_cutoff(params, inp, times[-1])
        states = evolve_density_series(params, inp, cutoff, times)
        base = states[0].band.base
        assert base.dtype == np.float64
        assert base.shape == (len(times), states[0].band.shape[0], cutoff + 1)
        for i, state in enumerate(states):
            assert state.band.base is base
            assert np.shares_memory(state.band, base[i])
            assert state.band.min() >= 0.0


class TestFockState:
    def test_rejects_malformed_bands(self):
        good = band_of(coherent_state(CoherentInput(2.0), 30).real, 12)
        assert FockState(good).cutoff_s == 30
        for shape in ((32, 31), (31,), (0, 31)):
            with pytest.raises(ValueError, match=r"band must be \(kmax"):
                FockState(np.zeros(shape))
        # a complex band, even one whose entries are all real, and an integer one
        for bad in (good.astype(complex), np.eye(13, 31, dtype=int)):
            with pytest.raises(ValueError, match="band must be real floating point"):
                FockState(bad)
        cases = {
            "past the cutoff": (12, 25, 1e-300),
            "trace must be 1": (0, 5, 1e-8),
        }
        for message, (k, n, delta) in cases.items():
            bad = good.copy()
            bad[k, n] += delta
            with pytest.raises(ValueError, match=message):
                FockState(bad)

    def test_dense_view_is_the_band_and_exactly_hermitian(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            params = random_params(rng)
            inp = CoherentInput(rng.uniform(0.5, 8.0))
            t = rng.uniform(0.05, 1.5)
            state = evolve(params, inp, fock_cutoff(params, inp, t), t)
            rho = state.rho
            d = state.cutoff_s + 1
            kmax = state.band.shape[0] - 1
            for k in range(kmax + 1):
                np.testing.assert_array_equal(np.diagonal(rho, -k),
                                              state.band[k, : d - k] * np.exp(1j * k * np.pi))
            assert not np.any(np.tril(rho, -kmax - 1))
            np.testing.assert_array_equal(rho, rho.conj().T)


def test_public_classes_refuse_non_finite_values():
    # NaN passes every comparison the range checks make, so each is refused by name
    grid = 2 * np.pi * np.arange(8) / 8
    inp = CoherentInput(2.0)
    for build, field in [(lambda: PhaseDensity(grid, np.full(8, np.nan)), "density"),
                         (lambda: CoherentInput(math.inf), "amplitude_sq"),
                         (lambda: AmplifierParams(math.inf), "kappa_up"),
                         # a NaN trace, and a NaN off the diagonal, where no trace sees it
                         (lambda: FockState(np.array([[math.nan, 1.0]])), "band"),
                         (lambda: FockState(np.array([[0.5, 0.5], [math.nan, 0.0]])), "band"),
                         (lambda: evolve_density_series(IDEAL_1, inp, 40, [math.nan]), "times"),
                         (lambda: evolve_density_series(IDEAL_1, inp, 40, [math.inf]), "times")]:
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            build()


class TestPhaseDensities:
    def test_pegg_barnett_is_normalized(self):
        inp = CoherentInput(2.25)
        for params, t in ((IDEAL_1, 0.5), (LOSSY, 1.0)):
            pb = pegg_barnett_distribution(evolve(params, inp, fock_cutoff(params, inp, t), t))
            assert pb.density.sum() * pb.spacing == pytest.approx(1.0, abs=1e-12)

    def test_fft_matches_the_offset_sums(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            params = random_params(rng)
            inp = CoherentInput(rng.uniform(0.5, 8.0))
            t = rng.uniform(0.05, 1.5)
            state = evolve(params, inp, fock_cutoff(params, inp, t), t)
            pb = pegg_barnett_distribution(state)
            grid = np.linspace(0, 2 * np.pi, state.cutoff_s + 1, endpoint=False)
            np.testing.assert_allclose(pb.phi_grid, grid, rtol=0, atol=1e-14)
            assert np.abs(pb.density - pegg_barnett_by_offsets(state.rho)).max() < 1e-13

    def test_fft_matches_the_offset_sums_on_a_full_width_band(self):
        # a real nonnegative state rotated by the input phase: rho[m, n] e^(i(m - n) pi)
        rng = np.random.default_rng(19)
        for cutoff in (8, 33, 64):
            a = rng.uniform(size=(cutoff + 1, 3))
            rho = a @ a.T
            rho /= np.trace(rho)
            turn = np.exp(1j * np.arange(cutoff + 1) * np.pi)
            state = FockState(band_of(rho, cutoff))
            pb = pegg_barnett_distribution(state).density
            rotated = turn[:, None] * rho * turn.conj()
            assert np.abs(pb - pegg_barnett_by_offsets(rotated)).max() < 1e-13

    def test_p_function_is_normalized_and_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            params = AmplifierParams(rng.uniform(0.5, 2.0))
            inp = CoherentInput(rng.uniform(0.2, 10.0))
            t = rng.uniform(0.05, 3.0)
            grid = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
            p = p_function_phase_density(params, inp, t, grid)
            assert p.sum() * (grid[1] - grid[0]) == pytest.approx(1.0, abs=1e-10)
            d = rng.uniform(0.0, np.pi, 64)
            np.testing.assert_allclose(
                p_function_phase_density(params, inp, t, np.pi + d),
                p_function_phase_density(params, inp, t, np.pi - d),
                rtol=1e-12, atol=1e-15,
            )

    @pytest.mark.parametrize("kappa_down", [0.0, 0.3, 0.8])
    def test_eta_is_the_signal_to_noise_ratio_of_the_fock_state(self, kappa_down):
        # eta = |<a>|^2 / nbar with nbar = <N> - |<a>|^2 the thermal occupation
        params = AmplifierParams(1.0, kappa_down)
        inp = CoherentInput(3.0)
        for t in (0.2, 1.0, 2.5):
            state = evolve(params, inp, fock_cutoff(params, inp, t), t)
            n = np.arange(state.cutoff_s + 1)
            a_mean = (np.sqrt(n + 1) * state.band[1]).sum()
            n_mean = (n * state.band[0]).sum()
            signal = abs(a_mean) ** 2
            assert eta(params, inp.amplitude_sq, t) == pytest.approx(
                signal / (n_mean - signal), rel=1e-9)

    def test_lossy_p_function_approaches_pegg_barnett(self):
        # with loss the P-function density still converges to the Fock
        # reference as the gain grows
        params, inp = LOSSY, CoherentInput(6.0)
        times = [0.3, 3.0]
        cutoff = fock_cutoff(params, inp, times[-1])
        distances = []
        for t, state in zip(times, evolve_density_series(params, inp, cutoff, times)):
            pb = pegg_barnett_distribution(state)
            p = p_function_phase_density(params, inp, t, pb.phi_grid)
            distances.append(np.abs(p - pb.density).sum() * pb.spacing)
        assert distances[-1] < distances[0] / 10

    def test_p_function_tends_to_uniform_as_eta_vanishes(self):
        grid = np.linspace(-np.pi, np.pi, 257)
        previous = np.inf
        for amplitude_sq in (1e-2, 1e-4, 1e-6, 1e-8):
            inp = CoherentInput(amplitude_sq)
            assert eta(IDEAL_1, amplitude_sq, 2.0) < 2 * amplitude_sq
            dev = np.abs(p_function_phase_density(IDEAL_1, inp, 2.0, grid) - 1 / (2 * np.pi)).max()
            assert dev < previous
            previous = dev
        assert previous < 1e-4


def wrapped_gaussian(m, centre, sigma):
    """A Gaussian of width sigma about centre on m points over [0, 2pi), each
    point at its nearest distance from the centre around the circle."""
    grid = 2 * np.pi * np.arange(m) / m
    x = (grid - centre + np.pi) % (2 * np.pi) - np.pi
    return PhaseDensity(grid, np.exp(-x**2 / (2 * sigma**2)) / (math.sqrt(2 * np.pi) * sigma))


class TestDistributionVariance:
    def test_uniform_density_has_the_discrete_uniform_variance(self):
        m = 1000
        grid = 2 * np.pi * np.arange(m) / m
        with pytest.warns(UserWarning, match="recentered window carries"):
            variance = distribution_variance(PhaseDensity(grid, np.full(m, 1 / (2 * np.pi))))
        assert variance == pytest.approx((2 * np.pi / m) ** 2 * (m**2 - 1) / 12, rel=1e-12)

    @pytest.mark.parametrize("centre", [np.pi, np.pi / 2])
    def test_narrow_gaussian_has_its_own_variance(self, centre):
        # at pi/2 a window left at [0, 2pi) would cut the tail below 0, where the
        # density is 1.5e-6 of its peak, and move the variance by 1.5e-6:
        # only the window recentred on the peak holds the whole Gaussian
        assert distribution_variance(wrapped_gaussian(4096, centre, 0.3)) == \
            pytest.approx(0.09, abs=1e-12)


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
