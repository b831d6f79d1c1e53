"""Full phase distributions: the high-gain closed form and the Fock-space reference.

Two routes to the phase density of the amplified field:

* p_function_phase_density - the closed-form density of the phase-space
  (Glauber-Sudarshan) picture, a function of the signal-to-noise ratio
  eta = |beta|^2/nbar alone (so it holds with loss as well as without),
  evaluated in an algebraically expanded form that is free of the
  sec(phi - theta) singularity of the textbook expression.
* evolve_density_series + pegg_barnett_distribution - the exact output state
  in a truncated Fock basis, projected onto the discrete phase states
  |phi_m> = (s+1)^(-1/2) sum_n exp(i n phi_m) |n>.

The gain/loss master equation is a phase-insensitive Gaussian channel, so a
coherent input |alpha> leaves it as a displaced thermal state with
displacement beta = sqrt(G_t) alpha and thermal occupation
nbar = (kappa_up/kappa_minus)(G_t - 1).  Its offset band B[k, n] = rho[n+k, n]
has the closed form

    rho[n+k, n] = nbar^n (1+nbar)^-(n+k+1) sqrt(n!/(n+k)!) beta^k
                  exp(-|beta|^2/(1+nbar)) L_n^(k)(-|beta|^2/(nbar (1+nbar))),

evaluated in log scale with the Laguerre polynomial folded into
M_n = nbar^n L_n^(k)(...), whose three-term recurrence in n stays finite as
nbar -> 0 (t = 0 gives the coherent input).  Every requested time is
evaluated independently; there is no time stepping.

The generator never couples different offsets, so the band keeps the offsets
that the truncated coherent input populates (above 1e-17, plus a margin);
the band-edge guard checks that the output stays inside them.  The closed
form is the untruncated state: the population past the cutoff is the trace
missing from the truncated band.  It is added to the top level's population
for the top-population guard and then dropped by renormalizing the truncated
band to unit trace.

FockState stores that band, not the (s+1)^2 matrix, so it is Hermitian by
construction, and the Pegg-Barnett density is one FFT of its offset sums.

No route through this module loads scipy.special: the log-factorials come
from one table of math.lgamma values, built per call of evolve_density_series,
and erf is math.erf applied point by point, so the phase densities cost no
import beyond numpy's.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GuardTripError
from .moments import gain
from .params import AmplifierParams, CoherentInput

__all__ = [
    "eta",
    "p_function_phase_density",
    "FockState",
    "PhaseDensity",
    "fock_cutoff",
    "evolve_density_series",
    "pegg_barnett_distribution",
    "distribution_variance",
]

TOP_POPULATION_LIMIT = 1e-6
MIN_GAIN_EXPONENT = 1e-12  # eta needs kappa_minus * t above this (a gain above 1)
_MIN_CUTOFF = 48


def eta(params: AmplifierParams, amplitude_sq: float, t):
    """Amplified signal normalized by the spontaneous-emission noise.

    eta = |beta|^2 / nbar = G_t |alpha|^2 / (r (G_t - 1)), r = kappa_up/kappa_minus;
    tends to |alpha|^2 / r in the high-gain limit and diverges as t -> 0.
    """
    t = np.asarray(t, dtype=float)
    x = params.kappa_minus * t
    if np.any(x <= MIN_GAIN_EXPONENT):
        raise ValueError("gain must exceed 1 (t too small)")
    # G/(G-1) = 1/(1 - 1/G)
    return np.asarray(amplitude_sq, dtype=float) / (params.noise_ratio * -np.expm1(-x))


def p_function_phase_density(params: AmplifierParams, input: CoherentInput, t, phi):
    """High-gain phase density of the phase-space picture, singularity-free.

    Expanding the textbook expression cancels sec(phi - theta) against its
    cos prefactor:

        p(phi) = e^-eta / 2pi
               + cos(d)/2pi * sqrt(pi eta) e^(-eta sin^2 d) (1 + erf(sqrt(eta) cos d)),

    d = phi - theta.  Single peak at phi = theta, symmetric about it, uniform
    1/2pi in the eta -> 0 limit.
    """
    e = eta(params, input.amplitude_sq, t)
    d = np.asarray(phi, dtype=float) - input.theta
    c = np.cos(d)
    return np.exp(-e) / (2 * np.pi) + (
        c / (2 * np.pi)
        * np.sqrt(np.pi * e)
        * np.exp(-e * np.sin(d) ** 2)
        * (1.0 + _erf(np.sqrt(e) * c))
    )


def _erf(x: np.ndarray) -> np.ndarray:
    """math.erf elementwise."""
    return np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)


@dataclass(frozen=True, eq=False)
class FockState:
    """Density matrix truncated at cutoff_s, stored as its offset band.

    band[k, n] = rho[n+k, n] for k = 0..kmax <= cutoff_s, zero past the cutoff;
    the upper triangle is the conjugate, so the state is Hermitian by construction.
    """

    cutoff_s: int
    band: np.ndarray

    def __post_init__(self):
        d = self.cutoff_s + 1
        shape = self.band.shape
        if len(shape) != 2 or shape[1] != d or not 1 <= shape[0] <= d:
            raise ValueError(f"band must be (kmax+1, {d}) with kmax <= {d - 1}, got {shape}")
        imag = np.abs(self.band[0].imag).max()
        if imag > 1e-12:
            raise ValueError(f"diagonal must be real within 1e-12, imaginary part {imag:.2e}")
        past = np.arange(shape[0])[:, None] + np.arange(d) >= d
        if np.any(self.band[past] != 0):
            raise ValueError("band entries past the cutoff must be zero")
        tr = self.band[0].real.sum()
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"trace must be 1 within 1e-9, got {tr}")

    @property
    def rho(self) -> np.ndarray:
        """The dense (s+1) x (s+1) density matrix, built anew on each access."""
        d = self.cutoff_s + 1
        n = np.arange(d)
        rho = np.diag(self.band[0].real.astype(complex))
        for k in range(1, self.band.shape[0]):
            rho[n[k:], n[: d - k]] = self.band[k, : d - k]
            rho[n[: d - k], n[k:]] = self.band[k, : d - k].conj()
        return rho


@dataclass(frozen=True, eq=False)
class PhaseDensity:
    """Probability density per radian on a uniform grid spanning one period."""

    phi_grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        if self.phi_grid.shape != self.density.shape:
            raise ValueError("grid and density must have equal shapes")
        if np.any(self.density < -1e-9):
            raise ValueError("density must be nonnegative")
        h = self.spacing
        mass = float(self.density.sum() * h)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"density must integrate to 1 within 1e-6, got {mass}")

    @property
    def spacing(self) -> float:
        return float(self.phi_grid[1] - self.phi_grid[0])


def _chernoff_count_cutoff(coherent_part: float, thermal_part: float, tail: float) -> int:
    """Smallest s with P(X > s) <= tail for a displaced-thermal photon count.

    Uses the Chernoff bound P(X > s) <= M(z)/z^(s+1) on the generating
    function M(z) = exp(b zeta/(1 - n_th zeta))/(1 - n_th zeta), zeta = z - 1,
    minimized over a zeta grid below the pole at 1/thermal_part: from 1e-8,
    or from 1e-8 of its end once the pole is that near (thermal part > ~1e8).
    """
    if thermal_part < 1e-300:
        zeta_max = 1e4
    else:
        zeta_max = (1.0 - 1e-10) / thermal_part
    zeta = np.geomspace(1e-8 if zeta_max > 1e-8 else 1e-8 * zeta_max, zeta_max, 4000)
    log_m = coherent_part * zeta / (1.0 - thermal_part * zeta) - np.log1p(-thermal_part * zeta)
    s_req = (log_m - np.log(tail)) / np.log1p(zeta) - 1.0
    return max(int(np.ceil(s_req.min())), 0)


def fock_cutoff(params: AmplifierParams, input: CoherentInput, t: float, tail: float = 1e-10) -> int:
    """Cutoff large enough for the input and the amplified output.

    The output photon statistics are displaced thermal with thermal part
    (kappa_up/kappa_minus)(G_t - 1) and coherent part G_t |alpha|^2 — much
    broader than Poisson with the same mean — so the bound is taken on that
    distribution.  The input's own (Poisson) tail is held below 1e-10 and a
    small floor keeps the phase grid usable at tiny t.
    """
    g = float(gain(params, t))
    s_in = _chernoff_count_cutoff(input.amplitude_sq, 0.0, 1e-10)
    s_out = _chernoff_count_cutoff(
        g * input.amplitude_sq, params.noise_ratio * (g - 1.0), tail
    )
    return max(s_in, s_out, _MIN_CUTOFF)


def _log_factorials(m: int) -> np.ndarray:
    """log j! for j = 0..m-1."""
    return np.fromiter(map(math.lgamma, range(1, m + 1)), float, m)


_BAND_DROP_BELOW = 1e-17  # the smallest input coherence whose offset the band keeps
_BAND_MARGIN = 8          # offsets kept beyond those, for the evolution to spread into


def _band_kmax(input: CoherentInput, log_fact: np.ndarray, d: int) -> int:
    """Offsets the truncated, renormalized coherent input populates above
    _BAND_DROP_BELOW, plus _BAND_MARGIN."""
    n = np.arange(d)
    c = np.exp(-input.amplitude_sq / 2 + n * (np.log(input.amplitude_sq) / 2) - log_fact[:d] / 2)
    c /= np.sqrt((c**2).sum())
    for k in range(d):
        if np.max(c[k:] * c[: d - k]) < _BAND_DROP_BELOW:
            return min(k + _BAND_MARGIN, d - 1)
    return d - 1


def _fock_bytes(cutoff_s: int, n_times: int) -> int:
    """Bytes evolve_density_series holds at least: 2d - 1 log-factorials and, per
    time, kmax + 1 >= min(_BAND_MARGIN + 2, d) rows of d ratios and complex band
    entries, d = cutoff_s + 1 (_band_kmax keeps the diagonal, whose top is >= 1/d)."""
    d = cutoff_s + 1
    return 8 * (2 * d - 1) + 24 * n_times * min(_BAND_MARGIN + 2, d) * d


# recurrence steps whose coefficients are formed at once; forming them for every
# n would hold two more (d, times, kmax + 1) arrays
_RATIO_BLOCK = 64


def _output_bands(params: AmplifierParams, input: CoherentInput, log_fact: np.ndarray, d: int,
                  kmax: int, times: np.ndarray) -> np.ndarray:
    """Untruncated output bands B[i, k, n] = rho[n+k, n](times[i]), zero past the cutoff.

    log_fact[j] = log j! for j <= d - 1 + kmax.  The recurrence runs for all
    times at once; the rest runs one time at a time, so its temporaries are
    one time's (kmax + 1, d) arrays.
    """
    t = times[:, None]
    nbar = params.noise_ratio * np.expm1(params.kappa_minus * t)
    beta_sq = gain(params, t) * input.amplitude_sq
    y = beta_sq / (1.0 + nbar)
    k = np.arange(kmax + 1)[None, :]
    # ratios M_n / M_(n-1) of M_n = nbar^n L_n^(k)(-y/nbar), from
    # (n+1) M_(n+1) = ((2n+1+k) nbar + y) M_n - (n+k) nbar^2 M_(n-1);
    # M_n > 0 and it is the dominant solution, so the forward recurrence is stable;
    # each step does the formula's floating-point operations in its order
    ratios = np.ones((d, len(times), kmax + 1))
    if d > 1:
        ratios[1] = (1 + k) * nbar + y
    nbar_sq = nbar**2
    step = np.empty_like(ratios[0])
    for n0 in range(1, d - 1, _RATIO_BLOCK):
        ns = np.arange(n0, min(n0 + _RATIO_BLOCK, d - 1))
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
    phase = np.exp(1j * kk * input.theta)
    bands = np.empty((len(times), kmax + 1, d), dtype=complex)
    for i in range(len(times)):
        log_m = np.log(ratios[:, i])
        np.cumsum(log_m, axis=0, out=log_m)
        log_band = (
            log_m.T
            - levels * log1p_nbar[i]
            + log_fact_ratio
            + kk * half_log_beta_sq[i]
            - y[i]
        )
        np.multiply(np.where(inside, np.exp(log_band), 0.0), phase, out=bands[i])
    return bands


def _check_band(band: np.ndarray, d: int, t: float, escaped: float):
    top = band[0, d - 1].real + escaped
    if top > TOP_POPULATION_LIMIT:
        raise GuardTripError(
            f"top Fock level and beyond hold {top:.2e} > {TOP_POPULATION_LIMIT} at t={t}; "
            "cutoff too small for this horizon"
        )
    if band.shape[0] >= 4:
        edge = np.abs(band[-3:]).max()
        if edge > 1e-10:
            raise GuardTripError(
                f"coherence band edge reached {edge:.2e} at t={t}; enlarge the offset margin"
            )


def evolve_density_series(
    params: AmplifierParams,
    input: CoherentInput,
    cutoff_s: int,
    times,
) -> list[FockState]:
    """Output state of the coherent input at each requested time, truncated at cutoff_s.

    The population at or past the top level (cutoff_s) must stay below
    TOP_POPULATION_LIMIT and the band edge below 1e-10, else GuardTripError.
    The states' bands are views of one (times, kmax + 1, cutoff_s + 1) array.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    d = int(cutoff_s) + 1
    log_fact = _log_factorials(2 * d - 1)  # up to n + k = 2 (d - 1)
    kmax = _band_kmax(input, log_fact, d)
    out = []
    for t, band in zip(times, _output_bands(params, input, log_fact, d, kmax, times)):
        trace = band[0].real.sum()
        _check_band(band, d, t, 1.0 - trace)
        band /= trace
        out.append(FockState(cutoff_s=d - 1, band=band))
    return out


def pegg_barnett_distribution(state: FockState, phi_0: float) -> PhaseDensity:
    """Phase density from projecting onto the s+1 discrete phase states.

    p(phi_m) = [(s+1)/2pi] <phi_m|rho|phi_m> on phi_m = phi_0 + 2pi m/(s+1);
    in Fourier form (1/2pi)[2 Re sum_k c_k e^(-ik phi_m) - c_0] with c_k the
    band's offset sums: one FFT of c_k e^(-ik phi_0) zero-padded to s+1 points.
    The grid sum integrates to trace(rho) exactly.
    """
    d = state.cutoff_s + 1
    phi = phi_0 + 2 * np.pi * np.arange(d) / d
    c = state.band.sum(axis=1)
    spectrum = np.fft.fft(c * np.exp(-1j * np.arange(len(c)) * phi_0), n=d)
    dens = (2 * spectrum.real - c[0].real) / (2 * np.pi)
    return PhaseDensity(phi_grid=phi, density=np.maximum(dens, 0.0))


def distribution_variance(density: PhaseDensity) -> float:
    """Windowed phase variance with the window recentered on the peak.

    The grid is rolled so the density's maximum sits at the window center
    before the moments are taken (the distribution is single-peaked, so this
    places it wholly inside one period).  A warning is issued when the
    recentered window still carries visible mass at its edges.
    """
    dens = density.density
    m = len(dens)
    h = density.spacing
    peak = int(np.argmax(dens))
    rolled = np.roll(dens, m // 2 - peak)
    phi = density.phi_grid[peak] + (np.arange(m) - m // 2) * h
    edge_mass = float((rolled[0] + rolled[-1]) * h)
    if edge_mass > 1e-6:
        warnings.warn(
            f"recentered window carries {edge_mass:.2e} mass at its edges; "
            "variance may be window-dependent",
            stacklevel=2,
        )
    mass = float(rolled.sum() * h)
    mean = float((phi * rolled).sum() * h / mass)
    second = float((phi**2 * rolled).sum() * h / mass)
    return second - mean**2
