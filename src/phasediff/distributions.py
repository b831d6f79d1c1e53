"""Full phase distributions: the high-gain closed form and the Fock-space reference.

Two routes to the phase density of the amplified field:

* p_function_phase_density - the closed-form density of the phase-space
  (Glauber-Sudarshan) picture, a function of the signal-to-noise ratio
  eta = |beta|^2/nbar alone (so it holds with loss as well as without),
  evaluated in an algebraically expanded form that is free of the
  sec(phi - INPUT_PHASE) singularity of the textbook expression.
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

The input phase, params.INPUT_PHASE = pi, enters the band only as a phase:
beta = sqrt(G_t) |alpha| e^(i pi), so rho[n+k, n] = |rho[n+k, n]| e^(ik pi).
FockState stores the real, nonnegative band of moduli, not the (s+1)^2
matrix.  It is Hermitian by construction, and the Pegg-Barnett density is one
FFT of its offset sums, each turned by e^(ik pi), on the grid 2pi m/(s+1)
over [0, 2pi).  That window needs no setting: the output density is
single-peaked at pi, one period holds all of it, and distribution_variance
recentres the window on its peak.

The bands of all requested times are one float64 (times, kmax + 1, d) array,
and the recurrence's ratios M_n / M_(n-1) live in it too: time j's ratios
fill band j's own block, viewed as (d, kmax + 1).  Band i is formed in one
(kmax + 1, d) scratch from its own time's ratios and then written over them,
so no ratio is overwritten before it is used, and the run holds little beyond
its results.

The cutoff is no setting: fock_cutoff, the one cutoff rule, gives the smallest
level where the output's Chernoff tail, minimized in closed form, is below
CUTOFF_TAIL (and so the input's, whose generating function is below the
output's) and refuses an output mean of 2**53 or more.  _fock_bytes counts the
peak bytes evolve_density_series holds at a cutoff (the bands, and the larger of
the recurrence's and the band formation's working sets), so that validation
refuses a run too large for memory before any Fock array is made.

No route through this module loads scipy: the log-factorials come
from one table of math.lgamma values, built per call of evolve_density_series,
and erf is math.erf applied point by point, so the phase densities cost no
import beyond numpy's.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GuardTripError
from .moments import gain
from .params import INPUT_PHASE, AmplifierParams, CoherentInput

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
CUTOFF_TAIL = 1e-10  # the population fock_cutoff leaves past the cutoff, output and so input
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

    Expanding the textbook expression cancels sec(phi - INPUT_PHASE) against
    its cos prefactor:

        p(phi) = e^-eta / 2pi
               + cos(d)/2pi * sqrt(pi eta) e^(-eta sin^2 d) (1 + erf(sqrt(eta) cos d)),

    d = phi - INPUT_PHASE.  Single peak at phi = pi, symmetric about it,
    uniform 1/2pi in the eta -> 0 limit.
    """
    e = eta(params, input.amplitude_sq, t)
    d = np.asarray(phi, dtype=float) - INPUT_PHASE
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
    """Density matrix truncated at cutoff_s, stored as its real offset band.

    rho[n+k, n] = band[k, n] e^(ik INPUT_PHASE) for k = 0..kmax <= cutoff_s,
    with band real, finite and zero past the cutoff; the upper triangle is the
    conjugate, so the state is Hermitian by construction.
    """

    band: np.ndarray

    def __post_init__(self):
        shape = self.band.shape
        if len(shape) != 2 or not 1 <= shape[0] <= shape[1]:
            raise ValueError(f"band must be (kmax+1, cutoff_s+1) with kmax <= cutoff_s, "
                             f"got {shape}")
        if self.band.dtype.kind != "f":
            raise ValueError(f"band must be real floating point, got {self.band.dtype}")
        if not np.isfinite(self.band).all():
            raise ValueError("band must be finite")
        past = np.arange(shape[0])[:, None] + np.arange(shape[1]) >= shape[1]
        if np.any(self.band[past] != 0):
            raise ValueError("band entries past the cutoff must be zero")
        tr = self.band[0].sum()
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"trace must be 1 within 1e-9, got {tr}")

    @property
    def cutoff_s(self) -> int:
        """The band's width minus one."""
        return self.band.shape[1] - 1

    @property
    def rho(self) -> np.ndarray:
        """The dense (s+1) x (s+1) density matrix, built anew on each access."""
        d = self.cutoff_s + 1
        n = np.arange(d)
        rho = np.diag(self.band[0].astype(complex))
        for k in range(1, self.band.shape[0]):
            off = self.band[k, : d - k] * np.exp(1j * k * INPUT_PHASE)
            rho[n[k:], n[: d - k]] = off
            rho[n[: d - k], n[k:]] = off.conj()
        return rho


@dataclass(frozen=True, eq=False)
class PhaseDensity:
    """Probability density per radian on a uniform grid spanning one period."""

    phi_grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        if self.phi_grid.shape != self.density.shape:
            raise ValueError("grid and density must have equal shapes")
        if not np.isfinite(self.density).all():
            raise ValueError("density must be finite")
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

    The Chernoff bound P(X > s) <= M(z)/z^(s+1) on the generating function
    M(z) = exp(b zeta/(1 - n zeta))/(1 - n zeta), zeta = z - 1 (coherent part b,
    thermal part n), has a log convex in zeta on (0, 1/n) and least at a
    quadratic's root: its minimum F(s) is closed form, 0 while s + 1 <= b + n
    and falling after that, so s is found by doubling from floor(b + n), then
    halving.  Exact for cutoffs below 2**53, within the doubles' spacing past it.
    """
    b, n, log_tail = coherent_part, thermal_part, math.log(tail)

    def log_bound(s: int) -> float:
        c = b + n - s - 1.0  # the log's zeta-derivative is 0 at -n^2 (s+2) zeta^2 + q zeta + c = 0
        if c >= 0.0:
            return 0.0
        q = b + n * (2.0 * s + 3.0 - n)
        zeta = -2.0 * c / (q + math.sqrt(q * q + 4.0 * n * n * (s + 2.0) * c))
        return b * zeta / (1.0 - n * zeta) - math.log1p(-n * zeta) - (s + 1.0) * math.log1p(zeta)

    fails, step = math.floor(b + n) - 1, 1  # F(fails) = 0 > log_tail, or fails = -1
    while log_bound(fails + step) > log_tail:
        fails, step = fails + step, 2 * step
    while step > 1:  # fails + step passes
        step //= 2
        if log_bound(fails + step) > log_tail:
            fails += step
    return fails + 1


def fock_cutoff(params: AmplifierParams, input: CoherentInput, t: float) -> int:
    """Cutoff large enough for the amplified output, and so for the input.

    The output photon statistics are displaced thermal with thermal part
    (kappa_up/kappa_minus)(G_t - 1) and coherent part G_t |alpha|^2 — much
    broader than Poisson with the same mean — so the bound is taken on that
    distribution: the cutoff is the smallest level whose Chernoff tail,
    minimized exactly, is below CUTOFF_TAIL.  With G_t >= 1 and a thermal part
    >= 0 the output's generating function is at least the input's Poisson
    exp(|alpha|^2 zeta) at every zeta, so the Chernoff bound met at the cutoff
    holds the input's tail below CUTOFF_TAIL too.  A small floor keeps the
    phase grid usable at tiny t.  This is the one cutoff rule.  ValueError
    unless the output's mean photon number is below 2**53 (at 8 bytes a level,
    past any memory): no finite input overflows.
    """
    x = min(params.kappa_minus * t, 40.0)  # the mean is at least G - 1, past 2**53 from 36.8 on
    mean = input.amplitude_sq * math.exp(x) + params.noise_ratio * math.expm1(x)
    if not mean < 2.0**53:
        raise ValueError(f"the output's mean photon number must be below 2**53 for a Fock cutoff; "
                         f"got {mean:.3g} at kappa_minus * t = {params.kappa_minus * t:.4g}")
    g = float(gain(params, t))
    s_out = _chernoff_count_cutoff(
        g * input.amplitude_sq, params.noise_ratio * (g - 1.0), CUTOFF_TAIL
    )
    return max(s_out, _MIN_CUTOFF)


def _log_factorials(m: int) -> np.ndarray:
    """log j! for j = 0..m-1."""
    return np.fromiter(map(math.lgamma, range(1, m + 1)), float, m)


_BAND_DROP_BELOW = 1e-17  # the smallest input coherence whose offset the band keeps
_BAND_MARGIN = 8          # offsets kept beyond those, for the evolution to spread into


def _band_kmax(input: CoherentInput, d: int) -> int:
    """Offsets the coherent input, truncated to d levels and renormalized,
    populates above _BAND_DROP_BELOW, plus _BAND_MARGIN.

    Searched on the levels inside the input's 1e-36 tail, plus the margin, when
    d is longer: an amplitude past them is below 1e-18, so it adds no offset.
    """
    m = min(d, _chernoff_count_cutoff(input.amplitude_sq, 0.0, 1e-36) + _BAND_MARGIN + 2)
    log_c = np.arange(m) * (math.log(input.amplitude_sq) / 2) - _log_factorials(m) / 2
    c = np.exp(log_c - log_c.max())  # normalized in log space: the largest is 1, the sum never 0
    c /= np.sqrt((c**2).sum())
    for k in range(m):
        if (c[k:] * c[: m - k]).max() < _BAND_DROP_BELOW:
            return min(k + _BAND_MARGIN, d - 1)
    return d - 1


# recurrence steps whose coefficients are formed at once; forming them for every
# n would hold two more (d, times, kmax + 1) arrays
_RATIO_BLOCK = 64


def _fock_bytes(input: CoherentInput, cutoff_s: int, n_times: int, limit: float) -> int:
    """Peak bytes evolve_density_series holds for n_times times at cutoff_s.

    With d = cutoff_s + 1 and rows = kmax + 1: the d + kmax log-factorials and
    the float64 bands, 8 bytes an entry, which also hold the ratios, then the
    larger of the two working sets of _output_bands and numpy's ufunc buffers.
    The recurrence holds one _RATIO_BLOCK of coefficients (firsts and seconds)
    and the working row and step, n_times x rows each, and the block's integer
    coefficients, rows each; the band formation holds log_fact_ratio and the
    log-band scratch, rows x d each, and the levels and outside tables, d + rows
    each.  When the count at the floor rows >= min(_BAND_MARGIN + 2, d) already
    exceeds limit, that count is returned and no table is built.
    """
    d = cutoff_s + 1
    block = max(min(_RATIO_BLOCK, d - 2), 0)

    def peak(rows: int) -> int:  # the ufunc buffers: up to 133 kB seen, casting in the recurrence
        recurrence = 16 * n_times * rows * (block + 1) + 8 * block * rows
        formation = 16 * rows * d + 9 * (d + rows)
        return (8 * (d + rows - 1) + 8 * n_times * rows * d + max(recurrence, formation)
                + 20 * np.getbufsize())

    floor = peak(min(_BAND_MARGIN + 2, d))  # offset 0 is always kept: kmax >= min(9, d - 1)
    return floor if floor > limit else peak(_band_kmax(input, d) + 1)


def _output_bands(params: AmplifierParams, input: CoherentInput, log_fact: np.ndarray, d: int,
                  kmax: int, times: np.ndarray) -> np.ndarray:
    """Untruncated output bands of moduli B[i, k, n] = |rho[n+k, n](times[i])|,
    zero past the cutoff.

    log_fact[j] = log j! for j <= d - 1 + kmax.  The bands are one float64
    (times, kmax + 1, d) array, and the recurrence, run for all times at once,
    keeps time j's ratios M_n / M_(n-1) in band j's own block, viewed as
    (d, kmax + 1).  Band i is formed in one (kmax + 1, d) scratch from its own
    time's log ratios and then written over them, so no ratio is overwritten
    before it is read.
    """
    n_times, rows = len(times), kmax + 1
    bands = np.empty((n_times, rows, d))
    ratios = bands.reshape(n_times, d, rows)  # time j's ratios in band j's block
    t = times[:, None]
    nbar = params.noise_ratio * np.expm1(params.kappa_minus * t)
    beta_sq = gain(params, t) * input.amplitude_sq
    y = beta_sq / (1.0 + nbar)
    k = np.arange(rows)[None, :]
    # ratios M_n / M_(n-1) of M_n = nbar^n L_n^(k)(-y/nbar), from
    # (n+1) M_(n+1) = ((2n+1+k) nbar + y) M_n - (n+k) nbar^2 M_(n-1);
    # M_n > 0 and it is the dominant solution, so the forward recurrence is stable;
    # each step does the formula's floating-point operations in its order, on a
    # contiguous working row that is then copied into place
    ratios[:, 0] = 1.0
    row = (1 + k) * nbar + y
    if d > 1:
        ratios[:, 1] = row
    nbar_sq = nbar**2
    step = np.empty_like(row)
    for n0 in range(1, d - 1, _RATIO_BLOCK):
        ns = np.arange(n0, min(n0 + _RATIO_BLOCK, d - 1))
        firsts = (2 * ns[:, None, None] + 1 + k) * nbar + y
        seconds = (ns[:, None, None] + k) * nbar_sq
        for n, first, second in zip(ns.tolist(), firsts, seconds):
            np.divide(second, row, out=step)
            np.subtract(first, step, out=step)
            np.divide(step, n + 1, out=row)
            ratios[:, n + 1] = row
        del firsts, seconds, first, second  # before the next block is formed

    # (rows, d) views whose entry [k, n] is v[n + k]: n + k + 1, n + k >= d, log (n + k)!
    levels = sliding_window_view(np.arange(1.0, d + rows), d)
    outside = sliding_window_view(np.arange(d + kmax) >= d, d)
    log_fact_ratio = log_fact[:d] - sliding_window_view(log_fact, d)
    log_fact_ratio *= 0.5
    kk = k[0][:, None]
    log1p_nbar = np.log1p(nbar)
    half_log_beta_sq = 0.5 * np.log(beta_sq)
    log_band = np.empty((rows, d))
    for i in range(n_times):
        # log M_n in time i's own ratio storage, then the log band in the scratch:
        # both before band i is written over them
        np.log(ratios[i], out=ratios[i])
        np.cumsum(ratios[i], axis=0, out=ratios[i])
        np.multiply(levels, log1p_nbar[i], out=log_band)
        np.subtract(ratios[i].T, log_band, out=log_band)
        np.add(log_band, log_fact_ratio, out=log_band)
        np.add(log_band, kk * half_log_beta_sq[i], out=log_band)
        np.subtract(log_band, y[i], out=log_band)
        np.exp(log_band, out=log_band)
        np.copyto(log_band, 0.0, where=outside)
        bands[i] = log_band
    return bands


def _check_band(band: np.ndarray, d: int, t: float, escaped: float):
    top = band[0, d - 1] + escaped
    if top > TOP_POPULATION_LIMIT:
        raise GuardTripError(
            f"top Fock level and beyond hold {top:.2e} > {TOP_POPULATION_LIMIT} at t={t}; "
            "cutoff too small for this horizon"
        )
    if band.shape[0] >= 4:
        edge = band[-3:].max()
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
    The states' bands are views of one float64 (times, kmax + 1, cutoff_s + 1)
    array.
    """
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError(f"times must be finite and nonnegative, got {times.tolist()}")
    d = int(cutoff_s) + 1
    kmax = _band_kmax(input, d)
    log_fact = _log_factorials(d + kmax)  # up to n + k = d - 1 + kmax
    out = []
    for t, band in zip(times, _output_bands(params, input, log_fact, d, kmax, times)):
        trace = band[0].sum()
        _check_band(band, d, t, 1.0 - trace)
        band /= trace
        out.append(FockState(band))
    return out


def pegg_barnett_distribution(state: FockState) -> PhaseDensity:
    """Phase density from projecting onto the s+1 discrete phase states.

    p(phi_m) = [(s+1)/2pi] <phi_m|rho|phi_m> on phi_m = 2pi m/(s+1), a grid
    over [0, 2pi); in Fourier form (1/2pi)[2 Re sum_k c_k e^(-ik phi_m) - c_0]
    with c_k = e^(ik INPUT_PHASE) sum_n band[k, n] the offset sums of rho:
    the kmax + 1 real band sums turned by the input phase, then one FFT of c_k
    zero-padded to s+1 points.  The grid sum integrates to trace(rho) exactly.
    """
    d = state.cutoff_s + 1
    c = state.band.sum(axis=1) * np.exp(1j * np.arange(len(state.band)) * INPUT_PHASE)
    dens = (2 * np.fft.fft(c, n=d).real - c[0].real) / (2 * np.pi)
    return PhaseDensity(phi_grid=2 * np.pi * np.arange(d) / d, density=np.maximum(dens, 0.0))


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
