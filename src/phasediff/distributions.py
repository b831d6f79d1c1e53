"""Full phase distributions: the high-gain closed form and the Fock-space reference.

Two routes to the phase density of the amplified field:

* p_function_phase_density - the closed-form density of the phase-space
  (Glauber-Sudarshan) picture, a function of the signal-to-noise ratio
  eta = |beta|^2/nbar alone (so it holds with loss as well as without),
  evaluated in an algebraically expanded form that is free of the
  sec(phi - INPUT_PHASE) singularity of the textbook expression.
* evolve_density_series + pegg_barnett_distribution - the exact output state
  in a truncated Fock basis (its offset sums, streamed, in the runners),
  projected onto the discrete phase states
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

Every Fock output reads the state only through its offset sums c_k, its trace,
its top level's population and its band edge, so no run holds a band:
_band_blocks runs the recurrence forward in n and forms the band entries of
_BLOCK levels at a time, for all times, in one reused (times, levels, kmax + 1)
scratch, and the runners reduce each block to the offset sums and the two
guard scalars (_offset_sums).  evolve_density_series writes the same blocks
into its states' bands, so the recurrence and the band formula exist once.

The cutoff is no setting: fock_cutoff, the one cutoff rule, gives the smallest
level where the output's Chernoff tail, minimized in closed form, is below
CUTOFF_TAIL (and so the input's, whose generating function is below the
output's) and refuses an output mean of 2**53 or more.  A streamed run holds
O(times x (kmax + 1) x _BLOCK) floats and the d + kmax log-factorials, but its
time grows with d: _fock_work counts it in formed band entries, so that
validation refuses a run too long before any Fock table is made.

No route through this module loads scipy: the log-factorials come
from one table of math.lgamma values, built per run of the recurrence,
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


_BLOCK = 64  # levels whose band entries are formed at once, for all times

# a recurrence step, with its share of its block's calls, costs about as much as
# forming this many band entries (2.5-3.8 us a level against 17-19 ns an entry,
# fitted over 1-32 times on a 2-vCPU x86-64 host)
_STEP_ENTRIES = 200


def _fock_work(input: CoherentInput, cutoff_s: int, n_times: int, limit: float) -> int:
    """Work of a Fock run of n_times times at cutoff_s, counted in formed band entries.

    d = cutoff_s + 1 levels, each forming n_times x (kmax + 1) entries and
    taking one recurrence step of _STEP_ENTRIES.  When the count at the floor
    kmax + 1 >= min(_BAND_MARGIN + 2, d) already exceeds limit, that count is
    returned and no table is built.
    """
    d = cutoff_s + 1

    def work(rows: int) -> int:
        return d * (n_times * rows + _STEP_ENTRIES)

    floor = work(min(_BAND_MARGIN + 2, d))  # offset 0 is always kept: kmax >= min(9, d - 1)
    return floor if floor > limit else work(_band_kmax(input, d) + 1)


def _fock_levels(input: CoherentInput, cutoff_s: int, times) -> tuple[np.ndarray, int, int]:
    """The times as a float array, refused unless finite and nonnegative, the
    level count d = cutoff_s + 1 and the band's kmax."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError(f"times must be finite and nonnegative, got {times.tolist()}")
    d = int(cutoff_s) + 1
    return times, d, _band_kmax(input, d)


def _band_blocks(params: AmplifierParams, input: CoherentInput, times: np.ndarray, d: int,
                 kmax: int):
    """Yield (n0, block) for n0 = 0, _BLOCK, 2 _BLOCK, ... < d, where
    block[i, j, k] = |rho[n+k, n](times[i])| at level n = n0 + j of the
    untruncated output, zero past the cutoff.

    Every block is the same reused (times, levels, kmax + 1) scratch, written
    over by the next; times lead, so that each term that varies with time
    alone meets one contiguous (levels, kmax + 1) run per time.  The
    recurrence runs forward in n for all times at once and copies each
    level's ratios M_n / M_(n-1) into the scratch; log M is carried from
    block to block, so each running sum is the one a cumsum over all n makes.
    """
    rows = kmax + 1
    log_fact = _log_factorials(d + kmax)  # log j! up to j = n + k = d - 1 + kmax
    t = times[:, None]
    nbar = params.noise_ratio * np.expm1(params.kappa_minus * t)
    beta_sq = gain(params, t) * input.amplitude_sq
    y = beta_sq / (1.0 + nbar)
    k = np.arange(rows)
    # ratios M_n / M_(n-1) of M_n = nbar^n L_n^(k)(-y/nbar), from
    # (n+1) M_(n+1) = ((2n+1+k) nbar + y) M_n - (n+k) nbar^2 M_(n-1);
    # M_n > 0 and it is the dominant solution, so the forward recurrence is stable;
    # each step does the formula's floating-point operations in its order, on a
    # contiguous working row that is then copied into the scratch
    row = (1 + k) * nbar + y  # M_1 / M_0
    step = np.empty_like(row)
    log_m = np.zeros_like(row)  # log M_(n0 - 1)
    k_half_log_beta_sq = (k * (0.5 * np.log(beta_sq)))[:, None, :]
    # (times, 1, 1): broadcast over a block's levels and offsets
    nbar, y = nbar[:, :, None], y[:, :, None]
    nbar_sq, log1p_nbar = nbar**2, np.log1p(nbar)
    log_fact_shifted = sliding_window_view(log_fact, rows)  # [n, k] = log (n + k)!
    # the block and its levels' recurrence coefficients (the firsts in the
    # scratch that then holds the formation's product), reused from block to block
    scratch, product, seconds_scratch = np.empty((3, len(times), min(_BLOCK, d), rows))
    for n0 in range(0, d, _BLOCK):
        n1 = min(n0 + _BLOCK, d)
        block = scratch[:, : n1 - n0]
        first = max(n0, 2)  # levels 0 and 1 are 1 and the row, the rest a step each
        if n0 == 0:
            block[:, 0] = 1.0
            if d > 1:
                block[:, 1] = row
        ns = np.arange(first - 1, n1 - 1, dtype=float)[:, None]  # step n gives level n + 1
        firsts = np.multiply(2 * ns + 1 + k, nbar, out=product[:, : len(ns)])
        firsts += y
        seconds = np.multiply(ns + k, nbar_sq, out=seconds_scratch[:, : len(ns)])
        for first_n, second, ratio, n in zip(*(a.transpose(1, 0, 2) for a in (
                firsts, seconds, block[:, first - n0:])), (ns[:, 0] + 1).tolist()):
            np.divide(second, row, out=step)
            np.subtract(first_n, step, out=step)
            np.divide(step, n, out=row)
            np.copyto(ratio, row)

        np.log(block, out=block)
        block[:, 0] += log_m
        np.cumsum(block, axis=1, out=block)
        log_m[...] = block[:, -1]
        levels = np.arange(n0 + 1.0, n1 + 1.0)[:, None] + k  # n + k + 1
        np.multiply(levels, log1p_nbar, out=product[:, : n1 - n0])
        np.subtract(block, product[:, : n1 - n0], out=block)
        log_fact_ratio = log_fact[n0:n1, None] - log_fact_shifted[n0:n1]
        log_fact_ratio *= 0.5
        np.add(block, log_fact_ratio, out=block)
        np.add(block, k_half_log_beta_sq, out=block)
        np.subtract(block, y, out=block)
        np.exp(block, out=block)
        if n1 + kmax > d:  # the block reaches past the cutoff
            np.copyto(block, 0.0, where=levels > d)
        yield n0, block


def _edge_offsets(rows: int) -> slice:
    """The band's last three offsets, which the band-edge guard reads; none
    in a band of fewer than four."""
    return slice(rows - 3 if rows >= 4 else rows, rows)


def _check_guards(t: float, top: float, edge: float):
    """Refuse an output state whose top level and beyond (top: the top level's
    population plus the mass past the cutoff) or whose band edge (the largest
    entry of the last three offsets) is populated."""
    if top > TOP_POPULATION_LIMIT:
        raise GuardTripError(
            f"top Fock level and beyond hold {top:.2e} > {TOP_POPULATION_LIMIT} at t={t}; "
            "cutoff too small for this horizon"
        )
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
    array, filled block by block from _band_blocks.  It is for callers that
    want the states themselves: the runners, which read only offset sums,
    stream them (_offset_sums) and hold no band.
    """
    times, d, kmax = _fock_levels(input, cutoff_s, times)
    bands = np.empty((len(times), kmax + 1, d))
    for n0, block in _band_blocks(params, input, times, d, kmax):
        bands[:, :, n0:n0 + block.shape[1]] = block.transpose(0, 2, 1)
    out = []
    for t, band in zip(times, bands):
        trace = band[0].sum()
        _check_guards(t, band[0, d - 1] + (1.0 - trace),
                      band[_edge_offsets(kmax + 1)].max(initial=0.0))
        band /= trace
        out.append(FockState(band))
    return out


def _offset_sums(params: AmplifierParams, input: CoherentInput, cutoff_s: int,
                 times) -> np.ndarray:
    """Offset sums c_k = sum_n |rho[n+k, n]| of the output at each time, over
    the unit trace: the (times, kmax + 1) sums evolve_density_series's states
    give, under the same guards, from the streamed blocks alone."""
    times, d, kmax = _fock_levels(input, cutoff_s, times)
    sums = np.zeros((len(times), kmax + 1))
    edge = np.zeros(len(times))
    edges = _edge_offsets(kmax + 1)
    for _, block in _band_blocks(params, input, times, d, kmax):
        sums += block.sum(axis=1)
        np.maximum(edge, block[:, :, edges].max(axis=(1, 2), initial=0.0), out=edge)
    trace = sums[:, 0].copy()
    top = block[:, -1, 0] + (1.0 - trace)  # the last block ends at the top level
    for t, top_t, edge_t in zip(times, top, edge):
        _check_guards(t, top_t, edge_t)
    sums /= trace[:, None]
    return sums


def pegg_barnett_distribution(state: FockState) -> PhaseDensity:
    """Phase density from projecting onto the s+1 discrete phase states.

    p(phi_m) = [(s+1)/2pi] <phi_m|rho|phi_m> on phi_m = 2pi m/(s+1), a grid
    over [0, 2pi); in Fourier form (1/2pi)[2 Re sum_k c_k e^(-ik phi_m) - c_0]
    with c_k = e^(ik INPUT_PHASE) sum_n band[k, n] the offset sums of rho:
    the kmax + 1 real band sums turned by the input phase, then one FFT of c_k
    zero-padded to s+1 points.  The grid sum integrates to trace(rho) exactly.
    """
    return _pegg_barnett(state.band.sum(axis=1), state.cutoff_s + 1)


def _pegg_barnett(sums: np.ndarray, d: int) -> PhaseDensity:
    """The Pegg-Barnett density on d points from the real offset sums
    sum_n band[k, n], k = 0..kmax (see pegg_barnett_distribution)."""
    c = sums * np.exp(1j * np.arange(len(sums)) * INPUT_PHASE)
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
