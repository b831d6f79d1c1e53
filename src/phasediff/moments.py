"""Closed-form photon-number statistics and signal-to-noise diagnostics.

All formulas are evaluated in log-gain form: the exponent x = kappa_minus * t
is formed first and G - 1 terms go through expm1, so small-t values do not
suffer cancellation (G - 1 ~ kappa_minus * t there).
"""

from __future__ import annotations

import numpy as np

from .params import AmplifierParams, CoherentInput

__all__ = [
    "gain",
    "mean_photon",
    "photon_variance",
    "inverse_snr",
    "high_gain_inverse_snr",
]


def _log_gain(params: AmplifierParams, t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    return params.kappa_minus * t


def gain(params: AmplifierParams, t):
    """Photon-number gain G_t = exp(kappa_minus * t)."""
    return np.exp(_log_gain(params, t))


def mean_photon(params: AmplifierParams, n0: float, t):
    """E[N(t)] = G_t n0 + (kappa_up/kappa_minus)(G_t - 1).

    The second piece is the input-independent spontaneous-emission noise.
    """
    if n0 < 0:
        raise ValueError("n0 must be >= 0")
    x = _log_gain(params, t)
    return n0 * np.exp(x) + params.noise_ratio * np.expm1(x)


def photon_variance(params: AmplifierParams, input: CoherentInput, t):
    """V[N(t)] for a coherent input.

    Algebraically V = E[N^2] - E[N]^2; for the deterministic initial point the
    difference collapses to 2 r G(G-1) n0 + r^2 (G-1)^2 with r = kappa_up /
    kappa_minus, which is the form evaluated here (no cancellation at small t).
    """
    r = params.noise_ratio
    x = _log_gain(params, t)
    gm1 = np.expm1(x)
    return 2 * r * np.exp(x) * gm1 * input.amplitude_sq + (r * gm1) ** 2


def inverse_snr(params: AmplifierParams, input: CoherentInput, t):
    """1/sigma(t) = V[N(t)] / E[N(t)]^2, the inverse signal-to-noise ratio."""
    mean = mean_photon(params, input.amplitude_sq, t)
    if np.any(mean == 0):
        raise ZeroDivisionError("mean photon number vanishes on the requested grid")
    return photon_variance(params, input, t) / mean**2


def high_gain_inverse_snr(params: AmplifierParams, amplitude_sq: float):
    """Stationary (G -> infinity) limit of 1/sigma for a coherent input.

    Sigma(|alpha|^2) = [(|alpha|^2 + r)^2 - |alpha|^4] / (|alpha|^2 + r)^2,
    r = kappa_up/kappa_minus.  Equals 1 exactly at zero input and decays to 0
    for strong inputs; smaller r (a more ideal amplifier) gives a smaller value
    at every nonzero input strength.
    """
    amplitude_sq = np.asarray(amplitude_sq, dtype=float)
    if np.any(amplitude_sq < 0):
        raise ValueError("amplitude_sq must be >= 0")
    r = params.noise_ratio
    return (2 * amplitude_sq * r + r**2) / (amplitude_sq + r) ** 2

