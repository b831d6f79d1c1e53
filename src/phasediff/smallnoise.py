"""Phase variance under the small-noise approximation.

Replacing E[1/N(t)] by 1/E[N(t)] closes the phase second-moment equation; the
time integral of kappa_up / (2 E[N(t)]) is V(t) = (1/2) ln(1 + x) with
x = r (1 - 1/G_t) / n0 (r = kappa_up/kappa_minus), the spontaneous-emission
photons r (G_t - 1) over the amplified input G_t n0.  By Jensen's inequality
(1/N convex) this is a lower bound on the true phase variance at every time.

The inverse-moment expansion (phasediff.expansion) is a power series in the
same x, V_K = sum_{n<=K} (n-1)!/(2n) x^n.  The first orders agree (x/2); the
second orders differ in sign (+x^2/4 there, -x^2/4 here).  Every term of V_K
is positive and ln(1 + x) <= x, so V_K >= x/2 >= (1/2) ln(1 + x) for every K.
"""

from __future__ import annotations

import numpy as np

from .moments import _log_gain
from .params import AmplifierParams, CoherentInput

__all__ = ["small_noise_phase_variance"]


def _noise_to_signal(params: AmplifierParams, input: CoherentInput, t):
    """x = -r expm1(-ln G_t) / n0: exactly 0 at t = 0, full precision as G grows."""
    return -params.noise_ratio * np.expm1(-_log_gain(params, t)) / input.amplitude_sq


def small_noise_phase_variance(params: AmplifierParams, input: CoherentInput, t):
    """Closed-form V[Phi(t)] = (1/2) ln(1 + x) with E[1/N] replaced by 1/E[N];
    V(0) = 0 exactly for the coherent phase-space point."""
    return 0.5 * np.log1p(_noise_to_signal(params, input, t))
