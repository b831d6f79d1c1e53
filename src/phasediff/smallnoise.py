"""Phase variance under the small-noise approximation.

Replacing E[1/N(t)] by 1/E[N(t)] closes the phase second-moment equation; the
time integral of kappa_up / (2 E[N(t)]) then has the closed log form below.
By Jensen's inequality (1/N convex) this is a lower bound on the true phase
variance at every time.
"""

from __future__ import annotations

import numpy as np

from .moments import _log_gain
from .params import AmplifierParams, CoherentInput

__all__ = ["small_noise_phase_variance"]


def small_noise_phase_variance(params: AmplifierParams, input: CoherentInput, t):
    """Closed-form V[Phi(t)] with E[1/N] replaced by 1/E[N].

    V(t) = (1/2) ln[1 + r (1 - 1/G_t) / n0],  r = kappa_up/kappa_minus,
    starting from V(0) = 0 for the coherent phase-space point.  Evaluated as
    log1p(-r expm1(-x) / n0) with x = ln G_t, so t = 0 gives exactly 0 and the
    large-G tail keeps full precision.
    """
    n0 = input.amplitude_sq
    r = params.noise_ratio
    x = _log_gain(params, t)
    return 0.5 * np.log1p(-r * np.expm1(-x) / n0)
