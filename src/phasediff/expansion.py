"""Inverse-moment expansion of E[1/N(t)] and the phase variance built on it.

The moments Y_n = E[1/N^n(t)] obey the one-way hierarchy

    dY_n/dt = b_n Y_n + c_n Y_{n+1},   b_n = -n kappa_minus,  c_n = n^2 kappa_up.

Truncated at order K, it gives E[1/N(t)] = sum_n g_n(t) E[1/N^n(0)] with
g_n(t) = sum_k beta_{k,n} exp(b_k t), beta_{k,n} = c_1 ... c_{n-1} /
prod_{j != k} (b_k - b_j).  As b_k - b_j = (j - k) kappa_minus, the sum over k
is binomial, so g_n and the phase-variance weight chi_n = (kappa_up/2) *
integral_0^t g_n have closed forms (r = kappa_up/kappa_minus, G = G_t):

    g_n = (n-1)! r^(n-1) G^-1 (1 - 1/G)^(n-1),   chi_n = (n-1)!/(2n) (r (1 - 1/G))^n.

With E[1/N^n(0)] = n0^-n both series are power series in the argument
x = r (1 - 1/G)/n0 of the small-noise variance (1/2) ln(1 + x)
(phasediff.smallnoise compares the two):

    E_K[1/N] = (1/(G n0)) sum_{n<=K} (n-1)! x^(n-1),   V_K = sum_{n<=K} (n-1)!/(2n) x^n.

Every term is positive, and the order-k truncation is a prefix of the order-K
one, so the terms are formed once, by a running product, and every order
1..K is a cumulative sum.  The tests keep the beta sum (in exact arithmetic),
the hierarchy matrix's eigendecomposition and iterated integrals as oracles.

The series is asymptotic: the terms grow by about n x per order, so they turn
near n ~ 1/x >= n0/r, and at large enough K they overflow to inf, which the
CSV writer refuses.  truncation_diagnostic flags a last term that is no
longer small.  The series is formal, too: for t > 0 the photon number N(t)
has density e^-eta / nbar > 0 at N = 0, so E[1/N(t)] = infinity (and every
higher inverse moment with it).  Each truncation is finite and is compared
with Monte Carlo means conditional on no floor contact (phasediff.sde).
"""

from __future__ import annotations

import numpy as np

from .moments import gain
from .params import AmplifierParams, CoherentInput
from .smallnoise import _noise_to_signal

__all__ = ["mean_inverse", "phase_variance_expansion", "truncation_diagnostic"]


def _series(params: AmplifierParams, input: CoherentInput, order_k: int, t):
    """n = 1..order_k as a column, x, and the terms (n-1)! x^(n-1), shape (order_k, *t.shape)."""
    if order_k < 1 or order_k != int(order_k):
        raise ValueError(f"order_k must be an integer >= 1, got {order_k}")
    if input.amplitude_sq <= 1.0:
        raise ValueError(
            "amplitude_sq must exceed 1 for the inverse-moment series; "
            f"got {input.amplitude_sq} (the geometric growth of 1/N^n(0) "
            "otherwise overwhelms the expansion)"
        )
    x = _noise_to_signal(params, input, t)
    n = np.arange(1, int(order_k) + 1, dtype=float).reshape((-1,) + (1,) * np.ndim(x))
    steps = (n - 1) * x  # term n over term n - 1
    steps[0] = 1.0
    return n, x, np.cumprod(steps, axis=0)


def mean_inverse(params: AmplifierParams, input: CoherentInput, order_k: int, t):
    """E[1/N(t)] ~= (1/(G n0)) sum_{n<=k} (n-1)! x^(n-1) at every order k = 1..order_k.

    Returns an (order_k, *t.shape) array whose row k-1 is the order-k sum.
    """
    _, _, terms = _series(params, input, order_k, t)
    return np.cumsum(terms, axis=0) / (input.amplitude_sq * gain(params, t))


def phase_variance_expansion(params: AmplifierParams, input: CoherentInput, order_k: int, t):
    """V[Phi(t)] ~= sum_{n<=k} (n-1)!/(2n) x^n at every order k = 1..order_k.

    Returns an (order_k, *t.shape) array whose row k-1 is the order-k sum.
    E[Phi(t)] stays at Phi(0) (the phase is driven by pure noise) and the
    coherent input carries no initial phase spread, so the second moment
    carries the whole time dependence.
    """
    n, x, terms = _series(params, input, order_k, t)
    return np.cumsum(terms * x / (2 * n), axis=0)


def truncation_diagnostic(orders) -> dict:
    """Share of the order-K value carried by the last retained order.

    orders is the (K, ...) array of phase_variance_expansion or mean_inverse;
    its last two rows are the order-K and order-(K-1) values.  There is no
    a-priori rule for where the asymptotic series turns; as a heuristic the
    last term contributing more than 20% of the order-K value anywhere on the
    grid is flagged.  Returns the sidecar record {"order_k", "last_term_share",
    "flagged"}; K = 1 has nothing to compare against, so its share is None
    (JSON null).
    """
    orders = np.asarray(orders, dtype=float)
    order_k = len(orders)
    if order_k == 1:
        return {"order_k": 1, "last_term_share": None, "flagged": False}
    v_k, v_km1 = orders[-1], orders[-2]
    nonzero = v_k != 0
    share = float(np.max(np.abs(v_k - v_km1)[nonzero] / np.abs(v_k)[nonzero], initial=0.0))
    return {"order_k": order_k, "last_term_share": share, "flagged": share > 0.20}
