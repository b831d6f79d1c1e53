"""Inverse-moment expansion of E[1/N(t)] and the phase variance built on it.

The moments Y_n = E[1/N^n(t)] obey the one-way hierarchy

    dY_n/dt = b_n Y_n + c_n Y_{n+1},   b_n = -n kappa_minus,  c_n = n^2 kappa_up.

Truncating at order K and solving gives E[1/N(t)] = sum_n g_n(t) E[1/N^n(0)]
with g_n(t) = sum_{k<=n} beta_{k,n} exp(b_k t).  The coefficients come from
their closed form; the tests cross-check them against two independent routes
(eigendecomposition of the bidiagonal hierarchy matrix, iterated integrals for
n <= 3).  Integrating kappa_up/2 * g_n produces the phase-variance weights
chi_n(t).

beta_{k,n} does not depend on K, so the order-k truncation is a prefix of the
order-K sum: mean_inverse and phase_variance_expansion build one table and
return every order 1..K at once, as the cumulative sum of the per-order terms.

The series is asymptotic in practice: |beta_{k,n}| grows like [(n-1)!]^2, so
beta is assembled from log magnitudes with sign tracking, and evaluations for
n beyond ~10 lose significance to cancellation.  truncation_diagnostic reports
when the last retained term is no longer small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import AmplifierParams, CoherentInput

__all__ = [
    "ExpansionTable",
    "build_table",
    "g_n",
    "initial_inverse_moments",
    "mean_inverse",
    "chi_n",
    "phase_variance_expansion",
    "TruncationDiagnostic",
    "truncation_diagnostic",
]


@dataclass(frozen=True, eq=False)
class ExpansionTable:
    """Decay rates b_n, couplings c_n and coefficients beta[k-1, n-1] up to order K."""

    order_k: int
    b: np.ndarray
    c: np.ndarray
    beta: np.ndarray
    params: AmplifierParams = field(repr=False)


def build_table(params: AmplifierParams, order_k: int) -> ExpansionTable:
    """Assemble the expansion coefficients for orders 1..order_k.

    beta_{k,n} = c_1 ... c_{n-1} / prod_{j != k} (b_k - b_j) for n >= 2 and
    beta_{1,1} = 1; numerator and denominator are accumulated in log space
    because both grow factorially (naive products overflow near K ~ 20).
    """
    if order_k < 1 or order_k != int(order_k):
        raise ValueError(f"order_k must be an integer >= 1, got {order_k}")
    order_k = int(order_k)
    n_idx = np.arange(1, order_k + 1)
    b = -n_idx * params.kappa_minus
    c = n_idx**2 * params.kappa_up

    beta = np.zeros((order_k, order_k))
    beta[0, 0] = 1.0
    log_c = np.log(c)
    for n in range(2, order_k + 1):
        log_num = log_c[: n - 1].sum()
        for k in range(1, n + 1):
            diffs = b[k - 1] - np.delete(b[:n], k - 1)
            log_den = np.log(np.abs(diffs)).sum()
            sign = np.prod(np.sign(diffs))
            beta[k - 1, n - 1] = sign * np.exp(log_num - log_den)

    # completeness of each column: g_n(0) must reproduce the initial moments
    row_sums = beta.sum(axis=0)
    expected = np.zeros(order_k)
    expected[0] = 1.0
    scale = np.maximum(np.abs(beta).max(axis=0), 1.0)
    if np.any(np.abs(row_sums - expected) > 1e-10 * scale):
        raise ArithmeticError("expansion coefficients violate the g_n(0) identity")
    return ExpansionTable(order_k=order_k, b=b, c=c, beta=beta, params=params)


def g_n(table: ExpansionTable, n: int, t):
    """Time-dependent weight of the n-th initial inverse moment.

    g_1(t) = 1/G_t exactly; g_n(0) = 0 for n >= 2; all g_n decay to zero.
    """
    if not 1 <= n <= table.order_k:
        raise IndexError(f"n must be in 1..{table.order_k}, got {n}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    w = table.beta[:n, n - 1]
    return np.exp(np.multiply.outer(t, table.b[:n])) @ w


def initial_inverse_moments(input: CoherentInput, order_k: int) -> np.ndarray:
    """E[1/N^n(0)] = |alpha|^(-2n) for the deterministic coherent point.

    Requires |alpha|^2 > 1: the series in inverse moments has no chance of
    behaving otherwise.
    """
    if input.amplitude_sq <= 1.0:
        raise ValueError(
            "amplitude_sq must exceed 1 for the inverse-moment series; "
            f"got {input.amplitude_sq} (the geometric growth of 1/N^n(0) "
            "otherwise overwhelms the expansion)"
        )
    n = np.arange(1, int(order_k) + 1)
    return input.amplitude_sq ** (-n.astype(float))


def _partial_sums(weight, params, input, order_k, t):
    """Rows k-1 = sum_{n<=k} weight_n(t) E[1/N^n(0)], k = 1..order_k, from one table."""
    table = build_table(params, order_k)
    moments = initial_inverse_moments(input, table.order_k)
    t = np.asarray(t, dtype=float)
    return np.cumsum(
        [weight(table, n, t) * moments[n - 1] for n in range(1, table.order_k + 1)], axis=0
    )


def mean_inverse(params: AmplifierParams, input: CoherentInput, order_k: int, t):
    """E[1/N(t)] ~= sum_n g_n(t) E[1/N^n(0)] at every truncation order 1..order_k.

    Returns an (order_k, *t.shape) array whose row k-1 is the order-k sum.
    """
    return _partial_sums(g_n, params, input, order_k, t)


def chi_n(table: ExpansionTable, n: int, t):
    """Phase-variance weight chi_n(t) = (kappa_up/2) * integral_0^t g_n.

    Closed form (kappa_up/2) sum_k (beta_{k,n}/b_k)(exp(b_k t) - 1), evaluated
    with expm1; zero at t = 0, nondecreasing, finite limit -(kappa_up/2)
    sum_k beta_{k,n}/b_k.
    """
    if not 1 <= n <= table.order_k:
        raise IndexError(f"n must be in 1..{table.order_k}, got {n}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    w = table.beta[:n, n - 1] / table.b[:n]
    return 0.5 * table.params.kappa_up * (np.expm1(np.multiply.outer(t, table.b[:n])) @ w)


def phase_variance_expansion(params: AmplifierParams, input: CoherentInput, order_k: int, t):
    """V[Phi(t)] = sum_n chi_n(t) E[1/N^n(0)] at every truncation order 1..order_k.

    Returns an (order_k, *t.shape) array whose row k-1 is the order-k sum.
    E[Phi(t)] stays at Phi(0) (the phase is driven by pure noise) and the
    coherent input carries no initial phase spread, so the second moment
    carries the whole time dependence.
    """
    return _partial_sums(chi_n, params, input, order_k, t)


@dataclass(frozen=True)
class TruncationDiagnostic:
    order_k: int
    last_term_share: float
    flagged: bool


def truncation_diagnostic(orders) -> TruncationDiagnostic:
    """Share of the order-K value carried by the last retained order.

    orders is the (K, ...) array of phase_variance_expansion or mean_inverse;
    its last two rows are the order-K and order-(K-1) values.  There is no
    a-priori rule for where the asymptotic series turns; as a heuristic the
    last term contributing more than 20% of the order-K value anywhere on the
    grid is flagged.  K = 1 has nothing to compare against.
    """
    orders = np.asarray(orders, dtype=float)
    order_k = len(orders)
    if order_k == 1:
        return TruncationDiagnostic(order_k=1, last_term_share=float("nan"), flagged=False)
    v_k, v_km1 = orders[-1], orders[-2]
    nonzero = v_k != 0
    share = float(np.max(np.abs(v_k - v_km1)[nonzero] / np.abs(v_k)[nonzero], initial=0.0))
    return TruncationDiagnostic(order_k=order_k, last_term_share=share, flagged=share > 0.20)
