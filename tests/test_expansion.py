"""The inverse-moment series against three routes through the hierarchy.

phasediff.expansion sums the closed form of the truncated hierarchy's
solution.  Three oracles kept here solve the hierarchy their own way: the
beta-product sum over exponentials (in exact rational arithmetic), the
eigendecomposition of the truncated hierarchy matrix, and the iterated-integral
solution for n <= 3.  The production's per-order weights g_n and chi_n are read
off its cumulative sums (row differences times n0^n) and checked against each
oracle, against the lossless chi_n_ideal and against Simpson quadrature; the
cumulative sums themselves are checked against the exact beta sum up to order
30.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from scipy.integrate import simpson

from phasediff import (
    AmplifierParams,
    CoherentInput,
    gain,
    mean_inverse,
    phase_variance_expansion,
    small_noise_phase_variance,
    truncation_diagnostic,
)

IDEAL_1 = AmplifierParams(1.0, 0.0)
N0 = 1.5  # the input the per-order weights are read at


def weights(series, params, order_k, t, n0=N0):
    """The production's weights g_n (series = mean_inverse) or chi_n
    (phase_variance_expansion), n = 1..order_k, and their rounding scale.

    The order-n term of the series is the weight times E[1/N^n(0)] = n0^-n,
    so the weights are the row differences times n0^n; the scale is one ulp
    of the rows times n0^n, the size of the rounding those differences carry.
    """
    rows = series(params, CoherentInput(n0), order_k, t)
    power = n0 ** np.arange(1.0, order_k + 1).reshape((-1,) + (1,) * np.ndim(t))
    return np.diff(rows, axis=0, prepend=0.0) * power, np.spacing(np.abs(rows)) * power


def assert_weights_match(got, scale, want, rtol=1e-13, slack=0.0):
    """got within rtol of want, plus four ulps of the rows read and the oracle's slack."""
    bound = rtol * np.abs(want) + 4 * scale + slack
    assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) / bound)


def beta_table(r, order_k):
    """beta[k-1][n-1] = c_1 ... c_{n-1} / prod_{j<=n, j != k} (b_k - b_j), exactly.

    In units of kappa_minus, b_k = -k and c_j = j^2 r, so b_k - b_j = j - k and
    beta depends on r alone (a Fraction, or a float taken exactly).
    """
    r = Fraction(r)
    beta = [[Fraction(0)] * order_k for _ in range(order_k)]
    for n in range(1, order_k + 1):
        num = r ** (n - 1) * math.factorial(n - 1) ** 2
        for k in range(1, n + 1):
            beta[k - 1][n - 1] = num / math.prod(j - k for j in range(1, n + 1) if j != k)
    return beta


def beta_route(params, order_k, q):
    """Exact g_n and chi_n, n = 1..order_k, at 1/G = q (a Fraction).

    g_n = sum_k beta_{k,n} exp(b_k t) = sum_k beta_{k,n} q^k, and
    chi_n = (kappa_up/2) sum_k (beta_{k,n}/b_k)(exp(b_k t) - 1)
          = (r/2) sum_k beta_{k,n} (1 - q^k)/k.
    """
    r = Fraction(params.noise_ratio)
    beta = beta_table(r, order_k)
    g = [sum(beta[k - 1][n - 1] * q**k for k in range(1, n + 1)) for n in range(1, order_k + 1)]
    chi = [r / 2 * sum(beta[k - 1][n - 1] * (1 - q**k) / k for k in range(1, n + 1))
           for n in range(1, order_k + 1)]
    return g, chi


def inverse_gain(params, t):
    """1/G_t as the Fraction of the production's own 1 - 1/G_t = -expm1(-kappa_minus t)."""
    return 1 - Fraction(-math.expm1(-(params.kappa_minus * t)))


def beta_weights(params, order_k, t):
    """g_n and chi_n by the beta route at each time of t, as float arrays (order_k, len(t))."""
    cols = [beta_route(params, order_k, inverse_gain(params, float(tt))) for tt in t]
    return tuple(np.array([[float(v) for v in col[i]] for col in cols]).T for i in (0, 1))


@dataclass(frozen=True, eq=False)
class TriangularSystem:
    """Eigenvector matrix of the truncated hierarchy and its inverse.

    The bidiagonal hierarchy matrix A (diagonal b, superdiagonal c) has the
    unit-diagonal upper-triangular eigenvector matrix s; s_inv is obtained
    from the finite geometric series (I + M)^-1 = sum_q (-M)^q of its strictly
    upper-triangular part M.
    """

    s: np.ndarray
    s_inv: np.ndarray
    b: np.ndarray
    c: np.ndarray


def build_triangular_system(params: AmplifierParams, order_k: int) -> TriangularSystem:
    if order_k < 1 or order_k != int(order_k):
        raise ValueError(f"order_k must be an integer >= 1, got {order_k}")
    order_k = int(order_k)
    n_idx = np.arange(1, order_k + 1)
    b = -n_idx * params.kappa_minus
    c = n_idx**2 * params.kappa_up

    s = np.eye(order_k)
    for m in range(1, order_k):          # 1-based row m
        for n in range(m + 1, order_k + 1):  # column n > m
            num = np.prod(c[m - 1 : n - 1])
            den = np.prod(b[n - 1] - b[m - 1 : n - 1])
            s[m - 1, n - 1] = num / den

    nilpotent = s - np.eye(order_k)
    s_inv = np.eye(order_k)
    power = np.eye(order_k)
    for _ in range(order_k - 1):
        power = power @ (-nilpotent)
        s_inv = s_inv + power

    resid = np.abs(s @ s_inv - np.eye(order_k)).max()
    scale = max(np.abs(s).max() * np.abs(s_inv).max(), 1.0)
    if resid > 1e-12 * scale:
        raise ArithmeticError(f"triangular inverse residual {resid:.2e} too large")
    return TriangularSystem(s=s, s_inv=s_inv, b=b, c=c)


def g_n_matrix_route(params: AmplifierParams, order_k: int, t: float):
    """All g_n(t), n = 1..order_k, from the first row of s exp(D t) s_inv, and the
    sum of the magnitudes that product adds up (its rounding scale)."""
    sys = build_triangular_system(params, order_k)
    propag = sys.s[0, :] * np.exp(sys.b * float(t))
    return propag @ sys.s_inv, np.abs(propag) @ np.abs(sys.s_inv)


def g_n_iterated_route(params: AmplifierParams, n: int, t):
    """g_n by the iterated-integral solution of the hierarchy; closed forms exist
    only up to n = 3."""
    t = np.asarray(t, dtype=float)
    km, ku = params.kappa_minus, params.kappa_up
    b = lambda j: -j * km
    c = lambda j: j**2 * ku
    if n == 1:
        return np.exp(b(1) * t)
    if n == 2:
        return c(1) / (b(2) - b(1)) * (np.exp(b(2) * t) - np.exp(b(1) * t))
    if n == 3:
        c12 = c(1) * c(2)
        return c12 / ((b(3) - b(2)) * (b(3) - b(1))) * (
            np.exp(b(3) * t) - np.exp(b(1) * t)
        ) - c12 / ((b(3) - b(2)) * (b(2) - b(1))) * (
            np.exp(b(2) * t) - np.exp(b(1) * t)
        )
    raise ValueError(f"iterated-integral closed forms stop at n = 3, got n = {n}")


def chi_n_ideal(n: int, g_t):
    """chi_n for the lossless amplifier as an explicit function of the gain.

    chi_n = ([(n-1)!]^2 / 2) sum_k (1 - G^-k) / (k prod_{j != k} (j - k));
    independent of kappa_up once expressed through G.  The j = k factor is
    skipped, so the k = 1, n = 1 product is empty (= 1).
    """
    g_t = np.asarray(g_t, dtype=float)
    pref = math.exp(2 * math.lgamma(n))  # [(n-1)!]^2
    total = np.zeros(g_t.shape)
    for k in range(1, n + 1):
        # prod_{j != k}(j - k) = (-1)^(k-1) (k-1)! (n-k)!
        log_den = math.lgamma(k) + math.lgamma(n - k + 1)
        sign = -1.0 if (k - 1) % 2 else 1.0
        total = total + sign * (-np.expm1(-k * np.log(g_t))) / k * math.exp(-log_den)
    return 0.5 * pref * total


def random_params(rng):
    # noise ratios r = kappa_up/kappa_minus from 1 to 10; half the cases lossless
    ku = rng.uniform(0.3, 2.5)
    kd = rng.uniform(0.0, 0.9) * ku * rng.integers(0, 2)
    return AmplifierParams(ku, kd)


class TestBuildTable:
    """The exact beta table of the third oracle, and the order the production accepts."""

    def test_order_one(self):
        assert beta_table(1, 1) == [[1]]

    def test_ideal_order_two_is_rate_independent(self):
        for ku in (1.0, 2.0, 0.3):
            beta = beta_table(AmplifierParams(ku, 0.0).noise_ratio, 2)
            assert [beta[0][1], beta[1][1]] == [1, -1]

    def test_generic_order_two(self):
        beta = beta_table(AmplifierParams(2.0, 1.0).noise_ratio, 2)
        assert [beta[0][1], beta[1][1]] == [2, -2]

    def test_row_sums_vanish(self):
        # g_n(0) = sum_k beta_{k,n} reproduces the initial moments: 1, then 0
        rng = np.random.default_rng(3)
        for _ in range(10):
            beta = beta_table(random_params(rng).noise_ratio, 8)
            assert [sum(row[n] for row in beta) for n in range(8)] == [1] + [0] * 7

    def test_large_order_does_not_overflow(self):
        beta = beta_table(10, 30)
        assert np.all(np.isfinite(np.array(beta, dtype=float)))
        t = np.linspace(0.0, 20.0, 50)
        for series in (mean_inverse, phase_variance_expansion):
            assert np.all(np.isfinite(series(AmplifierParams(10.0, 9.0), CoherentInput(1.5),
                                             30, t)))

    def test_rejects_bad_order(self):
        for series in (mean_inverse, phase_variance_expansion):
            for order_k in (0, 2.5):
                with pytest.raises(ValueError, match="order_k must be an integer >= 1"):
                    series(IDEAL_1, CoherentInput(2.0), order_k, 1.0)


class TestGn:
    def test_g1_is_inverse_gain(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = random_params(rng)
            t = rng.uniform(0.0, 4.0)
            g, _ = weights(mean_inverse, p, 3, t)
            assert g[0] == pytest.approx(1.0 / gain(p, t), rel=1e-13)

    def test_g2_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = random_params(rng)
            tt = rng.uniform(0.0, 4.0)
            g = gain(p, tt)
            expected = p.noise_ratio * (1.0 / g) * (1.0 - 1.0 / g)
            got, scale = weights(mean_inverse, p, 2, tt)
            assert_weights_match(got[1], scale[1], expected, rtol=1e-12)
        got, scale = weights(mean_inverse, IDEAL_1, 2, np.log(2.0))
        assert_weights_match(got[1], scale[1], 0.25)

    def test_g3_against_explicit_three_exponential_form(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            p = random_params(rng)
            tt = rng.uniform(0.05, 3.0)
            km, ku = p.kappa_minus, p.kappa_up
            b1, b2, b3 = -km, -2 * km, -3 * km
            c1c2 = ku * (2**2 * ku)
            explicit = c1c2 * (
                np.exp(b1 * tt) / ((b1 - b2) * (b1 - b3))
                + np.exp(b2 * tt) / ((b2 - b1) * (b2 - b3))
                + np.exp(b3 * tt) / ((b3 - b1) * (b3 - b2))
            )
            got, scale = weights(mean_inverse, p, 3, tt)
            assert_weights_match(got[2], scale[2], explicit, rtol=1e-12,
                                 slack=1e-15 * c1c2 / km**2)

    def test_initial_and_late_time_limits(self):
        g0, _ = weights(mean_inverse, AmplifierParams(1.2, 0.3), 6, 0.0)
        assert g0[0] == pytest.approx(1.0, rel=1e-15)
        assert np.all(g0[1:] == 0.0)
        g60, _ = weights(mean_inverse, AmplifierParams(1.2, 0.3), 6, 60.0)
        assert np.all(np.abs(g60) < 1e-12)

    def test_positive_after_t0(self):
        t = np.linspace(0.01, 8.0, 300)
        g, _ = weights(mean_inverse, AmplifierParams(1.0, 0.2), 5, t)
        assert np.all(g > 0.0)

    def test_index_bounds(self):
        # one row per order, whatever the time grid's shape
        t = np.linspace(0.0, 2.0, 7)
        for series in (mean_inverse, phase_variance_expansion):
            assert series(IDEAL_1, CoherentInput(2.0), 3, t).shape == (3, 7)
            assert series(IDEAL_1, CoherentInput(2.0), 3, 1.0).shape == (3,)
            assert series(IDEAL_1, CoherentInput(2.0), 3, t.reshape(7, 1)).shape == (3, 7, 1)


class TestMatrixRoute:
    def test_k2_matrix_entries(self):
        p = AmplifierParams(2.0, 1.0)
        sys = build_triangular_system(p, 2)
        b1, b2, c1 = -p.kappa_minus, -2 * p.kappa_minus, p.kappa_up
        assert sys.s[0, 1] == pytest.approx(c1 / (b2 - b1), rel=1e-14)
        assert np.allclose(np.diag(sys.s), 1.0)
        assert np.allclose(np.diag(sys.s_inv), 1.0)

    def test_inverse_identity(self):
        # absolute at gentle magnitudes, scale-relative where entries are huge
        sys = build_triangular_system(IDEAL_1, 4)
        assert np.abs(sys.s @ sys.s_inv - np.eye(4)).max() < 1e-12
        rng = np.random.default_rng(2)
        for _ in range(5):
            sys = build_triangular_system(random_params(rng), 6)
            scale = max(np.abs(sys.s).max() * np.abs(sys.s_inv).max(), 1.0)
            assert np.abs(sys.s @ sys.s_inv - np.eye(6)).max() < 1e-12 * scale

    def test_inverse_matches_closed_form(self):
        # independent oracle: the explicit upper-triangular inverse
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = random_params(rng)
            k = 6
            sys = build_triangular_system(p, k)
            b, c = sys.b, sys.c
            expected = np.eye(k)
            for m in range(1, k + 1):
                for n in range(m + 1, k + 1):
                    num = np.prod(c[m - 1 : n - 1])
                    den = np.prod(b[m - 1] - b[m : n])
                    expected[m - 1, n - 1] = num / den
            assert np.allclose(sys.s_inv, expected, rtol=1e-11, atol=1e-13)

    def test_route_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_params(rng)
            k = int(rng.integers(1, 7))
            tt = rng.uniform(0.0, 3.0)
            via_matrix, magnitude = g_n_matrix_route(p, k, tt)
            got, scale = weights(mean_inverse, p, k, tt)
            assert_weights_match(got, scale, via_matrix, slack=1e-14 * magnitude)


class TestIteratedRoute:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = random_params(rng)
            tt = rng.uniform(0.0, 3.0)
            got, scale = weights(mean_inverse, p, 3, tt)
            for n in (1, 2, 3):
                assert_weights_match(got[n - 1], scale[n - 1], g_n_iterated_route(p, n, tt),
                                     slack=1e-12)

    def test_n1_is_single_exponential(self):
        p = AmplifierParams(1.7, 0.4)
        assert g_n_iterated_route(p, 1, 0.9) == pytest.approx(
            np.exp(-p.kappa_minus * 0.9), rel=1e-14
        )

    def test_rejects_n_above_three(self):
        with pytest.raises(ValueError):
            g_n_iterated_route(IDEAL_1, 4, 1.0)


class TestBetaRoute:
    def test_weights_match_the_exact_beta_sums(self):
        rng = np.random.default_rng(17)
        t = np.concatenate([[0.0], rng.uniform(0.0, 4.0, 12)])
        for _ in range(10):
            p = random_params(rng)
            k = int(rng.integers(1, 9))
            want_g, want_chi = beta_weights(p, k, t)
            for series, want in ((mean_inverse, want_g), (phase_variance_expansion, want_chi)):
                got, scale = weights(series, p, k, t)
                assert_weights_match(got, scale, want, rtol=1e-13)

    @pytest.mark.parametrize("kappa_up, kappa_down", [(1.0, 0.0), (3.0, 2.0), (2.0, 1.5),
                                                      (10.0, 9.0)])  # r = 1, 3, 4, 10
    def test_every_order_to_30_is_the_exact_beta_sum(self, kappa_up, kappa_down):
        # the cumulative sums at rational 1/G against the beta sums in exact
        # arithmetic; an alternating evaluation of the same sums in floats
        # misses them by many orders of magnitude here
        p = AmplifierParams(kappa_up, kappa_down)
        order_k = 30
        for inv_g in (Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000)):
            t = -math.log(inv_g) / p.kappa_minus
            g, chi = beta_route(p, order_k, inv_g)
            for n0 in (1.5, 2.25, 13.0):
                moments = [Fraction(n0) ** -n for n in range(1, order_k + 1)]
                for series, weight in ((mean_inverse, g), (phase_variance_expansion, chi)):
                    want = [float(v) for v in accumulate(w * m for w, m in zip(weight, moments))]
                    got = series(p, CoherentInput(n0), order_k, t)
                    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


class TestInitialMoments:
    """The initial moments E[1/N^n(0)] = n0^-n that weight the order-n terms."""

    def test_powers(self):
        # one weight, read at two inputs: the terms scale as n0^-n
        t = np.linspace(0.0, 3.0, 13)
        for series in (mean_inverse, phase_variance_expansion):
            at_3, scale_3 = weights(series, AmplifierParams(1.3, 0.4), 4, t, n0=3.0)
            at_6, scale_6 = weights(series, AmplifierParams(1.3, 0.4), 4, t, n0=6.0)
            assert_weights_match(at_3, scale_3 + scale_6, at_6)

    def test_boundary(self):
        for series in (mean_inverse, phase_variance_expansion):
            series(IDEAL_1, CoherentInput(1.0 + 1e-9), 2, 1.0)
            with pytest.raises(ValueError, match="amplitude_sq must exceed 1"):
                series(IDEAL_1, CoherentInput(1.0), 2, 1.0)

    def test_weak_input_vector(self):
        p, n0, order_k = IDEAL_1, 2.25, 4
        moments = [Fraction(n0) ** -n for n in range(1, order_k + 1)]
        for t in (0.0, 0.4, 2.0):
            g, _ = beta_route(p, order_k, inverse_gain(p, t))
            want = [float(v) for v in accumulate(w * m for w, m in zip(g, moments))]
            np.testing.assert_allclose(mean_inverse(p, CoherentInput(n0), order_k, t), want,
                                       rtol=1e-14, atol=0)


class TestMeanInverse:
    def test_first_order(self):
        p, inp = AmplifierParams(1.5, 0.5), CoherentInput(4.0)
        t = 1.3
        got = mean_inverse(p, inp, 1, t)
        assert got.shape == (1,)
        assert got[-1] == pytest.approx(0.25 / gain(p, t), rel=1e-13)

    def test_second_order_formula(self):
        p, inp = AmplifierParams(1.5, 0.5), CoherentInput(4.0)
        t = 0.8
        g = gain(p, t)
        expected = 0.25 / g + p.noise_ratio * (1 / g) * (1 - 1 / g) * 0.25**2
        got = mean_inverse(p, inp, 2, t)
        assert got[-1] == pytest.approx(expected, rel=1e-13)
        assert got[0] == pytest.approx(0.25 / g, rel=1e-13)

    def test_initial_value(self):
        p, inp = IDEAL_1, CoherentInput(2.25)
        got = mean_inverse(p, inp, 4, 0.0)
        assert got[-1] == pytest.approx(1 / 2.25, abs=1e-12)


class TestOneTableServesEveryOrder:
    # the order-k sum is a prefix of the order-K sum, so each row must equal
    # the order-k evaluation's last row bit for bit
    def test_rows_equal_the_per_order_route(self):
        rng = np.random.default_rng(41)
        t = np.concatenate([[0.0], rng.uniform(0.0, 4.0, 25)])
        for _ in range(10):
            p = random_params(rng)
            inp = CoherentInput(rng.uniform(1.2, 15.0))
            for series in (mean_inverse, phase_variance_expansion):
                got = series(p, inp, 8, t)
                assert got.shape == (8, len(t))
                for order_k in range(1, 9):
                    assert np.all(got[order_k - 1] == series(p, inp, order_k, t)[-1])


class TestChi:
    def test_ideal_first_weight(self):
        for t in (0.1, 0.7, 3.0):
            chi, _ = weights(phase_variance_expansion, IDEAL_1, 1, t)
            assert chi[0] == pytest.approx(0.5 * (1 - 1 / gain(IDEAL_1, t)), rel=1e-12)
        chi, _ = weights(phase_variance_expansion, IDEAL_1, 1, 50.0)
        assert chi[0] == pytest.approx(0.5, rel=1e-12)

    def test_zero_at_t0_and_monotone(self):
        t = np.linspace(0.0, 10.0, 500)
        chi, scale = weights(phase_variance_expansion, AmplifierParams(1.1, 0.3), 5, t)
        assert np.all(chi[:, 0] == 0.0)
        assert np.all(np.diff(chi, axis=1) >= -8 * scale.max(axis=1, keepdims=True))
        assert np.all(np.isfinite(chi))

    def test_simpson_quadrature_oracle(self):
        grid = np.arange(0.0, 2.0 + 5e-4, 1e-3)
        for p in (IDEAL_1, AmplifierParams(1.4, 0.4)):
            g, _ = weights(mean_inverse, p, 6, grid)
            chi, _ = weights(phase_variance_expansion, p, 6, 2.0)
            for n in range(1, 7):
                integral = simpson(g[n - 1], x=grid)
                assert chi[n - 1] == pytest.approx(0.5 * p.kappa_up * integral, abs=1e-8)

    def test_ideal_specialization(self):
        for ku in (1.0, 2.0):
            p = AmplifierParams(ku, 0.0)
            for t in (0.3, 1.0, 2.5):
                chi, scale = weights(phase_variance_expansion, p, 5, t)
                g = gain(p, t)
                for n in range(1, 6):
                    assert_weights_match(chi[n - 1], scale[n - 1], chi_n_ideal(n, g),
                                         slack=1e-12)

    def test_ideal_rate_independence_at_matched_gain(self):
        g = 7.5
        for n in range(1, 7):
            assert chi_n_ideal(n, g) == chi_n_ideal(n, g)  # pure function of G
        # two rates, matched gain, via the production
        a, _ = weights(phase_variance_expansion, AmplifierParams(1.0, 0.0), 6, np.log(g) / 1.0)
        b, _ = weights(phase_variance_expansion, AmplifierParams(2.0, 0.0), 6, np.log(g) / 2.0)
        assert np.abs(a - b).max() < 1e-12

    def test_ideal_second_weight_limit(self):
        assert chi_n_ideal(2, 1e14) == pytest.approx(0.25, rel=1e-10)
        chi, _ = weights(phase_variance_expansion, IDEAL_1, 2, np.log(1e14))
        assert chi[1] == pytest.approx(0.25, rel=1e-10)


class TestPhaseVariance:
    def test_starts_at_initial_variance(self):
        v0 = phase_variance_expansion(IDEAL_1, CoherentInput(2.25), 4, 0.0)
        assert np.all(v0 == 0.0)

    def test_monotone_and_saturating(self):
        t = np.linspace(0.0, 14.0, 700)
        v = phase_variance_expansion(IDEAL_1, CoherentInput(2.25), 4, t)[-1]
        assert np.all(np.diff(v) >= -1e-14)
        assert v[-1] - v[-50] < 1e-5

    def test_dominates_small_noise(self):
        # V_K >= V_1 = x/2 >= (1/2) ln(1 + x) at every order K
        t = np.linspace(0.0, 10.0, 300)
        for n0 in (2.25, 13.0):
            inp = CoherentInput(n0)
            sn = small_noise_phase_variance(IDEAL_1, inp, t)
            orders = phase_variance_expansion(IDEAL_1, inp, 30, t)
            for k in (1, 2, 4, 30):
                assert np.all(orders[k - 1] >= sn)

    def test_stationary_value_increases_with_order(self):
        values = phase_variance_expansion(IDEAL_1, CoherentInput(2.25), 4, 30.0)
        assert np.all(np.diff(values) > 0.0)


class TestMomentHierarchy:
    def test_truncated_vector_satisfies_its_ode(self):
        # finite differences of the full truncated moment vector against
        # b_n x_n + c_n x_{n+1}; the last row is allowed the dropped-term size
        p = AmplifierParams(1.3, 0.2)
        k = 5
        sys = build_triangular_system(p, k)
        m = 3.0 ** -np.arange(1.0, k + 2)

        def x_vec(order, t):
            s = build_triangular_system(p, order)
            prop = (s.s * np.exp(s.b * t)[None, :]) @ s.s_inv
            return prop @ m[:order]

        h = 1e-4
        for t in (0.2, 0.9, 2.1):
            x = x_vec(k, t)
            fd = (x_vec(k, t + h) - x_vec(k, t - h)) / (2 * h)
            rhs = sys.b * x + np.append(sys.c[:-1] * x[1:], 0.0)
            resid = np.abs(fd - rhs)
            assert np.all(resid[:-1] < 1e-7)
            dropped = abs(sys.c[-1] * x_vec(k + 1, t)[-1])
            assert resid[-1] <= dropped * (1 + 1e-6) + 1e-9


class TestTruncationDiagnostic:
    def test_first_order_has_nothing_to_compare(self):
        d = truncation_diagnostic(phase_variance_expansion(IDEAL_1, CoherentInput(2.25), 1, 5.0))
        assert d == {"order_k": 1, "last_term_share": None, "flagged": False}

    def test_flags_runaway_order(self):
        t = np.linspace(0.5, 8.0, 40)
        ok = truncation_diagnostic(phase_variance_expansion(IDEAL_1, CoherentInput(13.0), 4, t))
        assert ok["order_k"] == 4 and not ok["flagged"]
        runaway = truncation_diagnostic(
            phase_variance_expansion(IDEAL_1, CoherentInput(1.5), 9, t))
        assert runaway["order_k"] == 9 and runaway["flagged"]

    def test_share_is_the_last_term_over_the_order_k_value(self):
        orders = np.array([[1.0, 2.0, 0.0], [1.5, 2.1, 0.0]])
        d = truncation_diagnostic(orders)
        assert d["order_k"] == 2
        assert d["last_term_share"] == pytest.approx(0.5 / 1.5, rel=1e-15)
        assert d["flagged"] is True
