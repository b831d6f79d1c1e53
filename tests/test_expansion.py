"""Expansion coefficients by three routes, the chi weights, and the phase variance.

The closed-form coefficients in phasediff.expansion are checked against two
oracles kept here: the eigendecomposition of the truncated hierarchy matrix
and the iterated-integral solution for n <= 3.  The chi weights are checked
against their lossless closed form in the gain, and the all-orders evaluation
against one table per order.
"""

import math
from dataclasses import dataclass

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
from phasediff.expansion import build_table, chi_n, g_n, initial_inverse_moments

IDEAL_1 = AmplifierParams(1.0, 0.0)


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


def g_n_matrix_route(params: AmplifierParams, order_k: int, t: float) -> np.ndarray:
    """All g_n(t), n = 1..order_k, from the first row of s exp(D t) s_inv."""
    sys = build_triangular_system(params, order_k)
    propag = sys.s[0, :] * np.exp(sys.b * float(t))
    return propag @ sys.s_inv


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


def per_order_route(weight, params, input, order_k, t):
    """Order-k truncations for k = 1..order_k, one table per order."""
    t = np.asarray(t, dtype=float)
    rows = []
    for k in range(1, order_k + 1):
        table = build_table(params, k)
        moments = initial_inverse_moments(input, k)
        total = np.zeros(t.shape)
        for n in range(1, k + 1):
            total = total + weight(table, n, t) * moments[n - 1]
        rows.append(total)
    return np.array(rows)


def random_params(rng):
    # noise ratios above ~2.5 push the alternating beta terms past the float
    # cancellation budget of the 1e-10 identity checks at order 6
    ku = rng.uniform(0.3, 2.5)
    kd = rng.uniform(0.0, 0.6) * ku * rng.integers(0, 2)  # half the cases lossless
    return AmplifierParams(ku, kd)


class TestBuildTable:
    def test_order_one(self):
        assert build_table(IDEAL_1, 1).beta.tolist() == [[1.0]]

    def test_ideal_order_two_is_rate_independent(self):
        for ku in (1.0, 2.0, 0.3):
            t = build_table(AmplifierParams(ku, 0.0), 2)
            assert t.beta[0, 1] == pytest.approx(1.0, rel=1e-13)
            assert t.beta[1, 1] == pytest.approx(-1.0, rel=1e-13)

    def test_generic_order_two(self):
        t = build_table(AmplifierParams(2.0, 1.0), 2)
        assert t.beta[0, 1] == pytest.approx(2.0, rel=1e-13)
        assert t.beta[1, 1] == pytest.approx(-2.0, rel=1e-13)

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = build_table(random_params(rng), 6)
            sums = t.beta.sum(axis=0)
            assert abs(sums[0] - 1.0) < 1e-12
            assert np.all(np.abs(sums[1:]) < 1e-10)

    def test_large_order_does_not_overflow(self):
        t = build_table(AmplifierParams(1.5, 0.2), 20)
        assert np.all(np.isfinite(t.beta))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            build_table(IDEAL_1, 0)
        with pytest.raises(ValueError):
            build_table(IDEAL_1, 2.5)


class TestGn:
    def test_g1_is_inverse_gain(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = random_params(rng)
            t = rng.uniform(0.0, 4.0)
            assert g_n(build_table(p, 3), 1, t) == pytest.approx(1.0 / gain(p, t), rel=1e-13)

    def test_g2_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = random_params(rng)
            tt = rng.uniform(0.0, 4.0)
            g = gain(p, tt)
            expected = p.noise_ratio * (1.0 / g) * (1.0 - 1.0 / g)
            assert g_n(build_table(p, 2), 2, tt) == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert g_n(build_table(IDEAL_1, 2), 2, np.log(2.0)) == pytest.approx(0.25, rel=1e-13)

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
            assert g_n(build_table(p, 3), 3, tt) == pytest.approx(explicit, rel=1e-12)

    def test_initial_and_late_time_limits(self):
        table = build_table(AmplifierParams(1.2, 0.3), 6)
        for n in range(2, 7):
            assert abs(g_n(table, n, 0.0)) < 1e-10
            assert abs(g_n(table, n, 60.0)) < 1e-12
        assert g_n(table, 1, 0.0) == pytest.approx(1.0)

    def test_positive_after_t0(self):
        table = build_table(AmplifierParams(1.0, 0.2), 5)
        t = np.linspace(0.01, 8.0, 300)
        for n in range(1, 6):
            assert np.all(g_n(table, n, t) > 0.0)

    def test_index_bounds(self):
        table = build_table(IDEAL_1, 3)
        with pytest.raises(IndexError):
            g_n(table, 4, 1.0)


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
            via_matrix = g_n_matrix_route(p, k, tt)
            table = build_table(p, k)
            via_closed = np.array([g_n(table, n, tt) for n in range(1, k + 1)])
            assert np.abs(via_matrix - via_closed).max() < 1e-10


class TestIteratedRoute:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = random_params(rng)
            tt = rng.uniform(0.0, 3.0)
            table = build_table(p, 3)
            for n in (1, 2, 3):
                assert g_n_iterated_route(p, n, tt) == pytest.approx(
                    float(g_n(table, n, tt)), abs=1e-12
                )

    def test_n1_is_single_exponential(self):
        p = AmplifierParams(1.7, 0.4)
        assert g_n_iterated_route(p, 1, 0.9) == pytest.approx(
            np.exp(-p.kappa_minus * 0.9), rel=1e-14
        )

    def test_rejects_n_above_three(self):
        with pytest.raises(ValueError):
            g_n_iterated_route(IDEAL_1, 4, 1.0)


class TestInitialMoments:
    def test_powers(self):
        m = initial_inverse_moments(CoherentInput(3.0), 2)
        assert m == pytest.approx([1 / 3, 1 / 9])

    def test_boundary(self):
        initial_inverse_moments(CoherentInput(1.0 + 1e-9), 2)
        with pytest.raises(ValueError):
            initial_inverse_moments(CoherentInput(1.0), 2)

    def test_weak_input_vector(self):
        m = initial_inverse_moments(CoherentInput(2.25), 4)
        assert m == pytest.approx([2.25**-1, 2.25**-2, 2.25**-3, 2.25**-4], rel=1e-14)


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
    # the one-table-per-order evaluation bit for bit
    def test_rows_equal_the_per_order_route(self):
        rng = np.random.default_rng(41)
        t = np.concatenate([[0.0], rng.uniform(0.0, 4.0, 25)])
        for _ in range(10):
            p = random_params(rng)
            inp = CoherentInput(rng.uniform(1.2, 15.0))
            for order_k in range(1, 9):
                got = mean_inverse(p, inp, order_k, t)
                assert got.shape == (order_k, len(t))
                assert np.all(got == per_order_route(g_n, p, inp, order_k, t))
                got = phase_variance_expansion(p, inp, order_k, t)
                assert got.shape == (order_k, len(t))
                assert np.all(got == per_order_route(chi_n, p, inp, order_k, t))


class TestChi:
    def test_ideal_first_weight(self):
        table = build_table(IDEAL_1, 1)
        for t in (0.1, 0.7, 3.0):
            assert chi_n(table, 1, t) == pytest.approx(0.5 * (1 - 1 / gain(IDEAL_1, t)), rel=1e-12)
        assert chi_n(table, 1, 50.0) == pytest.approx(0.5, rel=1e-12)

    def test_zero_at_t0_and_monotone(self):
        table = build_table(AmplifierParams(1.1, 0.3), 5)
        t = np.linspace(0.0, 10.0, 500)
        for n in range(1, 6):
            vals = chi_n(table, n, t)
            assert vals[0] == pytest.approx(0.0, abs=1e-15)
            assert np.all(np.diff(vals) >= -1e-14)
            assert np.isfinite(vals[-1])

    def test_simpson_quadrature_oracle(self):
        grid = np.arange(0.0, 2.0 + 5e-4, 1e-3)
        for p in (IDEAL_1, AmplifierParams(1.4, 0.4)):
            table = build_table(p, 6)
            for n in range(1, 7):
                integral = simpson(g_n(table, n, grid), x=grid)
                assert chi_n(table, n, 2.0) == pytest.approx(
                    0.5 * p.kappa_up * integral, abs=1e-8
                )

    def test_ideal_specialization(self):
        for ku in (1.0, 2.0):
            p = AmplifierParams(ku, 0.0)
            table = build_table(p, 5)
            for t in (0.3, 1.0, 2.5):
                g = gain(p, t)
                for n in range(1, 6):
                    assert chi_n_ideal(n, g) == pytest.approx(
                        float(chi_n(table, n, t)), abs=1e-12
                    )

    def test_ideal_rate_independence_at_matched_gain(self):
        g = 7.5
        for n in range(1, 7):
            assert chi_n_ideal(n, g) == chi_n_ideal(n, g)  # pure function of G
        # two rates, matched gain, via the generic route
        t1 = np.log(g) / 1.0
        t2 = np.log(g) / 2.0
        a = [chi_n(build_table(AmplifierParams(1.0, 0.0), 6), n, t1) for n in range(1, 7)]
        b = [chi_n(build_table(AmplifierParams(2.0, 0.0), 6), n, t2) for n in range(1, 7)]
        assert np.abs(np.array(a) - np.array(b)).max() < 1e-12

    def test_ideal_second_weight_limit(self):
        assert chi_n_ideal(2, 1e14) == pytest.approx(0.25, rel=1e-10)


class TestPhaseVariance:
    def test_starts_at_initial_variance(self):
        v0 = phase_variance_expansion(IDEAL_1, CoherentInput(2.25), 4, 0.0)
        assert v0 == pytest.approx(np.zeros(4), abs=1e-14)

    def test_monotone_and_saturating(self):
        t = np.linspace(0.0, 14.0, 700)
        v = phase_variance_expansion(IDEAL_1, CoherentInput(2.25), 4, t)[-1]
        assert np.all(np.diff(v) >= -1e-14)
        assert v[-1] - v[-50] < 1e-5

    def test_dominates_small_noise(self):
        t = np.linspace(0.0, 10.0, 300)
        for n0 in (2.25, 13.0):
            inp = CoherentInput(n0)
            sn = small_noise_phase_variance(IDEAL_1, inp, t)
            orders = phase_variance_expansion(IDEAL_1, inp, 4, t)
            for k in (1, 2, 4):
                assert np.all(orders[k - 1] >= sn - 1e-12)

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
        m = initial_inverse_moments(CoherentInput(3.0), k + 1)

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
