"""Tests for the external field, the gap-conditional weights, and the
smooth approximating weights that bracket them.

The conditional weight is validated against a brute-force product over two
million factors with a certified remainder, entirely independent of the
package's own tail machinery.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bessellab.errors import DomainError
from bessellab.sequences import make_bessel_zero_squared, make_quadratic
from bessellab.weights import (
    ApproxWeight,
    ConditionalWeight,
    PowerWeight,
    ScaledWeight,
    check_sandwich,
    field_V,
    field_V_gamma,
    field_V_tilde,
)

FOUR_LOG_2 = 2.77258872223978123766892848583  # mpmath, 30 digits
PI2 = math.pi**2


class TestField:
    def test_endpoint_values(self):
        assert field_V_tilde(0.0) == 0.0
        assert_allclose(field_V_tilde(1.0), 2.0 * math.log(2.0), rtol=1e-15)
        assert_allclose(field_V_tilde(-1.0), 2.0 * math.log(2.0), rtol=1e-15)
        assert field_V(0.0) == 0.0
        assert_allclose(field_V(1.0), FOUR_LOG_2, rtol=1e-15)

    def test_v_tilde_is_even(self):
        t = np.linspace(0.0, 1.0, 31)
        assert_allclose(field_V_tilde(-t), field_V_tilde(t), rtol=1e-15)

    def test_v_is_v_tilde_of_sqrt(self):
        t = np.linspace(0.0, 1.0, 201)
        assert_allclose(field_V(t), 2.0 * field_V_tilde(np.sqrt(t)), rtol=0, atol=1e-14)

    def test_small_argument_expansion(self):
        # V_tilde(t) = t^2 + t^4/6 + O(t^6)
        for t in (1e-3, 1e-2):
            assert_allclose(field_V_tilde(t), t * t + t**4 / 6.0, rtol=1e-8)

    def test_stable_near_one(self):
        # (1 - sqrt t) log(1 - sqrt t) evaluated via (1-t)/(1+sqrt t)
        t = 1.0 - 1e-12
        q = (1.0 - t) / (1.0 + math.sqrt(t))
        expected = 2.0 * (1.0 + math.sqrt(t)) * math.log1p(math.sqrt(t)) + 2.0 * q * math.log(q)
        assert_allclose(field_V(t), expected, rtol=1e-13)

    def test_gamma_scaling(self):
        t = np.linspace(0.0, 1.7, 20)
        assert_allclose(field_V_gamma(1.7, t), field_V(t / 1.7), rtol=0, atol=0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            field_V_tilde(1.5)
        with pytest.raises(DomainError):
            field_V(-0.1)
        with pytest.raises(DomainError):
            field_V_gamma(0.9, 0.5)
        with pytest.raises(DomainError):
            field_V_gamma(2.0, 2.5)
        for call in (lambda: field_V(math.nan), lambda: field_V_tilde(math.nan),
                     lambda: field_V_gamma(math.nan, 0.5), lambda: field_V_gamma(math.inf, 0.5),
                     lambda: field_V_gamma(2.0, math.nan)):
            with pytest.raises(DomainError):
                call()


class TestConditionalWeight:
    def test_brute_force_product(self):
        # log w_bar(t) = nu log t + sum_{p_n > R} 2 log(1 - t/p_n); the
        # quadratic sequence admits a certified brute-force evaluation:
        # two million explicit factors, then -2t/pi^2 * zeta(2, N+1) with a
        # quadratic-in-t remainder below 1e-19
        from scipy.special import zeta

        seq = make_quadratic()
        R = PI2 * 4.5  # two conditioned points
        w = ConditionalWeight(seq, 0.0, R)
        assert w.n_cond == 2
        n_stop = 2_000_000
        n = np.arange(3, n_stop + 1, dtype=float)
        for t in (R / 2.0, R / 10.0, 0.999 * R):
            explicit = math.fsum(2.0 * np.log1p(-t / (PI2 * n * n)))
            remainder = -2.0 * t / PI2 * float(zeta(2, n_stop + 1))
            assert_allclose(w.log_bar(t), explicit + remainder, rtol=0, atol=1.1e-10)

    def test_unit_interval_rescaling(self):
        # w_unit(t) = R^-nu w_bar(R t) on [0, 1]
        seq = make_quadratic()
        nu, R = 0.7, 300.0
        w = ConditionalWeight(seq, nu, R)
        t = np.linspace(0.01, 0.99, 17)
        assert_allclose(w.log_density(t), -nu * math.log(R) + w.log_bar(R * t), rtol=0, atol=1e-12)

    def test_tail_tolerance_controls_truncation(self):
        seq = make_bessel_zero_squared(0.0)
        wa = ConditionalWeight(seq, 0.0, 150.0, tail_tolerance=1e-8)
        wb = ConditionalWeight(seq, 0.0, 150.0, tail_tolerance=1e-13)
        # a tighter tolerance may deepen the analytic tail series instead of
        # lengthening the explicit product, but never loosens either
        assert (wb.M, wb.series_depth) >= (wa.M, wa.series_depth)
        t = np.linspace(1.0, 149.0, 23)
        assert np.max(np.abs(wa.log_bar(t) - wb.log_bar(t))) < 1e-8
        assert wa.tail_error < 1e-8 and wb.tail_error < 1e-13

    def test_monotone_in_gap_length(self):
        # enlarging the gap removes factors, so the weight can only grow
        seq = make_quadratic()
        w1 = ConditionalWeight(seq, 0.0, 100.0)
        w2 = ConditionalWeight(seq, 0.0, 240.0)
        for t in (5.0, 50.0, 99.0):
            assert w2.log_bar(t) >= w1.log_bar(t)

    def test_log_bar_below_power_head(self):
        # every product factor is <= 1 on (0, R]
        seq = make_quadratic()
        w = ConditionalWeight(seq, 1.0, 50.0)
        t = np.linspace(1.0, 49.0, 13)
        assert np.all(w.log_bar(t) <= 1.0 * np.log(t) + 1e-14)

    @pytest.mark.parametrize("nu,expected", [(0.0, 0.0), (0.5, -np.inf), (-0.5, np.inf)])
    def test_origin_conventions(self, nu, expected):
        w = ConditionalWeight(make_quadratic(), nu, 100.0)
        assert w.log_density(0.0) == expected

    def test_invalid_parameters(self):
        seq = make_quadratic()
        with pytest.raises(DomainError):
            ConditionalWeight(seq, -1.5, 100.0)
        with pytest.raises(DomainError):
            ConditionalWeight(seq, 0.0, -5.0)
        with pytest.raises(DomainError):
            ConditionalWeight(seq, 0.0, 100.0, tail_tolerance=0.0)


class TestApproxWeight:
    def test_plus_log_density(self):
        w = ApproxWeight("plus", 1.5, 7, 0.5)
        t = np.linspace(0.05, 1.0, 9)
        expected = 0.5 * np.log(t) - 7.0 * field_V(t / 1.5)
        assert_allclose(w.log_density(t), expected, rtol=0, atol=1e-13)

    def test_minus_cutoff(self):
        gamma = 1.4
        w = ApproxWeight("minus", gamma, 5, 0.0)
        assert w.quad_support == pytest.approx(gamma**-2)
        assert w.log_density(0.9) == -np.inf
        assert np.isfinite(w.log_density(0.5 * gamma**-2))

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.0])
    def test_minus_is_rescaled_plus(self, nu):
        # omega_minus(t) = gamma^(-2 nu) omega_plus(gamma^2 t)
        gamma, n = 1.3, 9
        plus = ApproxWeight("plus", gamma, n, nu)
        minus = ApproxWeight("minus", gamma, n, nu)
        t = np.linspace(0.01, gamma**-2, 15)
        lhs = minus.log_density(t)
        rhs = -2.0 * nu * math.log(gamma) + plus.log_density(gamma**2 * t)
        assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_power_limit_under_zoom(self):
        # n^(2 nu) omega(x / n^2) -> x^nu; since V(s) ~ 2s near 0, the log
        # error is 2x/(gamma n) to leading order
        nu, gamma, x = 0.5, 1.5, 3.0
        errs = []
        for n in (20, 40, 80):
            w = ApproxWeight("plus", gamma, n, nu)
            val = 2.0 * nu * math.log(n) + w.log_density(x / n**2)
            errs.append(abs(val - nu * math.log(x)))
        assert errs[2] < errs[1] < errs[0]
        assert_allclose(errs, [2.0 * x / (gamma * n) for n in (20, 40, 80)], rtol=2e-2)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            ApproxWeight("middle", 1.5, 5, 0.0)
        with pytest.raises(DomainError):
            ApproxWeight("plus", 1.0, 5, 0.0)
        with pytest.raises(DomainError):
            ApproxWeight("plus", 1.5, 0, 0.0)


class TestSimpleWeights:
    def test_power_weight(self):
        w = PowerWeight(0.5)
        assert_allclose(w.log_density(0.25), 0.5 * math.log(0.25), rtol=1e-15)
        assert w.log_smooth(0.7) == 0.0
        assert w.support == 1.0

    def test_scaled_weight(self):
        # d * w(c t): support shrinks by c, log density shifts by log d
        base = PowerWeight(0.0)
        w = ScaledWeight(base, 4.0, 3.0)
        assert w.support == pytest.approx(0.25)
        assert_allclose(w.log_density(0.1), math.log(3.0), rtol=1e-15)


_WEIGHTS = {
    "ConditionalWeight": lambda: ConditionalWeight(make_quadratic(), 0.5, 1e3),
    "ApproxWeight": lambda: ApproxWeight("minus", 1.4, 5, 0.5),
    "PowerWeight": lambda: PowerWeight(0.5),
    "ScaledWeight": lambda: ScaledWeight(PowerWeight(0.5), 4.0, 3.0),
}


class TestDomain:
    # every weight is t^nu h(t) on [0, support]: a point that is not finite
    # or lies off the support raises, with no warning, NaN or clipped value
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("point", ["nan", "inf", "-inf", "-0.5", "1.5 support"])
    @pytest.mark.parametrize("method", ["log_density", "log_smooth"])
    @pytest.mark.parametrize("kind", sorted(_WEIGHTS))
    def test_points_off_the_support_raise(self, kind, method, point):
        w = _WEIGHTS[kind]()
        t = 1.5 * w.support if point == "1.5 support" else float(point)
        with pytest.raises(DomainError, match="finite|support"):
            getattr(w, method)(t)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", sorted(_WEIGHTS))
    def test_support_and_its_rounding_slack_are_inside(self, kind):
        w = _WEIGHTS[kind]()
        t = np.array([0.0, 0.5 * w.support, w.support, w.support * (1 + 1e-13)])
        assert not np.any(np.isnan(w.log_smooth(t)))
        assert w.log_density(t)[0] == -np.inf  # the head 0.5 log t at t = 0


class TestSandwich:
    def test_holds_for_large_gap(self):
        rep = check_sandwich(ConditionalWeight(make_quadratic(), 0.0, 1e3), 1.2)
        assert rep.ok
        assert rep.lower_violations == 0 and rep.upper_violations == 0
        assert rep.summary()["points"] == 1000

    def test_margins_at_origin_are_zero(self):
        # at t = 0 (nu = 0) all three weights equal 1; interior grid margins
        # must stay strictly positive for a comfortable gap
        rep = check_sandwich(ConditionalWeight(make_quadratic(), 0.0, 1e3), 1.2)
        assert rep.lower_margin.min() > 0
        assert rep.upper_margin.min() > 0

    def test_violations_reported_as_data(self):
        # with only one conditioned point the bracket genuinely fails on
        # part of the grid; the report must say so rather than raise
        seq = make_quadratic()
        R = (seq.p(1) + seq.p(2)) / 2.0
        rep = check_sandwich(ConditionalWeight(seq, 0.0, R), 1.2)
        assert not rep.ok
        assert rep.lower_violations > 0
        assert rep.summary()["min_lower_margin"] < 0

    def test_bessel_sequence_sandwich(self):
        rep = check_sandwich(ConditionalWeight(make_bessel_zero_squared(0.0), 0.0, 500.0), 1.3)
        assert rep.ok
