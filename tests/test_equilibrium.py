"""Tests for the constrained equilibrium measure, its complex maps, and the
global parametrix.

The density, the cdf and the Lagrange-type constant have closed forms; the
normalizing constant c_gamma is pinned against high-precision references
(mpmath, 30 digits, marked below) and against the other quantities through
exact identities such as edge_coeff_zero = 1/(2 sqrt(c_gamma)).
"""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bessellab import equilibrium as eq
from bessellab.errors import DomainError
from bessellab.weights import field_V_gamma

# mpmath, 30 digits: pi^2 gamma / (pi + 2 (sqrt(gamma-1) - atan sqrt(gamma-1)))^2
C_11 = 1.08619514814721698948940930956
C_15 = 1.33920704978969767147823764684
C_20 = 1.54810203792998690685965649436
C_50 = 2.03260309374070045920245567009


def _ell_exact(gamma):
    # Lagrange constant of mu_gamma with V(0) = 0, in closed form: mu_gamma
    # is the balayage onto [0, 1] of m_gamma (density 1/(2 sqrt(gamma s)) on
    # [0, gamma]), whose potential satisfies 2 U^m = V_gamma + 2 log gamma - 4
    # (test_reference_measure_identity); balayage lowers the potential on
    # [0, 1] by the integral over [1, gamma] of the Green function
    # 2 arccosh sqrt(t) of C minus [0, 1] against m_gamma, which equals
    # 2 arccosh sqrt(gamma) - 2 sqrt(1 - 1/gamma).  At gamma = 1 it is -4.
    return (2.0 * math.log(gamma) - 4.0 - 4.0 * math.acosh(math.sqrt(gamma))
            + 4.0 * math.sqrt(1.0 - 1.0 / gamma))


ELL = {g: _ell_exact(g) for g in (1.001, 1.1, 1.5, 2.0, 5.0)}


class TestClosedForms:
    def test_c_gamma_reference_values(self):
        assert_allclose(eq.c_gamma(1.1), C_11, rtol=1e-14)
        assert_allclose(eq.c_gamma(1.5), C_15, rtol=1e-14)
        assert_allclose(eq.c_gamma(2.0), C_20, rtol=1e-14)
        assert_allclose(eq.c_gamma(5.0), C_50, rtol=1e-14)

    def test_c_gamma_limits(self):
        assert eq.c_gamma(1.0) == 1.0
        gam = np.array([1.1, 1.5, 2.0, 5.0, 20.0])
        vals = [eq.c_gamma(g) for g in gam]
        assert np.all(np.diff(vals) > 0)

    def test_density_positive_and_singular_at_zero(self):
        s = np.linspace(1e-6, 1 - 1e-6, 50)
        rho = np.array([eq.density(2.0, si) for si in s])
        assert np.all(rho > 0)
        assert eq.density(2.0, 1e-10) > eq.density(2.0, 0.5)

    def test_cdf_endpoints_and_monotone(self):
        for g in (1.1, 2.0):
            assert eq.cdf(g, 1.0) == pytest.approx(1.0, abs=1e-12)
            assert eq.cdf(g, 1e-14) < 1e-6
            x = np.linspace(0.01, 0.99, 40)
            F = np.array([eq.cdf(g, xi) for xi in x])
            assert np.all(np.diff(F) > 0)

    def test_cdf_derivative_is_density(self):
        g, h = 1.5, 1e-6
        for x in (0.1, 0.4, 0.8):
            fd = (eq.cdf(g, x + h) - eq.cdf(g, x - h)) / (2 * h)
            assert_allclose(fd, eq.density(g, x), rtol=1e-6)

    def test_edge_coefficient_at_zero(self):
        # rho(s) ~ e0 / sqrt(s) with e0 = 1/(2 sqrt(c_gamma)): both compared
        # by extrapolating the density and through the closed form
        g = 2.0
        e0 = eq.edge_coeff_zero(g)
        assert_allclose(e0, 0.5 / math.sqrt(eq.c_gamma(g)), rtol=1e-14)
        for m in (8, 12):
            s = 4.0**-m
            assert_allclose(eq.density(g, s) * math.sqrt(s), e0, rtol=1e-4)

    def test_edge_coefficient_at_one(self):
        g = 2.0
        e1 = eq.edge_coeff_one(g)
        assert_allclose(e1, math.sqrt((g - 1.0) / g) / math.pi, rtol=1e-13)
        # rho(s) - e1/sqrt(1-s) stays bounded near s = 1
        for m in (8, 12):
            s = 1.0 - 4.0**-m
            assert_allclose(eq.density(g, s) * math.sqrt(1 - s), e1, rtol=2e-2)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eq.c_gamma(0.9)
        with pytest.raises(DomainError):
            eq.density(2.0, 1.5)
        with pytest.raises(DomainError):
            eq.cdf(2.0, -0.1)


class TestMassAndVariational:
    @pytest.mark.parametrize("g", [1.1, 2.0, 5.0])
    def test_unit_mass(self, g):
        assert abs(eq.mass_error(g)) < 1e-10

    @pytest.mark.parametrize("g", [1.1, 2.0, 5.0])
    def test_variational_residual_is_flat(self, g):
        ell, dev = eq.variational_check(g)
        assert dev < 1e-6
        assert_allclose(ell, ELL[g], atol=1e-9)

    def test_lagrange_constant_tends_to_minus_four(self):
        ell, _ = eq.variational_check(1.001)
        assert_allclose(ell, ELL[1.001], atol=1e-9)
        assert abs(ell + 4.0) < 2e-3

    def test_reference_measure_identity(self):
        # 2 int log|x-s| dm_gamma = V_gamma(x) + 2 log gamma - 4 on (0, gamma)
        for g, x in [(1.5, 0.5), (2.0, 0.5), (2.0, 1.3)]:
            lhs = 2.0 * eq.reference_potential(g, x)
            rhs = float(field_V_gamma(g, x)) + 2.0 * math.log(g) - 4.0
            assert_allclose(lhs, rhs, atol=1e-10)


def _log_potential_mp(mpmath, gamma, x):
    """40-digit integral of log|x - s| rho_gamma(s) ds, split at 0, x and 1.

    The piece on (x, 1) runs in d = 1 - s, so that 1 - s keeps its digits
    when x is within a few ulps of 1.
    """
    with mpmath.workdps(40):
        g, x = mpmath.mpf(gamma), mpmath.mpf(x)

        def rho(s, om):
            # density at s, given om = 1 - s
            q = mpmath.sqrt((g - 1) / om)
            return (mpmath.mpf(1) / 2 + (q - mpmath.atan(q)) / mpmath.pi) / mpmath.sqrt(g * s)

        left = mpmath.quad(lambda s: mpmath.log(x - s) * rho(s, 1 - s), [0, x])
        right = mpmath.quad(lambda d: mpmath.log(1 - x - d) * rho(1 - d, d), [0, 1 - x])
        return left + right


class TestPotentialRule:
    @pytest.mark.parametrize("g", [1.1, 2.0, 5.0])
    def test_log_potential_matches_mpmath(self, g):
        mpmath = pytest.importorskip("mpmath")
        # the last two sit two ulps and one ulp below 1, where 1 - s must be
        # formed from 1 - x to stay nonzero
        xs = np.array([0.01, 0.3, 0.99, 1 - 2**-52, 1 - 2**-53])
        ref = [float(_log_potential_mp(mpmath, g, x)) for x in xs]
        assert_allclose(eq.log_potential(g, xs), ref, rtol=0, atol=1e-14)

    def test_array_matches_pointwise(self):
        xs = np.linspace(0.05, 0.95, 7)
        pointwise = [eq.log_potential(2.0, x) for x in xs]
        assert_allclose(eq.log_potential(2.0, xs), pointwise, rtol=0, atol=1e-15)
        pointwise = [eq.reference_potential(2.0, x) for x in xs]
        assert_allclose(eq.reference_potential(2.0, xs), pointwise, rtol=0, atol=1e-15)
        with pytest.raises(DomainError):
            eq.log_potential(2.0, np.array([0.5, 1.0]))

    @pytest.mark.parametrize("g", [1.1, 2.0, 5.0])
    def test_quadrature_certificate(self, g):
        assert eq.diagnostics(g)["quadrature_error"] <= 1e-13

    def test_rule_is_cached_and_read_only(self):
        x, weights = eq._tanh_sinh()
        assert eq._tanh_sinh()[0] is x
        assert x.shape == (205,) and weights.shape == (205, 2)
        assert np.all((x > 0.0) & (x <= 1.0))
        # both columns integrate 1 over (0, 1)
        assert_allclose(weights.sum(axis=0), 1.0, rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            x[0] = 0.5
        with pytest.raises(ValueError):
            weights[0, 0] = 0.5

    def test_only_g_map_uses_adaptive_quadrature(self, monkeypatch):
        from scipy import integrate

        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(integrate, "quad", refuse)
        for g in (1.1, 2.0, 5.0):
            assert eq.diagnostics(g)["variational_deviation"] < 1e-6
        assert np.isfinite(eq.reference_potential(2.0, 1.3))
        assert np.isfinite(eq.g_boundary(2.0, -0.5, "+").real)
        with pytest.raises(AssertionError):
            eq.g_map(2.0, 0.5 + 0.1j)


class TestGMap:
    def test_behaves_like_log_at_infinity(self):
        z = 1e6 * cmath.exp(0.7j)
        assert abs(eq.g_map(2.0, z) - cmath.log(z)) < 5e-7

    def test_plus_minus_sum_on_support(self):
        # g+ + g- - V_gamma = ell, constant on (0, 1)
        g = 2.0
        ell = ELL[2.0]
        for x in (0.2, 0.5, 0.9):
            total = eq.g_boundary(g, x, "+") + eq.g_boundary(g, x, "-")
            resid = total.real - float(field_V_gamma(g, x))
            assert_allclose(resid, ell, atol=1e-9)
            assert abs(total.imag) < 1e-12

    def test_imaginary_part_counts_mass_above(self):
        g = 2.0
        for x in (0.25, 0.7):
            gp = eq.g_boundary(g, x, "+")
            assert_allclose(gp.imag, math.pi * (1.0 - eq.cdf(g, x)), rtol=1e-12)

    def test_full_jump_left_of_support(self):
        jump = eq.g_boundary(2.0, -0.5, "+") - eq.g_boundary(2.0, -0.5, "-")
        assert_allclose(jump.imag, 2.0 * math.pi, rtol=1e-14)
        assert abs(jump.real) < 1e-12


class TestPhiAndF:
    def test_phi_plus_is_i_pi_cdf(self):
        g = 2.0
        for x in (0.25, 0.7):
            assert abs(eq.phi_boundary(g, x, "+") - 1j * math.pi * eq.cdf(g, x)) < 1e-13
            # the two boundary values are conjugate
            assert abs(eq.phi_boundary(g, x, "-") + 1j * math.pi * eq.cdf(g, x)) < 1e-13
        xs = np.array([0.0, 0.25, 0.7])
        assert np.max(np.abs(eq.phi_boundary(g, xs, "+") - 1j * math.pi * eq.cdf(g, xs))) < 1e-13
        with pytest.raises(DomainError):
            eq.phi_boundary(g, np.array([0.5, 1.0]), "+")

    @pytest.mark.parametrize("side", ["plus", 1])
    def test_side_is_plus_or_minus_sign(self, side):
        with pytest.raises(DomainError):
            eq.phi_boundary(2.0, 0.5, side)
        with pytest.raises(DomainError):
            eq.g_boundary(2.0, 0.5, side)
        with pytest.raises(DomainError):
            eq.global_parametrix(0.5, 0.4, side=side)

    def test_phi_square_root_vanishing_at_origin(self):
        # phi(z) = i pi sqrt(z)/sqrt(c_gamma) + O(z^(3/2)) in the upper half plane
        g = 2.0
        root_c = math.sqrt(eq.c_gamma(g))
        for phase in (0.3, 1.2, 2.8):
            z = 1e-8 * cmath.exp(1j * phase)
            pred = 1j * math.pi * cmath.sqrt(z) / root_c
            assert abs(eq.phi_map(g, z) - pred) / abs(pred) < 1e-7

    def test_phi_continues_across_negative_axis(self):
        g = 1.5
        up = eq.phi_map(g, complex(-0.5, 1e-8))
        dn = eq.phi_map(g, complex(-0.5, -1e-8))
        assert abs(up - dn) < 1e-6

    def test_f_side_independent(self):
        g = 1.5
        for x in (0.2, 0.6):
            up = eq.f_map(g, complex(x, 1e-9))
            dn = eq.f_map(g, complex(x, -1e-9))
            assert abs(up - dn) < 1e-7

    def test_f_equals_quarter_pi_cdf_squared(self):
        # f = -phi^2/4 collapses to (pi F / 2)^2 on the support
        g = 2.0
        for x in (0.3, 0.75):
            val = eq.f_map(g, complex(x, 1e-10))
            assert_allclose(val.real, (math.pi * eq.cdf(g, x) / 2.0) ** 2, rtol=1e-8)
            assert abs(val.imag) < 1e-8

    def test_f_linear_coefficient_at_origin(self):
        # f(z)/z -> pi^2/(4 c_gamma); the approach is O(|z|), so a loose
        # tolerance suffices away from the gamma -> 1 regime
        g = 2.0
        target = math.pi**2 / (4.0 * eq.c_gamma(g))
        for phase in (0.5, 2.0, 4.0):
            z = 1e-6 * cmath.exp(1j * phase)
            assert_allclose((eq.f_map(g, z) / z).real, target, rtol=1e-4)


class TestParametrix:
    def test_determinant_one(self):
        for z in (2.0 + 1.3j, -0.7 + 0.2j, 0.4 + 0.9j):
            n = eq.global_parametrix(0.5, z)
            assert abs(n[0, 0] * n[1, 1] - n[0, 1] * n[1, 0] - 1.0) < 1e-12

    def test_identity_at_infinity(self):
        for phase in (0.1, 1.7, 3.9):
            n = eq.global_parametrix(0.5, 1e6 * cmath.exp(1j * phase))
            assert np.max(np.abs(n - np.eye(2))) < 2e-6

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.0])
    def test_jump_on_support(self, nu):
        x = 0.4
        left = eq.global_parametrix(nu, x, side="+")
        jump = np.array([[0.0, x**nu], [-(x**-nu), 0.0]], dtype=complex)
        right = eq.global_parametrix(nu, x, side="-") @ jump
        assert np.max(np.abs(left - right)) < 1e-10

    def test_singular_points_rejected(self):
        with pytest.raises(DomainError):
            eq.global_parametrix(0.5, 0.0, side="+")
        with pytest.raises(DomainError):
            eq.global_parametrix(0.5, 1.0, side="-")
        with pytest.raises(DomainError):
            eq.global_parametrix(0.5, 0.4)  # on the cut, side required


class TestLens:
    def test_phi_has_negative_real_part_off_support(self):
        rep = eq.lens_sign_check(2.0)
        assert rep["max_re_phi"] < 0
        assert rep["conjugate_defect"] < 1e-13
        assert rep["max_re_on_cut"] < 1e-12

    def test_diagnostics_serializable(self):
        import json

        d = eq.diagnostics(1.5)
        json.dumps(d)
        assert d["gamma"] == 1.5
        assert d["mass_error"] < 1e-10
        assert d["phi_boundary_residual"] < 1e-10
        assert d["lens"]["max_re_phi"] < 0
