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
from bessellab.errors import DomainError, PrecisionFailure
from bessellab.weights import field_V_gamma

# mpmath, 30 digits: pi^2 gamma / (pi + 2 (sqrt(gamma-1) - atan sqrt(gamma-1)))^2
C_11 = 1.08619514814721698948940930956
C_15 = 1.33920704978969767147823764684
C_20 = 1.54810203792998690685965649436
C_50 = 2.03260309374070045920245567009


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

    @pytest.mark.parametrize("g", [1.0, 1.0 + 1e-12, 1.1, 2.0, 5.0, 1e6])
    def test_cdf_at_one_is_exactly_one(self, g):
        # arctan2 alone gives 0.9999999999999999 at gamma = 1 + 1e-12
        assert eq.cdf(g, 1.0) == 1.0
        assert eq.cdf(g, np.array([0.5, 1.0]))[1] == 1.0

    def test_gamma_one_is_the_square_root_law(self):
        # at gamma = 1 the general closed forms reduce exactly to
        # F = sqrt(x) and phi_+- = +-i pi sqrt(x)
        x = np.concatenate([[0.0, 5e-324, 1e-300], np.linspace(1e-3, 1.0 - 1e-3, 97),
                            [np.nextafter(1.0, 0.0)]])
        assert np.array_equal(eq.cdf(1.0, x), np.sqrt(x))
        assert np.array_equal(eq.phi_boundary(1.0, x, "+"), 1j * (math.pi * np.sqrt(x)))
        assert np.array_equal(eq.phi_boundary(1.0, x, "-"), -1j * (math.pi * np.sqrt(x)))

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
        assert_allclose(ell, eq.lagrange_constant(g), atol=1e-9)

    def test_lagrange_constant_tends_to_minus_four(self):
        ell, _ = eq.variational_check(1.001)
        assert_allclose(ell, eq.lagrange_constant(1.001), atol=1e-9)
        assert abs(ell + 4.0) < 2e-3


def _log_potential_mp(mpmath, gamma, x):
    """40-digit integral of log|x - s| rho_gamma(s) ds, split at 0, x/2, x and 1.

    Each piece is substituted so that mpmath.quad sees a smooth integrand
    with at most a log at one end.  On (0, x/2), s = x sin^2 t takes up the
    1/sqrt(s) end.  On (x/2, x), x - s = (1 - x) sinh^2 v takes up the
    1/sqrt(1 - s) that lies just past s = x when x is within a few ulps
    of 1.  On (x, 1), 1 - s = (1 - x) sin^2 t takes up the 1/sqrt(1 - s)
    end.  1 - s is formed from 1 - x, so it keeps its digits there.
    """
    with mpmath.workdps(40):
        g, x = mpmath.mpf(gamma), mpmath.mpf(x)
        y = 1 - x

        def rho(s, om):
            # density at s, given om = 1 - s
            q = mpmath.sqrt((g - 1) / om)
            return (mpmath.mpf(1) / 2 + (q - mpmath.atan(q)) / mpmath.pi) / mpmath.sqrt(g * s)

        def outer(t):
            c, sn = mpmath.cos(t), mpmath.sin(t)
            s = x * sn * sn
            return mpmath.log(x - s) * rho(s, 1 - s) * 2 * x * sn * c

        def inner(v):
            sh, ch = mpmath.sinh(v), mpmath.cosh(v)
            e = y * sh * sh
            return mpmath.log(e) * rho(x - e, y * ch * ch) * 2 * y * sh * ch

        def right(t):
            c, sn = mpmath.cos(t), mpmath.sin(t)
            d = y * sn * sn
            return mpmath.log(y * c * c) * rho(1 - d, d) * 2 * y * sn * c

        return (mpmath.quad(outer, [0, mpmath.pi / 4])
                + mpmath.quad(inner, [0, mpmath.asinh(mpmath.sqrt(x / (2 * y)))])
                + mpmath.quad(right, [0, mpmath.pi / 2]))


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

    def test_nothing_calls_quad(self, monkeypatch):
        from scipy import integrate

        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(integrate, "quad", refuse)
        for g in (1.1, 2.0, 5.0):
            assert eq.diagnostics(g)["variational_deviation"] < 1e-6
        assert np.isfinite(eq.g_map(2.0, 0.5 + 0.1j))
        for x in (-0.5, 0.5):
            assert np.isfinite(eq.g_boundary(2.0, x, "+"))


def _g_mp(mpmath, gamma, z):
    """30-digit integral of log(z - s) rho_gamma(s) ds, split at 0, Re z and 1."""
    with mpmath.workdps(30):
        g, z = mpmath.mpf(gamma), mpmath.mpc(z)

        def rho(s):
            q = mpmath.sqrt((g - 1) / (1 - s))
            return (mpmath.mpf(1) / 2 + (q - mpmath.atan(q)) / mpmath.pi) / mpmath.sqrt(g * s)

        pts = [0, z.real, 1] if 0 < z.real < 1 else [0, 1]
        return complex(mpmath.quad(lambda s: mpmath.log(z - s) * rho(s), pts))


class TestGMap:
    @pytest.mark.parametrize("g, z", [
        # 1e-6 from the cut, where adaptive quadrature was off by up to 1.1e-6
        (1.0001, 0.5 + 1e-6j), (2.0, 0.2 + 1e-6j), (1.1, 0.8 - 1e-6j),
        # near z = gamma, where the logs of V/2 and phi are singular
        (2.0, 2.0 + 1e-7j), (5.0, 5.0 - 1e-7j),
        # the real axis right of the support, inside and beyond gamma
        (2.0, 1.5), (1.1, 1.05), (2.0, 3.0), (5.0, 40.0), (1.0, 4.0)])
    def test_matches_mpmath(self, g, z):
        mpmath = pytest.importorskip("mpmath")
        assert abs(eq.g_map(g, z) - _g_mp(mpmath, g, z)) <= 1e-13
        if isinstance(z, float):
            assert eq.g_map(g, z).imag == 0.0

    @pytest.mark.parametrize("fn, arg", [
        (eq.g_map, 2.0), (eq.phi_map, 2.0), (eq.f_map, 2.0), (eq.global_parametrix, 0.5)],
        ids=["g_map", "phi_map", "f_map", "global_parametrix"])
    @pytest.mark.parametrize("z", [
        complex(math.nan, 1.0), complex(0.5, math.inf), complex(0.5, math.nan),
        complex(math.inf, 0.0)], ids=["nan+1j", "0.5+infj", "0.5+nanj", "inf+0j"])
    def test_non_finite_points_raise(self, fn, arg, z):
        with pytest.raises(DomainError, match="finite"):
            fn(arg, z)

    @pytest.mark.parametrize("g", [1.1, 2.0, 5.0])
    @pytest.mark.parametrize("x", [1e-8, 0.2, 0.9, 0.999, 0.0, -1e-6, -0.5, -50.0])
    def test_boundary_matches_mpmath(self, g, x):
        # on the cut and left of it; z = x + 0j puts every log(z - s),
        # s > x, on its upper side, so the reference is g_+
        mpmath = pytest.importorskip("mpmath")
        ref = _g_mp(mpmath, g, complex(x, 0.0))
        assert abs(eq.g_boundary(g, x, "+") - ref) <= 1e-14
        assert abs(eq.g_boundary(g, x, "-") - ref.conjugate()) <= 1e-14

    def test_boundary_at_the_smallest_subnormal(self):
        # 0.5 x underflows to 0 at x = 5e-324; the values stay those of
        # the limit x -> 0+
        for g in (1.0, 2.0, 5.0):
            near = eq.log_potential(g, 1e-310)
            assert abs(eq.log_potential(g, 5e-324) - near) <= 1e-14
            gp = eq.g_boundary(g, 5e-324, "+")
            assert abs(gp.real - near) <= 1e-14
            assert abs(gp.imag - math.pi) <= 1e-14

    def test_non_finite_boundary_point_raises(self):
        with pytest.raises(DomainError):
            eq.g_boundary(2.0, -math.inf, "+")

    def test_behaves_like_log_at_infinity(self):
        z = 1e6 * cmath.exp(0.7j)
        assert abs(eq.g_map(2.0, z) - cmath.log(z)) < 5e-7

    def test_plus_minus_sum_on_support(self):
        # g+ + g- - V_gamma = ell, constant on (0, 1)
        g = 2.0
        ell = eq.lagrange_constant(g)
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


def _phi_mp(mpmath, gamma, z):
    """phi at 40 digits in its log form, principal branches, for Im z >= 0
    (a point x of (0, 1) is moved x 1e-40 above it) and the conjugate below."""
    with mpmath.workdps(40):
        g, z = mpmath.mpf(gamma), mpmath.mpc(z)
        if z.imag < 0:
            return _phi_mp(mpmath, gamma, complex(z.conjugate())).conjugate()
        if z.imag == 0 and 0 < z.real < 1:
            z = mpmath.mpc(z.real, z.real * mpmath.mpf("1e-40"))
        sg, sg1, s1z, sz = mpmath.sqrt(g), mpmath.sqrt(g - 1), mpmath.sqrt(1 - z), mpmath.sqrt(z)
        return complex(mpmath.log((sg * s1z + 1j * sz * sg1) / (sg * s1z - 1j * sz * sg1))
                       + sz / sg * mpmath.log((sg1 + 1j * s1z) / (sg1 - 1j * s1z)))


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

    @pytest.mark.parametrize("g", [1.0, 1.1, 2.0, 5.0])
    def test_phi_matches_mpmath(self, g):
        # circles from |z| = 1e-12 to 1e6 in both half-planes; rows
        # x +- 1e-300i along (1, gamma), or (1, 3) at gamma = 1, where both
        # arctan arguments run along their branch cuts; and phi_+ on (0, 1).
        # Near z = gamma the form is conditioned like gamma |1 - z| / |gamma - z|
        mpmath = pytest.importorskip("mpmath")
        angles = np.array([0.01, 1.0, 2.0, 3.1])
        rows = 1.0 + (2.0 if g == 1.0 else g - 1.0) * np.linspace(0.05, 0.95, 7)
        z = np.concatenate([
            (np.geomspace(1e-12, 1e6, 7)[:, None] * np.exp(1j * np.r_[angles, -angles])).ravel(),
            rows + 1e-300j, rows - 1e-300j, [1e-12, 0.3, 0.9, 1.0 - 1e-9]])
        ref = np.array([_phi_mp(mpmath, g, w) for w in z.tolist()])
        kappa = np.maximum(1.0, g * np.abs(1.0 - z) / np.abs(g - z))
        assert np.all(np.abs(eq.phi_map(g, z, side="+") - ref) <= 1e-15 * kappa * np.abs(ref))

    @pytest.mark.parametrize("g", [1.0, 1.1, 2.0, 5.0])
    def test_phi_tends_to_its_plus_boundary_value(self, g):
        # at gamma = 1 the log form once took log(-1) = -i pi and tended to
        # phi_- = -i pi sqrt(x), so the lens read max Re phi = +0.88
        x = np.linspace(0.05, 0.95, 19)
        assert np.max(np.abs(eq.phi_map(g, x + 1e-10j) - eq.phi_boundary(g, x, "+"))) <= 1e-8
        assert eq.lens_sign_check(g)["max_re_phi"] < 0.0

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
        # the axis itself carries the upper-side value, whatever sign of zero
        assert eq.phi_map(g, complex(-0.5, -0.0)) == eq.phi_map(g, complex(-0.5, 0.0))

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


def _scalar_map(fn, z, *args):
    return np.array([fn(2.0, w, *args) for w in z.ravel().tolist()]).reshape(z.shape)


class TestArrays:
    # rows in both half-planes and on the negative real axis; for g, real
    # z > 1 in place of the negative axis, which is its cut
    HALVES = np.linspace(-1.5, 1.8, 12) + 1j * np.array([[-0.7], [-1e-3], [1e-3], [0.4]])
    Z = np.vstack([HALVES, np.linspace(-3.0, -0.25, 12) + 0j])
    Z_G = np.vstack([HALVES, np.linspace(1.25, 40.0, 12) + 0j])
    # circles of radius 0.009, 0.45 and 0.9 through the real axis, and a
    # real row across the disk
    DISK = np.vstack([np.array([[0.009], [0.45], [0.9]])
                      * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 12)),
                      np.linspace(-0.9, 0.9, 12) + 0j])

    def test_g_map_array_is_pointwise(self):
        assert np.array_equal(eq.g_map(2.0, self.Z_G), _scalar_map(eq.g_map, self.Z_G))

    def test_phi_map_array_is_pointwise(self):
        assert np.array_equal(eq.phi_map(2.0, self.Z), _scalar_map(eq.phi_map, self.Z))

    def test_f_map_array_is_pointwise(self):
        out = eq.f_map(2.0, self.DISK)
        assert np.array_equal(out, _scalar_map(eq.f_map, self.DISK))
        assert np.all(out[-1].imag == 0.0)

    def test_g_boundary_array_is_pointwise(self):
        x = np.array([[-50.0, -0.5, 0.0], [1e-8, 0.5, 0.999]])
        for side in "+-":
            assert np.array_equal(eq.g_boundary(2.0, x, side),
                                  _scalar_map(eq.g_boundary, x, side))

    def test_shapes_and_scalars(self):
        assert eq.phi_map(2.0, self.Z).shape == self.Z.shape
        assert eq.g_map(2.0, self.Z_G).shape == self.Z_G.shape
        assert eq.f_map(2.0, self.DISK).shape == self.DISK.shape
        assert eq.g_boundary(2.0, np.zeros((2, 3)), "+").shape == (2, 3)
        for out in (eq.g_map(2.0, 0.5 + 0.1j), eq.phi_map(2.0, 0.5 + 0.1j),
                    eq.f_map(2.0, 0.5), eq.g_boundary(2.0, 0.5, "-")):
            assert isinstance(out, complex) and np.ndim(out) == 0

    def test_phi_map_reads_the_cut_through_phi_boundary(self):
        x = np.array([0.0, 0.3, 0.99])
        z = np.concatenate([x + 0j, [0.5 + 0.2j, -0.4 + 0j]])
        for side in "+-":
            out = eq.phi_map(2.0, z, side=side)
            assert np.array_equal(out[:3], eq.phi_boundary(2.0, x, side))
            assert np.array_equal(out[3:], eq.phi_map(2.0, z[3:]))

    @pytest.mark.parametrize("z, side", [(2.0, None), (2.0, "+"), (np.array([0.5, 2.0]), "-")],
                             ids=["no-side", "plus", "mixed-minus"])
    def test_phi_map_offers_no_boundary_value_past_one(self, z, side):
        # one message on [1, oo), whether or not a side is given
        with pytest.raises(DomainError, match=r"boundary values on \[0, 1\) only"):
            eq.phi_map(1.5, z, side=side)

    def test_phi_map_on_the_cut_below_one_asks_for_a_side(self):
        with pytest.raises(DomainError, match="pass side"):
            eq.phi_map(1.5, np.array([0.5 + 0.1j, 0.5]))

    @pytest.mark.parametrize("fn, z", [
        (eq.g_map, [0.5 + 0.1j, complex(math.nan, 0.0)]),
        (eq.g_map, [0.5 + 0.1j, 0.5 + 0j]),
        (eq.phi_map, [0.5 + 0.1j, complex(0.2, math.nan)]),
        (eq.phi_map, [0.5 + 0.1j, 0.3 + 0j]),
        (eq.f_map, [0.5 + 0.1j, complex(math.nan, 0.1)]),
        (eq.f_map, [0.5 + 0.1j, 1.0 + 0j])],
        ids=["g-nan", "g-cut", "phi-nan", "phi-no-side", "f-nan", "f-disk"])
    def test_one_bad_entry_raises(self, fn, z):
        with pytest.raises(DomainError):
            fn(2.0, np.array(z))


def _parametrix_mp(mpmath, nu, z, side=None):
    """N at 40 digits in the standard form diag(2^-nu, 2^nu) M(a)
    diag(lam^nu, lam^-nu), with M's entries (a + 1/a)/2 and +-(a - 1/a)/(2i),
    a = ((z - 1)/z)^(1/4) and lam = 1 + sqrt((z - 1)/z) on principal
    branches; a point x of the cut is moved x 1e-40 to its side."""
    with mpmath.workdps(40):
        nu, z = mpmath.mpf(nu), mpmath.mpc(z)
        if side is not None:
            z = mpmath.mpc(z.real, z.real * mpmath.mpf("1e-40") * (1 if side == "+" else -1))
        ratio = (z - 1) / z
        a, lam = ratio ** mpmath.mpf(0.25), 1 + mpmath.sqrt(ratio)
        plus, minus = (a + 1 / a) / 2, (a - 1 / a) / 2j
        left, right = mpmath.mpf(2) ** -nu, lam ** nu
        return np.array([[complex(left * plus * right), complex(left * minus / right)],
                         [complex(-minus * right / left), complex(plus / right / left)]])


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

    @pytest.mark.parametrize("nu", [-0.9, 0.0, 0.5, 2.0, 10.0, 37.3])
    def test_matches_mpmath(self, nu):
        # both half-planes from |z| = 1e-3 to 1e6, the real axis off the
        # cut, and both sides of (0, 1); the closed form once cancelled in
        # a - 1/a at large |z|, off by 1.0e-9 at nu = 37.3, |z| = 1e6
        mpmath = pytest.importorskip("mpmath")
        angles = np.array([0.3, 1.5, 3.0])
        circles = np.array([1e-3, 0.5, 2.0, 1e6])[:, None] * np.exp(1j * np.r_[angles, -angles])
        z = np.concatenate([circles.ravel(), [-0.5, 1.5, -1e6, 1e6]])
        x = np.array([0.01, 0.4, 0.9])
        for pts, side, out in ((z, None, eq.global_parametrix(nu, z)),
                               (x, "+", eq.global_parametrix(nu, x, side="+")),
                               (x, "-", eq.global_parametrix(nu, x, side="-"))):
            for w, n in zip(pts.tolist(), out):
                ref = _parametrix_mp(mpmath, nu, w, side)
                assert np.max(np.abs(n - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_array_is_pointwise(self):
        z = np.vstack([TestArrays.Z, np.linspace(0.05, 0.95, 12) + 0j])
        for side in "+-":
            out = eq.global_parametrix(0.5, z, side=side)
            assert out.shape == z.shape + (2, 2)
            each = np.array([eq.global_parametrix(0.5, w, side=side) for w in z.ravel().tolist()])
            assert np.array_equal(out, each.reshape(out.shape))

    @pytest.mark.parametrize("nu, z, side", [
        (2.0, 1e-300, "+"), (2.0, complex(1e-300, 1e-300), None), (37.3, 1e-30, "-"),
        (300.0, 1e-12, "+")])
    def test_overflow_near_zero_raises(self, nu, z, side):
        # the entries grow like |z|^(-nu/2 - 1/4): these came back with
        # inf/NaN entries (nu = 2) or raised a bare OverflowError
        with pytest.raises(PrecisionFailure, match="overflows"):
            eq.global_parametrix(nu, z, side=side)

    def test_large_but_finite_entries_near_zero(self):
        for z, side in ((1e-100, "+"), (complex(1e-100, 1e-100), None)):
            n = eq.global_parametrix(2.0, z, side=side)
            assert np.all(np.isfinite(n)) and np.max(np.abs(n)) > 1e120

    def test_finite_entries_at_smallest_subnormal(self):
        # at nu = 0 the entries at z = 5e-324i reach 3.4e80; the closed
        # form once raised PrecisionFailure there, because its (z - 1)/z
        # overflowed
        mpmath = pytest.importorskip("mpmath")
        n = eq.global_parametrix(0.0, 5e-324j)
        ref = _parametrix_mp(mpmath, 0.0, 5e-324j)
        assert np.max(np.abs(n - ref)) <= 1e-15 * np.max(np.abs(ref))

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
        assert set(rep) == {"gamma", "max_re_phi"}
        # what the lens leaves out: the lower half is the conjugate, and
        # the cut between the halves has Re phi = 0
        z = np.linspace(0.05, 0.95, 19)[:, None] + 1j * np.linspace(0.01, 0.2, 8)
        assert np.array_equal(eq.phi_map(2.0, z.conj()), np.conj(eq.phi_map(2.0, z)))
        assert np.all(eq.phi_boundary(2.0, z.real[:, 0], "+").real == 0.0)

    def test_one_phi_evaluation_per_gamma(self, monkeypatch):
        calls = []
        upper = eq._phi_upper

        def counting(gamma, z):
            calls.append(np.size(z))
            return upper(gamma, z)

        monkeypatch.setattr(eq, "_phi_upper", counting)
        for g in (1.1, 2.0, 5.0):
            eq.lens_sign_check(g)
        assert calls == [19 * 8] * 3

    def test_diagnostics_serializable(self):
        import json

        d = eq.diagnostics(1.5)
        json.dumps(d)
        assert d["gamma"] == 1.5
        assert d["mass_error"] < 1e-10
        assert d["phi_boundary_residual"] < 1e-10
        assert d["lens"]["max_re_phi"] < 0
