"""Tests for Bessel functions of the first kind, their zeros, and the
hard-edge reproducing kernel built from them.

Reference values come from three independent routes: the ascending power
series evaluated locally (``_series_j``), elementary closed forms at
half-integer order, and mpmath computed at 30 digits (frozen literals,
marked "mpmath" below) or at 40 digits in the test itself.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_less
from scipy import special

from bessellab import errors, specfun
from bessellab.dpp import nystrom
from bessellab.errors import DomainError
from bessellab.orthopoly import build_recurrence, weight_quadrature
from bessellab.specfun import (
    BesselOrder,
    bessel_j,
    bessel_j_deriv,
    bessel_kernel,
    bessel_kernel_diag,
    bessel_zero,
    bessel_zeros,
)
from bessellab.weights import ApproxWeight, PowerWeight, field_V, field_V_gamma

# mpmath, 30 digits
J0_ZERO_1 = 2.40482555769577276862163187933
J0_ZERO_7 = 21.2116366298792589590783933505
J25_ZERO_4 = 15.5146030108867482304414293272
J40_ZERO_1 = 46.6484094982857364461440287402
J_07_33 = 0.0531584604426000953118645995637
JP_07_33 = -0.442056925884658484364303162188
J_2_17 = 0.158363841238503471416085914878
JP_2_17 = -0.116299532903486940990432403007


def _kernel_mp(mpmath, nu, x, y):
    # the off-diagonal kernel formula at the working precision of mpmath
    nu, x, y = mpmath.mpf(nu), mpmath.mpf(x), mpmath.mpf(y)
    sx, sy = mpmath.sqrt(x), mpmath.sqrt(y)
    jx, jy = mpmath.besselj(nu, sx), mpmath.besselj(nu, sy)
    djx, djy = mpmath.besselj(nu, sx, 1), mpmath.besselj(nu, sy, 1)
    return (jx * sy * djy - jy * sx * djx) / (2 * (x - y))


def _dpp_grid(m=512, T=1e4):
    # the Nystrom nodes of dpp.nystrom
    u, _ = np.polynomial.legendre.leggauss(m)
    return T * (0.5 * (u + 1.0)) ** 2


def _series_j(nu, u, terms=80):
    # ascending series sum_m (-1)^m / (m! Gamma(m+nu+1)) (u/2)^(2m+nu);
    # cancellation limits it to u <~ 10 in double precision
    u = float(u)
    if u == 0.0:
        return 1.0 if nu == 0 else 0.0
    parts = []
    for m in range(terms):
        lg = (2 * m + nu) * math.log(u / 2.0) - math.lgamma(m + 1) - math.lgamma(m + nu + 1)
        parts.append((-1) ** m * math.exp(lg))
    return math.fsum(parts)


class TestBesselJ:
    def test_trivial_values(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(2.0, 0.0) == 0.0
        assert bessel_j(0.5, 0.0) == 0.0

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 0.7, 2.0, 3.5])
    def test_matches_ascending_series(self, nu):
        u = np.linspace(0.1, 9.0, 25)
        expected = [_series_j(nu, ui) for ui in u]
        assert_allclose(bessel_j(nu, u), expected, rtol=1e-11, atol=1e-12)

    def test_half_integer_closed_form(self):
        u = np.linspace(0.3, 25.0, 40)
        assert_allclose(bessel_j(0.5, u), np.sqrt(2.0 / (np.pi * u)) * np.sin(u), rtol=1e-13)
        assert_allclose(bessel_j(-0.5, u), np.sqrt(2.0 / (np.pi * u)) * np.cos(u), rtol=1e-12, atol=1e-14)

    def test_mpmath_spot_values(self):
        assert_allclose(bessel_j(0.7, 3.3), J_07_33, rtol=1e-13)
        assert_allclose(bessel_j(2.0, 17.0), J_2_17, rtol=1e-13)

    def test_scalar_in_scalar_out(self):
        out = bessel_j(0.0, 1.0)
        assert np.isscalar(out) or np.asarray(out).ndim == 0

    def test_accepts_bessel_order(self):
        assert bessel_j(BesselOrder(0.5), 2.0) == bessel_j(0.5, 2.0)


class TestBesselJDeriv:
    def test_values_at_zero(self):
        # J_0' = -J_1 vanishes at 0; J_1' (0) = 1/2; higher orders flat
        assert bessel_j_deriv(0.0, 0.0) == 0.0
        assert bessel_j_deriv(1.0, 0.0) == 0.5
        assert bessel_j_deriv(2.0, 0.0) == 0.0

    def test_mpmath_spot_values(self):
        assert_allclose(bessel_j_deriv(0.7, 3.3), JP_07_33, rtol=1e-13)
        assert_allclose(bessel_j_deriv(2.0, 17.0), JP_2_17, rtol=1e-13)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.3, 4.0])
    def test_richardson_difference_quotient(self, nu):
        # central differences with stepwise Richardson extrapolation
        u = 2.7
        h = 1e-3
        d1 = (bessel_j(nu, u + h) - bessel_j(nu, u - h)) / (2 * h)
        d2 = (bessel_j(nu, u + h / 2) - bessel_j(nu, u - h / 2)) / h
        extrap = (4 * d2 - d1) / 3
        assert_allclose(bessel_j_deriv(nu, u), extrap, rtol=1e-10)

    def test_half_integer_closed_form(self):
        # d/du sqrt(2/(pi u)) sin u = sqrt(2/(pi u)) (cos u - sin(u)/(2u))
        u = np.linspace(0.4, 18.0, 30)
        expected = np.sqrt(2.0 / (np.pi * u)) * (np.cos(u) - np.sin(u) / (2 * u))
        assert_allclose(bessel_j_deriv(0.5, u), expected, rtol=1e-12, atol=1e-14)


class TestBesselZeros:
    def test_first_zero_of_j0(self):
        assert_allclose(bessel_zero(0.0, 1), J0_ZERO_1, rtol=1e-14)

    def test_half_integer_zeros_are_multiples_of_pi(self):
        ks = np.arange(1, 51)
        assert_allclose(bessel_zeros(0.5, 50), ks * np.pi, rtol=1e-13)

    def test_mpmath_spot_zeros(self):
        assert_allclose(bessel_zero(0.0, 7), J0_ZERO_7, rtol=1e-13)
        assert_allclose(bessel_zero(2.5, 4), J25_ZERO_4, rtol=1e-13)
        assert_allclose(bessel_zero(40.0, 1), J40_ZERO_1, rtol=1e-12)

    @pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 1.0, 5.5])
    def test_residual_and_ordering(self, nu):
        z = bessel_zeros(nu, 40)
        assert_array_less(np.zeros(39), np.diff(z))
        # |J_nu| at a reported zero, relative to the local derivative scale
        resid = np.abs(bessel_j(nu, z)) / np.abs(bessel_j_deriv(nu, z))
        assert_array_less(resid, 1e-10)

    def test_mcmahon_regime(self):
        # large-index zeros approach (k + nu/2 - 1/4) pi
        z = bessel_zero(0.0, 200)
        assert_allclose(z, (200 - 0.25) * np.pi, rtol=1e-6)

    def test_prefix_consistency(self):
        assert_allclose(bessel_zeros(1.3, 10), bessel_zeros(1.3, 25)[:10], rtol=0, atol=0)

    def test_invalid_order_rejected(self):
        with pytest.raises(DomainError):
            bessel_zeros(-1.0, 5)
        with pytest.raises(DomainError):
            BesselOrder(float("nan"))

    def test_zero_count_gives_empty(self):
        assert len(bessel_zeros(0.0, 0)) == 0


class TestBesselKernel:
    def test_half_integer_closed_form(self):
        # at nu = 1/2 everything reduces to sines and cosines
        def j(u):
            return math.sqrt(2.0 / (math.pi * u)) * math.sin(u)

        def jp(u):
            return math.sqrt(2.0 / (math.pi * u)) * (math.cos(u) - math.sin(u) / (2 * u))

        for x, y in [(2.0, 5.0), (0.3, 11.0), (7.0, 7.5)]:
            sx, sy = math.sqrt(x), math.sqrt(y)
            expected = (j(sx) * sy * jp(sy) - j(sy) * sx * jp(sx)) / (2.0 * (x - y))
            assert_allclose(bessel_kernel(0.5, x, y), expected, rtol=1e-12)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 2.0])
    def test_diagonal_matches_off_diagonal_limit(self, nu):
        x = 3.0
        # Richardson in the offset y = x(1 + 2^-m)
        vals = [bessel_kernel(nu, x, x * (1 + 2.0**-m)) for m in (14, 15)]
        extrap = 2 * vals[1] - vals[0]
        assert_allclose(bessel_kernel_diag(nu, x), extrap, rtol=1e-8)

    def test_diagonal_switch_is_seamless(self):
        # crossing the near-diagonal threshold must not produce a jump
        x = 5.0
        for off in (1e-7, 1e-9):
            a = bessel_kernel(0.0, x, x * (1 + off))
            assert_allclose(a, bessel_kernel_diag(0.0, x), rtol=1e-6)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 2.0])
    def test_diagonal_positive(self, nu):
        x = np.logspace(-8, 3, 45)
        assert_array_less(np.zeros_like(x), bessel_kernel_diag(nu, x))

    def test_zero_at_pair_of_zeros(self):
        # K(j_i^2, j_k^2) = 0 for i != k: both terms vanish
        z = bessel_zeros(0.0, 3) ** 2
        assert_allclose(bessel_kernel(0.0, z[0], z[2]), 0.0, atol=1e-15)

    @given(
        x=st.floats(min_value=1e-3, max_value=1e3),
        y=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, x, y):
        assert bessel_kernel(0.0, x, y) == pytest.approx(bessel_kernel(0.0, y, x), rel=1e-12, abs=1e-300)

    def test_grid_broadcasting(self):
        x = np.array([1.0, 2.0, 3.0])
        out = bessel_kernel(0.0, x[:, None], x[None, :])
        assert out.shape == (3, 3)
        assert_allclose(out, out.T, rtol=1e-12)
        assert_allclose(np.diag(out), bessel_kernel_diag(0.0, x), rtol=1e-12)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 2.0])
    def test_outer_grid_matches_flattened_pairs(self, nu):
        # evaluating per argument before broadcasting must not move a bit,
        # near-diagonal entries included
        x = np.geomspace(1e-4, 1e4, 30)
        x = np.concatenate([x, x * (1.0 + 1e-9)])
        grid = bessel_kernel(nu, x[:, None], x[None, :])
        X, Y = np.meshgrid(x, x, indexing="ij")
        pairs = bessel_kernel(nu, X.ravel(), Y.ravel())
        assert np.array_equal(grid.ravel(), pairs)

    @pytest.mark.parametrize("nu", [-0.5, 0.5, 2.0])
    def test_grid_no_farther_from_mpmath_than_pairwise_grouping(self, nu):
        # The kernel once grouped its products as (J(sx) sy) J'(sy) on the
        # broadcast arrays.  Where that grouping and the per-argument one,
        # J(sx) (sy J'(sy)), differ most on the dpp_stats grid, the
        # per-argument value must be no farther from 40 digits.
        mpmath = pytest.importorskip("mpmath")
        x = _dpp_grid()
        new = bessel_kernel(nu, x[:, None], x[None, :])
        sx, sy = np.sqrt(x)[:, None], np.sqrt(x)[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            old = ((special.jv(nu, sx) * sy * special.jvp(nu, sy)
                    - special.jv(nu, sy) * sx * special.jvp(nu, sx))
                   / (2.0 * (x[:, None] - x[None, :])))
        np.fill_diagonal(old, np.diag(new))  # both use the diagonal limit there
        rows, cols = np.unravel_index(np.argsort(np.abs(old - new), axis=None)[-20:], new.shape)
        with mpmath.workdps(40):
            ref = np.array([float(_kernel_mp(mpmath, nu, x[i], x[j]))
                            for i, j in zip(rows, cols)])
        new_err = np.max(np.abs(new[rows, cols] - ref))
        assert new_err <= np.max(np.abs(old[rows, cols] - ref))
        assert new_err <= 1e-11 * np.max(np.abs(ref))

    def test_outer_grid_costs_linear_bessel_work(self, monkeypatch):
        # count every element scipy's jv/jvp evaluate for bessellab.specfun:
        # the 512 x 512 Nystrom grid needs 4m off-diagonal plus 2m diagonal
        counted = [0]

        def counting(fn):
            def wrapped(nu, u):
                out = fn(nu, u)
                counted[0] += np.size(out)
                return out
            return wrapped

        monkeypatch.setattr(specfun, "special", types.SimpleNamespace(
            jv=counting(special.jv), jvp=counting(special.jvp)))
        m = 512
        nystrom(0.0, 1e4, m)
        assert 0 < counted[0] <= 6 * m

    def test_nonpositive_arguments_rejected(self):
        with pytest.raises(DomainError):
            bessel_kernel(0.0, -1.0, 2.0)
        with pytest.raises(DomainError):
            bessel_kernel_diag(0.0, 0.0)


_TAB = build_recurrence(PowerWeight(0.0), 8)

# Entry points that take one outside float, each returning the array whose
# values must be finite whenever no library error is raised.
_FLOAT_ENTRY_POINTS = {
    "kernel_hat": lambda v: _TAB.kernel_hat(8, v, 0.5),
    "nystrom": lambda v: nystrom(0.0, v, 64).eigenvalues,
    "bessel_kernel": lambda v: bessel_kernel(0.0, v, 1.0),
    "bessel_kernel_diag": lambda v: bessel_kernel_diag(0.0, v),
    "weight_quadrature": lambda v: weight_quadrature(v).weights,
    "ApproxWeight": lambda v: ApproxWeight("plus", v, 5, 0.0).log_density(0.5),
    "field_V": lambda v: field_V(v),
    "field_V_gamma": lambda v: field_V_gamma(v, 0.5),
}
_LIBRARY_ERRORS = (errors.DomainError, errors.ConvergenceFailure, errors.SequenceExhausted,
                   errors.PrecisionFailure, errors.DiscretizationFailure)


# A RuntimeWarning escaping an entry point fails the test.  The examples
# are a huge order (the Gauss-Jacobi rule overflows) and a window near the
# float maximum (the Nystrom masses overflow).
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", sorted(_FLOAT_ENTRY_POINTS))
@given(v=st.floats(allow_nan=True, allow_infinity=True))
@example(v=1034.0)
@example(v=8.98846567431158e+307)
@settings(max_examples=60, deadline=None)
def test_any_float_gives_finite_values_or_library_error(entry, v):
    try:
        out = _FLOAT_ENTRY_POINTS[entry](v)
    except _LIBRARY_ERRORS:
        return
    assert np.all(np.isfinite(out))
