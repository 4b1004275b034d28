"""Tests for Bessel functions of the first kind, their zeros, and the
hard-edge reproducing kernel built from them.

Reference values come from three independent routes: the ascending power
series evaluated locally (``_series_j``), elementary closed forms at
half-integer order, and mpmath computed at 30 digits (frozen literals,
marked "mpmath" below) or at 40 digits in the test itself.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_less
from scipy import special

from bessellab import errors, specfun
from bessellab.dpp import nystrom
from bessellab.equilibrium import cdf, density, f_map, g_boundary, g_map, log_potential, phi_map
from bessellab.errors import ConvergenceFailure, DomainError, PrecisionFailure
from bessellab.orthopoly import _gauss_jacobi, build_recurrence, weight_quadrature
from bessellab.specfun import (
    bessel_j,
    bessel_j_deriv,
    bessel_kernel,
    bessel_kernel_diag,
    bessel_zero,
    bessel_zeros,
)
from bessellab.sequences import _COUNT_WINDOW, make_bessel_zero_squared, make_user
from bessellab.weights import ApproxWeight, PowerWeight, ScaledWeight, field_V, field_V_gamma

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


def _diag_mp(mpmath, nu, x):
    # the J' form of the diagonal at the working precision of mpmath, where
    # its nu^2 / x cancellation costs nothing that matters
    nu, x = mpmath.mpf(nu), mpmath.mpf(x)
    u = mpmath.sqrt(x)
    j, dj = mpmath.besselj(nu, u), mpmath.besselj(nu, u, 1)
    return (dj * dj + (1 - nu * nu / x) * j * j) / 4


def _dpp_grid(m=512, T=1e4):
    # the Nystrom nodes of dpp.nystrom, on the package's Gauss-Legendre rule
    u, _ = _gauss_jacobi(m, 0.0)
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

    @pytest.mark.parametrize("nu", [-0.9, -0.5, 0.3, 2.0, 37.3])
    def test_matches_mpmath(self, nu):
        # the bound the docstring states, relative to |J| + |J'| so that it
        # holds at the zeros of either; the measured worst is 5.5e-14
        # (nu = 37.3)
        mpmath = pytest.importorskip("mpmath")
        u = np.geomspace(1e-3, 50.0, 200)
        with mpmath.workdps(40):
            v = mpmath.mpf(nu)
            j = [mpmath.besselj(v, mpmath.mpf(t)) for t in u]
            jp = [mpmath.besselj(v, mpmath.mpf(t), 1) for t in u]
            err = [float(abs(g - d) / (abs(a) + abs(d)))
                   for g, a, d in zip(bessel_j_deriv(nu, u), j, jp)]
        assert max(err) <= 1.5e-13

    def test_half_integer_closed_form(self):
        # d/du sqrt(2/(pi u)) sin u = sqrt(2/(pi u)) (cos u - sin(u)/(2u))
        u = np.linspace(0.4, 18.0, 30)
        expected = np.sqrt(2.0 / (np.pi * u)) * (np.cos(u) - np.sin(u) / (2 * u))
        assert_allclose(bessel_j_deriv(0.5, u), expected, rtol=1e-12, atol=1e-14)


def _brentq_zeros(nu, count):
    # reference: the same pi/4 sign-change scan, each bracket solved by brentq
    from scipy import optimize

    zeros = []
    u = 1e-8 if nu < 0.5 else max(1e-8, 0.7 * math.sqrt(nu * (nu + 2.0)))
    while len(zeros) < count:
        a, b = u, u + math.pi / 4
        if special.jv(nu, a) * special.jv(nu, b) < 0.0:
            zeros.append(optimize.brentq(lambda t: special.jv(nu, t), a, b, xtol=1e-14))
        u = b
    return np.array(zeros)


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

    @pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 0.5, 2.5, 10.0, 37.3])
    def test_first_60_match_mpmath_as_closely_as_brentq(self, nu):
        mpmath = pytest.importorskip("mpmath")
        z = bessel_zeros(nu, 60)
        # every bracket of the scan, polished without brentq and with it
        scanned = specfun._polish(nu, *specfun._scan_brackets(nu, 60))
        zb = _brentq_zeros(nu, 60)
        with mpmath.workdps(30):
            v = mpmath.mpf(nu)
            ref = []
            for x in z:
                t = mpmath.mpf(float(x))
                for _ in range(2):
                    t -= mpmath.besselj(v, t) / mpmath.besselj(v, t, 1)
                ref.append(t)

            def err(zeros):
                return np.array([float(abs(x - t) / t) for x, t in zip(zeros, ref)])

            err_z, err_scanned, err_brentq = err(z), err(scanned), err(zb)
        assert np.all(err_z <= 3e-15)
        # no zero is less accurate than brentq's by more than the rounding
        # of the last step: where brentq's is closer, the two are one ulp apart
        assert np.all((err_scanned <= err_brentq)
                      | (np.abs(scanned - zb) <= np.spacing(scanned)))

    def test_mcmahon_regime(self):
        # large-index zeros approach (k + nu/2 - 1/4) pi
        z = bessel_zero(0.0, 200)
        assert_allclose(z, (200 - 0.25) * np.pi, rtol=1e-6)

    def test_prefix_consistency(self):
        assert_allclose(bessel_zeros(1.3, 10), bessel_zeros(1.3, 25)[:10], rtol=0, atol=0)

    @pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 0.5, 2.5, 10.0, 37.3])
    def test_zeros_by_index_match_the_prefix(self, nu):
        # each zero is polished on its own, so it does not depend on the
        # other indices asked for, on either side of the scan / McMahon
        # split at n_scan
        n_scan = max(4, math.ceil(abs(nu)) + 2)
        z = bessel_zeros(nu, n_scan + 40)
        for k in (np.arange(n_scan - 2, n_scan + 3), np.arange(n_scan - 3, n_scan + 40, 7),
                  np.array([n_scan + 1])):
            assert np.array_equal(specfun._zeros_at(nu, k), z[k - 1])
        assert bessel_zero(nu, n_scan + 1) == z[n_scan]
        assert bessel_zero(nu, n_scan) == z[n_scan - 1]

    def test_mcmahon_bracket_without_sign_change_raises(self, monkeypatch):
        # a guess off by half the spacing of the zeros puts [g - 1, g + 1]
        # between two of them (off by pi it would hold the next zero)
        mcmahon = specfun._mcmahon
        monkeypatch.setattr(specfun, "_mcmahon", lambda nu, k: mcmahon(nu, k) + np.pi / 2)
        with pytest.raises(ConvergenceFailure, match="no sign change"):
            bessel_zeros(0.0, 10)
        with pytest.raises(ConvergenceFailure, match="no sign change"):
            bessel_zero(2.5, 30)

    @pytest.mark.parametrize("nu", [-0.9, 0.0, 0.5, 37.3])
    def test_zeros_stop_where_the_residual_check_cannot_certify_them(self, nu):
        # past 2^27 half an ulp is 1.49e-8 of the slope, more than the
        # residual check allows: the last 200 zeros whose bracket lies below
        # it pass, the next raises PrecisionFailure (bessel_zero(0, 10**9)
        # used to raise ConvergenceFailure, "residual too large")
        top = specfun._ZERO_MAX
        k = int(top / np.pi)
        while specfun._mcmahon(nu, k + 1) + 1.0 <= top:
            k += 1
        while specfun._mcmahon(nu, k) + 1.0 > top:
            k -= 1
        z = specfun._zeros_at(nu, np.arange(k - 199, k + 1))
        assert_allclose(np.diff(z), np.pi, rtol=1e-6)
        for index in (k + 1, 10**9):
            with pytest.raises(PrecisionFailure, match="can be certified"):
                bessel_zero(nu, index)

    @staticmethod
    def _count_polish_sizes(monkeypatch):
        sizes = []
        polish = specfun._polish

        def counting(nu, x, a, b, fa):
            sizes.append(x.size)
            return polish(nu, x, a, b, fa)

        monkeypatch.setattr(specfun, "_polish", counting)
        return sizes

    def test_count_scans_once_per_order_and_polishes_only_its_windows(self, monkeypatch):
        # at nu = 300 the first n_scan = 302 brackets come from the scan: it
        # runs once for the order, and each count polishes only the zeros of
        # the windows it reads (it used to scan and polish up to 302 zeros
        # per window)
        nu = 300.0
        z = bessel_zeros(nu, 401)
        specfun._scan_brackets.cache_clear()
        sizes = self._count_polish_sizes(monkeypatch)
        seq = make_bessel_zero_squared(nu)
        for n in (50, 150, 301, 302, 400):
            assert seq.count_upto(z[n - 1] * z[n]) == n
        assert specfun._scan_brackets.cache_info().misses == 1
        assert len(sizes) >= 5 and set(sizes) == {_COUNT_WINDOW}

    def test_one_zero_asked_is_one_zero_polished(self, monkeypatch):
        # below and above n_scan = 302: a cached scan bracket, a McMahon one
        nu = 300.0
        z = bessel_zeros(nu, 310)
        specfun._scan_brackets.cache_clear()
        sizes = self._count_polish_sizes(monkeypatch)
        assert bessel_zero(nu, 300) == z[299]
        assert bessel_zero(nu, 305) == z[304]
        assert sizes == [1, 1]
        assert specfun._scan_brackets.cache_info().misses == 1

    def test_scan_brackets_are_cached_and_read_only(self):
        rows = specfun._scan_brackets(2.5, 6)
        assert specfun._scan_brackets(2.5, 6) is rows
        start, a, b, fa = rows
        assert np.all((a < start) & (start < b))
        assert np.all(np.sign(fa) != np.sign(special.jv(2.5, b)))
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0

    def test_zeros_out_of_order_raise_on_every_path(self, monkeypatch):
        # the one ordering check sits in _zeros_at, so the count's windows
        # pass through it as the prefix does
        polish = specfun._polish
        monkeypatch.setattr(specfun, "_polish", lambda *args: polish(*args)[::-1])
        with pytest.raises(ConvergenceFailure, match="strictly increasing"):
            bessel_zeros(0.0, 10)
        with pytest.raises(ConvergenceFailure, match="strictly increasing"):
            make_bessel_zero_squared(0.0).count_upto(1e4)

    def test_invalid_order_rejected(self):
        with pytest.raises(DomainError):
            bessel_zeros(-1.0, 5)
        with pytest.raises(DomainError, match="Bessel order nu"):
            bessel_j(float("nan"), 2.0)

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

    @pytest.mark.parametrize("nu", [-0.9, -0.5, 0.5, 2.0, 10.0])
    def test_diagonal_and_near_origin_entries_match_mpmath(self, nu):
        # the 12 smallest Nystrom nodes (the first at x = 3.0e-7) and ten
        # more across (0, 1e4).  The diagonal once cancelled a nu^2 / x term
        # there, off by up to 2.4e-5 relative at nu = 10.  The worst
        # measured now is 1.6e-13 relative on the diagonal (nu = 10) and
        # 5.4e-16 of the largest diagonal value off it (nu = -0.9).  From
        # nu = 37.3 on, K at the smallest nodes underflows.
        mpmath = pytest.importorskip("mpmath")
        x = _dpp_grid()[np.r_[0:12, 12:512:50]]
        with mpmath.workdps(40):
            diag = np.array([float(_diag_mp(mpmath, nu, t)) for t in x])
            off = np.array([[float(_kernel_mp(mpmath, nu, a, b)) if a != b else 0.0
                             for b in x[:12]] for a in x[:12]])
        assert np.all(np.abs(bessel_kernel_diag(nu, x) - diag) <= 4e-13 * diag)
        grid = bessel_kernel(nu, x[:12, None], x[None, :12])
        np.fill_diagonal(grid, 0.0)
        assert np.max(np.abs(grid - off)) <= 1.2e-15 * diag.max()

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
    def test_neighbouring_nodes_match_mpmath(self, nu):
        # pairs of neighbouring dpp_stats nodes, where the numerator
        # cancels, the first and the last pair included: the worst
        # measured is 4.4e-16, 6.2e-14 and 1.55e-13 of the largest diagonal
        # value at nu = -0.5, 0.5 and 2, both of the last at the last pair.
        # The bound is the one bessel_kernel's docstring states.
        mpmath = pytest.importorskip("mpmath")
        x = _dpp_grid()
        i = np.linspace(0, x.size - 2, 20).astype(int)
        with mpmath.workdps(40):
            ref = np.array([float(_kernel_mp(mpmath, nu, x[k], x[k + 1])) for k in i])
        err = np.abs(bessel_kernel(nu, x[i], x[i + 1]) - ref)
        assert np.max(err) <= 1.6e-13 * np.max(bessel_kernel_diag(nu, x))

    def test_outer_grid_costs_linear_bessel_work(self, monkeypatch):
        # count every element specfun's _jv evaluates, the one seam through
        # which it calls scipy's jv: the 512-node Nystrom build at T = 1e4
        # needs J_nu on the m x q grid of its nodes and the q = 80 nodes of
        # the kernel's integral form, m q in all and no m x m grid
        counted = [0]

        def counting(nu, u):
            out = special.jv(nu, u)
            counted[0] += np.size(out)
            return out

        monkeypatch.setattr(specfun, "_jv", counting)
        m, q = 512, 80
        nystrom(0.0, 1e4, m)
        assert counted[0] == m * q

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
    "bessel_j": lambda v: bessel_j(0.0, v),
    "bessel_j_deriv": lambda v: bessel_j_deriv(0.0, v),
    "density": lambda v: density(2.0, v),
    "cdf": lambda v: cdf(2.0, v),
    "log_potential": lambda v: log_potential(2.0, v),
    "g_boundary": lambda v: g_boundary(2.0, v, "+"),
    "g_map": lambda v: g_map(2.0, complex(v, 1e-3)),
    "phi_map": lambda v: phi_map(2.0, complex(v, 0.3)),
    "f_map": lambda v: f_map(2.0, complex(0.5, v)),
    "make_user": lambda v: make_user([0.5, v]).prefix(2),
    # c must leave the support base.support / c finite and positive
    "ScaledWeight": lambda v: ScaledWeight(PowerWeight(0.5), v, 1.0).support,
}
_LIBRARY_ERRORS = (errors.DomainError, errors.ConvergenceFailure, errors.SequenceExhausted,
                   errors.PrecisionFailure, errors.DiscretizationFailure)


# A RuntimeWarning escaping an entry point fails the test.  The examples
# are a huge order (the Gauss-Jacobi rule overflows), a window near the
# float maximum (the Nystrom masses overflow), NaN and inf, a scale
# c = 1e-310 whose support 1 / c overflows, and the smallest subnormal,
# where 0.5 x underflows to 0 in the log potential.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", sorted(_FLOAT_ENTRY_POINTS))
@given(v=st.floats(allow_nan=True, allow_infinity=True))
@example(v=1034.0)
@example(v=8.98846567431158e+307)
@example(v=math.nan)
@example(v=math.inf)
@example(v=1e-310)
@example(v=5e-324)
@settings(max_examples=60, deadline=None)
def test_any_float_gives_finite_values_or_library_error(entry, v):
    try:
        out = _FLOAT_ENTRY_POINTS[entry](v)
    except _LIBRARY_ERRORS:
        return
    assert np.all(np.isfinite(out))
