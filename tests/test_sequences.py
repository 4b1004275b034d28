"""Tests for increasing point sequences: counting, growth residuals, and
certified inverse-power tail sums.

The Bessel-zero tail sums are checked against the exact totals
sum_n j_{nu,n}^{-2} = 1/(4(nu+1)) and
sum_n j_{nu,n}^{-4} = 1/(16 (nu+1)^2 (nu+2))
(Rayleigh), which make the infinite tails available in closed form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bessellab import specfun
from bessellab.dpp import nystrom, sample_many
from bessellab.errors import (ConvergenceFailure, DomainError, PrecisionFailure,
                              SequenceExhausted)
from bessellab.orthopoly import build_recurrence
from bessellab.sequences import (
    _hurwitz_zeta,
    make_bessel_zero_squared,
    make_quadratic,
    make_sampled,
    make_user,
)
from bessellab.specfun import bessel_zero, bessel_zeros
from bessellab.weights import ApproxWeight, PowerWeight

PI2 = math.pi**2


class TestQuadratic:
    def test_values(self):
        q = make_quadratic()
        assert q.p(1) == PI2
        assert_allclose(q.prefix(10), PI2 * np.arange(1, 11) ** 2, rtol=1e-15)

    def test_count_is_inclusive_at_a_point(self):
        q = make_quadratic()
        assert q.count_upto(PI2) == 1
        assert q.count_upto(PI2 - 1e-9) == 0
        assert q.count_upto(PI2 * 9 + 0.5) == 3
        with pytest.raises(DomainError):
            q.count_upto(0.0)

    # R = 1e14 used to build 4.2 M points and R = 1e20 would have asked
    # for 2^33; the last two sit on a point and just below it
    @pytest.mark.parametrize("R", [1e14, 1e20, PI2 * 1e9 * 1e9,
                                   math.nextafter(PI2 * 1e9 * 1e9, 0.0)])
    def test_count_upto_builds_no_point(self, R):
        # witnessed by the float rule PI2 * n * n of the prefix
        q = make_quadratic()
        n = q.count_upto(R)
        assert PI2 * n * n <= R < PI2 * (n + 1) * (n + 1)
        assert abs(n - math.sqrt(R) / math.pi) < 1.0
        assert q.prefix(0).base.size == 0  # the cache behind prefix is still empty
        if R == 1e14:  # the count the prefix gives, from 3.2 M points
            assert n == np.searchsorted(q.prefix(n + 1), R, side="right")

    def test_count_upto_stops_at_2_53_points(self):
        # past 2^53 the float indices, and so the points, repeat
        with pytest.raises(PrecisionFailure):
            make_quadratic().count_upto(1e300)

    def test_prefix_grown_in_steps_equals_one_built_at_once(self):
        # a growth computes only the new points, in the float rule PI2 * k * k
        grown = make_quadratic()
        for n in (10, 300, 5000):
            grown.prefix(n)
        k = np.arange(1, 5001, dtype=float)
        assert np.array_equal(grown.prefix(5000), PI2 * k * k)
        assert np.array_equal(grown.prefix(5000), make_quadratic().prefix(5000))

    def test_growth_residual_vanishes(self):
        q = make_quadratic()
        assert q.growth_residual(3) == 0.0
        assert q.growth_residual(1000) == 0.0

    def test_growth_residual_guards(self):
        q = make_quadratic()
        with pytest.raises(DomainError):
            q.growth_residual(2)

    @pytest.mark.parametrize("index", [2.9, 3.7, math.nan, math.inf, 1e300, 2.5])
    def test_indices_must_be_finite_integers(self, index):
        # a fractional index or count used to be truncated without a word,
        # and NaN raised a plain ValueError
        b = make_bessel_zero_squared(0.0)
        kern = nystrom(0.0, 10.0, 64)
        calls = (b.p, b.prefix, b.growth_residual,
                 lambda v: nystrom(0.0, 10.0, v),
                 lambda v: ApproxWeight("plus", 1.5, v, 0.0),
                 lambda v: bessel_zeros(0.0, v),
                 lambda v: bessel_zero(0.0, v),
                 lambda v: build_recurrence(PowerWeight(0.0), v),
                 lambda v: sample_many(kern, v, 0))
        for call in calls:
            with pytest.raises(DomainError, match="integer"):
                call(index)
        with pytest.raises(DomainError, match="integer"):
            b.growth_residual(np.array([3.0, index]))

    def test_integer_valued_float_indices_pass(self):
        # e.g. a schedule of 10.0 read from a JSON config
        b = make_bessel_zero_squared(0.0)
        assert b.p(10.0) == b.p(10)
        assert np.array_equal(b.prefix(4.0), b.prefix(4))
        assert b.growth_residual(7.0) == b.growth_residual(7)

    def test_index_starts_at_one(self):
        with pytest.raises(DomainError):
            make_quadratic().p(0)

    def test_tail_against_brute_force(self):
        # sum_{n>10} (pi^2 n^2)^{-1}, bracketed by partial sum + integral bounds
        q = make_quadratic()
        val, bound = q.tail_inverse_power(1, 10)
        n_stop = 200_000
        partial = math.fsum(1.0 / (PI2 * n * n) for n in range(11, n_stop + 1))
        lo = partial + 1.0 / (PI2 * (n_stop + 1))
        hi = partial + 1.0 / (PI2 * n_stop)
        assert lo - bound - 1e-15 <= val <= hi + bound + 1e-15
        assert bound < 1e-13


class TestBesselZeroSquared:
    def test_half_integer_is_quadratic(self):
        b = make_bessel_zero_squared(0.5)
        assert_allclose(b.prefix(30), PI2 * np.arange(1, 31) ** 2, rtol=1e-12)
        assert abs(b.growth_residual(20)) < 1e-9

    def test_growth_residual_is_small(self):
        b = make_bessel_zero_squared(0.0)
        # p_n - pi^2 n^2 = O(n) for Bessel zeros, so the normalized
        # residual decays like n^{-1/2} / log n
        r50 = abs(b.growth_residual(50))
        r400 = abs(b.growth_residual(400))
        assert r400 < r50 < 1.0

    @pytest.mark.parametrize("nu", [0.0, 2.5, 100.0])
    def test_prefix_grown_in_steps_equals_one_built_at_once(self, nu):
        # a growth computes only the new zeros, each polished on its own
        grown = make_bessel_zero_squared(nu)
        for n in (10, 300, 5000):
            grown.prefix(n)
        once = make_bessel_zero_squared(nu).prefix(5000)
        assert np.array_equal(grown.prefix(5000), once)
        assert np.array_equal(once, bessel_zeros(nu, 5000) ** 2)

    def test_growth_checks_where_old_and_new_zeros_meet(self, monkeypatch):
        # the new zeros, here shifted back one index, must continue the
        # cached prefix strictly
        b = make_bessel_zero_squared(0.0)
        b.prefix(10)
        zeros_at = specfun._zeros_at
        monkeypatch.setattr(specfun, "_zeros_at", lambda nu, k: zeros_at(nu, k - 1))
        with pytest.raises(ConvergenceFailure, match="strictly increasing"):
            b.prefix(20)

    def test_count_matches_zero_table(self):
        b = make_bessel_zero_squared(0.0)
        from bessellab.specfun import bessel_zeros

        z2 = bessel_zeros(0.0, 12) ** 2
        assert b.count_upto((z2[4] + z2[5]) / 2) == 5
        assert b.count_upto(z2[7]) == 8

    @pytest.mark.parametrize("nu", [0.5, 37.3])
    @pytest.mark.parametrize("R", [1e10, 1e12, 1e14])
    def test_count_upto_builds_no_point(self, nu, R):
        # checked on the 30-digit mpmath zeros j_{n-2}, ..., j_{n+3}, which
        # lie farther than 1e-8 relative from R, far beyond float rounding
        mpmath = pytest.importorskip("mpmath")
        b = make_bessel_zero_squared(nu)
        n = b.count_upto(R)
        assert b.prefix(0).base.size == 0  # the cache behind prefix is still empty
        with mpmath.workdps(30):
            window = [mpmath.besseljzero(mpmath.mpf(nu), k) ** 2 for k in range(n - 2, n + 4)]
            assert all(abs(p - R) > 1e-8 * R for p in window)
            assert [p <= R for p in window] == [True] * 3 + [False] * 3

    @pytest.mark.parametrize("nu, kmax, step", [(0.0, 120, 1), (37.3, 120, 5), (100.0, 300, 13)])
    def test_count_upto_matches_the_prefix(self, nu, kmax, step):
        # R on squared zeros, their float neighbours, and McMahon's leading
        # term ((k + nu/2 - 1/4) pi)^2, where the estimate steps: for nu = 0
        # N falls one below it there, and for nu = 100 N runs up to 11 above
        # it, so the window has to move
        z2 = bessel_zeros(nu, kmax + 10) ** 2
        k = np.arange(1, kmax, step)
        beta2 = ((k + nu / 2 - 0.25) * np.pi) ** 2
        R = np.concatenate([z2[k - 1], np.nextafter(z2[k - 1], 0), np.nextafter(z2[k - 1], 1e300),
                            beta2])
        b = make_bessel_zero_squared(nu)
        got = [b.count_upto(r) for r in R]
        assert np.array_equal(got, np.searchsorted(z2, R, side="right"))

    @pytest.mark.parametrize("nu", [0.0, 0.5, 37.3])
    @pytest.mark.parametrize("R", [1e17, 1e20, 1e25, 1e32])
    def test_count_upto_stops_past_the_certified_zeros(self, nu, R):
        # these used to raise ConvergenceFailure, "residual too large" or
        # "McMahon bracket ... holds no sign change", naming the wrong cause
        b = make_bessel_zero_squared(nu)
        with pytest.raises(PrecisionFailure, match="can be certified"):
            b.count_upto(R)
        assert b.prefix(0).base.size == 0

    def test_count_upto_stops_at_2_53_points(self):
        b = make_bessel_zero_squared(0.5)
        with pytest.raises(PrecisionFailure):
            b.count_upto(1e300)
        assert b.prefix(0).base.size == 0

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.0])
    def test_rayleigh_sum_k1(self, nu):
        # certified tail at M=0 is the full sum 1/(4(nu+1))
        b = make_bessel_zero_squared(nu)
        val, bound = b.tail_inverse_power(1, 0)
        assert abs(val - 1.0 / (4.0 * (nu + 1.0))) <= bound + 1e-15

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.0])
    def test_rayleigh_sum_k2(self, nu):
        b = make_bessel_zero_squared(nu)
        val, bound = b.tail_inverse_power(2, 0)
        exact = 1.0 / (16.0 * (nu + 1.0) ** 2 * (nu + 2.0))
        assert abs(val - exact) <= bound + 1e-16

    @pytest.mark.parametrize("extra", [200, 1000, 5000])
    def test_tail_bound_is_honest(self, extra):
        # exact tail = full Rayleigh sum minus the explicit prefix
        nu, M = 0.0, 50
        b = make_bessel_zero_squared(nu)
        exact = 0.25 - math.fsum(1.0 / p for p in b.prefix(M))
        val, bound = b.tail_inverse_power(1, M, extra=extra)
        # the reference route carries ~1e-16 relative rounding of its own
        assert abs(val - exact) <= bound + 1e-16
        assert bound < 1e-9

    def test_bound_shrinks_with_extra_terms(self):
        b = make_bessel_zero_squared(1.0)
        _, b1 = b.tail_inverse_power(1, 10, extra=100)
        _, b2 = b.tail_inverse_power(1, 10, extra=3000)
        assert b2 < b1

    def test_tail_guards(self):
        b = make_bessel_zero_squared(0.0)
        with pytest.raises(DomainError):
            b.tail_inverse_power(0, 5)
        with pytest.raises(DomainError):
            b.tail_inverse_power(1, -1)


def _hurwitz_zeta_mp(mpmath, s, a):
    """zeta(s, a) to far more than double precision, or None where mpmath
    cannot vouch for it.  mpmath's own zeta(s, a) at 80 and 120 digits
    differs by up to 2.6e-11 relative at large s and a (s = 36,
    a = 2000.7), so for integer a the reference is zeta(s) - sum_{n<a} n^-s
    at 50 + s log10(a) digits, and for other a a point is kept only where
    mpmath at 80 and 120 digits agrees to 1e-25.  At a = 10^6 + 1 the sum would take 10^6 terms per s;
    computed once that way (in fixed point, about a minute), it agreed with
    mpmath's zeta at 120 digits to 3.7e-21 for every s = 2..40, which the
    test therefore takes."""
    if a == 10**6 + 1:
        with mpmath.workdps(120):
            return mpmath.zeta(s, a)
    if a == int(a):
        with mpmath.workdps(50 + int(s * math.log10(a))):
            return mpmath.zeta(s) - mpmath.fsum(mpmath.mpf(n) ** -s for n in range(1, int(a)))
    with mpmath.workdps(80):
        low = mpmath.zeta(s, a)
    with mpmath.workdps(120):
        high = mpmath.zeta(s, a)
    return high if abs(high - low) <= 1e-25 * high else None


def test_hurwitz_zeta_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    checked = 0
    for a in (0.3, 1, 1.5, 11, 257, 2000.7, 10000.75, 10**6 + 1):
        for s in range(2, 41):
            ref = _hurwitz_zeta_mp(mpmath, s, a)
            if ref is not None:
                assert abs(_hurwitz_zeta(s, a) - ref) <= 6e-16 * ref, (s, a)
                checked += 1
    # the mpmath filter keeps 271 of the 312 points
    assert checked >= 250


class TestFiniteSequences:
    def test_sampled_basic(self):
        s = make_sampled([1.0, 4.0, 9.0])
        assert s.count_upto(8.9) == 2
        assert s.p(3) == 9.0

    def test_sampled_requires_increasing(self):
        with pytest.raises(DomainError):
            make_sampled([3.0, 2.0, 5.0])

    def test_exhaustion(self):
        s = make_sampled([1.0, 4.0, 9.0])
        with pytest.raises(SequenceExhausted):
            s.p(4)
        with pytest.raises(SequenceExhausted):
            # counting past the last stored point is ambiguous
            s.count_upto(9.5)

    def test_finite_tail_is_plain_sum(self):
        s = make_sampled([1.0, 2.0, 4.0])
        val, bound = s.tail_inverse_power(1, 1)
        assert_allclose(val, 0.5 + 0.25, rtol=1e-15)
        assert bound < 1e-15
        assert s.tail_inverse_power(1, 3) == (0.0, 0.0)

    def test_growth_residual_on_samples(self):
        pts = make_bessel_zero_squared(0.0).prefix(8)
        s = make_sampled(pts)
        b = make_bessel_zero_squared(0.0)
        assert_allclose(s.growth_residual(5), b.growth_residual(5), rtol=1e-12)

    def test_growth_residual_index_array(self):
        s = make_sampled(make_bessel_zero_squared(0.0).prefix(40))
        n = np.arange(3, 41)
        r = s.growth_residual(n)
        assert r.shape == n.shape
        assert_allclose(r, [s.growth_residual(int(k)) for k in n], rtol=1e-15)
        with pytest.raises(DomainError):
            s.growth_residual(np.array([2, 5]))
        with pytest.raises(SequenceExhausted):
            s.growth_residual(np.array([5, 41]))


class TestSerialization:
    def test_repr_smoke(self):
        assert "quadratic" in repr(make_quadratic())
        assert "2 points" in repr(make_user([1.0, 2.0]))


# Lazy sequences shared by the examples, so that each extends one cache.
_WITNESSED = {"quadratic": make_quadratic(), "bessel": make_bessel_zero_squared(0.5)}


def _assert_witnessed(seq, R):
    # N = count_upto(R) is certified by p_N <= R < p_{N+1}, with p_0 = 0
    n = seq.count_upto(R)
    pts = seq.prefix(n + 1)
    assert (n == 0 or pts[n - 1] <= R) and R < pts[n]


# R stays below 1e8, about 3200 points, because the witness check itself
# builds prefix(n + 1).
@pytest.mark.parametrize("kind", sorted(_WITNESSED))
@given(R=st.floats(min_value=0.0, max_value=1e8, exclude_min=True))
@settings(max_examples=60, deadline=None)
def test_count_upto_is_witnessed(kind, R):
    _assert_witnessed(_WITNESSED[kind], R)


@given(data=st.data(),
       points=st.lists(st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
                       min_size=1, max_size=12, unique=True).map(sorted))
@settings(max_examples=80, deadline=None)
def test_user_count_upto_is_witnessed_or_exhausted(data, points):
    # ties count as inside, so R = p_n is drawn as often as a free float
    R = data.draw(st.one_of(st.sampled_from(points),
                            st.floats(min_value=0.0, max_value=1e300, exclude_min=True)))
    seq = make_user(points)
    if R >= points[-1]:  # every point is <= R: no witness
        with pytest.raises(SequenceExhausted):
            seq.count_upto(R)
    else:
        _assert_witnessed(seq, R)
