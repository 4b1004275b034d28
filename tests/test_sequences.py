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
from numpy.testing import assert_allclose

from bessellab.errors import DomainError, SequenceExhausted
from bessellab.sequences import (
    load_points,
    make_bessel_zero_squared,
    make_quadratic,
    make_sampled,
    make_user,
    save_points,
)

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

    def test_growth_residual_vanishes(self):
        q = make_quadratic()
        assert q.growth_residual(3) == 0.0
        assert q.growth_residual(1000) == 0.0

    def test_growth_residual_guards(self):
        q = make_quadratic()
        with pytest.raises(DomainError):
            q.growth_residual(2)

    @pytest.mark.parametrize("index", [2.9, 3.7, math.nan, math.inf, 1e300])
    def test_indices_must_be_finite_integers(self, index):
        # a fractional index used to be truncated without a word
        b = make_bessel_zero_squared(0.0)
        for call in (b.p, b.prefix, b.growth_residual):
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

    def test_count_matches_zero_table(self):
        b = make_bessel_zero_squared(0.0)
        from bessellab.specfun import bessel_zeros

        z2 = bessel_zeros(0.0, 12) ** 2
        assert b.count_upto((z2[4] + z2[5]) / 2) == 5
        assert b.count_upto(z2[7]) == 8

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
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "points.txt"
        b = make_bessel_zero_squared(1.5)
        save_points(b, path, n=20)
        loaded = load_points(path)
        assert_allclose(loaded.prefix(20), b.prefix(20), rtol=0, atol=0)

    def test_repr_smoke(self):
        assert "quadratic" in repr(make_quadratic())
        assert "2 points" in repr(make_user([1.0, 2.0]))
