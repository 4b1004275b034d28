"""Increasing point sequences 0 < p_1 < p_2 < ... used for conditioning.

Built-in kinds:

* ``quadratic``   p_n = pi^2 n^2
* ``bessel``      p_n = j_{nu,n}^2, the squared positive zeros of J_nu
* ``sampled`` / ``user``   finite lists supplied by the caller

Lazy kinds cache a strictly increasing prefix and extend it on demand.
Counting points below a threshold R is only reported when a witness
p_{N+1} > R is available, so the count is certified rather than guessed.
Counting builds no prefix: both lazy kinds settle the count on a short
window of points computed by index around a leading-order estimate.  The
window and the prefix take their points from one float rule,
``PointSequence._points_at`` (PI2 * k * k with float k, and each bessel
zero computed on its own and squared), so the window's points equal the
prefix's.  The infinite tails of the lazy kinds are Hurwitz zeta values,
summed here by Euler-Maclaurin (``_hurwitz_zeta``) without scipy.
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun
from .errors import (_POSITIVE, ConvergenceFailure, DomainError, PrecisionFailure,
                     SequenceExhausted, _as_index, _check_number, _check_points)

__all__ = [
    "PointSequence",
    "make_quadratic",
    "make_bessel_zero_squared",
    "make_sampled",
    "make_user",
]

PI2 = math.pi * math.pi

# the eps of the growth residual's normalization n^{3/2} (log n)^{1+eps}
GROWTH_EPS = 0.5

# relative rounding bound of a float tail sum: the whole error bound of the
# quadratic and finite kinds, and the floor of the bessel kind's, which only
# a larger M lowers
SUM_EPS = 8e-16

_LAZY_KINDS = ("quadratic", "bessel")
_FINITE_KINDS = ("sampled", "user")

# the number of points that settle a lazy count
_COUNT_WINDOW = 8

# B_2k / (2k)! for k = 1..10, the Euler-Maclaurin coefficients of
# _hurwitz_zeta, which also sums its first _ZETA_TERMS terms explicitly
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000,
              43867 / 5109094217170944000, -174611 / 802857662698291200000)
_ZETA_TERMS = 10


class PointSequence:
    """A strictly increasing sequence of positive reals, 1-based."""

    def __init__(self, kind, nu=None, points=None):
        # only the bessel kind reads its order
        self.nu = specfun._order(nu) if kind == "bessel" else None
        if kind in _LAZY_KINDS:
            self._points = np.empty(0)
            self.size = None
        elif kind in _FINITE_KINDS:
            pts = _check_points(points, _POSITIVE, math.inf, "points")
            if pts.ndim != 1 or pts.size == 0 or np.any(np.diff(pts) <= 0):
                raise DomainError("points must be a non-empty, strictly increasing 1-d list")
            self._points = pts
            self.size = int(pts.size)
        else:
            raise DomainError(f"unknown sequence kind {kind!r}")
        self.kind = kind

    # -- prefix management -------------------------------------------------

    def _ensure(self, n):
        if self._points.size >= n:
            return
        if self.size is not None:
            raise SequenceExhausted(
                f"sequence has {self.size} points, {n} requested; extend the sequence")
        # only the new points are computed, each on its own, so a prefix
        # grown in steps equals one built at once
        have = self._points.size
        new = self._points_at(np.arange(have + 1, n + 1, dtype=float))
        if have and not new[0] > self._points[-1]:
            raise ConvergenceFailure(f"points of {self!r} not strictly increasing")
        self._points = np.concatenate([self._points, new])

    def _points_at(self, k):
        """The points of a lazy kind at the float indices k, in the one
        float rule that both the prefix and ``count_upto`` use: PI2 * k * k,
        or each Bessel zero polished on its own and squared."""
        if self.kind == "quadratic":
            return PI2 * k * k
        return specfun._zeros_at(self.nu, k.astype(int)) ** 2

    def prefix(self, n):
        """First n points as an array (a read-only view of the cache)."""
        n = int(_as_index(n, 0, math.inf, "prefix length"))
        self._ensure(n)
        out = self._points[:n]
        out.flags.writeable = False
        return out

    def p(self, n):
        """The n-th point, n >= 1."""
        n = int(_as_index(n, 1, math.inf, "index n"))
        self._ensure(n)
        return float(self._points[n - 1])

    # -- counting and growth ----------------------------------------------

    def count_upto(self, R):
        """Number of points p_n <= R, certified by a witness p_{N+1} > R.

        Ties (p_n == R) count as inside.  For finite sequences whose last
        point is still <= R no witness exists and SequenceExhausted is
        raised.  No lazy kind builds its prefix: both count on a short
        window of points around the estimate sqrt(R)/pi, shifted by
        McMahon's 1/4 - nu/2 for the bessel kind.  PrecisionFailure is
        raised past 2^53 points, and on the bessel kind already past the
        zeros that the residual check can certify (j > 2^27, about the
        4.27e7-th zero, so R above about 1.8e16).
        """
        R = _check_number(R, _POSITIVE, math.inf, "threshold R")
        if self.kind in _LAZY_KINDS:
            shift = 0.0 if self.kind == "quadratic" else 0.25 - self.nu / 2.0
            return _window_count(R, shift, self._points_at)
        if self._points[-1] <= R:
            raise SequenceExhausted(
                f"all {self.size} points are <= R={R}; extend the sequence to certify the count")
        return int(np.searchsorted(self._points, R, side="right"))

    def growth_residual(self, n):
        """(p_n - pi^2 n^2) / (n^{3/2} (log n)^{1+eps}) with eps = GROWTH_EPS,
        defined for n >= 3.

        n may be an integer array; the result then has its shape.
        """
        idx = _as_index(n, 3, math.inf, "growth residual index n")
        pts = self.prefix(np.max(idx))
        r = _growth_residual(pts[idx - 1], idx.astype(float))
        return float(r) if r.ndim == 0 else r

    # -- tail sums ---------------------------------------------------------

    def tail_inverse_power(self, k, M, extra=None):
        """(value, error_bound) for sum_{n > M} p_n^{-k}.

        quadratic: exact via the Hurwitz zeta function.
        bessel: explicit sum of `extra` further terms (default
            max(2000, M)), then a zeta-based asymptotic remainder; the
            stated bound is validated against brute-force sums in the test
            suite.
        finite kinds: the remaining terms, with no infinite tail.

        Every bound includes SUM_EPS times the sum, the rounding of the sum
        itself; for the quadratic and finite kinds that is the whole bound.
        """
        k = int(_as_index(k, 1, math.inf, "k"))
        M = int(_as_index(M, 0, math.inf, "M"))

        if self.kind == "quadratic":
            val = math.pi ** (-2 * k) * _hurwitz_zeta(2 * k, M + 1)
            return val, SUM_EPS * val

        if self.kind == "bessel":
            extra = int(_as_index(max(2000, M) if extra is None else extra, 0, math.inf, "extra"))
            pts = self.prefix(M + extra)
            explicit = float(np.sum(pts[M:M + extra] ** (-k)))
            nu = self.nu
            mu = 4.0 * nu * nu
            c0 = (mu - 1.0) / 4.0
            # 1/beta^2 coefficient of j^2 - (beta^2 - c0); padded for safety
            c2 = (mu - 1.0) ** 2 / 64.0 - (mu - 1.0) * (7.0 * mu - 31.0) / 192.0
            a = M + extra + 1 + nu / 2.0 - 0.25
            z2k = _hurwitz_zeta(2 * k, a)
            z2k2 = _hurwitz_zeta(2 * k + 2, a)
            z2k4 = _hurwitz_zeta(2 * k + 4, a)
            remainder = math.pi ** (-2 * k) * z2k + k * c0 * math.pi ** (-2 * k - 2) * z2k2
            bound = (
                1.2 * k * (2.0 * abs(c2) + 1.0) * math.pi ** (-2 * k - 4) * z2k4
                + 0.6 * k * (k + 1) * c0 * c0 * math.pi ** (-2 * k - 4) * z2k4
                + SUM_EPS * (explicit + abs(remainder))
            )
            return explicit + remainder, float(bound)

        # finite sequences
        if M >= self.size:
            return 0.0, 0.0
        val = float(np.sum(self._points[M:] ** (-k)))
        return val, SUM_EPS * val

    def __repr__(self):
        if self.size is None:
            extra = f"nu={self.nu}" if self.kind == "bessel" else "lazy"
            return f"PointSequence({self.kind!r}, {extra})"
        return f"PointSequence({self.kind!r}, {self.size} points)"


def _window_count(R, shift, points_at):
    """N with p_N <= R < p_{N+1}, where ``points_at(k)`` gives the points
    at an array of float indices k in the float rule of the lazy prefix
    (``PointSequence._points_at``), without building it.

    The estimate n = floor(sqrt(R)/pi + shift) is the leading term
    p_n ~ (n - shift)^2 pi^2 solved for n: exact up to rounding for the
    quadratic kind (shift 0), and McMahon's j_{nu,n} ~ (n + nu/2 - 1/4) pi
    for the bessel kind (shift 1/4 - nu/2).  The zeros lie below that term
    for |nu| > 1/2 and at most 0.05 above it for |nu| <= 1/2 (their spacing
    decreases to pi, or increases to it, from j_{nu,1}), so N >= n - 1;
    the quadratic estimate's rounding grows with n, and between
    3 * 2^51 and 2^53 it was at most N + 2 at 1.75e9 sampled thresholds
    just below p_{N+1}.  So the window of _COUNT_WINDOW points from n - 2
    starts at a point <= R.  While all its points are <= R (N exceeds n by
    up to about nu/10 for large nu), it moves up by its length, so the
    count always rests on a point <= R below it and a witness > R above
    it.  Past 2^53 points the float indices, and so the quadratic points,
    are no longer distinct, and PrecisionFailure is raised before an index
    is built; past the zeros that ``specfun._zeros_at`` can certify (2^27,
    so R ~ 1.8e16) the bessel kind raises it there.
    """
    n = math.sqrt(R) / math.pi + shift
    if n >= 2**53:
        raise PrecisionFailure(f"count at R={R!r} passes 2^53 points")
    lo = max(1, int(n) - 2)
    while True:
        z = points_at(np.arange(lo, lo + _COUNT_WINDOW, dtype=float))
        inside = int(np.searchsorted(z, R, side="right"))
        if inside < _COUNT_WINDOW:
            return lo - 1 + inside
        lo += _COUNT_WINDOW


def _hurwitz_zeta(s, a):
    """Hurwitz zeta(s, a) = sum_{n >= 0} (a + n)^-s for integer s >= 2 and
    a > 1/4, by Euler-Maclaurin summation (DLMF §25.11): the first _ZETA_TERMS
    terms, then the integral, half the next term and ten Bernoulli terms
    at x = a + _ZETA_TERMS, all added by ``math.fsum``.  Against mpmath
    references at 271 points with s = 2..40 and a from 0.3 to 1e6 + 1 it
    is within 2.3e-16 relative, and scipy's zeta within 5.1e-16.
    """
    x = a + _ZETA_TERMS
    terms = [(a + n) ** -s for n in range(_ZETA_TERMS)]
    terms += [x ** (1 - s) / (s - 1), 0.5 * x ** -s]
    rising = s * x ** (-s - 1)  # s (s+1) ... (s+2k-2) x^(-s-2k+1) at k = 1
    for j, c in enumerate(_BERNOULLI):
        terms.append(c * rising)
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2) / (x * x)
    return math.fsum(terms)


def _growth_residual(p, n):
    """(p - pi^2 n^2) / (n^{3/2} (log n)^{1+GROWTH_EPS}) elementwise,
    broadcasting the points p against their float indices n >= 3."""
    return (p - PI2 * n * n) / (n**1.5 * np.log(n) ** (1.0 + GROWTH_EPS))


def make_quadratic():
    """The reference sequence p_n = pi^2 n^2."""
    return PointSequence("quadratic")


def make_bessel_zero_squared(nu):
    """p_n = j_{nu,n}^2 for order nu > -1."""
    return PointSequence("bessel", nu=nu)


def make_sampled(points):
    """A finite realization, e.g. drawn from the point process."""
    return PointSequence("sampled", points=points)


def make_user(points):
    """A finite user-supplied list (validated strictly increasing)."""
    return PointSequence("user", points=points)
