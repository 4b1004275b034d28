"""Increasing point sequences 0 < p_1 < p_2 < ... used for conditioning.

Built-in kinds:

* ``quadratic``   p_n = pi^2 n^2
* ``bessel``      p_n = j_{nu,n}^2, the squared positive zeros of J_nu
* ``sampled`` / ``user``   finite lists supplied by the caller

Lazy kinds cache a strictly increasing prefix and extend it on demand.
Counting points below a threshold R is only reported when a witness
p_{N+1} > R is available, so the count is certified rather than guessed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from . import specfun
from .errors import DomainError, SequenceExhausted

__all__ = [
    "PointSequence",
    "make_quadratic",
    "make_bessel_zero_squared",
    "make_sampled",
    "make_user",
    "save_points",
    "load_points",
]

PI2 = math.pi * math.pi

# the eps of the growth residual's normalization n^{3/2} (log n)^{1+eps}
GROWTH_EPS = 0.5

_LAZY_KINDS = ("quadratic", "bessel")
_FINITE_KINDS = ("sampled", "user")


class PointSequence:
    """A strictly increasing sequence of positive reals, 1-based."""

    def __init__(self, kind, nu=None, points=None):
        # only the bessel kind reads its order
        self.nu = specfun.BesselOrder(nu).nu if kind == "bessel" else None
        if kind in _LAZY_KINDS:
            self._points = np.empty(0)
            self.size = None
        elif kind in _FINITE_KINDS:
            pts = np.asarray(points, dtype=float)
            if pts.ndim != 1 or pts.size == 0:
                raise DomainError("finite sequences need a non-empty 1-d point list")
            if np.any(pts <= 0) or np.any(np.diff(pts) <= 0):
                raise DomainError("points must be positive and strictly increasing")
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
        if self.kind == "quadratic":
            idx = np.arange(1, n + 1, dtype=float)
            self._points = PI2 * idx * idx
        else:
            self._points = specfun.bessel_zeros(self.nu, n) ** 2

    def prefix(self, n):
        """First n points as an array (a read-only view of the cache)."""
        n = int(_as_index(n))
        if n < 0:
            raise DomainError("prefix length must be >= 0")
        self._ensure(n)
        out = self._points[:n]
        out.flags.writeable = False
        return out

    def p(self, n):
        """The n-th point, n >= 1."""
        n = int(_as_index(n))
        if n < 1:
            raise DomainError("index n must be >= 1")
        self._ensure(n)
        return float(self._points[n - 1])

    # -- counting and growth ----------------------------------------------

    def count_upto(self, R):
        """Number of points p_n <= R, certified by a witness p_{N+1} > R.

        Ties (p_n == R) count as inside.  For finite sequences whose last
        point is still <= R no witness exists and SequenceExhausted is
        raised.
        """
        R = float(R)
        if not math.isfinite(R) or R <= 0:
            raise DomainError("threshold R must be positive and finite")
        n = 64
        while True:
            try:
                pts = self.prefix(n)
            except SequenceExhausted:
                pts = self.prefix(self.size)
                if pts[-1] <= R:
                    raise SequenceExhausted(
                        f"all {self.size} points are <= R={R}; extend the "
                        "sequence to certify the count") from None
                break
            if pts.size and pts[-1] > R:
                break
            n *= 2
        return int(np.searchsorted(pts, R, side="right"))

    def growth_residual(self, n):
        """(p_n - pi^2 n^2) / (n^{3/2} (log n)^{1+eps}) with eps = GROWTH_EPS,
        defined for n >= 3.

        n may be an integer array; the result then has its shape.
        """
        idx = _as_index(n)
        if np.min(idx) < 3:
            raise DomainError("growth residual needs n >= 3")
        pts = self.prefix(np.max(idx))
        r = _growth_residual(pts[idx - 1], idx.astype(float))
        return float(r) if r.ndim == 0 else r

    # -- tail sums ---------------------------------------------------------

    def tail_inverse_power(self, k, M, extra=None):
        """(value, error_bound) for sum_{n > M} p_n^{-k}.

        quadratic: exact via the Hurwitz zeta function.
        bessel: explicit sum of `extra` further terms, then a zeta-based
            asymptotic remainder; the stated bound is validated against
            brute-force sums in the test suite.
        finite kinds: the remaining terms, with no infinite tail.
        """
        k = int(k)
        M = int(M)
        if k < 1 or M < 0:
            raise DomainError("need k >= 1, M >= 0")

        if self.kind == "quadratic":
            val = float(math.pi ** (-2 * k) * special.zeta(2 * k, M + 1))
            return val, 8e-16 * val

        if self.kind == "bessel":
            if extra is None:
                extra = max(2000, M)
            extra = int(extra)
            pts = self.prefix(M + extra)
            explicit = float(np.sum(pts[M:M + extra] ** (-k)))
            nu = self.nu
            mu = 4.0 * nu * nu
            c0 = (mu - 1.0) / 4.0
            # 1/beta^2 coefficient of j^2 - (beta^2 - c0); padded for safety
            c2 = (mu - 1.0) ** 2 / 64.0 - (mu - 1.0) * (7.0 * mu - 31.0) / 192.0
            a = M + extra + 1 + nu / 2.0 - 0.25
            z2k = float(special.zeta(2 * k, a))
            z2k2 = float(special.zeta(2 * k + 2, a))
            z2k4 = float(special.zeta(2 * k + 4, a))
            remainder = math.pi ** (-2 * k) * z2k + k * c0 * math.pi ** (-2 * k - 2) * z2k2
            bound = (
                1.2 * k * (2.0 * abs(c2) + 1.0) * math.pi ** (-2 * k - 4) * z2k4
                + 0.6 * k * (k + 1) * c0 * c0 * math.pi ** (-2 * k - 4) * z2k4
                + 8e-16 * (explicit + abs(remainder))
            )
            return explicit + remainder, float(bound)

        # finite sequences
        if M >= self.size:
            return 0.0, 0.0
        val = float(np.sum(self._points[M:] ** (-k)))
        return val, 8e-16 * val

    def __repr__(self):
        if self.size is None:
            extra = f"nu={self.nu}" if self.kind == "bessel" else "lazy"
            return f"PointSequence({self.kind!r}, {extra})"
        return f"PointSequence({self.kind!r}, {self.size} points)"


def _as_index(n):
    """n as an int array; DomainError unless every entry is an integer
    value below 2^63 in size (integer-valued floats such as 10.0 pass)."""
    n = np.asarray(n)
    if n.dtype.kind not in "iu":
        f = n.astype(float)
        if not (np.all(np.abs(f) < 2.0**63) and np.all(f == np.floor(f))):
            raise DomainError("sequence indices must be finite integers")
    return n.astype(int)


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


def save_points(seq, path, n=None):
    """Write points as newline-delimited decimals with 17 significant digits."""
    if n is None:
        if seq.size is None:
            raise DomainError("n is required for lazy sequences")
        n = seq.size
    pts = seq.prefix(n)
    with open(path, "w") as fh:
        for p in pts:
            fh.write(f"{p:.17g}\n")


def load_points(path):
    """Read a newline-delimited point file back into a finite user sequence."""
    return make_user(np.loadtxt(path, dtype=float, ndmin=1))
