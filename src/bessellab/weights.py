"""Conditional weights and their exponential approximations.

Conditioning a point configuration X = {p_1 < p_2 < ...} on having no
points in (0, R] produces, after rescaling to [0, 1], the weight

    w(t) = t^nu * prod_{p_n > R} (1 - R t / p_n)^2.

The infinite product is evaluated as an explicit sum of log1p terms up to
index M plus a power-series tail in t whose coefficients are inverse-power
sums of the sequence; the series is truncated with a certified error bound
kept below ``tail_tolerance``.

The exponential comparison weights are

    plus:   t^nu exp(-n V(t / gamma))            on [0, 1],
    minus:  t^nu exp(-n V(gamma t))              on [0, gamma^-2], else 0,

with the external field V(t) = 2 (1 + sqrt t) log(1 + sqrt t)
+ 2 (1 - sqrt t) log(1 - sqrt t).  For gamma > 1 and R large enough the
conditional weight is sandwiched between the two; ``check_sandwich``
measures the log-scale margins on a grid and reports violations as data.

Every weight class here has the form t^nu h(t) on [0, support]: its
``log_smooth`` is log h and its ``log_density`` is nu log t + log h(t),
with the head left out at nu = 0.  The supports are attributes:

    ConditionalWeight, PowerWeight      support = quad_support = 1,
    ApproxWeight                        support = 1, quad_support = 1 (plus)
                                        or gamma^-2 (minus, zero beyond),
    ScaledWeight(base, c, d)            base's supports divided by c.

Both methods raise DomainError, naming "finite" or "support", for any
point that is not finite or lies outside [0, support (1 + 1e-12)]; the
relative slack admits endpoints rounded up by a rescaling.  The fields V,
V~ and V_gamma raise the same errors outside their closed intervals.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError, PrecisionFailure
from .specfun import BesselOrder, _maybe_scalar

__all__ = [
    "field_V",
    "field_V_tilde",
    "field_V_gamma",
    "ConditionalWeight",
    "ApproxWeight",
    "PowerWeight",
    "ScaledWeight",
    "SandwichReport",
    "check_sandwich",
]

_MAX_SERIES_DEPTH = 16


def _check_points(t, lo, hi):
    """t as a float array; DomainError unless every entry is finite and in [lo, hi]."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("evaluation points must be finite")
    if np.any(t < lo) or np.any(t > hi):
        raise DomainError(f"evaluation points must lie in the support [{lo:g}, {hi:g}]")
    return t


def _log_weight(nu, t, log_h):
    """nu log t + log h(t), the log of the weight t^nu h(t) at the checked
    points t; at nu = 0 the head is left out, so t = 0 gives log h(0)."""
    if nu == 0.0:
        return _maybe_scalar(log_h)
    with np.errstate(divide="ignore"):
        return _maybe_scalar(nu * np.log(t) + log_h)


# ---------------------------------------------------------------------------
# external fields


def field_V_tilde(t):
    """(1+t) log(1+t) + (1-t) log(1-t) on [-1, 1], with 0 log 0 = 0."""
    t = _check_points(t, -1.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # each factor hits 0 log 0 at its own endpoint (up at t=-1, dn at t=+1)
        up = np.where(t > -1.0, (1.0 + t) * np.log1p(t), 0.0)
        dn = np.where(t < 1.0, (1.0 - t) * np.log1p(-t), 0.0)
    return _maybe_scalar(up + dn)


def field_V(t):
    """2 (1+sqrt t) log(1+sqrt t) + 2 (1-sqrt t) log(1-sqrt t) on [0, 1].

    The factor 1 - sqrt(t) is computed as (1-t)/(1+sqrt t) to stay accurate
    near t = 1.  V(0) = 0 and V(1) = 4 log 2.
    """
    t = _check_points(t, 0.0, 1.0)
    s = np.sqrt(t)
    q = (1.0 - t) / (1.0 + s)
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
    return _maybe_scalar(2.0 * (1.0 + s) * np.log1p(s) + 2.0 * lower)


def field_V_gamma(gamma, t):
    """V(t / gamma) on [0, gamma]."""
    gamma = float(gamma)
    if not 1.0 <= gamma < math.inf:
        raise DomainError("gamma must be finite and >= 1")
    return field_V(_check_points(t, 0.0, gamma) / gamma)


# ---------------------------------------------------------------------------
# conditional weight


class ConditionalWeight:
    """The weight of X conditioned on a gap (0, R], rescaled to [0, 1].

    Parameters
    ----------
    seq : PointSequence
        The conditioning sequence.
    nu : float
        Hard-edge exponent, nu > -1.
    R : float
        Gap length.  All retained product factors have p_n > R.
    tail_tolerance : float
        Certified bound on the absolute error of log-weight values coming
        from the truncated product tail.  The explicit part starts at
        M = max(256, 4 N(R)) terms and M doubles until the tail
        certificate meets it.
    """

    support = quad_support = 1.0

    def __init__(self, seq, nu, R, tail_tolerance=1e-10):
        self.seq = seq
        self.nu = BesselOrder(nu).nu
        self.R = float(R)
        if not (self.R > 0) or not math.isfinite(self.R):
            raise DomainError("R must be positive and finite")
        if tail_tolerance <= 0:
            raise DomainError("tail_tolerance must be positive")
        self.tail_tolerance = float(tail_tolerance)
        self.n_cond = seq.count_upto(self.R)

        M = max(256, 4 * self.n_cond)
        extra = None
        for _ in range(12):
            ok, payload = self._try_tail(M, extra)
            if ok:
                break
            M, extra = payload
        else:
            raise PrecisionFailure(
                f"could not certify product tail below {self.tail_tolerance}")
        self.M, self.series_depth, self._tail_coeff, self.tail_error = payload

        if self.seq.size is not None and self.seq.size < self.M:
            self.M = self.seq.size
        self._factors = np.asarray(self.seq.prefix(self.M)[self.n_cond:])

    def _try_tail(self, M, extra):
        # finite sequences have no infinite tail: the explicit part is exact
        if self.seq.size is not None:
            return True, (min(M, self.seq.size), 0, np.empty(0), 0.0)

        R = self.R
        p_next = self.seq.p(M + 1)
        if p_next <= R:
            return False, (2 * M, extra)
        q = R / p_next

        svals, serrs = [], []
        kw = {} if extra is None else {"extra": extra}
        coeff_err = 0.0
        for k in range(1, _MAX_SERIES_DEPTH + 2):
            s, e = self.seq.tail_inverse_power(k, M, **kw)
            svals.append(s)
            serrs.append(e)
            if k == 1:
                continue
            depth = k - 1
            remainder = 2.0 / k * R**k * svals[-1] / (1.0 - q)
            coeff_err = sum(2.0 / (j + 1) * R ** (j + 1) * serrs[j]
                            for j in range(depth))
            if remainder + coeff_err <= self.tail_tolerance:
                coeffs = np.array([-2.0 / j * svals[j - 1] for j in range(1, depth + 1)])
                return True, (M, depth, coeffs, remainder + coeff_err)
        # series alone cannot get there: push M (and the explicit part of
        # the zeta remainder for bessel sequences) further out
        new_extra = None if extra is None else 4 * extra
        if self.seq.kind == "bessel" and coeff_err > 0.5 * self.tail_tolerance:
            new_extra = 4 * (extra or max(2000, M))
        return False, (2 * M, new_extra)

    # -- evaluation --------------------------------------------------------

    def _log_product(self, t_bar):
        """Sum of 2 log(1 - t/p_n) over p_n > R, t on the [0, R] scale."""
        out = np.zeros_like(t_bar)
        ps = self._factors
        for lo in range(0, t_bar.size, 256):
            chunk = t_bar.flat[lo:lo + 256]
            out.flat[lo:lo + 256] = 2.0 * np.sum(
                np.log1p(-chunk[:, None] / ps[None, :]), axis=1)
        if self.series_depth:
            k = np.arange(1, self.series_depth + 1, dtype=float)
            out += (self._tail_coeff[None, :]
                    * t_bar.reshape(-1, 1) ** k[None, :]).sum(axis=1).reshape(t_bar.shape)
        return out

    def log_bar(self, t):
        """log of t^nu prod (1 - t/p_n)^2 on the original scale t in [0, R]."""
        t = _check_points(t, 0.0, self.R * (1 + 1e-12))
        return _log_weight(self.nu, t, self._log_product(t))

    def log_smooth(self, t):
        """log of the analytic factor prod (1 - R t / p_n)^2, t in [0, 1]."""
        t = _check_points(t, 0.0, self.support * (1 + 1e-12))
        return _maybe_scalar(self._log_product(np.minimum(t * self.R, self.R)))

    def log_density(self, t):
        """log of the rescaled weight on [0, 1]; equals -nu log R + log_bar(R t)."""
        return _log_weight(self.nu, t, self.log_smooth(t))

    def __repr__(self):
        return (f"ConditionalWeight({self.seq!r}, nu={self.nu}, R={self.R}, "
                f"M={self.M}, depth={self.series_depth})")


# ---------------------------------------------------------------------------
# exponential comparison weights


class ApproxWeight:
    """t^nu exp(-n V(t/gamma)) (plus) or t^nu 1_[0,1/gamma^2] exp(-n V(gamma t)) (minus)."""

    support = 1.0

    def __init__(self, kind, gamma, n, nu):
        if kind not in ("plus", "minus"):
            raise DomainError("kind must be 'plus' or 'minus'")
        self.kind = kind
        self.gamma = float(gamma)
        if not (self.gamma > 1.0) or not math.isfinite(self.gamma):
            raise DomainError("approximating weights need a finite gamma > 1")
        self.n = int(n)
        if self.n < 1:
            raise DomainError("n must be >= 1")
        self.nu = BesselOrder(nu).nu
        # the minus weight vanishes beyond gamma^-2, so quadrature stops there
        self.quad_support = 1.0 if kind == "plus" else self.gamma ** -2

    def log_smooth(self, t):
        t = _check_points(t, 0.0, self.support * (1 + 1e-12))
        if self.kind == "plus":
            return _maybe_scalar(-self.n * field_V(t / self.gamma))
        inside = t <= self.quad_support * (1.0 + 1e-12)
        body = -self.n * field_V(np.minimum(t * self.gamma, 1.0))
        return _maybe_scalar(np.where(inside, body, -np.inf))

    def log_density(self, t):
        return _log_weight(self.nu, t, self.log_smooth(t))

    def __repr__(self):
        return f"ApproxWeight({self.kind!r}, gamma={self.gamma}, n={self.n}, nu={self.nu})"


class PowerWeight:
    """The bare weight t^nu on [0, 1]; smooth factor identically 1."""

    support = quad_support = 1.0

    def __init__(self, nu):
        self.nu = BesselOrder(nu).nu

    def log_smooth(self, t):
        t = _check_points(t, 0.0, self.support * (1 + 1e-12))
        return _maybe_scalar(np.zeros_like(t))

    def log_density(self, t):
        return _log_weight(self.nu, t, self.log_smooth(t))


class ScaledWeight:
    """d * w(c t): the covariance transform of a base weight.

    If w(t) = t^nu h(t) on [0, b] then the scaled weight is
    (d c^nu) t^nu h(c t) on [0, b / c].
    """

    def __init__(self, base, c, d):
        self.base = base
        self.c = float(c)
        self.d = float(d)
        if self.c <= 0 or self.d <= 0:
            raise DomainError("scale factors must be positive")
        self.nu = base.nu
        self.support = base.support / self.c
        self.quad_support = base.quad_support / self.c

    def log_smooth(self, t):
        t = _check_points(t, 0.0, self.support * (1 + 1e-12))
        return _maybe_scalar(math.log(self.d) + self.nu * math.log(self.c)
                             + self.base.log_smooth(t * self.c))

    def log_density(self, t):
        return _log_weight(self.nu, t, self.log_smooth(t))


# ---------------------------------------------------------------------------
# sandwich diagnostics


@dataclasses.dataclass
class SandwichReport:
    """Pointwise log-scale margins of minus <= w <= plus on a grid.

    Margins are data, not assertions: a negative entry records a violation
    at that grid point.
    """

    gamma: float
    R: float
    n_cond: int
    grid: np.ndarray
    lower_margin: np.ndarray
    upper_margin: np.ndarray

    @property
    def lower_violations(self):
        return int(np.sum(self.lower_margin < 0))

    @property
    def upper_violations(self):
        return int(np.sum(self.upper_margin < 0))

    @property
    def ok(self):
        return self.lower_violations == 0 and self.upper_violations == 0

    def summary(self):
        return {
            "gamma": self.gamma,
            "R": self.R,
            "n_cond": self.n_cond,
            "points": int(self.grid.size),
            "lower_violations": self.lower_violations,
            "upper_violations": self.upper_violations,
            "min_lower_margin": float(np.min(self.lower_margin)),
            "min_upper_margin": float(np.min(self.upper_margin)),
        }


def check_sandwich(w, gamma):
    """Measure minus <= w <= plus for the ConditionalWeight w.

    The exponential weights use n = w.n_cond, the certified count of points
    below w.R.  Returns a SandwichReport over the 1000 interior points of
    an equispaced grid of [0, 1].
    """
    n = w.n_cond
    plus = ApproxWeight("plus", gamma, n, w.nu)
    minus = ApproxWeight("minus", gamma, n, w.nu)
    grid = np.linspace(0.0, 1.0, 1002)[1:-1]
    logw = w.log_density(grid)
    lo = logw - minus.log_density(grid)
    hi = plus.log_density(grid) - logw
    return SandwichReport(gamma=float(gamma), R=w.R, n_cond=n, grid=grid,
                          lower_margin=np.asarray(lo), upper_margin=np.asarray(hi))
