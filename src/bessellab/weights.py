"""Conditional weights and their exponential approximations.

Conditioning a point configuration X = {p_1 < p_2 < ...} on having no
points in (0, R] produces, after rescaling to [0, 1], the weight

    w(t) = t^nu * prod_{p_n > R} (1 - R t / p_n)^2.

The infinite product is evaluated as an explicit sum of log1p terms up to
index M plus a power-series tail in t whose coefficients are inverse-power
sums of the sequence; the series is truncated with a certified error bound
kept below ``tail_tolerance``.  Every method takes t on the rescaled
interval [0, 1]; the gap's own scale [0, R] is internal to the product.

The exponential comparison weights are

    plus:   t^nu exp(-n V(t / gamma))            on [0, 1],
    minus:  t^nu exp(-n V(gamma t))              on [0, gamma^-2], else 0,

with the external field V(t) = 2 (1 + sqrt t) log(1 + sqrt t)
+ 2 (1 - sqrt t) log(1 - sqrt t).  For gamma > 1 and R large enough the
conditional weight is sandwiched between the two; ``check_sandwich``
evaluates it once on a grid, measures the log-scale margins against the
pair of every gamma and reports each gamma's violations as one plain dict.

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

import math

import numpy as np

from .errors import (_ABOVE_ONE, _POSITIVE, DomainError, PrecisionFailure, _as_index,
                     _check_number, _check_points)
from .sequences import SUM_EPS
from .specfun import _maybe_scalar, _order

__all__ = [
    "field_V",
    "field_V_tilde",
    "field_V_gamma",
    "ConditionalWeight",
    "ApproxWeight",
    "PowerWeight",
    "ScaledWeight",
    "check_sandwich",
]

_MAX_SERIES_DEPTH = 16


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
    t = _check_points(t, -1.0, 1.0, "t")
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
    t = _check_points(t, 0.0, 1.0, "t")
    s = np.sqrt(t)
    q = (1.0 - t) / (1.0 + s)
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
    return _maybe_scalar(2.0 * (1.0 + s) * np.log1p(s) + 2.0 * lower)


def field_V_gamma(gamma, t):
    """V(t / gamma) on [0, gamma]."""
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    return field_V(_check_points(t, 0.0, gamma, "t") / gamma)


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
        certificate meets it, for at most 12 rounds; then PrecisionFailure
        is raised.  For a bessel sequence the explicit terms of the zeta
        remainder (``extra``) grow fourfold in a round while the coefficient
        error above its summation floor SUM_EPS * S_j exceeds half the
        tolerance, since only a larger M lowers that floor; a round whose
        series remainder and floor already fit the tolerance keeps M and
        only grows ``extra``.
    """

    support = quad_support = 1.0

    def __init__(self, seq, nu, R, tail_tolerance=1e-10):
        self.seq = seq
        self.nu = _order(nu)
        self.R = _check_number(R, _POSITIVE, math.inf, "R")
        self.tail_tolerance = _check_number(tail_tolerance, _POSITIVE, math.inf, "tail_tolerance")
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
        self._factors = np.asarray(self.seq.prefix(self.M)[self.n_cond:])

    def _try_tail(self, M, extra):
        # finite sequences have no infinite tail: the explicit part is exact
        if self.seq.size is not None:
            return True, (min(M, self.seq.size), 0, np.empty(0), 0.0)

        # M >= max(256, 4 n_cond) >= n_cond and count_upto certified
        # p_{n_cond+1} > R, so p_{M+1} > R and q < 1
        R = self.R
        q = R / self.seq.p(M + 1)

        svals, serrs = [], []
        for k in range(1, _MAX_SERIES_DEPTH + 2):
            s, e = self.seq.tail_inverse_power(k, M, extra=extra)
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
        # series alone cannot get there.  The coefficient error is its
        # summation floor SUM_EPS * S_j, which only M lowers, plus the excess
        # of the bessel zeta remainder's bound, which falls at least like
        # (M + extra)^-5 (the exact kinds have no excess).  If the remainder
        # and the floor fit, the excess alone is in the way: retry at the
        # same M with the explicit terms that bring it to half the room left,
        # at most four times as many.  Otherwise double M, and grow the
        # explicit terms fourfold while the excess is over half the tolerance.
        explicit = extra or max(2000, M)
        excess = sum(2.0 / (j + 1) * R ** (j + 1) * (serrs[j] - SUM_EPS * svals[j])
                     for j in range(depth))
        room = self.tail_tolerance - (remainder + coeff_err - excess)
        if room > 0:
            grow = min(4.0, (2.0 * excess / room) ** 0.2)
            return False, (M, math.ceil((M + explicit) * grow) - M)
        return False, (2 * M, 4 * explicit if excess > 0.5 * self.tail_tolerance else extra)

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

    def log_smooth(self, t):
        """log of the analytic factor prod (1 - R t / p_n)^2, t in [0, 1]."""
        t = _check_points(t, 0.0, self.support * (1 + 1e-12), "t")
        return _maybe_scalar(self._log_product(np.minimum(t * self.R, self.R)))

    def log_density(self, t):
        """log of the rescaled weight t^nu prod (1 - R t / p_n)^2 on [0, 1]."""
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
        self.gamma = _check_number(gamma, _ABOVE_ONE, math.inf, "gamma")
        self.n = int(_as_index(n, 1, math.inf, "n"))
        self.nu = _order(nu)
        # the minus weight vanishes beyond gamma^-2, so quadrature stops there
        self.quad_support = 1.0 if kind == "plus" else self.gamma ** -2

    def log_smooth(self, t):
        t = _check_points(t, 0.0, self.support * (1 + 1e-12), "t")
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
        self.nu = _order(nu)

    def log_smooth(self, t):
        t = _check_points(t, 0.0, self.support * (1 + 1e-12), "t")
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
        self.c = _check_number(c, _POSITIVE, math.inf, "c")
        self.d = _check_number(d, _POSITIVE, math.inf, "d")
        self.nu = base.nu
        self.support = _check_number(base.support / self.c, _POSITIVE, math.inf, "support / c")
        self.quad_support = base.quad_support / self.c

    def log_smooth(self, t):
        t = _check_points(t, 0.0, self.support * (1 + 1e-12), "t")
        return _maybe_scalar(math.log(self.d) + self.nu * math.log(self.c)
                             + self.base.log_smooth(t * self.c))

    def log_density(self, t):
        return _log_weight(self.nu, t, self.log_smooth(t))


# ---------------------------------------------------------------------------
# sandwich diagnostics


def check_sandwich(w, gammas):
    """Measure minus <= w <= plus for the ConditionalWeight w at each gamma.

    w.log_density is evaluated once, on the 1000 interior points of an
    equispaced grid of [0, 1], and compared with the exponential weights of
    every gamma, which use n = w.n_cond, the certified count of points
    below w.R.  Returns one JSON-ready dict per gamma, in order, with the
    gamma, R, n_cond, the number of points, the count of negative margins
    on each side and the smallest log-scale margin on each side.  Margins
    are data, not assertions: a negative one records a violation.
    """
    n = w.n_cond
    grid = np.linspace(0.0, 1.0, 1002)[1:-1]
    logw = w.log_density(grid)
    out = []
    for gamma in gammas:
        lo = logw - ApproxWeight("minus", gamma, n, w.nu).log_density(grid)
        hi = ApproxWeight("plus", gamma, n, w.nu).log_density(grid) - logw
        out.append(dict(gamma=float(gamma),
                        R=w.R,
                        n_cond=n,
                        points=int(grid.size),
                        lower_violations=int(np.sum(lo < 0)),
                        upper_violations=int(np.sum(hi < 0)),
                        min_lower_margin=float(np.min(lo)),
                        min_upper_margin=float(np.min(hi))))
    return out
