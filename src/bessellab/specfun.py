"""Bessel functions of the first kind and the hard-edge Bessel kernel.

All routines are parametrized by a real order nu > -1.  The kernel lives on
the squared scale: for x, y > 0

    K(x, y) = [J(sqrt x) sqrt(y) J'(sqrt y) - J(sqrt y) sqrt(x) J'(sqrt x)]
              / (2 (x - y)),

where J = J_nu and J' its derivative.  On the diagonal the limit is

    K(x, x) = [J'(sqrt x)^2 + (1 - nu^2 / x) J(sqrt x)^2] / 4,

obtained from l'Hopital's rule together with the Bessel equation
u^2 J'' + u J' + (u^2 - nu^2) J = 0.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from scipy import optimize, special

from .errors import ConvergenceFailure, DomainError

__all__ = [
    "BesselOrder",
    "bessel_j",
    "bessel_j_deriv",
    "bessel_zero",
    "bessel_zeros",
    "bessel_kernel",
    "bessel_kernel_diag",
]

# relative |x - y| below which the kernel switches to the diagonal limit;
# both branches are accurate to ~1e-9 at the switch, so the value is
# continuous across it to that level
DIAG_SWITCH = 1e-8

# sign-change scan step for locating small zeros; consecutive zeros of J_nu
# are always more than 2 apart for nu > -1, so pi/4 cannot skip a pair
_SCAN_STEP = math.pi / 4


@dataclasses.dataclass(frozen=True)
class BesselOrder:
    """Validated order nu > -1 of a Bessel function of the first kind."""

    nu: float

    def __post_init__(self):
        nu = float(self.nu)
        if not math.isfinite(nu) or nu <= -1.0:
            raise DomainError(f"Bessel order must be finite and > -1, got {self.nu!r}")
        object.__setattr__(self, "nu", nu)


def _order(nu):
    if isinstance(nu, BesselOrder):
        return nu.nu
    return BesselOrder(nu).nu


def _maybe_scalar(out):
    out = np.asarray(out)
    return out[()] if out.ndim == 0 else out


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1].

    The rule depends on n alone, so it is computed once per process and
    shared: both arrays are read-only, and callers map them into new ones.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def bessel_j(nu, u):
    """J_nu(u) for u >= 0.

    Relative accuracy is ~1e-13 for u up to 1e4 away from the zeros of
    J_nu (near a zero only absolute accuracy at the amplitude scale is
    meaningful).
    """
    nu = _order(nu)
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise DomainError("bessel_j requires u >= 0")
    return _maybe_scalar(special.jv(nu, u))


def _deriv_at_zero(nu):
    # limits of J_nu'(u) as u -> 0+
    if nu == 1.0:
        return 0.5
    if nu == 0.0 or nu > 1.0:
        return 0.0
    # J_nu' ~ (nu/2) (u/2)^(nu-1) / Gamma(nu+1) blows up for 0 < nu < 1,
    # with the sign of nu
    return math.inf if nu > 0 else -math.inf


def bessel_j_deriv(nu, u):
    """d/du J_nu(u), computed as (J_{nu-1}(u) - J_{nu+1}(u)) / 2.

    At u = 0 the one-sided limit is returned; for non-integer nu < 1 that
    limit is a signed infinity.
    """
    nu = _order(nu)
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise DomainError("bessel_j_deriv requires u >= 0")
    zero = u == 0.0
    safe = np.where(zero, 1.0, u)
    out = special.jvp(nu, safe)
    if np.any(zero):
        out = np.where(zero, _deriv_at_zero(nu), out)
    return _maybe_scalar(out)


def _mcmahon(nu, k):
    # McMahon's asymptotic expansion for the k-th zero of J_nu
    mu = 4.0 * nu * nu
    beta = (np.asarray(k, dtype=float) + 0.5 * nu - 0.25) * math.pi
    e = 8.0 * beta
    guess = (
        beta
        - (mu - 1.0) / e
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e**3)
        - 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * e**5)
    )
    return guess


def _scan_zeros(nu, count):
    # locate the first `count` zeros by a sign-change scan plus brentq
    zeros = []
    u = 1e-8 if nu < 0.5 else max(1e-8, 0.7 * math.sqrt(nu * (nu + 2.0)))
    f_prev = special.jv(nu, u)
    while len(zeros) < count:
        u_next = u + _SCAN_STEP
        f_next = special.jv(nu, u_next)
        if f_prev == 0.0:
            zeros.append(u)
        elif f_prev * f_next < 0.0:
            zeros.append(optimize.brentq(lambda t: special.jv(nu, t), u, u_next,
                                         xtol=1e-14, maxiter=200))
        u, f_prev = u_next, f_next
        if u > 1e7:
            raise ConvergenceFailure(f"zero scan for nu={nu} ran away")
    return np.array(zeros)


def bessel_zeros(nu, kmax):
    """First kmax positive zeros of J_nu, strictly increasing.

    The first few zeros are located by a sign-change scan (McMahon's
    expansion is unreliable there for larger orders); the rest start from
    McMahon guesses polished by Newton steps.  Failure to converge or to
    produce a strictly increasing sequence raises ConvergenceFailure.
    """
    nu = _order(nu)
    kmax = int(kmax)
    if kmax < 0:
        raise DomainError("kmax must be >= 0")
    if kmax == 0:
        return np.empty(0)

    n_scan = min(kmax, max(4, int(math.ceil(abs(nu))) + 2))
    zeros = np.empty(kmax)
    zeros[:n_scan] = _scan_zeros(nu, n_scan)

    if kmax > n_scan:
        k = np.arange(n_scan + 1, kmax + 1)
        guess = _mcmahon(nu, k)
        x = guess.copy()
        converged = False
        for _ in range(60):
            step = special.jv(nu, x) / special.jvp(nu, x)
            np.clip(step, -1.0, 1.0, out=step)
            x -= step
            if np.max(np.abs(step)) < 1e-14 * np.max(x):
                converged = True
                break
        if not converged:
            raise ConvergenceFailure(
                f"Newton polish of Bessel zeros (nu={nu}) did not converge")
        if np.max(np.abs(x - guess)) > 1.6:
            raise ConvergenceFailure(
                f"Bessel zero left its McMahon bracket (nu={nu})")
        zeros[n_scan:] = x

    amplitude = np.sqrt(2.0 / (math.pi * zeros))
    if np.any(np.abs(special.jv(nu, zeros)) > 1e-8 * amplitude):
        raise ConvergenceFailure(f"Bessel zero residual too large (nu={nu})")
    if np.any(np.diff(zeros) <= 0):
        raise ConvergenceFailure(f"Bessel zeros not strictly increasing (nu={nu})")
    return zeros


def bessel_zero(nu, k):
    """k-th positive zero of J_nu (k = 1, 2, ...)."""
    if int(k) < 1:
        raise DomainError("zero index k must be >= 1")
    return float(bessel_zeros(nu, int(k))[-1])


def bessel_kernel_diag(nu, x):
    """Diagonal K(x, x) of the hard-edge kernel, x > 0."""
    nu = _order(nu)
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0) & np.isfinite(x)):
        raise DomainError("bessel_kernel_diag requires finite x > 0")
    u = np.sqrt(x)
    j = special.jv(nu, u)
    jp = special.jvp(nu, u)
    return _maybe_scalar(0.25 * (jp * jp + (1.0 - nu * nu / x) * j * j))


def bessel_kernel(nu, x, y):
    """Hard-edge Bessel kernel K(x, y) on (0, oo)^2.

    J_nu(sqrt t) and sqrt(t) J_nu'(sqrt t) are evaluated once per entry of
    the un-broadcast x and of y, and only the products are broadcast, so an
    m x m outer grid such as ``x[:, None], x[None, :]`` costs O(m) Bessel
    evaluations rather than O(m^2).

    Within relative distance DIAG_SWITCH of the diagonal the analytic
    diagonal limit at the midpoint is used, evaluated on those entries
    only; by symmetry the midpoint value differs from the true one only at
    second order in |x - y|.
    """
    nu = _order(nu)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all((x > 0) & np.isfinite(x)) and np.all((y > 0) & np.isfinite(y))):
        raise DomainError("bessel_kernel requires finite x, y > 0")
    sx = np.sqrt(x)
    sy = np.sqrt(y)
    jx = special.jv(nu, sx)
    jy = special.jv(nu, sy)
    dx = sx * special.jvp(nu, sx)
    dy = sy * special.jvp(nu, sy)
    # halving the numerator rather than doubling x - y is exact and cannot
    # overflow when x - y is near the float maximum
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(0.5 * (jx * dy - jy * dx) / (x - y))

    near = np.abs(x - y) <= DIAG_SWITCH * np.maximum(x, y)
    if np.any(near):
        xb, yb = np.broadcast_arrays(x, y)
        # halving before adding is exact and cannot overflow near the float
        # maximum
        out[near] = bessel_kernel_diag(nu, 0.5 * xb[near] + 0.5 * yb[near])
    return _maybe_scalar(out)
