"""Bessel functions of the first kind and the hard-edge Bessel kernel.

All routines are parametrized by a real order nu > -1, and every value is
built from scipy's J_nu, J_{nu+1} and J_{nu+2}.  scipy.special is imported
at the first J_nu evaluation rather than with the package, so code that
evaluates no Bessel function (orthopoly, weights, equilibrium) loads numpy
alone.  The one derivative rule is the recurrence J_nu'(u) = (nu/u)
J_nu(u) - J_{nu+1}(u).

The kernel lives on the squared scale.  It is the Neumann series

    K(x, y) = sum_{k>=0} C(x)_k C(y)_k,
    C(x)_k  = sqrt(nu + 2k + 1) J_{nu+2k+1}(sqrt x) / sqrt x,

the finite Hankel transform behind Slepian's generalized prolate
functions (Bell Syst. Tech. J. 43, 1964), equal to the Christoffel-Darboux
form [J(sqrt y) sqrt(x) J1(sqrt x) - J(sqrt x) sqrt(y) J1(sqrt y)]
/ (2 (x - y)) of Tracy & Widom (Commun. Math. Phys. 161, 1994), J = J_nu
and J1 = J_{nu+1}.  One row builder, ``_rows``, gives C(x) for an array
of points: a downward ratio recurrence in the order (Miller's algorithm;
Gautschi, SIAM Rev. 9, 1967), scaled to scipy's J_{nu+1} and J_{nu+2}.
The series stops after N = ceil((max(sqrt x - nu, 0) + 6.5 x^(1/6) + 8)
/ 2) terms for points up to x (``_terms``).  ``bessel_kernel``,
``bessel_kernel_diag`` and the Nystrom factor of ``dpp`` all read these
rows.  A row costs O(sqrt x): one at x = 1e8 took 37-72 ms and 512 of
them 0.18-0.46 s on a 2-core Xeon, against 1.3 s for one at x = 1e10.  So
both kernels accept x only up to KERNEL_X_MAX = 1e8 and raise DomainError
above it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (_ABOVE_MINUS_ONE, _POSITIVE, ConvergenceFailure, PrecisionFailure,
                     _as_index, _check_number, _check_points)

__all__ = [
    "bessel_j",
    "bessel_j_deriv",
    "bessel_zero",
    "bessel_zeros",
    "bessel_kernel",
    "bessel_kernel_diag",
]

# the largest x either kernel accepts: a row costs O(sqrt x) (see the
# module docstring)
KERNEL_X_MAX = 1e8

# sign-change scan step for locating small zeros; consecutive zeros of J_nu
# are always more than 2 apart for nu > -1, so pi/4 cannot skip a pair
_SCAN_STEP = math.pi / 4

# the largest zero the residual check in _zeros_at can certify: from 2^27
# on, half an ulp of a float is 1.49e-8, so jv at the float nearest a zero
# can exceed the check's 1e-8 of the amplitude.  Measured on the 400 000
# zeros below it for nu in {-0.9, 0, 0.5, 2.5, 37.3, 100}: residuals at
# most 7.45e-9 of the amplitude; the first failing zero lies within 16 above.
_ZERO_MAX = 2.0**27


def _jv(nu, u):
    # scipy's J_nu(u), the one scipy call of the package; its import runs
    # once, at the first call, and is a sys.modules lookup after that
    from scipy.special import jv
    return jv(nu, u)


def _order(nu):
    """nu as a float; DomainError unless it is a finite Bessel order > -1."""
    return _check_number(nu, _ABOVE_MINUS_ONE, math.inf, "Bessel order nu")


def _maybe_scalar(out):
    out = np.asarray(out)
    return out[()] if out.ndim == 0 else out


def bessel_j(nu, u):
    """J_nu(u) for finite u >= 0.

    Relative accuracy is ~1e-13 for u up to 1e4 away from the zeros of
    J_nu (near a zero only absolute accuracy at the amplitude scale is
    meaningful).
    """
    nu = _order(nu)
    u = _check_points(u, 0.0, math.inf, "u")
    return _maybe_scalar(_jv(nu, u))


def _deriv_at_zero(nu):
    # limits of J_nu'(u) as u -> 0+
    if nu == 1.0:
        return 0.5
    if nu == 0.0 or nu > 1.0:
        return 0.0
    # J_nu' ~ (nu/2) (u/2)^(nu-1) / Gamma(nu+1) blows up for 0 < nu < 1,
    # with the sign of nu
    return math.inf if nu > 0 else -math.inf


def _deriv(nu, u, j):
    # J_nu'(u) = (nu/u) J_nu(u) - J_{nu+1}(u), given j = J_nu(u): one jv
    # beside the J_nu the caller already has
    return nu / u * j - _jv(nu + 1.0, u)


def bessel_j_deriv(nu, u):
    """d/du J_nu(u) for finite u >= 0, as (nu/u) J_nu(u) - J_{nu+1}(u).

    Against 40-digit mpmath on 200 points u in [1e-3, 50] its error is at
    most 5.5e-14 of |J_nu(u)| + |J_nu'(u)| for nu in {-0.9, -0.5, 0.3, 2,
    37.3} (6.1e-14 on 1 000 points).  Away from u = 0 most of it is the
    error of scipy's J_{nu+1}.  At u = 0 the one-sided limit is returned;
    for non-integer nu < 1 that limit is a signed infinity.
    """
    nu = _order(nu)
    u = _check_points(u, 0.0, math.inf, "u")
    zero = u == 0.0
    safe = np.where(zero, 1.0, u)
    out = _deriv(nu, safe, _jv(nu, safe))
    if np.any(zero):
        out = np.where(zero, _deriv_at_zero(nu), out)
    return _maybe_scalar(out)


def _mcmahon(nu, k):
    # McMahon's asymptotic expansion for the k-th zero of J_nu
    mu = 4.0 * nu * nu
    beta = (np.asarray(k, dtype=float) + 0.5 * nu - 0.25) * math.pi
    e = 8.0 * beta
    return (
        beta
        - (mu - 1.0) / e
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e**3)
        - 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * e**5)
    )


@functools.lru_cache(maxsize=16)
def _scan_brackets(nu, count):
    # brackets of the first `count` zeros: sign changes of J_nu on a grid of
    # step _SCAN_STEP, extended until it holds enough.  Rows (start, a, b,
    # J_nu(a)) with the secant point as start, the arguments of _polish.  The
    # scan depends on (nu, count) alone, so it is cached for the last 16
    # such pairs and the array is read-only.
    u0 = 1e-8 if nu < 0.5 else max(1e-8, 0.7 * math.sqrt(nu * (nu + 2.0)))
    # first grid: up to McMahon's leading term (count + |nu|/2 + 1/4) pi
    n = int(((count + abs(nu) / 2.0 + 0.25) * math.pi - u0) / _SCAN_STEP) + 2
    while True:
        u = u0 + _SCAN_STEP * np.arange(n + 1)
        f = _jv(nu, u)
        k = np.flatnonzero((f[:-1] == 0.0) | (f[:-1] * f[1:] < 0.0))[:count]
        if k.size == count:
            break
        if u[-1] > 1e7:
            raise ConvergenceFailure(f"zero scan for nu={nu} ran away")
        n *= 2
    a, b, fa, fb = u[k], u[k + 1], f[k], f[k + 1]
    rows = np.array([a - fa * (b - a) / (fb - fa), a, b, fa])
    rows.setflags(write=False)
    return rows


def _polish(nu, x, a, b, fa):
    # zeros of J_nu in the brackets [a, b] (J_nu(a) = fa), by Newton steps
    # from x that fall back to bisection whenever they would leave the
    # (shrinking) bracket.  Each zero leaves the batch once its own Newton
    # step falls below 1e-14 x, where it is at the accuracy of jv itself, so
    # its value does not depend on the other zeros in the batch.
    zeros = np.empty(x.shape)
    todo = np.arange(x.size)
    for _ in range(200):
        fx = _jv(nu, x)
        left = np.sign(fx) == np.sign(fa)
        a = np.where(left, x, a)
        b = np.where(left, b, x)
        # near a zero the (nu/x) J_nu term of J_nu' is small, so nothing
        # cancels
        with np.errstate(divide="ignore", invalid="ignore"):
            step = fx / _deriv(nu, x, fx)
        newton = x - step
        inside = (newton >= a) & (newton <= b)
        x = np.where(inside, newton, 0.5 * (a + b))
        done = inside & (np.abs(step) < 1e-14 * x)
        zeros[todo[done]] = x[done]
        if np.all(done):
            return zeros
        keep = ~done
        todo, x, a, b, fa = todo[keep], x[keep], a[keep], b[keep], fa[keep]
    raise ConvergenceFailure(f"bracketed polish of Bessel zeros (nu={nu}) did not converge")


def _zeros_at(nu, k):
    # the zeros j_{nu,k} for a strictly increasing int array of 1-based
    # indices k, the one path of every Bessel zero.  Indices up to n_scan
    # take their bracket from the sign-change scan (McMahon's expansion is
    # unreliable there for larger orders); every higher one [g - 1, g + 1]
    # around its McMahon guess g, which past n_scan is off by less than 1e-2
    # while the zeros there are more than 3 apart.  One _polish runs on all
    # of them, then the residual and ordering checks.  A bracket reaching
    # past _ZERO_MAX raises PrecisionFailure before any work.
    n_scan = max(4, int(math.ceil(abs(nu))) + 2)
    scan = k <= n_scan
    g = _mcmahon(nu, k[~scan])
    if np.any(g + 1.0 > _ZERO_MAX):
        raise PrecisionFailure(f"no Bessel zero past {_ZERO_MAX:.6g} can be certified (nu={nu})")
    fa, fb = _jv(nu, g - 1.0), _jv(nu, g + 1.0)
    if np.any(np.sign(fa) == np.sign(fb)):
        raise ConvergenceFailure(
            f"McMahon bracket of a Bessel zero holds no sign change (nu={nu})")
    brackets = np.concatenate([_scan_brackets(nu, n_scan)[:, k[scan] - 1],
                               [g, g - 1.0, g + 1.0, fa]], axis=1)
    zeros = _polish(nu, *brackets)
    amplitude = np.sqrt(2.0 / (math.pi * zeros))
    if np.any(np.abs(_jv(nu, zeros)) > 1e-8 * amplitude):
        raise ConvergenceFailure(f"Bessel zero residual too large (nu={nu})")
    if np.any(np.diff(zeros) <= 0):
        raise ConvergenceFailure(f"Bessel zeros not strictly increasing (nu={nu})")
    return zeros


def bessel_zeros(nu, kmax):
    """First kmax positive zeros of J_nu, strictly increasing.

    Each zero is polished on its own by bracketed Newton steps, so the
    first kmax zeros are the same numbers however many are asked for.  The
    brackets of the first few come from a sign-change scan (McMahon's
    expansion is unreliable there for larger orders), run once per order
    per process and cached; those of the rest are [g - 1, g + 1] around
    McMahon's guess g.  For nu in {-0.9, -0.5, 0, 0.5, 2.5, 10, 37.3} the
    first 60 zeros are within 2.5e-15 relative of 30-digit mpmath
    references.  Failure to converge, a bracket without a sign change, a
    residual above 1e-8 of the amplitude or a sequence that is not
    strictly increasing raises ConvergenceFailure.  A zero whose bracket
    reaches past _ZERO_MAX = 2^27 (from about the 4.27e7-th), where half
    an ulp of the argument is more than the residual check allows, raises
    PrecisionFailure before any zero is polished.
    """
    kmax = int(_as_index(kmax, 0, math.inf, "kmax"))
    return _zeros_at(_order(nu), np.arange(1, kmax + 1))


def bessel_zero(nu, k):
    """k-th positive zero of J_nu (k = 1, 2, ...), equal to
    ``bessel_zeros(nu, k)[-1]``.  It is the only zero polished: its bracket
    comes from the cached scan of the first few zeros or from McMahon's
    guess, and it passes the same checks.  It raises PrecisionFailure past
    _ZERO_MAX, as ``bessel_zeros`` does.
    """
    k = int(_as_index(k, 1, math.inf, "zero index k"))
    return float(_zeros_at(_order(nu), np.array([k]))[0])


def _terms(nu, x_max):
    # N, the number of rows for points up to x_max: the first order left
    # out, nu + 2N + 1, lies 6.5 x_max^(1/6) + 8 past max(sqrt x_max, nu).
    # For 13 orders in [-0.99, 300] and x in [1e-6, 1e8], the first order
    # from which the tail of the series is below 2^-53 of K(x, x) lay at
    # most 6.5 x^(1/6) + 4.9 past max(sqrt x, nu).
    z = math.sqrt(x_max)
    return math.ceil((max(z - nu, 0.0) + 6.5 * z ** (1.0 / 3.0) + 8.0) / 2.0)


def _rows(nu, x, n):
    """C(x)_k = sqrt(nu + 2k + 1) J_{nu+2k+1}(sqrt x) / sqrt x for k < n,
    one column per entry of the 1-d array x > 0: an (n, x.size) array.

    Miller's algorithm: the ratios r_k = J_{nu+1+k} / J_{nu+k} come from
    the downward recurrence r_k = 1 / (2 (nu + 1 + k) / z - r_{k+1}) from
    r_{2n} = 0, their cumulative product is J_{nu+1+k} / J_{nu+1}, and
    each column is scaled so that its first two entries fit scipy's
    J_{nu+1} and J_{nu+2} by least squares.
    """
    z = np.sqrt(x)
    r = (2.0 * (nu + 1.0 + np.arange(2 * n)))[:, None] / z
    r[-1] = 1.0 / r[-1]
    for k in range(2 * n - 2, 0, -1):
        r[k] = 1.0 / (r[k] - r[k + 1])
    scale = (_jv(nu + 1.0, z) + _jv(nu + 2.0, z) * r[1]) / ((1.0 + r[1] * r[1]) * z)
    r[0] = 1.0
    np.multiply.accumulate(r, axis=0, out=r)
    return r[:-1:2] * scale * np.sqrt(nu + 1.0 + 2.0 * np.arange(n))[:, None]


def bessel_kernel_diag(nu, x):
    """Diagonal K(x, x) = sum_k C(x)_k^2 of the hard-edge kernel for
    0 < x <= KERNEL_X_MAX, which is ``bessel_kernel(nu, x, x)``; see there
    for its accuracy."""
    return bessel_kernel(nu, x, x)


def bessel_kernel(nu, x, y):
    """Hard-edge Bessel kernel K(x, y) = sum_{k<N} C(x)_k C(y)_k on
    (0, KERNEL_X_MAX]^2, C the rows of the module docstring and N the
    number of terms for the largest of the points.

    The rows are built once per entry of the un-broadcast x and of y, and
    once in all when y holds x's points, so an m x m outer grid such as
    ``x[:, None], x[None, :]`` costs 2m Bessel evaluations and m rows of
    N entries, and only the sum over k is broadcast.  Each entry is summed
    in the order of k, whatever the shapes, so the grid and the flattened
    pairs agree bit for bit.  Nothing divides by x - y: the kernel has no
    diagonal branch.

    Against 40-digit mpmath on the 512 Nystrom nodes of (0, 1e4), the
    diagonal is within 1.3e-13 relative for nu in {-0.9, -0.5, 0.5, 2,
    10, 37.3} (at 37.3 on the 511 nodes where K(x, x) is a normal float);
    most of that is scipy's J_{nu+1} at non-integer order, up to 7e-14
    relative there, which scales each row.  Every pair of neighbouring
    nodes is within 7.8e-15 of the largest diagonal value for nu in
    {-0.9, -0.5, 0.5, 2, 10} and within 4.3e-14 at nu = 37.3; the closed
    form reached 1.6e-13 and 1.7e-12.  At y = x (1 + 1.01e-8) on 41 points
    x in [1e-4, 1e4] it is within 5.0e-14 relative for nu in {-0.9, -0.5,
    0, 0.5, 2}, where the closed form was off by up to 2.0e-7.
    """
    nu = _order(nu)
    x = _check_points(x, _POSITIVE, KERNEL_X_MAX, "x")
    y = _check_points(y, _POSITIVE, KERNEL_X_MAX, "y")
    n = _terms(nu, max(np.max(x, initial=0.0), np.max(y, initial=0.0)))
    cx = _rows(nu, x.ravel(), n)
    cy = cx if np.array_equal(x.ravel(), y.ravel()) else _rows(nu, y.ravel(), n)
    cx, cy = cx.reshape((n,) + x.shape), cy.reshape((n,) + y.shape)
    return _maybe_scalar(sum(cx[k] * cy[k] for k in range(n)))
