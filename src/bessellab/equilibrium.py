"""Equilibrium measures for the deformed hard-edge field and the attached
complex-analytic maps.

For gamma >= 1 the equilibrium measure mu_gamma of the field
V_gamma(t) = V(t/gamma) on [0, 1] has the closed-form density

    rho(s) = (1/sqrt(gamma s)) [ 1/2 + (1/pi) sqrt((gamma-1)/(1-s))
                                 - (1/pi) arctan sqrt((gamma-1)/(1-s)) ],

with inverse-square-root edges at both ends.  At gamma = 1 this reduces to
1/(2 sqrt s).  The scaling constant is

    c_gamma = pi^2 gamma / (pi + 2 (sqrt(gamma-1) - arctan sqrt(gamma-1)))^2.

The maps g (log-potential transform), phi (the cut [0, oo)), and
f = -phi^2/4 (conformal near 0, f'(0) = pi^2/(4 c_gamma)) are evaluated
with explicit boundary values on the cut; the matrix N solves the global
jump problem N_+ = N_- [[0, x^nu], [-x^-nu, 0]] on (0, 1) with N(oo) = I.

Potential integrals use substitutions that remove the inverse-square-root
endpoint singularities and the log factor's kink, leaving at most a u log u
singularity at an endpoint.  Every such integral is one array evaluation of
a fixed tanh-sinh (double-exponential) rule on (0, 1) (Takahasi & Mori,
1974): 205 nodes at step h = 1/32 on |t| <= 3.2.  Its every-other-node
subrule (103 nodes, step 2h) gives a second sum for free, and their
difference is the quadrature certificate ``diagnostics`` reports.  Only
``g_map`` keeps adaptive quadrature (see there).
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
from scipy import integrate

from .errors import DomainError
from .specfun import _maybe_scalar

__all__ = [
    "c_gamma",
    "density",
    "cdf",
    "edge_coeff_zero",
    "edge_coeff_one",
    "mass_error",
    "log_potential",
    "variational_check",
    "reference_potential",
    "g_map",
    "g_boundary",
    "phi_map",
    "phi_boundary",
    "f_map",
    "global_parametrix",
    "lens_sign_check",
    "diagnostics",
]

# adaptive quadrature settings, used by g_map alone
_QUAD = {"epsabs": 1e-13, "epsrel": 1e-13, "limit": 300}

# tanh-sinh rule: step h and range of t
_DE_STEP = 1.0 / 32.0
_DE_TMAX = 3.2


def _check_gamma(gamma):
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 1.0:
        raise DomainError("gamma must be >= 1")
    return gamma


def c_gamma(gamma):
    """Scaling constant of the hard-edge limit; c_1 = 1."""
    gamma = _check_gamma(gamma)
    r = math.sqrt(gamma - 1.0)
    return math.pi**2 * gamma / (math.pi + 2.0 * (r - math.atan(r))) ** 2


# Both edge factors take om = 1 - s, which callers form without
# cancellation near s = 1 (for instance as (1 - x) - u^2 rather than
# 1 - (x + u^2)).

def _edge0(gamma, om):
    # density * sqrt(s): analytic on [0, 1)
    with np.errstate(divide="ignore"):
        q = np.sqrt((gamma - 1.0) / om)
    return (0.5 + (q - np.arctan(q)) / math.pi) / math.sqrt(gamma)


def _edge1(gamma, om):
    # density * sqrt(1-s): analytic on (0, 1]
    s = 1.0 - om
    q = np.sqrt(np.maximum(om, 0.0))
    r = math.sqrt(gamma - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        atan_term = np.where(om > 0, np.arctan(r / np.where(om > 0, q, 1.0)), math.pi / 2 if gamma > 1 else 0.0)
    return (0.5 * q + (r - q * atan_term) / math.pi) / np.sqrt(gamma * s)


def density(gamma, s):
    """Equilibrium density on the open interval (0, 1)."""
    gamma = _check_gamma(gamma)
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0) or np.any(s >= 1):
        raise DomainError("density is evaluated on the open interval (0, 1)")
    return _maybe_scalar(_edge0(gamma, 1.0 - s) / np.sqrt(s))


def cdf(gamma, x):
    """mu_gamma([0, x]) in closed form, x in [0, 1]."""
    gamma = _check_gamma(gamma)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise DomainError("cdf is defined on [0, 1]")
    r = math.sqrt((gamma - 1.0) / gamma)
    sx = np.sqrt(x / gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(x < 1.0, x / np.maximum(1.0 - x, 1e-300), np.inf)
        t1 = np.arctan(r * np.sqrt(inner))
        t2 = np.arctan(math.sqrt(gamma - 1.0) / np.sqrt(np.maximum(1.0 - x, 1e-300)))
        t2 = np.where(x < 1.0, t2, math.pi / 2 if gamma > 1 else 0.0)
    out = sx + (2.0 / math.pi) * t1 - (2.0 / math.pi) * sx * t2
    return _maybe_scalar(np.where(x >= 1.0, 1.0, out))


def edge_coeff_zero(gamma):
    """lim_{s->0} density * sqrt(s); equals 1 / (2 sqrt(c_gamma))."""
    gamma = _check_gamma(gamma)
    return float(_edge0(gamma, 1.0))


def edge_coeff_one(gamma):
    """lim_{s->1} density * sqrt(1-s) = sqrt((gamma-1)/gamma) / pi."""
    gamma = _check_gamma(gamma)
    return math.sqrt((gamma - 1.0) / gamma) / math.pi


# ---------------------------------------------------------------------------
# potential integrals


@functools.lru_cache(maxsize=1)
def _tanh_sinh():
    """Nodes x and an (n, 2) weight matrix of the tanh-sinh rule on (0, 1).

    x = 1/(1 + exp(-pi sinh t)) at t = k h, |t| <= _DE_TMAX, with weights
    h pi cosh(t) x (1 - x); 1 - x is formed as 1/(1 + exp(pi sinh t)), so
    no node is 0 and the weights keep full relative accuracy at both ends.
    Only the outermost node, t = 3.1875, rounds to x = 1; the substitutions
    in this module put every singularity at the lower end, so the
    integrands are analytic there.  Column 0 holds the full rule, column 1
    the subrule at step 2h (the nodes with even k).  The rule is fixed, so
    it is computed once per process; both arrays are read-only.
    """
    kmax = int(_DE_TMAX / _DE_STEP)
    k = np.arange(-kmax, kmax + 1)
    e = math.pi * np.sinh(_DE_STEP * k)
    x = 1.0 / (1.0 + np.exp(-e))
    w = _DE_STEP * math.pi * np.cosh(_DE_STEP * k) * x / (1.0 + np.exp(e))
    weights = np.stack([w, np.where(k % 2 == 0, 2.0 * w, 0.0)], axis=1)
    x.setflags(write=False)
    weights.setflags(write=False)
    return x, weights


def _integrate(f, b):
    """Both rule sums for the integral of f over (0, b), on a last axis of
    length 2 (full rule first).

    An array ``b`` carries a trailing axis of length 1, which that last
    axis replaces, so that ``f`` sees one row of nodes per upper limit.
    """
    x, weights = _tanh_sinh()
    return b * (f(b * x) @ weights)


def _mu_integral(gamma, h):
    """Both rule sums for the integral of h(s) d mu_gamma(s), h smooth on
    [0, 1]: s = v^2 on [0, 1/2] and 1 - s = w^2 on [1/2, 1] remove the
    edge singularities."""
    b = math.sqrt(0.5)
    return (_integrate(lambda v: 2.0 * _edge0(gamma, 1.0 - v * v) * h(v * v), b)
            + _integrate(lambda w: 2.0 * _edge1(gamma, w * w) * h(1.0 - w * w), b))


def mass_error(gamma):
    """|integral of the density - 1|, by the tanh-sinh rule after the
    substitutions of ``_mu_integral``."""
    gamma = _check_gamma(gamma)
    return abs(float(_mu_integral(gamma, lambda s: 1.0)[0]) - 1.0)


def _log_potential_sums(gamma, x):
    # both rule sums of log_potential at the points x, shape x.shape + (2,)
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & (x < 1.0)):
        raise DomainError("log_potential is evaluated on the open interval (0, 1)")
    x = x[..., None]
    omx = 1.0 - x
    a = np.sqrt(omx)
    rho = lambda s, om: _edge0(gamma, om) / np.sqrt(s)
    left, right = np.sqrt(0.5 * x), np.sqrt(0.5 * omx)

    def below(tau):
        # s = x - u^2 with u = a sinh(tau): du = a cosh(tau) dtau =
        # sqrt(1 - s) dtau cancels the edge factor's 1/sqrt(1 - s), which
        # for x near 1 varies on the scale a, far below the u range
        u = a * np.sinh(tau)
        uu = u * u
        om = omx + uu
        return 4.0 * u * np.log(u) * rho(x - uu, om) * np.sqrt(om)

    return (_integrate(lambda v: 2.0 * _edge0(gamma, 1.0 - v * v) * np.log(x - v * v), left)
            + _integrate(below, np.arcsinh(left / a))
            + _integrate(lambda u: 4.0 * u * np.log(u) * rho(x + u * u, omx - u * u), right)
            + _integrate(lambda w: 2.0 * _edge1(gamma, w * w) * np.log(omx - w * w), right))


def log_potential(gamma, x):
    """integral of log|x - s| d mu_gamma(s), x in (0, 1); x may be an array.

    Substitutions s = v^2, s = x -+ u^2 and 1 - s = w^2 remove the edge
    singularities and the log kink; each of the four pieces is then one
    (points x nodes) evaluation of the 205-node tanh-sinh rule.  Below x,
    u = sqrt(1 - x) sinh(tau) also absorbs the edge at 1, and every
    1 - s is formed from 1 - x, so x may sit one ulp below 1.  On
    gamma in {1.1, 2, 5} the values agree with 40-digit references to
    1e-14; ``diagnostics`` reports the rule's own error estimate as
    ``quadrature_error``.
    """
    gamma = _check_gamma(gamma)
    return _maybe_scalar(_log_potential_sums(gamma, x)[..., 0])


def _variational(gamma):
    # (ell, deviation, quadrature error) of the residual 2 U - V(x/gamma)
    # on the 50 interior points of an equispaced grid of [0, 1]
    from .weights import field_V

    grid = np.linspace(0.0, 1.0, 52)[1:-1]
    sums = _log_potential_sums(gamma, grid)
    resid = 2.0 * sums[:, 0] - field_V(grid / gamma)
    ell = float(np.mean(resid))
    return (ell, float(np.max(np.abs(resid - ell))),
            float(np.max(np.abs(sums[:, 0] - sums[:, 1]))))


def variational_check(gamma):
    """(ell_estimate, max_deviation) of 2 U(x) - V(x/gamma) on 50 points.

    The equilibrium property makes the residual constant in x; the mean is
    reported as the Lagrange constant estimate and the worst pointwise
    departure from the mean as the deviation.  With V(0) = 0 the estimate
    converges to

        ell(gamma) = 2 log gamma - 4 - 4 arccosh sqrt(gamma)
                     + 4 sqrt(1 - 1/gamma),

    which is -4 at gamma = 1: mu_gamma is the balayage onto [0, 1] of the
    measure of ``reference_potential``, and balayage lowers its potential
    on [0, 1] by the integral of the Green function 2 arccosh sqrt(t) over
    [1, gamma].
    """
    gamma = _check_gamma(gamma)
    return _variational(gamma)[:2]


def reference_potential(gamma, x):
    """integral of log|x - s| dm_gamma(s) for the un-balayaged measure
    m_gamma with density 1/(2 sqrt(gamma s)) on [0, gamma], x in (0, gamma);
    x may be an array.  Same substitutions and rule as ``log_potential``."""
    gamma = _check_gamma(gamma)
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & (x < gamma)):
        raise DomainError("reference_potential needs x in (0, gamma)")
    x = x[..., None]
    rho = lambda s: 0.5 / np.sqrt(gamma * s)
    left, right = np.sqrt(0.5 * x), np.sqrt(0.5 * (gamma - x))
    mid = 0.5 * (gamma + x)
    sums = (_integrate(lambda v: np.log(x - v * v) / math.sqrt(gamma), left)
            + _integrate(lambda u: 4.0 * u * np.log(u) * rho(x - u * u), left)
            + _integrate(lambda u: 4.0 * u * np.log(u) * rho(x + u * u), right)
            + _integrate(lambda d: np.log(mid + d - x) * rho(mid + d), gamma - mid))
    return _maybe_scalar(sums[..., 0])


# ---------------------------------------------------------------------------
# complex maps


def g_map(gamma, z):
    """g(z) = integral of log(z - s) d mu_gamma(s), z off (-oo, 1]."""
    # Adaptive quadrature, unlike the rest of the module: for z near the cut
    # the integrand is nearly singular at an interior point, which a fixed
    # rule cannot resolve; the breakpoint below tells quad where it is.
    gamma = _check_gamma(gamma)
    z = complex(z)
    if z.imag == 0.0 and z.real <= 1.0:
        raise DomainError("z lies on the cut; use g_boundary")
    pts = []
    if 0.0 < z.real < 0.5 and abs(z.imag) < 0.1:
        pts.append(math.sqrt(z.real))
    i0 = integrate.quad(lambda v: 2.0 * _edge0(gamma, 1.0 - v * v) * np.log(z - v * v),
                        0.0, math.sqrt(0.5), complex_func=True,
                        points=pts or None, **_QUAD)[0]
    pts = []
    if 0.5 < z.real < 1.0 and abs(z.imag) < 0.1:
        pts.append(math.sqrt(1.0 - z.real))
    i1 = integrate.quad(lambda w: 2.0 * _edge1(gamma, w * w)
                        * np.log(z - 1.0 + w * w),
                        0.0, math.sqrt(0.5), complex_func=True,
                        points=pts or None, **_QUAD)[0]
    return i0 + i1


def g_boundary(gamma, x, side):
    """Boundary value g_+-(x) on the cut: x in (0, 1) or x <= 0."""
    gamma = _check_gamma(gamma)
    x = float(x)
    sgn = _side_sign(side)
    if 0.0 < x < 1.0:
        return log_potential(gamma, x) + sgn * 1j * math.pi * (1.0 - float(cdf(gamma, x)))
    if x <= 0.0:
        # log|x-s| = log(s-x) is smooth except at the s=0 edge when x=0
        return float(_mu_integral(gamma, lambda s: np.log(s - x))[0]) + sgn * 1j * math.pi
    raise DomainError("boundary values exist for x <= 0 or x in (0, 1)")


def _side_sign(side):
    if side == "+":
        return 1.0
    if side == "-":
        return -1.0
    raise DomainError(f"side must be '+' or '-', got {side!r}")


def _phi_upper(gamma, z):
    # analytic continuation from the upper half-plane, principal branches
    sg = cmath.sqrt(gamma)
    s1z = cmath.sqrt(1.0 - z)
    sz = cmath.sqrt(z)
    sg1 = cmath.sqrt(gamma - 1.0)
    t1 = cmath.log((sg * s1z + 1j * sz * sg1) / (sg * s1z - 1j * sz * sg1))
    t2 = cmath.sqrt(z / gamma) * cmath.log((sg1 + 1j * s1z) / (sg1 - 1j * s1z))
    return t1 + t2


def phi_map(gamma, z, side=None):
    """The map phi_gamma, analytic off the cut [0, oo).

    For real z >= 0 a ``side`` is required; on (0, 1) the boundary values
    are purely imaginary, phi_+- = +- i pi cdf.  Near 0,
    phi(z) ~ +- (i pi / sqrt(c_gamma)) sqrt(z).
    """
    gamma = _check_gamma(gamma)
    z = complex(z)
    if z.imag > 0.0:
        return _phi_upper(gamma, z)
    if z.imag < 0.0:
        return _phi_upper(gamma, z.conjugate()).conjugate()
    x = z.real
    if x < 0.0:
        return _phi_upper(gamma, complex(x, 0.0))
    if side is None:
        raise DomainError("real z >= 0 lies on the cut of phi; pass side='+'/'-'")
    return phi_boundary(gamma, x, side)


def phi_boundary(gamma, x, side):
    """Exact boundary values of phi on [0, 1); x may be an array."""
    gamma = _check_gamma(gamma)
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x < 1.0)):
        raise DomainError("phi boundary values are provided on [0, 1)")
    sgn = _side_sign(side)
    if gamma == 1.0:
        val = math.pi * np.sqrt(x)
    else:
        a1 = np.arctan(np.sqrt((gamma - 1.0) * x / (gamma * (1.0 - x))))
        a2 = np.arctan(np.sqrt((1.0 - x) / (gamma - 1.0)))
        val = 2.0 * (a1 + np.sqrt(x / gamma) * a2)
    return _maybe_scalar(sgn * 1j * val)


def f_map(gamma, z):
    """f = -phi^2 / 4, conformal on the unit disk; f'(0) = pi^2/(4 c_gamma)."""
    gamma = _check_gamma(gamma)
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("f is defined on the open unit disk")
    if z.imag == 0.0 and z.real >= 0.0:
        # side-independent on the cut: phi_+- = +-i pi F
        phi = phi_boundary(gamma, z.real, "+")
    else:
        phi = phi_map(gamma, z)
    val = -0.25 * phi * phi
    if z.imag == 0.0:
        return complex(val.real, 0.0)
    return val


# ---------------------------------------------------------------------------
# global parametrix


def _parametrix_from_parts(nu, a, sqrt_ratio):
    ai = 1.0 / a
    m = np.array([[0.5 * (a + ai), (a - ai) / 2j],
                  [-(a - ai) / 2j, 0.5 * (a + ai)]], dtype=complex)
    lam = 1.0 + sqrt_ratio
    left = np.diag([2.0 ** -nu, 2.0 ** nu]).astype(complex)
    right = np.diag([lam ** nu, lam ** -nu]).astype(complex)
    return left @ m @ right


def global_parametrix(nu, z, side=None):
    """The 2x2 matrix N(z) solving the jump N_+ = N_- [[0, x^nu], [-x^-nu, 0]]
    on (0, 1), analytic elsewhere, N(oo) = I, det N = 1."""
    from . import specfun

    nu = specfun.BesselOrder(nu).nu
    z = complex(z)
    on_cut = z.imag == 0.0 and 0.0 <= z.real <= 1.0
    if not on_cut:
        ratio = (z - 1.0) / z
        return _parametrix_from_parts(nu, ratio ** 0.25, np.sqrt(complex(ratio)))
    if side is None:
        raise DomainError("z on [0, 1] needs side='+'/'-'")
    sgn = _side_sign(side)
    x = z.real
    if x in (0.0, 1.0):
        raise DomainError("the parametrix is singular at the endpoints 0 and 1")
    mag = ((1.0 - x) / x) ** 0.25
    a = mag * cmath.exp(sgn * 1j * math.pi / 4.0)
    sqrt_ratio = sgn * 1j * math.sqrt((1.0 - x) / x)
    return _parametrix_from_parts(nu, a, sqrt_ratio)


def lens_sign_check(gamma):
    """Diagnostics for Re phi < 0 off the cut near (0, 1).

    Returns a dict with the maximum of Re phi over the lens points
    x + iy, x on 19 points of [0.05, 0.95] and |y| on 8 of [0.01, 0.2]
    (strictly negative when the lens opening is valid), the worst
    conjugate-symmetry defect, and the largest |Re phi| on the cut itself.
    """
    gamma = _check_gamma(gamma)
    re_grid = np.linspace(0.05, 0.95, 19)
    im_grid = np.concatenate([np.linspace(0.01, 0.2, 8), -np.linspace(0.01, 0.2, 8)])
    worst_re = -np.inf
    worst_sym = 0.0
    for xr in re_grid:
        for xi in im_grid:
            val = phi_map(gamma, complex(xr, xi))
            worst_re = max(worst_re, val.real)
            sym = abs(phi_map(gamma, complex(xr, -xi)) - val.conjugate())
            worst_sym = max(worst_sym, sym)
    on_cut = max(abs(phi_boundary(gamma, x, "+").real) for x in re_grid)
    return {"gamma": gamma, "max_re_phi": float(worst_re),
            "conjugate_defect": float(worst_sym), "max_re_on_cut": float(on_cut)}


def diagnostics(gamma):
    """JSON-ready equilibrium diagnostics for one gamma.

    ``ell_estimate`` and ``variational_deviation`` are those of
    ``variational_check`` on its 50 points; ell_estimate converges to the
    closed form ell(gamma) given there (-4 at gamma = 1).
    ``quadrature_error`` is the largest difference over that grid between
    the log-potential sums at steps h and 2h of the tanh-sinh rule: it
    estimates the error of the step-2h sum, and the reported step-h sum,
    whose error decays double-exponentially in 1/h, is more accurate
    still.  ``phi_boundary_residual`` is the
    largest |phi_+ - i pi cdf| on 25 points of [0.02, 0.98],
    ``f_slope_residual`` the largest |f(z)/z - pi^2/(4 c_gamma)| on the
    circle |z| = 1e-4, and ``lens`` the report of ``lens_sign_check``.
    """
    gamma = _check_gamma(gamma)
    ell, dev, quad_err = _variational(gamma)
    xs = np.linspace(0.02, 0.98, 25)
    phi_res = np.max(np.abs(phi_boundary(gamma, xs, "+") - 1j * np.pi * cdf(gamma, xs)))
    target = np.pi**2 / (4.0 * c_gamma(gamma))
    slope = []
    for th in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
        z = 1e-4 * np.exp(1j * th)
        if abs(z.imag) < 1e-12:
            z = complex(z.real, 0.0)
        slope.append(abs(f_map(gamma, z) / z - target))
    return {
        "gamma": gamma,
        "mass_error": mass_error(gamma),
        "ell_estimate": ell,
        "variational_deviation": dev,
        "quadrature_error": quad_err,
        "edge_coefficients": {"zero": edge_coeff_zero(gamma),
                              "one": edge_coeff_one(gamma)},
        "c_gamma": c_gamma(gamma),
        "phi_boundary_residual": float(phi_res),
        "f_slope_residual": float(max(slope)),
        "lens": lens_sign_check(gamma),
    }
