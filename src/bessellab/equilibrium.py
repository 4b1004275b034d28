"""Equilibrium measures for the deformed hard-edge field and the attached
complex-analytic maps.

For gamma >= 1 the equilibrium measure mu_gamma of the field
V_gamma(t) = V(t/gamma) on [0, 1] has the closed-form density

    rho(s) = (1/sqrt(gamma s)) [ 1/2 + (1/pi) sqrt((gamma-1)/(1-s))
                                 - (1/pi) arctan sqrt((gamma-1)/(1-s)) ],

with inverse-square-root edges at both ends.  At gamma = 1 this reduces to
1/(2 sqrt s).  The scaling constant is

    c_gamma = pi^2 gamma / (pi + 2 (sqrt(gamma-1) - arctan sqrt(gamma-1)))^2.

The maps g (log-potential transform), phi (the cut [0, oo)),
f = -phi^2/4 (conformal near 0, f'(0) = pi^2/(4 c_gamma)) and the matrix
N solving the global jump problem N_+ = N_- [[0, x^nu], [-x^-nu, 0]] on
(0, 1) with N(oo) = I are evaluated in closed form on scalars or arrays:
each is one numpy expression on the closed upper half-plane, whose value
on the cut is the boundary value from above, and the lower half comes by
symmetry, conjugation for g and phi and N(conj z) = s3 conj N(z) s3 with
s3 = diag(1, -1) for N.  phi takes the arctan form of its logs, so
nothing cancels near z = 0 and no log(-1) is taken at gamma = 1.

Potential integrals use substitutions that remove the inverse-square-root
endpoint singularities and the log factor's kink, leaving at most a u log u
singularity at an endpoint.  Every such integral is one array evaluation of
a fixed tanh-sinh (double-exponential) rule on (0, 1) (Takahasi & Mori,
1974): 205 nodes at step h = 1/32 on |t| <= 3.2.  Its every-other-node
subrule (103 nodes, step 2h) gives a second sum for free, and their
difference is the quadrature certificate ``diagnostics`` reports.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (_BELOW_ONE, _POSITIVE, DomainError, PrecisionFailure, _check_complex,
                     _check_number, _check_points)
from .specfun import _maybe_scalar, _order
from .weights import field_V

__all__ = [
    "c_gamma",
    "density",
    "cdf",
    "edge_coeff_zero",
    "edge_coeff_one",
    "mass_error",
    "log_potential",
    "variational_check",
    "lagrange_constant",
    "g_map",
    "g_boundary",
    "phi_map",
    "phi_boundary",
    "f_map",
    "global_parametrix",
    "lens_sign_check",
    "diagnostics",
]

# tanh-sinh rule: step h and range of t
_DE_STEP = 1.0 / 32.0
_DE_TMAX = 3.2


def c_gamma(gamma):
    """Scaling constant of the hard-edge limit; c_1 = 1."""
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    r = math.sqrt(gamma - 1.0)
    return math.pi**2 * gamma / (math.pi + 2.0 * (r - math.atan(r))) ** 2


# Both edge factors take om = 1 - s, which callers form without
# cancellation near s = 1 (for instance as (1 - x) - u^2 rather than
# 1 - (x + u^2)).

def _edge0(gamma, om):
    # density * sqrt(s): analytic on [0, 1)
    q = np.sqrt((gamma - 1.0) / om)
    return (0.5 + (q - np.arctan(q)) / math.pi) / math.sqrt(gamma)


def _edge1(gamma, om):
    # density * sqrt(1-s): analytic on (0, 1]
    q = np.sqrt(om)
    r = math.sqrt(gamma - 1.0)
    return (0.5 * q + (r - q * np.arctan2(r, q)) / math.pi) / np.sqrt(gamma * (1.0 - om))


def density(gamma, s):
    """Equilibrium density on the open interval (0, 1)."""
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    s = _check_points(s, _POSITIVE, _BELOW_ONE, "s")
    return _maybe_scalar(_edge0(gamma, 1.0 - s) / np.sqrt(s))


def cdf(gamma, x):
    """mu_gamma([0, x]) in closed form, x in [0, 1]:

        F(x) = sx + (2/pi) [arctan2(r sx, q) - sx arctan2(r, q)],

    with r = sqrt(gamma - 1), q = sqrt(1 - x) and sx = sqrt(x/gamma); at
    gamma = 1 it is sqrt(x).  F(1) is returned as exactly 1, which the
    expression misses by an ulp at gamma = 1 + 1e-12.
    """
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    x = _check_points(x, 0.0, 1.0, "x")
    r, q, sx = math.sqrt(gamma - 1.0), np.sqrt(1.0 - x), np.sqrt(x / gamma)
    out = sx + (2.0 / math.pi) * (np.arctan2(r * sx, q) - sx * np.arctan2(r, q))
    return _maybe_scalar(np.where(x == 1.0, 1.0, out))


def edge_coeff_zero(gamma):
    """lim_{s->0} density * sqrt(s); equals 1 / (2 sqrt(c_gamma))."""
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    return float(_edge0(gamma, 1.0))


def edge_coeff_one(gamma):
    """lim_{s->1} density * sqrt(1-s) = sqrt((gamma-1)/gamma) / pi."""
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
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


def _rule_sums(f, b):
    """Both rule sums for the integral of f over (0, b), on a last axis of
    length 2 (full rule first).

    An array ``b`` carries a trailing axis of length 1, which that last
    axis replaces, so that ``f`` sees one row of nodes per upper limit.
    """
    x, weights = _tanh_sinh()
    return b * (f(b * x) @ weights)


def mass_error(gamma):
    """|integral of the density - 1|, by the tanh-sinh rule after s = v^2
    on [0, 1/2] and 1 - s = w^2 on [1/2, 1], which remove the edge
    singularities."""
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    b = math.sqrt(0.5)
    sums = (_rule_sums(lambda v: 2.0 * _edge0(gamma, 1.0 - v * v), b)
            + _rule_sums(lambda w: 2.0 * _edge1(gamma, w * w), b))
    return abs(float(sums[0]) - 1.0)


def _log_potential_sums(gamma, x):
    # both rule sums of log_potential at the points x, shape x.shape + (2,)
    x = _check_points(x, _POSITIVE, _BELOW_ONE, "x")
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
        # u = 0 only when 0.5 x underflows (x = 5e-324) and the piece is
        # empty; the floor, below every other node's u, keeps 0 log 0 at 0
        return 4.0 * u * np.log(np.maximum(u, 5e-324)) * rho(x - uu, om) * np.sqrt(om)

    return (_rule_sums(lambda v: 2.0 * _edge0(gamma, 1.0 - v * v) * np.log(x - v * v), left)
            + _rule_sums(below, np.arcsinh(left / a))
            + _rule_sums(lambda u: 4.0 * u * np.log(u) * rho(x + u * u, omx - u * u), right)
            + _rule_sums(lambda w: 2.0 * _edge1(gamma, w * w) * np.log(omx - w * w), right))


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
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    return _maybe_scalar(_log_potential_sums(gamma, x)[..., 0])


def _variational(gamma):
    # (ell, deviation, quadrature error) of the residual 2 U - V(x/gamma)
    # on the 50 interior points of an equispaced grid of [0, 1]
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
    departure from the mean as the deviation.  The estimate converges to
    ``lagrange_constant(gamma)``.
    """
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    return _variational(gamma)[:2]


def lagrange_constant(gamma):
    """The constant ell(gamma) = 2 U(x) - V(x/gamma) on [0, 1], with V(0) = 0:

        ell(gamma) = 2 log gamma - 4 - 4 arccosh sqrt(gamma)
                     + 4 sqrt(1 - 1/gamma),

    which is -4 at gamma = 1.  mu_gamma is the balayage onto [0, 1] of the
    measure m_gamma with density 1/(2 sqrt(gamma s)) on [0, gamma], whose
    potential is log gamma - 2 + V(x/gamma)/2 there; balayage lowers it on
    [0, 1] by the integral of the Green function 2 arccosh sqrt(t) over
    [1, gamma].  arccosh sqrt(gamma) is taken as arcsinh sqrt(gamma - 1),
    which keeps full relative accuracy as gamma -> 1.
    """
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    return (2.0 * math.log(gamma) - 4.0 - 4.0 * math.asinh(math.sqrt(gamma - 1.0))
            + 4.0 * math.sqrt((gamma - 1.0) / gamma))


# ---------------------------------------------------------------------------
# complex maps


def _conjugate_below(upper, gamma, z):
    # upper(gamma, z) is a formula for the closed upper half-plane; below
    # it the map is conj upper(gamma, conj z).  Im z = -0.0 counts as the
    # upper side, the value a real z carries.  The formula runs on a flat
    # array even for one point: numpy's array loops may fuse the multiply
    # and add of a complex product where the operators of its scalars do
    # not, so only arrays give a point the same value alone as in a grid.
    flat = z.reshape(-1)
    w = upper(gamma, flat.real + 1j * np.abs(flat.imag))
    return np.where(flat.imag < 0.0, w.conj(), w).reshape(z.shape)


def _g_upper(gamma, z):
    # g on the closed upper half-plane, principal branches; every log
    # argument stays in the closed first quadrant, so this is also the
    # upper-side limit on the real axis
    sg, sg1 = math.sqrt(gamma), math.sqrt(gamma - 1.0)
    sz, sz1 = np.sqrt(z), np.sqrt(z - 1.0)
    return (0.5 * lagrange_constant(gamma)
            + 2.0 * (sz / sg) * np.log((sg + sz) / (sg1 + sz1))
            + 2.0 * np.log(sz * math.sqrt((gamma - 1.0) / gamma) + sz1))


def g_map(gamma, z):
    """g(z) = integral of log(z - s) d mu_gamma(s), z off (-oo, 1]; z may be
    an array, and every entry must lie off the cut.

    Closed form, for Im z >= 0 (the conjugate below):

        g(z) = ell/2 + 2 sqrt(z/gamma) log[(sqrt gamma + sqrt z)
                                            / (sqrt(gamma-1) + sqrt(z-1))]
               + 2 log[sqrt(z (gamma-1)/gamma) + sqrt(z-1)],

    with ell = ``lagrange_constant(gamma)``.  It is the identity
    g = (V(z/gamma) + ell)/2 - phi(z) + i pi with the logs of V/2 and phi
    combined: their log(gamma - z) singularities cancel, and no log
    argument is formed by cancellation near z = gamma.  On real z > 1 the
    value is real.  Against a 30-digit mpmath integral it is within 2.4e-15
    at 1e-6 from the cut, at 1e-7 from z = gamma and on (1, oo) up to 40;
    the absolute error grows like eps sqrt|z/gamma| (1.3e-13 at |z| = 1e6).
    """
    z = _check_complex(z, "z")
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    if ((z.imag == 0.0) & (z.real <= 1.0)).any():
        raise DomainError("z lies on the cut; use g_boundary")
    return _maybe_scalar(_conjugate_below(_g_upper, gamma, z))


def g_boundary(gamma, x, side):
    """Boundary value g_+-(x) on the cut: finite x <= 0 or x in (0, 1); x may
    be an array.

    g_+ is the closed form of ``g_map`` at z = x + 0i, and g_- its
    conjugate: the real part is ``log_potential`` and the imaginary part
    +-pi (1 - cdf), the mass above x.  Against a 30-digit mpmath integral
    it is within 1.3e-15 at eight x from -50 to 0.999, gamma in {1.1, 2, 5}.
    """
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    x = _check_points(x, -math.inf, _BELOW_ONE, "x")
    sgn = _side_sign(side)
    g = _conjugate_below(_g_upper, gamma, x.astype(complex))
    return _maybe_scalar(g if sgn > 0.0 else g.conj())


def _side_sign(side):
    if side == "+":
        return 1.0
    if side == "-":
        return -1.0
    raise DomainError(f"side must be '+' or '-', got {side!r}")


def _phi_upper(gamma, z):
    # phi on the closed upper half-plane, principal branches, in the form
    # log((1 + iw)/(1 - iw)) = 2i arctan w: no log(-1) is taken at gamma = 1
    # and nothing cancels near z = 0
    sg, sg1 = math.sqrt(gamma), math.sqrt(gamma - 1.0)
    s1z, sz = np.sqrt(1.0 - z), np.sqrt(z)
    return 2j * (np.arctan(sz * sg1 / (sg * s1z))
                 + (sz / sg) * (0.5 * math.pi - np.arctan(sg1 / s1z)))


def phi_map(gamma, z, side=None):
    """The map phi_gamma, analytic off the cut [0, oo); z may be an array.

    Real entries z in [0, 1) require a ``side`` and take the values of
    ``phi_boundary``, purely imaginary there: phi_+- = +- i pi cdf.  No
    boundary value is offered on [1, oo), and a real entry z >= 1 raises
    DomainError with or without a side.  Every other entry is one
    array evaluation of the closed form, for Im z >= 0 (the conjugate below)

        phi(z) = 2i [arctan(sqrt(z (gamma-1)) / sqrt(gamma (1-z)))
                     + sqrt(z/gamma) (pi/2 - arctan(sqrt(gamma-1) / sqrt(1-z)))],

    the log form log((1 + iw)/(1 - iw)) = 2i arctan w.  Near 0,
    phi(z) ~ +- (i pi / sqrt(c_gamma)) sqrt(z).  Against the log form at
    40 digits in mpmath it is within 3.6e-16 relative for gamma in
    {1, 1.1, 2, 5} and |z| from 1e-12 to 1e6 in both half-planes, rows
    1e-300 off (1, gamma) included; near z = gamma the form is conditioned
    like gamma |1 - z| / |gamma - z|, and the error stays within 5e-16
    times that.
    """
    z = _check_complex(z, "z")
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    cut = (z.imag == 0.0) & (z.real >= 0.0)
    out = np.empty_like(z)
    if cut.any():
        if (z.real[cut] >= 1.0).any():
            raise DomainError("phi has boundary values on [0, 1) only, not at real z >= 1")
        if side is None:
            raise DomainError("real z >= 0 lies on the cut of phi; pass side='+'/'-'")
        out[cut] = phi_boundary(gamma, z.real[cut], side)
    out[~cut] = _conjugate_below(_phi_upper, gamma, z[~cut])
    return _maybe_scalar(out)


def phi_boundary(gamma, x, side):
    """Exact boundary values of phi on [0, 1); x may be an array.

    phi_+ is the closed form of ``phi_map`` at z = x + 0i, all of it real
    arithmetic there, and phi_- its conjugate:

        phi_+- = +-2i [arctan(r sx / q) + sx (pi/2 - arctan(r / q))],

    with r, q and sx those of ``cdf``; at gamma = 1 it is +-i pi sqrt(x).
    Against the log form at 40 digits in mpmath it is within 3.5e-16
    relative for gamma in {1, 1.1, 2, 5} and x from 1e-300 to 1 - 1e-12.
    """
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    x = _check_points(x, 0.0, _BELOW_ONE, "x")
    sgn = _side_sign(side)
    phi = _phi_upper(gamma, x)
    return _maybe_scalar(phi if sgn > 0.0 else np.conj(phi))


def f_map(gamma, z):
    """f = -phi^2 / 4, conformal on the unit disk; f'(0) = pi^2/(4 c_gamma).
    z may be an array, and every entry must have |z| < 1.

    phi is taken with side '+', which only the cut [0, 1) reads: there
    phi_+- = +-i pi cdf, so f = (pi cdf / 2)^2 from either side, and a
    real z gets an imaginary part of exactly 0.
    """
    z = _check_complex(z, "z")
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    if (np.abs(z) >= 1.0).any():
        raise DomainError("f is defined on the open unit disk")
    phi = phi_map(gamma, z.reshape(-1), side="+")  # flat, as in _conjugate_below
    val = (-0.25 * phi * phi).reshape(z.shape)
    return _maybe_scalar(np.where(z.imag == 0.0, val.real, val))


# ---------------------------------------------------------------------------
# global parametrix

# s3 conj(N) s3 with s3 = diag(1, -1) flips the signs of the off-diagonal
# entries (in row-major order) of conj(N)
_SIGMA3_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def global_parametrix(nu, z, side=None):
    """The 2x2 matrix N(z) solving the jump N_+ = N_- [[0, x^nu], [-x^-nu, 0]]
    on (0, 1), analytic elsewhere, N(oo) = I, det N = 1; z may be an array,
    and the result has shape z.shape + (2, 2).

    Entries on [0, 1] need a ``side``.  On the closed upper half-plane, the
    '+' side included, with s = sqrt(z - 1)/sqrt(z), a = sqrt(s) and
    lam = 1 + s,

        N = [[(lam/2)^nu lam/(2a),    (2 lam)^-nu i/(2 a z lam)],
             [-(2 lam)^nu i/(2 a z lam), (lam/2)^-nu lam/(2a)]],

    the standard N = diag(2^-nu, 2^nu) M(a) diag(lam^nu, lam^-nu) with
    the entries (a + 1/a)/2 and (a - 1/a)/(2i) of M rewritten so that
    neither subtracts.  Below, and on the '-' side, N(conj z) = s3 conj N(z)
    s3 with s3 = diag(1, -1).

    Against that standard form at 40 digits in mpmath, for |z| from 1e-3
    to 1e6 in both half-planes and on both sides of (0, 1), every entry is
    within 6.9e-16 of the largest for nu in {-0.9, 0, 0.5, 2}, 2.9e-15 at
    nu = 10 and 2.7e-14 at nu = 37.3.

    Its entries grow like |z|^(-|nu|/2 - 1/4) near z = 0; where one leaves
    the float range (nu = 2 at z = 1e-300, nu = 300 at z = 1e-12),
    PrecisionFailure is raised.
    """
    z = _check_complex(z, "z")
    nu = _order(nu)
    flat = z.reshape(-1)  # an array even for one point, as in _conjugate_below
    below = flat.imag < 0.0
    cut = (flat.imag == 0.0) & (flat.real >= 0.0) & (flat.real <= 1.0)
    if cut.any():
        if side is None:
            raise DomainError("z on [0, 1] needs side='+'/'-'")
        if _side_sign(side) < 0.0:
            below = below | cut
        if (cut & ((flat.real == 0.0) | (flat.real == 1.0))).any():
            raise DomainError("the parametrix is singular at the endpoints 0 and 1")
    w = flat.real + 1j * np.abs(flat.imag)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = np.sqrt(w - 1.0) / np.sqrt(w)
        a = np.sqrt(s)
        lam = 1.0 + s
        diag = lam / (2.0 * a)
        off = 1j / (2.0 * a * w * lam)
        half, twice = (0.5 * lam) ** nu, (2.0 * lam) ** nu
        out = np.array([diag * half, off / twice, -off * twice, diag / half]).T
        out = np.where(below[:, None], out.conj() * _SIGMA3_SIGNS, out)
    if not np.isfinite(out).all():
        raise PrecisionFailure(f"the parametrix (nu={nu}) overflows this close to z = 0")
    return out.reshape(z.shape + (2, 2))


def lens_sign_check(gamma):
    """Diagnostics for Re phi < 0 off the cut near (0, 1).

    Returns a dict with ``gamma`` and ``max_re_phi``, the maximum of Re phi
    over the lens points x + iy, x on 19 points of [0.05, 0.95] and y on 8
    of [0.01, 0.2], strictly negative when the lens opening is valid.  The
    19 x 8 grid is one ``phi_map`` evaluation; the lower half of the lens
    needs none, since phi there is the conjugate by definition.
    """
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    z = np.linspace(0.05, 0.95, 19)[:, None] + 1j * np.linspace(0.01, 0.2, 8)
    return {"gamma": gamma, "max_re_phi": float(np.max(phi_map(gamma, z).real))}


def diagnostics(gamma):
    """JSON-ready equilibrium diagnostics for one gamma.

    ``ell_estimate`` and ``variational_deviation`` are those of
    ``variational_check`` on its 50 points; ell_estimate converges to
    ``lagrange_constant(gamma)`` (-4 at gamma = 1).
    ``quadrature_error`` is the largest difference over that grid between
    the log-potential sums at steps h and 2h of the tanh-sinh rule: it
    estimates the error of the step-2h sum, and the reported step-h sum,
    whose error decays double-exponentially in 1/h, is more accurate
    still.  ``phi_boundary_residual`` is the
    largest |phi_+ - i pi cdf| on 25 points of [0.02, 0.98],
    ``f_slope_residual`` the largest |f(z)/z - pi^2/(4 c_gamma)| on the
    circle |z| = 1e-4, each one array evaluation, and ``lens`` the report
    of ``lens_sign_check``: ``gamma`` and ``max_re_phi``.
    """
    gamma = _check_number(gamma, 1.0, math.inf, "gamma")
    ell, dev, quad_err = _variational(gamma)
    xs = np.linspace(0.02, 0.98, 25)
    phi_res = np.max(np.abs(phi_boundary(gamma, xs, "+") - 1j * np.pi * cdf(gamma, xs)))
    target = np.pi**2 / (4.0 * c_gamma(gamma))
    z = 1e-4 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False))
    slope = np.max(np.abs(f_map(gamma, z) / z - target))
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
        "f_slope_residual": float(slope),
        "lens": lens_sign_check(gamma),
    }
