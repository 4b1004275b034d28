"""Orthonormal polynomials and their reproducing kernels for weights
t^nu h(t) on [0, b].

The measure is discretized by a composite quadrature whose first panel is
Gauss-Jacobi with the t^nu factor built in, so endpoint singularities
(-1 < nu < 0) and zeros (nu > 0) cost no accuracy.  The three-term
recurrence is then obtained by Lanczos iteration with full
reorthogonalization on the diagonal operator of the discrete measure,
in double precision throughout.

Notation: phi_0, phi_1, ... are orthonormal,

    b_{k+1} phi_{k+1}(t) = (t - a_k) phi_k(t) - b_k phi_{k-1}(t),

and the kernels are

    Khat_n(x, y) = sum_{i<n} phi_i(x) phi_i(y),
    K_n(x, y)    = sqrt(w(x) w(y)) Khat_n(x, y).

Every kernel is evaluated as this direct sum, from one table of
phi_0..phi_{n-1} per distinct argument.  The Christoffel-Darboux form

    Khat_n(x, y) = b_n [phi_n(x) phi_{n-1}(y) - phi_{n-1}(x) phi_n(y)] / (x - y)

cancels catastrophically near the diagonal and is less accurate than the
sum everywhere; it serves only as a test oracle for the coefficients.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math

import numpy as np
from scipy import linalg as sla
from scipy import special

from .errors import DomainError, PrecisionFailure
from .specfun import _gauss_legendre, _maybe_scalar

__all__ = [
    "Quadrature",
    "weight_quadrature",
    "RecurrenceTable",
    "build_recurrence",
    "brute_force_christoffel",
    "lubinsky_gap",
    "save_recurrence_csv",
]

DEGREE_CAP = 160

# geometric panel edges (fractions of the support); the first panel is
# Gauss-Jacobi, the rest Gauss-Legendre
_PANEL_EDGES = (0.0, 1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0, 1.0 / 2.0, 1.0)


@dataclasses.dataclass
class Quadrature:
    """Nodes and masses discretizing the measure t^nu dt on [0, support]."""

    nodes: np.ndarray
    weights: np.ndarray
    support: float

    def moment(self, k):
        """Discrete moment sum W_i t_i^k (approximates support^(k+nu+1)/(k+nu+1))."""
        return float(np.sum(self.weights * self.nodes**k))


@functools.lru_cache(maxsize=64)
def _gauss_jacobi(n, nu):
    """n-point Gauss-Jacobi rule for the weight (1 + x)^nu on [-1, 1].

    Computed once per (n, nu) and shared: both arrays are read-only.  A
    rule scipy cannot form (very large nu) raises PrecisionFailure, which
    is not cached.
    """
    try:
        with np.errstate(all="ignore"):
            x, w = special.roots_jacobi(n, 0.0, nu)
    except ValueError as exc:  # its eigensolve overflows at very large nu
        raise PrecisionFailure(f"no Gauss-Jacobi rule for nu={nu}") from exc
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise PrecisionFailure(f"Gauss-Jacobi rule for nu={nu} is not finite")
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def weight_quadrature(nu, support=1.0, n_panel=120):
    """Composite quadrature for the measure t^nu dt on [0, support].

    The Gauss-Jacobi and Gauss-Legendre rules behind it are computed once
    per process for each (n_panel, nu) and n_panel; only their mapping onto
    the panels is done per call.
    """
    nu = float(nu)
    if not (nu > -1.0) or not math.isfinite(nu):
        raise DomainError("endpoint exponent must be finite and > -1")
    support = float(support)
    if not (support > 0) or not math.isfinite(support):
        raise DomainError("support must be positive and finite")
    n_panel = int(n_panel)

    nodes, masses = [], []
    # Gauss-Jacobi on [0, c]: t = c (1+x)/2 picks up (c/2)^(nu+1)
    c = support * _PANEL_EDGES[1]
    xj, wj = _gauss_jacobi(n_panel, nu)
    xl, wl = _gauss_legendre(n_panel)
    # masses that overflow or vanish are caught by the range check below;
    # the np.float64 power gives inf where a float power raises OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        nodes.append(c * 0.5 * (1.0 + xj))
        masses.append(wj * np.float64(0.5 * c) ** (nu + 1.0))
        # Gauss-Legendre elsewhere, t^nu folded into the mass
        for a, b in zip(_PANEL_EDGES[1:-1], _PANEL_EDGES[2:]):
            lo, hi = support * a, support * b
            t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xl
            nodes.append(t)
            masses.append(0.5 * (hi - lo) * wl * t**nu)
    nodes = np.concatenate(nodes)
    masses = np.concatenate(masses)
    if not (np.all(nodes > 0) and np.all(nodes < support)
            and np.all(masses > 0) and np.all(np.isfinite(masses))):
        raise PrecisionFailure("quadrature produced out-of-range nodes or masses")
    return Quadrature(nodes=nodes, weights=masses, support=support)


@dataclasses.dataclass
class RecurrenceTable:
    """Recurrence coefficients of the orthonormal polynomials of a weight.

    ``alpha[k]`` and ``beta[k]`` follow the three-term recurrence in the
    module docstring (beta[0] is unused and kept at 0).  ``log_mu0`` is the
    log of the total mass, so phi_0 = exp(-log_mu0 / 2).
    """

    alpha: np.ndarray
    beta: np.ndarray
    log_mu0: float
    n_max: int
    nu: float
    weight: object
    quadrature: Quadrature
    scaled_masses: np.ndarray

    # -- evaluation --------------------------------------------------------

    def _phi_unnormalized(self, n, t):
        """Rows 0..n of the recurrence with phi_0 = 1 (no mass normalization),
        at the flattened points t.

        Raises DomainError for a non-finite t and PrecisionFailure when the
        recurrence overflows.
        """
        if not 1 <= n <= self.n_max:
            raise DomainError(f"degree n must be in [1, {self.n_max}]")
        t = np.asarray(t, dtype=float).ravel()
        if not np.all(np.isfinite(t)):
            raise DomainError("evaluation points must be finite")
        a, b = self.alpha, self.beta
        out = np.empty((n + 1, t.size))
        out[0] = 1.0
        # an overflow is caught by the check below, not reported as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            out[1] = (t - a[0]) / b[1]
            for k in range(1, n):
                out[k + 1] = ((t - a[k]) * out[k] - b[k] * out[k - 1]) / b[k + 1]
        if not np.all(np.isfinite(out)):
            raise PrecisionFailure(f"degree-{n} recurrence overflows at these points")
        return out

    def phi(self, j, t):
        """Value of the orthonormal polynomial phi_j at t."""
        j = int(j)
        # the least table has rows 0 and 1, so phi_0 takes the same checks
        tab = self._phi_unnormalized(j or 1, t)
        out = tab[j] * math.exp(-0.5 * self.log_mu0)
        return _maybe_scalar(out.reshape(np.shape(np.asarray(t))))

    def phi_table(self, n, t):
        """Array of phi_0..phi_n values at the points t, shape (n+1, len(t))."""
        return self._phi_unnormalized(n, t) * math.exp(-0.5 * self.log_mu0)

    # -- kernels -----------------------------------------------------------

    def _phi_rows(self, n, t):
        """phi_0..phi_{n-1} at t with phi_0 = 1, shape t.shape + (n,)."""
        t = np.asarray(t, dtype=float)
        return self._phi_unnormalized(n, t)[:n].T.reshape(t.shape + (n,))

    def _sum_rows(self, px, py, grid=False):
        """Khat from two ``_phi_rows`` tables: pairwise, their point shapes
        broadcast, or with ``grid`` on the product of two 1-d point sets."""
        # an overflow is caught by the check below, not reported as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            out = (px @ py.T if grid else np.sum(px * py, axis=-1)) * math.exp(-self.log_mu0)
        if not np.all(np.isfinite(out)):
            raise PrecisionFailure("kernel overflows at these points")
        return out

    def _kernel_hat(self, n, x, y, grid=False):
        # points equal to x reuse its table, so a diagonal costs one table
        px = self._phi_rows(n, x)
        py = px if np.array_equal(x, y) else self._phi_rows(n, y)
        return self._sum_rows(px, py, grid)

    def kernel_hat(self, n, x, y):
        """Khat_n(x, y), the direct sum over degrees below n, with x
        broadcast against y."""
        return _maybe_scalar(self._kernel_hat(n, x, y))

    def kernel_hat_grid(self, n, xs, ys):
        """Khat_n on the product grid xs x ys, shape (len(xs), len(ys))."""
        return self._kernel_hat(n, xs, ys, grid=True)

    def _sqrt_weight_factor(self, x, y):
        # the weight raises DomainError for points not finite or off its support
        lwx = np.asarray(self.weight.log_density(x), dtype=float)
        lwy = np.asarray(self.weight.log_density(y), dtype=float)
        if not (np.all(np.isfinite(lwx)) and np.all(np.isfinite(lwy))):
            raise DomainError(
                "log-weight is infinite at an endpoint; evaluate the normalized "
                "kernel at interior points")
        return np.exp(0.5 * (lwx + lwy))

    def kernel_norm(self, n, x, y):
        """K_n(x, y) = exp((log w(x) + log w(y))/2) * Khat_n(x, y)."""
        return _maybe_scalar(self._sqrt_weight_factor(x, y) * self._kernel_hat(n, x, y))

    def kernel_norm_grid(self, n, xs, ys):
        """K_n on the product grid xs x ys, shape (len(xs), len(ys))."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        fac = self._sqrt_weight_factor(xs[:, None], ys[None, :])
        return fac * self._kernel_hat(n, xs, ys, grid=True)

    def christoffel(self, n, x):
        """lambda_n(x) = 1 / Khat_n(x, x)."""
        return _maybe_scalar(1.0 / self._kernel_hat(n, x, x))

    # -- diagnostics -------------------------------------------------------

    def gram_residual(self):
        """max |<phi_i, phi_j> - delta_ij| over i, j <= n_max on the discrete measure."""
        n = self.n_max
        tab = self._phi_unnormalized(n, self.quadrature.nodes)
        m = self.scaled_masses
        gram = (tab * m) @ tab.T / m.sum()
        return float(np.max(np.abs(gram - np.eye(n + 1))))


def _discrete_measure(weight, n_panel):
    """(quadrature, masses, shift): the weight's measure on the nodes of
    ``weight_quadrature`` on [0, quad_support], as masses scaled by
    exp(-shift) so that the largest is 1."""
    quad = weight_quadrature(weight.nu, weight.quad_support, n_panel=n_panel)
    log_masses = np.log(quad.weights) + np.asarray(
        weight.log_smooth(quad.nodes), dtype=float)
    shift = float(np.max(log_masses))
    return quad, np.exp(log_masses - shift), shift


def build_recurrence(weight, n_max):
    """Recurrence table of the orthonormal polynomials of ``weight``.

    The build reads the weight's ``nu``, ``quad_support`` and
    ``log_smooth``; the table's ``kernel_norm`` and ``kernel_norm_grid``
    read its ``log_density``.  The quadrature has max(120, n_max + 40)
    nodes per panel.  Raises DomainError beyond DEGREE_CAP, and
    PrecisionFailure (naming the degree) if the discrete measure loses
    positive definiteness.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if n_max > DEGREE_CAP:
        raise DomainError(f"n_max={n_max} exceeds the degree cap {DEGREE_CAP}")
    quad, masses, shift = _discrete_measure(weight, max(120, n_max + 40))

    t = quad.nodes
    v = np.sqrt(masses)
    nrm = np.sqrt(v @ v)
    v = v / nrm
    basis = np.empty((n_max + 1, t.size))
    basis[0] = v
    alpha = np.zeros(n_max)
    beta = np.zeros(n_max + 1)
    floor = 100 * np.finfo(float).eps * quad.support

    for k in range(n_max):
        w = t * basis[k]
        alpha[k] = w @ basis[k]
        w = w - alpha[k] * basis[k]
        if k:
            w = w - beta[k] * basis[k - 1]
        for _ in range(2):  # full reorthogonalization, two passes
            w = w - basis[:k + 1].T @ (basis[:k + 1] @ w)
        b = np.sqrt(w @ w)
        if not (b > floor):
            raise PrecisionFailure(
                f"recurrence construction lost positivity at degree {k + 1} "
                f"(beta={b:.3e}); reduce the degree")
        beta[k + 1] = b
        basis[k + 1] = w / b

    log_mu0 = shift + 2.0 * math.log(nrm)
    return RecurrenceTable(alpha=alpha, beta=beta, log_mu0=log_mu0, n_max=n_max,
                           nu=float(weight.nu), weight=weight, quadrature=quad,
                           scaled_masses=masses)


def brute_force_christoffel(weight, n, x):
    """Christoffel function by the moment-matrix route, for cross-checks.

    lambda_n(x) = 1 / (v(x)^T Minv v(x)) with M the (n x n) Hankel moment
    matrix of the weight and v(x) the monomial vector.  Only sensible for
    small n; the moment matrix conditioning is checked and the computation
    refused beyond ~1e13.  The quadrature has 200 nodes per panel.
    """
    n = int(n)
    if not 1 <= n <= 8:
        raise DomainError("brute-force route supports 1 <= n <= 8 only")
    quad, masses, shift = _discrete_measure(weight, 200)

    # The Christoffel value is invariant under any invertible change of
    # polynomial basis, so work in powers of t/sigma with sigma the mean of
    # the measure: for weights concentrated near 0 this cuts the Hankel
    # condition number by sigma^{-2(n-1)}.
    m0 = float(masses.sum())
    sigma = float((quad.nodes * masses).sum()) / m0
    if not sigma > 0:
        sigma = 1.0
    powers = (quad.nodes[None, :] / sigma) ** np.arange(2 * n - 1)[:, None]
    moments = powers @ masses
    M = np.empty((n, n))
    for i in range(n):
        M[i] = moments[i:i + n]
    cond = np.linalg.cond(M)
    if cond > 1e13:
        raise PrecisionFailure(
            f"moment matrix too ill-conditioned (cond ~ {cond:.2e}); "
            "use the recurrence route instead")
    v = (float(x) / sigma) ** np.arange(n)
    try:
        sol = sla.solve(M, v, assume_a="pos")
        # one refinement pass with an extended-precision residual; cheap and
        # buys back the digits the factorization loses at cond ~ 1e7..1e10
        r = v - (M.astype(np.longdouble) @ sol.astype(np.longdouble))
        sol = sol + sla.solve(M, r.astype(float), assume_a="pos")
    except np.linalg.LinAlgError as exc:
        raise PrecisionFailure(f"moment matrix not numerically SPD: {exc}") from exc
    return math.exp(shift) / float(v @ sol)


def lubinsky_gap(tab_small, tab_big, n, x, y):
    """(lhs, rhs) of the kernel comparison inequality for ordered weights.

    ``tab_small`` must belong to the pointwise-smaller weight (which has
    the larger kernel).  The inequality is

        (Khat_a(x,y) - Khat_b(x,y))^2 <= Khat_a(y,y) (Khat_a(x,x) - Khat_b(x,x)),

    returned as a raw (lhs, rhs) pair so callers can inspect slack.  x is
    broadcast against y; the five kernels come from four phi tables.
    """
    ax, ay = tab_small._phi_rows(n, x), tab_small._phi_rows(n, y)
    bx, by = tab_big._phi_rows(n, x), tab_big._phi_rows(n, y)
    lhs = (tab_small._sum_rows(ax, ay) - tab_big._sum_rows(bx, by)) ** 2
    rhs = tab_small._sum_rows(ay, ay) * (tab_small._sum_rows(ax, ax)
                                         - tab_big._sum_rows(bx, bx))
    return _maybe_scalar(lhs), _maybe_scalar(rhs)


def save_recurrence_csv(tab, path):
    """Write rows (k, alpha_k, beta_k); the beta_0 slot carries the total
    mass mu0, following the classical convention for recurrence tables."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "alpha", "beta"])
        for k in range(tab.n_max):
            b = math.exp(tab.log_mu0) if k == 0 else float(tab.beta[k])
            writer.writerow([k, f"{float(tab.alpha[k]):.17g}", f"{b:.17g}"])
