"""Orthonormal polynomials and their reproducing kernels for weights
t^nu h(t) on [0, b].

The measure is discretized by one Gauss-Jacobi rule on the whole support
with t^a, a = nu - k in (-1, 1/2), built in and t^k, an integer power,
folded into the masses, so endpoint singularities (-1 < nu < 0) and zeros
(nu > 0) cost no accuracy.  Every Gauss rule of the package, the
Gauss-Legendre rule of ``dpp.nystrom`` included, comes from
``_gauss_jacobi``: the eigenvalues of the closed-form Jacobi matrix
(Golub & Welsch, Math. Comp. 23, 1969), folded to half size for the
symmetric Legendre weight, polished by the same recurrence loop that
evaluates the polynomials below and builds every phi table.  A build of
degree n takes 2n + 40 nodes (Gautschi, Orthogonal Polynomials:
Computation and Approximation, 2004, 2.2): n + 1 keep the orthonormality
integrals exact and the rest resolve the weight's smooth factor, whose
features scale with n.  Each build computes the weight's discrete measure,
one pair of arrays, nodes and masses, afresh.  The three-term recurrence is
then obtained by Lanczos iteration on the diagonal operator of the
discrete measure, in double precision throughout, with one full
reorthogonalization pass per step.  Both loops write into preallocated
rows.  A second pass ("twice is enough", Parlett, The Symmetric
Eigenvalue Problem, 1980) buys no accuracy here: with one pass the
degree-160 build of the tests is within 1.4e-15 of a 40-digit Stieltjes
build of the same measure, and ``gram_residual`` is at most 1.2e-14 on
the degree-121 builds of ConditionalWeight(quadratic, nu, 1e4) for nu in
{-0.5, 0, 0.5, 2}.  A build that one pass leaves unorthogonal shows in
``gram_residual``.

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

from .errors import (_ABOVE_MINUS_ONE, _POSITIVE, DomainError, PrecisionFailure, _as_index,
                     _check_number, _check_points)
from .specfun import _maybe_scalar

__all__ = [
    "weight_quadrature",
    "RecurrenceTable",
    "build_recurrence",
    "brute_force_christoffel",
    "lubinsky_gap",
    "save_recurrence_csv",
]

DEGREE_CAP = 160

@functools.lru_cache(maxsize=64)
def _gauss_jacobi(n, nu):
    """n-point Gauss-Jacobi rule for the weight (1 + x)^nu on [-1, 1];
    nu = 0 is Gauss-Legendre.

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the Jacobi matrix of the closed-form recurrence (Jacobi parameters
    0 and nu), each moved by one Newton step.  At nu = 0 the weight is
    symmetric and p_{2k}(x) = q_k(x^2) (Chihara, An Introduction to
    Orthogonal Polynomials, 1978, I.8), so the eigensolve folds: the square
    of the Jacobi matrix splits by parity, and the floor(n/2) x floor(n/2)
    block whose indices have the parity of n has the squares of the
    positive nodes as its eigenvalues.  Their square roots, with the exact
    node 0 for odd n, are the nodes in [0, 1), and the rule mirrors them
    with their weights, bit-exactly symmetric.  One table of the
    recurrence at the eigenvalues (at the nonnegative ones only when
    nu = 0), p_0 = 1, gives both: with S = sum_{k<n} p_k^2,
    Christoffel-Darboux makes p_n' = S / (b_n p_{n-1}) at a root, and the
    weights are mu0 / S with mu0 = 2^(nu+1) / (nu+1), S taken at the
    stepped node to first order, S'/S = p_n''/p_n' at a root by the Jacobi
    differential equation.  That step, not the rounded node, sets S: a
    second table at the rounded node leaves 1.4e-12 at n = 512.  Against
    40-digit mpmath, on every node of the rules the tests check (orders
    -0.9 to 100), the nodes are within 1.7e-16 absolute and the weights
    within 1.1e-12 relative, 7.5e-13 at n = 512; numpy's leggauss and
    scipy's roots_jacobi reach 3.4e-16 for the nodes and 1.1e-10 (n = 512)
    and 1.3e-9 (n = 161, nu = -0.9) for the weights.  The fold does an
    eighth of the eigensolve's flops and half the table: at n = 512 the
    rule takes 11-14 ms cold, where the n x n eigensolve took 29-38 ms
    (``tools/dpp_phases.py``, 2-core Xeon, OpenBLAS 0.3.31).

    Computed once per (n, nu) and shared: both arrays are read-only.  A
    rule that overflows (very large nu) raises PrecisionFailure, which is
    not cached.
    """
    with np.errstate(over="ignore"):
        mu0 = np.exp2(nu + 1.0) / (nu + 1.0)
    if not np.isfinite(mu0):  # from about nu = 1023
        raise PrecisionFailure(f"the mass of the Gauss-Jacobi weight overflows at nu={nu}")
    k = np.arange(n + 1.0)
    s = 2.0 * k + nu
    # the general formulas fail at k = 0 (0/0 at nu = 0, the root of a
    # negative number for |nu| < 1); those entries are set next
    with np.errstate(divide="ignore", invalid="ignore"):
        a = nu * nu / (s * (s + 2.0))
        b = 2.0 * k * (k + nu) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    a[0], b[0] = nu / (nu + 2.0), 0.0
    h = n // 2
    if nu == 0:
        # the rows and columns of the square of the Jacobi matrix whose index
        # has the parity of n: their eigenvalues are the squared positive nodes
        even, odd = b[n % 2:n:2][:h], b[n % 2 + 1:n:2]
        jac = np.diag(even * even + odd * odd)
        jac.flat[h::h + 1] = odd[:-1] * even[1:]
        x = np.sqrt(np.linalg.eigvalsh(jac))
        if n % 2:
            x = np.concatenate(([0.0], x))
    else:
        jac = np.diag(a[:n])
        jac.flat[n::n + 1] = b[1:n]  # below the diagonal, the triangle eigvalsh reads
        x = np.linalg.eigvalsh(jac)
    p = _recurrence_rows(a, b, n, x)
    S = np.einsum("ij,ij->j", p[:n], p[:n])
    if not np.all(np.isfinite(S)):  # at large nu and n
        raise PrecisionFailure(f"the Gauss-Jacobi rule for nu={nu} overflows")
    dx = p[n] * (b[n] * p[n - 1] / S)
    x = x - dx
    # S at the unrounded x - dx to first order: at a root S'/S = p_n''/p_n',
    # which the Jacobi differential equation gives as ((nu+2) x - nu) / (1 - x^2)
    w = mu0 / (S * (1.0 - dx * ((nu + 2.0) * x - nu) / (1.0 - x * x)))
    if nu == 0:  # the negative nodes mirror the positive ones
        x = np.concatenate((-x[::-1][:h], x))
        w = np.concatenate((w[::-1][:h], w))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _recurrence_rows(a, b, n, t):
    """Rows 0..n of b_{k+1} p_{k+1} = (t - a_k) p_k - b_k p_{k-1} with
    p_0 = 1, at the 1-d points t.  PrecisionFailure when it overflows."""
    out = np.empty((n + 1, t.size))
    out[0] = 1.0
    tmp = np.empty(t.size)
    # an overflow is caught by the check below, not reported as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        # row k + 1 starts as t - a_k and becomes, operation for operation,
        # ((t - a_k) p_k - b_k p_{k-1}) / b_{k+1}
        np.subtract(t, a[:n, None], out=out[1:])
        out[1] /= b[1]
        for k in range(1, n):
            row = out[k + 1]
            row *= out[k]
            row -= np.multiply(out[k - 1], b[k], out=tmp)
            row /= b[k + 1]
    if not np.all(np.isfinite(out)):
        raise PrecisionFailure(f"degree-{n} recurrence overflows at these points")
    return out


def weight_quadrature(nu, support=1.0, n=120):
    """(nodes, masses) of an n-point Gauss rule for the measure t^nu dt on
    [0, support], fresh arrays on each call: masses @ nodes**j approximates
    support^(j+nu+1) / (j+nu+1), exactly up to j = 2n - 1 - k.

    t^nu = t^k t^a with k = max(0, floor(nu + 1/2)) and a = nu - k in
    (-1, 1/2): the rule maps ``_gauss_jacobi(n, a)``, which carries t^a,
    and the masses carry t^k.  So every integer order shares the Legendre
    rule, and nu and nu +- 1 share one rule.  Each rule is computed once
    per process for each (n, a), with nodes within 1.7e-16 and weights
    within 1.1e-12 relative for n <= 512; only its mapping is done per call.
    This is the package's one map of a rule off [-1, 1]: ``dpp.nystrom``
    takes its rule in u from ``weight_quadrature(a, 1, m)``.
    """
    nu = _check_number(nu, _ABOVE_MINUS_ONE, math.inf, "endpoint exponent nu")
    support = _check_number(support, _POSITIVE, math.inf, "support")
    n = int(_as_index(n, 1, math.inf, "n"))
    # k from the exact fraction nu - floor(nu): a rounded nu + 1/2 would
    # give a = -1 at nu = 2^52 + 1
    k = float(math.floor(nu))
    k = max(0.0, k + 1.0 if nu - k >= 0.5 else k)
    a = nu - k
    x, w = _gauss_jacobi(n, a)
    # t = support (1+x)/2 picks up (support/2)^(a+1); masses that overflow
    # or vanish are caught by the range check below, and the np.float64
    # powers give inf where a float power raises OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        nodes = support * 0.5 * (1.0 + x)
        masses = w * np.float64(0.5 * support) ** (a + 1.0) * nodes**k
    if not (np.all(nodes > 0) and np.all(nodes < support)
            and np.all(masses > 0) and np.all(np.isfinite(masses))):
        raise PrecisionFailure("quadrature produced out-of-range nodes or masses")
    return nodes, masses


@dataclasses.dataclass
class RecurrenceTable:
    """Recurrence coefficients of the orthonormal polynomials of a weight.

    ``alpha[k]`` and ``beta[k]`` follow the three-term recurrence in the
    module docstring (beta[0] is unused and kept at 0).  ``log_mu0`` is the
    log of the total mass, so phi_0 = exp(-log_mu0 / 2).  ``nodes`` and
    ``scaled_masses`` are the discrete measure the table was built on, its
    masses scaled so that the largest is 1.
    """

    alpha: np.ndarray
    beta: np.ndarray
    log_mu0: float
    n_max: int
    weight: object
    nodes: np.ndarray
    scaled_masses: np.ndarray

    # -- evaluation --------------------------------------------------------

    def _phi_unnormalized(self, n, t):
        """Rows 0..n of the recurrence with phi_0 = 1 (no mass normalization),
        at the flattened points t.

        Raises DomainError for a non-finite t and PrecisionFailure when the
        recurrence overflows.
        """
        n = int(_as_index(n, 1, self.n_max, "degree n"))
        t = _check_points(t, -math.inf, math.inf, "t").ravel()
        return _recurrence_rows(self.alpha, self.beta, n, t)

    def phi(self, j, t):
        """Value of the orthonormal polynomial phi_j at t."""
        j = int(_as_index(j, 0, self.n_max, "degree j"))
        # the least table has rows 0 and 1, so phi_0 takes the same checks
        tab = self._phi_unnormalized(j or 1, t)
        out = tab[j] * math.exp(-0.5 * self.log_mu0)
        return _maybe_scalar(out.reshape(np.shape(np.asarray(t))))

    def phi_table(self, n, t):
        """Array of phi_0..phi_n values at the points t, shape (n+1, len(t))."""
        return self._phi_unnormalized(n, t) * math.exp(-0.5 * self.log_mu0)

    # -- kernels -----------------------------------------------------------

    def _phi_rows(self, n, x, y):
        """phi_0..phi_{n-1} at x and at y with phi_0 = 1, shapes x.shape + (n,)
        and y.shape + (n,); one table when y holds x's points in any shape."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        tx = self._phi_unnormalized(n, x)[:n].T
        ty = tx if np.array_equal(x.ravel(), y.ravel()) else self._phi_unnormalized(n, y)[:n].T
        return tx.reshape(x.shape + (n,)), ty.reshape(y.shape + (n,))

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
        return self._sum_rows(*self._phi_rows(n, x, y), grid)

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
        for t, lw in ((x, lwx), (y, lwy)):
            bad = ~np.isfinite(lw)
            if np.any(bad):
                what = "vanishes" if lw[bad][0] < 0 else "is infinite"
                raise DomainError(
                    f"the weight {what} at t={np.asarray(t, dtype=float)[bad][0]:g}; "
                    "the normalized kernel needs points where it is positive and finite")
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
        tab = self._phi_unnormalized(n, self.nodes)
        m = self.scaled_masses
        gram = (tab * m) @ tab.T / m.sum()
        return float(np.max(np.abs(gram - np.eye(n + 1))))


def _discrete_measure(weight, degree):
    """(nodes, masses, shift): the measure of the weight's builds up to
    ``degree``, on the 2 degree + 40 nodes of ``weight_quadrature`` on
    [0, quad_support], as the quadrature masses times the weight's smooth
    factor, scaled by exp(-shift) so that the largest is 1.  Fresh arrays
    on each call, computed from the weight as it is at the call."""
    nodes, gauss = weight_quadrature(weight.nu, weight.quad_support, 2 * degree + 40)
    log_masses = np.log(gauss) + np.asarray(weight.log_smooth(nodes), dtype=float)
    shift = float(np.max(log_masses))
    return nodes, np.exp(log_masses - shift), shift


def build_recurrence(weight, n_max):
    """Recurrence table of the orthonormal polynomials of ``weight``.

    The build reads the weight's ``nu``, ``quad_support`` and
    ``log_smooth``; the table's ``kernel_norm`` and ``kernel_norm_grid``
    read its ``log_density``.  The measure has 2 n_max + 40 nodes, one
    ``weight_quadrature`` rule on [0, quad_support]: its alpha and beta are
    within 1e-14 of a five-panel rule of 2000 nodes for every weight the
    default experiments build (``TestMeasureSize``).  It is computed on
    each call, so a build reads the weight as it is at the call.  The table
    keeps the measure's nodes and scaled masses for ``gram_residual``.
    Raises DomainError beyond DEGREE_CAP, and PrecisionFailure (naming the
    degree) if the discrete measure loses positive definiteness.
    """
    n_max = int(_as_index(n_max, 1, DEGREE_CAP, "n_max"))
    t, masses, shift = _discrete_measure(weight, n_max)

    v = np.sqrt(masses)
    nrm = np.sqrt(v @ v)
    v = v / nrm
    basis = np.empty((n_max + 1, t.size))
    basis[0] = v
    alpha = np.zeros(n_max)
    beta = np.zeros(n_max + 1)
    floor = 100 * np.finfo(float).eps * weight.quad_support

    tmp = np.empty(t.size)
    for k in range(n_max):
        # w is the next row of the basis, built in place
        w = np.multiply(t, basis[k], out=basis[k + 1])
        alpha[k] = w @ basis[k]
        w -= np.multiply(basis[k], alpha[k], out=tmp)
        if k:
            w -= np.multiply(basis[k - 1], beta[k], out=tmp)
        # full reorthogonalization, one pass
        w -= np.matmul(basis[:k + 1].T, basis[:k + 1] @ w, out=tmp)
        b = math.sqrt(w @ w)
        if not (b > floor):
            raise PrecisionFailure(
                f"recurrence construction lost positivity at degree {k + 1} "
                f"(beta={b:.3e}); reduce the degree")
        beta[k + 1] = b
        w /= b

    log_mu0 = shift + 2.0 * math.log(nrm)
    return RecurrenceTable(alpha=alpha, beta=beta, log_mu0=log_mu0, n_max=n_max,
                           weight=weight, nodes=t, scaled_masses=masses)


def brute_force_christoffel(weight, n, x):
    """Christoffel function by the moment-matrix route, for cross-checks.

    lambda_n(x) = 1 / (v(x)^T Minv v(x)) with M the (n x n) Hankel moment
    matrix of the weight and v(x) the monomial vector.  Only sensible for
    small n; the moment matrix conditioning is checked and the computation
    refused beyond ~1e13.  The measure is ``build_recurrence``'s at the cap
    n = 8, 56 nodes, computed on each call.
    """
    n = int(_as_index(n, 1, 8, "n"))
    x = _check_number(x, -math.inf, math.inf, "x")
    nodes, masses, shift = _discrete_measure(weight, 8)

    # The Christoffel value is invariant under any invertible change of
    # polynomial basis, so work in powers of t/sigma with sigma the mean of
    # the measure: for weights concentrated near 0 this cuts the Hankel
    # condition number by sigma^{-2(n-1)}.
    m0 = float(masses.sum())
    sigma = float((nodes * masses).sum()) / m0
    if not sigma > 0:
        sigma = 1.0
    powers = (nodes[None, :] / sigma) ** np.arange(2 * n - 1)[:, None]
    moments = powers @ masses
    M = moments[np.arange(n)[:, None] + np.arange(n)]  # Hankel: M_ij = moments[i + j]
    cond = np.linalg.cond(M)
    if cond > 1e13:
        raise PrecisionFailure(
            f"moment matrix too ill-conditioned (cond ~ {cond:.2e}); "
            "use the recurrence route instead")
    v = (x / sigma) ** np.arange(n)
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise PrecisionFailure(f"moment matrix not numerically SPD: {exc}") from exc
    # M = L L^T, factored once: each solve is L y = b, then L^T x = y
    sol = np.linalg.solve(L.T, np.linalg.solve(L, v))
    # one refinement pass with an extended-precision residual; cheap and
    # buys back the digits the factorization loses at cond ~ 1e7..1e10
    r = v - (M.astype(np.longdouble) @ sol.astype(np.longdouble))
    sol = sol + np.linalg.solve(L.T, np.linalg.solve(L, r.astype(float)))
    return math.exp(shift) / float(v @ sol)


def lubinsky_gap(tab_small, tab_big, n, x, y):
    """(lhs, rhs) of the kernel comparison inequality for ordered weights.

    ``tab_small`` must belong to the pointwise-smaller weight (which has
    the larger kernel).  The inequality is

        (Khat_a(x,y) - Khat_b(x,y))^2 <= Khat_a(y,y) (Khat_a(x,x) - Khat_b(x,x)),

    returned as a raw (lhs, rhs) pair so callers can inspect slack.  x is
    broadcast against y; the five kernels come from four phi tables, two
    when y holds x's points (as ``pts[:, None]`` and ``pts[None, :]`` do).
    """
    ax, ay = tab_small._phi_rows(n, x, y)
    bx, by = tab_big._phi_rows(n, x, y)
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
