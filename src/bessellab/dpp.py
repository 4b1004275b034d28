"""Sampling the hard-edge determinantal process on [0, T].

The kernel is discretized with a Nystrom rule adapted to the hard edge:
substituting x = T u^2 with u Gauss-Legendre on (0, 1) clusters nodes near
0 where the density varies on the x^{1/2} scale.

Sampling follows the spectral recipe of Hough, Krishnapur, Peres and Virag
(2006): Bernoulli(lambda_j) thinning of the eigenvalues selects k
eigenvectors V, and the projection kernel K = V V^T is then sampled by the
chain rule, with the k chain-rule uniforms drawn in one call.  The chain
rule runs in eigen-coordinates, like ``proj_dpp_sampler_eig_GS`` of DPPy
(Gautier, Polito, Bardenet, Valko 2019): the conditional marginals start
at diag(K); after each draw the chosen node's row of V is orthonormalized
against the earlier ones (incremental Gram-Schmidt in R^k), one length-m
product maps it to the orthonormalized kernel column, and its square is
subtracted from the marginals.  A draw costs O(m k), a sample O(m k^2).

The same recipe gives the exact count law: N(0, T'] is a sum of
independent Bernoulli(lambda_j), lambda_j the eigenvalues of the kernel
restricted to (0, T'], which ``exact_count_law`` reports beside the Monte
Carlo estimates of ``count_stats``.

Points are reported at quadrature nodes.  That grid-level resolution is all
the downstream consumers (counting statistics, growth residuals) need.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import DiscretizationFailure, DomainError, PrecisionFailure
from .sequences import _growth_residual, make_sampled, save_points
from .specfun import _gauss_legendre, bessel_kernel

__all__ = [
    "DiscretizedKernel",
    "SampleConfig",
    "CountStats",
    "nystrom",
    "sample",
    "sample_many",
    "count_stats",
    "exact_count_law",
    "save_sample",
    "load_sample",
]

# Operator window: eigenvalues must sit in [-EIG_TOL, 1 + EIG_TOL]; anything
# worse is an under-resolved discretization, not a clipping candidate.
EIG_TOL = 1e-8

VAR_SLOPE = 1.0 / (4.0 * np.pi**2)

# Conditional marginals in the sampler are exact up to accumulated roundoff
# of order k * 1e-16; anything more negative than this means the selected
# eigenvectors were not orthonormal to working precision.
MARGINAL_TOL = 1e-10


@dataclass(frozen=True)
class DiscretizedKernel:
    """Nystrom matrix of the kernel on [0, T] with its eigendecomposition."""

    nu: float
    T: float
    m: int
    nodes: np.ndarray        # x_i in (0, T), increasing
    weights: np.ndarray      # quadrature masses for dx
    matrix: np.ndarray       # A_ij = sqrt(w_i w_j) K(x_i, x_j), symmetric
    eigenvalues: np.ndarray  # ascending, clipped to [0, 1]
    eigenvectors: np.ndarray # columns, orthonormal

    @property
    def trace(self):
        return float(np.sum(self.eigenvalues))


@dataclass(frozen=True)
class SampleConfig:
    """One sampled configuration together with everything that determined it."""

    points: np.ndarray  # sorted, in (0, T)
    seed: int
    T: float
    nu: float
    m: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.size and np.any(np.diff(pts) <= 0):
            raise ValueError("sample points must be strictly increasing")

    def count_upto(self, threshold):
        return int(np.searchsorted(self.points, threshold, side="right"))


def _clip_to_window(lam, m):
    """Ascending eigenvalues clipped to [0, 1], after checking that they
    lie in [-EIG_TOL, 1 + EIG_TOL]; an escape raises DiscretizationFailure."""
    if lam[0] < -EIG_TOL or lam[-1] > 1.0 + EIG_TOL:
        raise DiscretizationFailure(
            "eigenvalues [%.3e, %.3e] escape [-%g, 1+%g]; increase m (have m=%d)"
            % (lam[0], lam[-1], EIG_TOL, EIG_TOL, m)
        )
    return np.clip(lam, 0.0, 1.0)


def nystrom(nu, T, m=512):
    """Discretize the kernel on [0, T] with m nodes and diagonalize.

    The Gauss-Legendre rule is computed once per process for each m.
    Raises DiscretizationFailure when an eigenvalue escapes
    [-EIG_TOL, 1 + EIG_TOL]; the fix is more nodes.  Raises
    PrecisionFailure when T is so close to the float maximum that the
    matrix overflows.
    """
    if m < 64:
        raise DomainError("need at least 64 nodes")
    if not (T > 0) or not math.isfinite(T):
        raise DomainError("T must be positive and finite")
    u, wu = _gauss_legendre(int(m))
    u = 0.5 * (u + 1.0)
    wu = 0.5 * wu
    x = T * u**2
    K = bessel_kernel(nu, x[:, None], x[None, :])
    with np.errstate(over="ignore", invalid="ignore"):
        w = 2.0 * T * u * wu  # dx = 2 T u du
        sw = np.sqrt(w)
        A = sw[:, None] * K * sw[None, :]
        A = 0.5 * (A + A.T)
    if not np.all(np.isfinite(A)):
        raise PrecisionFailure(f"Nystrom matrix overflows at T={T!r}")
    lam, vec = sla.eigh(A)
    lam = _clip_to_window(lam, m)
    return DiscretizedKernel(
        nu=float(nu), T=float(T), m=int(m), nodes=x, weights=w,
        matrix=A, eigenvalues=lam, eigenvectors=vec,
    )


def _rng(seed):
    # Counter-based generator: derived streams are reproducible and
    # collision-free across parallel samplers.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def sample(kern, seed):
    """Draw one configuration from the discretized process.

    Bernoulli(lambda_j) selects k eigenvectors (one uniform per
    eigenvalue); the projection kernel K = V V^T is then sampled point by
    point, with the k chain-rule uniforms drawn in one call (the same
    values as k scalar draws).  The sampler works in eigen-coordinates:
    W = V^T holds column w_i for node i, the marginals p start at the
    column sums of W^2 = diag(K), and the earlier directions are rows of a
    k x k array E.  After node i is drawn,
    g = (w_i - E^T (E w_i)) / sqrt(p[i]) is orthonormal to them, the
    orthonormalized kernel column is c = g W, and p -= c^2.  Each draw
    costs O(m k) (one length-m product), a sample O(m k^2).

    Raises PrecisionFailure when a marginal falls below -MARGINAL_TOL or
    the marginals run out before k points are drawn.
    """
    rng = _rng(seed)
    keep = rng.random(kern.eigenvalues.size) < kern.eigenvalues
    W = kern.eigenvectors.T[keep]  # k x m, C-contiguous
    k, m = W.shape
    u = rng.random(k)
    p = np.einsum("ij,ij->j", W, W)
    E = np.empty((k, k))  # orthonormal directions of the earlier draws
    c = np.empty(m)
    cdf = np.empty(m)
    chosen = np.empty(k, dtype=int)
    for t in range(k):
        np.add.accumulate(p, out=cdf)  # cumsum, minus its wrapper's cost
        if not cdf[-1] > 0:
            raise PrecisionFailure(
                "conditional marginals vanished after %d of %d points" % (t, k))
        # the first node whose cumulative mass exceeds u * total: u < 1
        # keeps i < m, and a node of zero marginal is never drawn
        i = int(cdf.searchsorted(u[t] * cdf[-1], side="right"))
        chosen[t] = i
        w = W[:, i]
        g = E[t]
        Et = E[:t]
        np.subtract(w, Et.T @ (Et @ w), out=g)
        g /= math.sqrt(p[i])
        np.dot(g, W, out=c)
        c *= c
        p -= c
        p[i] = 0.0  # taken; zero up to roundoff already
        low = p.min()
        if low < 0.0:
            if low < -MARGINAL_TOL:
                raise PrecisionFailure(
                    "conditional marginal %.3e below -%g" % (low, MARGINAL_TOL))
            # what is left below zero is roundoff
            np.maximum(p, 0.0, out=p)
    pts = np.sort(kern.nodes[chosen])
    return SampleConfig(points=pts, seed=int(seed), T=kern.T, nu=kern.nu, m=kern.m)


def sample_many(kern, n_samples, master_seed):
    """n_samples independent configurations from deterministically derived seeds."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    seeds = np.random.SeedSequence(int(master_seed)).generate_state(
        int(n_samples), dtype=np.uint64
    )
    return [sample(kern, int(s)) for s in seeds]


@dataclass(frozen=True)
class CountStats:
    """Empirical counting statistics of a batch of configurations."""

    thresholds: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    se_mean: np.ndarray
    se_var: np.ndarray
    target_mean: np.ndarray      # sqrt(T')/pi
    n_samples: int
    var_slope: float             # fit of var against log T'
    var_slope_target: float = VAR_SLOPE
    max_growth_residual: float = field(default=np.nan)

    def rows(self):
        out = []
        for i, t in enumerate(self.thresholds):
            out.append(
                {
                    "threshold": float(t),
                    "mean": float(self.mean[i]),
                    "target_mean": float(self.target_mean[i]),
                    "se_mean": float(self.se_mean[i]),
                    "var": float(self.var[i]),
                    "se_var": float(self.se_var[i]),
                }
            )
        return out


def _max_growth_residual(samples):
    # samples as zero-padded rows of one array; entries past a row's last
    # point, and every entry of a row with fewer than 3 points, are masked
    sizes = np.array([s.points.size for s in samples])
    width = int(sizes.max())
    filled = np.arange(width) < sizes[:, None]
    pts = np.zeros(filled.shape)
    pts[filled] = np.concatenate([s.points for s in samples])
    n = np.arange(3, width + 1, dtype=float)
    r = _growth_residual(pts[:, 2:], n)
    return float(np.max(np.abs(r), where=filled[:, 2:], initial=0.0))


def _check_thresholds(thresholds, T):
    thr = np.asarray(thresholds, dtype=float)
    if not np.all(np.isfinite(thr)) or np.any(thr <= 0):
        raise DomainError("thresholds must be positive and finite")
    if np.any(thr > T):
        raise ValueError("threshold exceeds the sampling window T")
    return thr


def _log_slope(thresholds, var):
    # least-squares slope of var against log T', or NaN when undefined
    if thresholds.size < 2 or not np.all(var > 0):
        return np.nan
    return float(np.polyfit(np.log(thresholds), var, 1)[0])


def count_stats(samples, thresholds):
    """Mean/variance table of N(T') with standard errors and the variance
    slope against log T'.  Also reports the worst growth residual
    (p_n - pi^2 n^2) / (n^{3/2} log^{3/2} n) across all samples (eps =
    GROWTH_EPS = 1/2 of ``PointSequence.growth_residual``)."""
    if not samples:
        raise ValueError("empty sample list")
    T = samples[0].T
    nu0 = samples[0].nu
    for s in samples:
        if s.T != T or s.nu != nu0:
            raise ValueError("samples must share T and nu")
    thr = _check_thresholds(thresholds, T)
    ns = len(samples)
    counts = np.array([np.searchsorted(s.points, thr, side="right") for s in samples],
                      dtype=float)
    mean = counts.mean(axis=0)
    var = counts.var(axis=0, ddof=1) if ns > 1 else np.zeros_like(mean)
    se_mean = np.sqrt(var / ns)
    se_var = var * np.sqrt(2.0 / max(ns - 1, 1))
    return CountStats(
        thresholds=thr,
        mean=mean,
        var=var,
        se_mean=se_mean,
        se_var=se_var,
        target_mean=np.sqrt(thr) / np.pi,
        n_samples=ns,
        var_slope=_log_slope(thr, var),
        max_growth_residual=_max_growth_residual(samples),
    )


def exact_count_law(kern, thresholds):
    """Exact (mean, var, var_slope) of N(0, T'] in the discretized process.

    N(0, T'] has the law of a sum of independent Bernoulli(lambda_j), the
    lambda_j being the eigenvalues of ``kern.matrix`` restricted to the
    nodes <= T' (Hough, Krishnapur, Peres, Virag 2006), so mean = sum lambda
    and var = sum lambda (1 - lambda).  A window that holds every node
    reuses ``kern.eigenvalues``; the others are checked against the same
    [-EIG_TOL, 1 + EIG_TOL] window as ``nystrom`` before clipping, which by
    Cauchy interlacing only a hand-built matrix can fail.  var_slope is
    fitted against log T' like ``CountStats.var_slope``.
    """
    thr = _check_thresholds(thresholds, kern.T)
    mean = np.empty(thr.size)
    var = np.empty(thr.size)
    for j, t in enumerate(thr):
        inside = kern.nodes <= t
        if inside.all():
            lam = kern.eigenvalues
        elif not inside.any():  # window below the first node: N = 0
            lam = np.empty(0)
        else:
            sub = kern.matrix[np.ix_(inside, inside)]
            lam = _clip_to_window(sla.eigvalsh(sub), kern.m)
        mean[j] = lam.sum()
        var[j] = np.sum(lam * (1.0 - lam))
    return mean, var, _log_slope(thr, var)


def save_sample(cfg, path):
    """Points as decimal text plus a JSON sidecar with the provenance."""
    seq = make_sampled(cfg.points) if cfg.points.size else None
    path = str(path)
    if seq is not None:
        save_points(seq, path)
    else:
        with open(path, "w") as fh:
            fh.write("")
    side = {"seed": int(cfg.seed), "T": cfg.T, "nu": cfg.nu, "m": cfg.m}
    with open(path + ".json", "w") as fh:
        json.dump(side, fh, sort_keys=True)
        fh.write("\n")


def load_sample(path):
    path = str(path)
    with open(path + ".json") as fh:
        side = json.load(fh)
    with open(path) as fh:
        body = fh.read().split()
    pts = np.array([float(v) for v in body], dtype=float)
    return SampleConfig(
        points=pts,
        seed=int(side["seed"]), T=float(side["T"]),
        nu=float(side["nu"]), m=int(side["m"]),
    )
