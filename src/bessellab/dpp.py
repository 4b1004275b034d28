"""Sampling the hard-edge determinantal process on [0, T].

The kernel is discretized with a Nystrom rule adapted to the hard edge:
x = T u^2 with u on ``weight_quadrature(a, 1, m)``, the Gauss rule for u^a
du on (0, 1), a = (2 nu + 1) - ceil(2 nu + 1), clusters nodes near 0, where
the density varies on the x^{1/2} scale, and takes the u^(2 nu + 1) factor
of the diagonal into the weight.  The Nystrom matrix A_ij = sqrt(w_i w_j)
K(x_i, x_j) is never formed: the kernel's Neumann series (``specfun``)
gives A = B B^T
with B_ik = sqrt(w_i) C(x_i)_k, one row of N terms per node, N = 70 at
the default (nu, T, m) = (0, 1e4, 512); the spectrum comes from a thin QR
of B and an SVD of its N x N triangle (see ``nystrom``).

Sampling follows the spectral recipe of Hough, Krishnapur, Peres and Virag
(2006): Bernoulli(lambda_j) thinning of the eigenvalues selects k
eigenvectors V, and the projection kernel K = V V^T is then sampled by the
chain rule, with the k chain-rule uniforms drawn in one call.  The chain
rule runs in eigen-coordinates, like ``proj_dpp_sampler_eig_GS`` of DPPy
(Gautier, Polito, Bardenet, Valko 2019): the conditional marginals start
at diag(K); after each draw the chosen node's row of V is orthonormalized
against the earlier ones (incremental Gram-Schmidt), mapped to the
orthonormalized kernel column, and its square is subtracted from the
marginals.

Samples are drawn in blocks of B in lockstep, on one basis shared by the
block: the d eigenvectors that any of its samples kept.  Eigenvalues sit
near 0 or 1 but for a few, so d stays close to the block's largest k:
within 2 of it at (nu, T, m) = (0, 1e4, 512), (2, 1e3, 256) and
(0, 1e5, 1024), blocks of 48 and of 250 on 500 derived seeds.  Each draw
step is one (m x d)(d x B) matrix product for the whole block, so a step
costs O(B d m) and a block O(B d m k_max).  A lone ``sample`` is a block
of one.  Products over d columns sum in another order than over a
sample's own k, so marginals may differ in the last bits between block
sizes; the drawn points have been identical in every case checked, and
the tests pin them.

A draw takes the first node whose cumulative marginal exceeds u times the
total, found in two stages over blocks of L = _DRAW_BLOCK nodes (the
marginals padded with zero-mass rows to a multiple of L): the cumulative
block masses give the block, and a node-by-node cumulative sum inside it,
started from the mass of the blocks before, gives the node.  That is one
vectorized pass over the m x B marginals; only O(B (m/L + L)) of the work
is a sequential sum.

A batch of samples is one ``Samples`` value: every sample's points in
one flat array, sample after sample, cut by n + 1 offsets.  A block sorts
its draws once, along the draw axis with +inf past each sample's k, and
reads its points out with one mask.  ``count_stats`` takes its counts
N(0, T'] from one cumulative sum of points <= T' read at the offsets, and
each point's index within its sample, for the growth residuals, from the
offsets as well.

The same recipe gives the exact count law: N(0, T'] is a sum of
independent Bernoulli(lambda_j), lambda_j the eigenvalues of the kernel
restricted to (0, T'], the squared singular values of the rows of B at
the nodes <= T'.  ``exact_count_law`` reports its mean and variance beside
the Monte Carlo estimates of ``count_stats``, and ``gap_probability`` the
probability of no point in (0, s], the product of (1 - lambda_j).

Points are reported at quadrature nodes.  That grid-level resolution is all
the downstream consumers (counting statistics, growth residuals) need.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import (_POSITIVE, DiscretizationFailure, PrecisionFailure, _as_index,
                     _as_seed, _check_number, _check_points)
from .orthopoly import weight_quadrature
from .sequences import _growth_residual
# not called here: perfbench's self-test pins the alias
# bessellab.dpp.bessel_kernel, so the import stays while it does
from .specfun import bessel_kernel  # noqa: F401

__all__ = [
    "DiscretizedKernel",
    "Samples",
    "CountStats",
    "nystrom",
    "sample",
    "sample_many",
    "count_stats",
    "exact_count_law",
    "gap_probability",
]

# Operator window: no eigenvalue may exceed 1 + EIG_TOL; anything worse
# is an under-resolved discretization, not a clipping candidate.
EIG_TOL = 1e-8

VAR_SLOPE = 1.0 / (4.0 * np.pi**2)

# The fewest Nystrom nodes ``nystrom`` accepts.
M_MIN = 64

# Conditional marginals in the sampler are exact up to accumulated roundoff
# of order k * 1e-16; anything more negative than this means the selected
# eigenvectors were not orthonormal to working precision.
MARGINAL_TOL = 1e-10

# Nodes per block of the chain-rule draw: a draw first finds its block from
# the block masses, then its node inside the block.
_DRAW_BLOCK = 16


@dataclass(frozen=True)
class DiscretizedKernel:
    """Nystrom matrix of the kernel on [0, T] as B B^T, with its spectrum."""

    nu: float
    T: float
    m: int
    nodes: np.ndarray        # x_i in (0, T), increasing
    weights: np.ndarray      # quadrature masses for dx
    factor: np.ndarray       # B, m x N: the Nystrom matrix is B B^T
    eigenvalues: np.ndarray  # ascending, clipped to [0, 1]; zeros past B's rank
    eigenvectors: np.ndarray # orthonormal columns for the last min(m, N) eigenvalues
    eig_range: tuple         # (lowest, highest) eigenvalue before the clip

    @property
    def trace(self):
        return float(np.sum(self.eigenvalues))

    @property
    def matrix(self):
        """A_ij = sqrt(w_i w_j) K(x_i, x_j) = (B B^T)_ij, m x m, formed on
        each call; the library itself never needs it."""
        return self.factor @ self.factor.T


@dataclass(frozen=True)
class Samples:
    """A batch of sampled configurations together with what determined them.

    Sample j holds points[offsets[j]:offsets[j + 1]], strictly increasing,
    drawn from seeds[j] by the kernel of order nu on (0, T] at m nodes.  A
    point outside (0, T], NaN included, or a T that is not finite and
    positive raises DomainError.
    """

    points: np.ndarray   # every sample's points, one sample after another
    offsets: np.ndarray  # n + 1 ints rising from 0 to points.size
    seeds: np.ndarray    # n uint64
    T: float
    nu: float
    m: int

    def __post_init__(self):
        T = _check_number(self.T, _POSITIVE, math.inf, "T")
        pts = _check_points(self.points, _POSITIVE, T, "sample points")
        off = np.asarray(self.offsets)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "offsets", off)
        if (off.shape != (len(self.seeds) + 1,) or off.size < 2 or off[0] != 0
                or off[-1] != pts.size or np.any(np.diff(off) < 0)):
            raise ValueError("offsets must rise from 0 to points.size, one sample per seed")
        # a step that does not rise is allowed only where a sample starts
        if not np.isin(np.flatnonzero(np.diff(pts) <= 0) + 1, off).all():
            raise ValueError("sample points must be strictly increasing")


def _clip_to_window(lam, m):
    """Ascending eigenvalues capped at 1, after checking that the top one
    is at most 1 + EIG_TOL; an escape raises DiscretizationFailure, whose
    message gives the excess over 1.  Both callers pass squared singular
    values, which are never negative, so there is no lower end to check."""
    if lam[-1] > 1.0 + EIG_TOL:
        raise DiscretizationFailure(
            "eigenvalues exceed 1+%g: %.3e above 1; increase m (have m=%d)"
            % (EIG_TOL, lam[-1] - 1.0, m)
        )
    return np.minimum(lam, 1.0)


def _factor(nu, x, w, q):
    """B with A = B B^T: B_ik = sqrt(w_i) C(x_i)_k for k < q, the rows of
    the kernel's Neumann series (``specfun._rows``)."""
    return specfun._rows(nu, x, q).T * np.sqrt(w)[:, None]


def _spectrum(B):
    """Ascending eigenvalues of B B^T, padded with exact zeros to B's row
    count, and orthonormal eigenvectors for the r = min(m, N) last ones:
    a thin QR of B, then an SVD of its r x N triangle R."""
    Q, R = np.linalg.qr(B)
    U, sigma, _ = np.linalg.svd(R, full_matrices=False)
    lam = np.zeros(B.shape[0])
    lam[B.shape[0] - sigma.size:] = sigma[::-1] ** 2
    return lam, Q @ U[:, ::-1]


def nystrom(nu, T, m=512):
    """Discretize the kernel on [0, T] with m nodes and diagonalize.

    The nodes are x_i = T u_i^2 and the masses w_i = 2 T u_i^(1 - a)
    mu_i, (u, mu) the m-point Gauss rule for u^a du on (0, 1),
    ``weight_quadrature(a, 1, m)``, with a = (2 nu + 1) - ceil(2 nu + 1)
    in (-1, 0].  In u the diagonal integrand K(x, x) dx is u^(2 nu + 1)
    times a function smooth in u^2; the rule takes u^a into its weight and
    leaves u^ceil(2 nu + 1), smooth at 0, for every order.  a = 0, Gauss-Legendre, at every integer
    and half-integer order.  At (T, m) = (100, 128) the trace is within
    3.3e-14 of a 20-digit mpmath integral of K(x, x) for nu in {-0.9,
    -0.6, -0.25, 0.3}; Gauss-Legendre in u was off by 1.7e-1 at nu = -0.9
    and 1.1e-10 at nu = 0.3, and raised at nu = -0.25.  The Gauss-Jacobi
    rule under ``weight_quadrature`` is computed once per process for each
    (m, a), the Legendre rule shared with the measures of integer order;
    at m = 512 and a = 0 its nodes are within 6.1e-17 and its weights
    within 7.5e-13 relative, against numpy's leggauss at 6.0e-17 and
    1.1e-10.

    The Nystrom matrix is A = B B^T with B_ik = sqrt(w_i) C(x_i)_k for k
    < N, the rows of the kernel's Neumann series (``specfun._rows``) and N
    the number of terms for the largest node (``specfun._terms``).  That
    is 2m Bessel evaluations and no m x m matrix.  The eigenvalues are the
    squared singular values of B (a thin QR of B, then an SVD of the
    triangle R), padded with exact zeros to length m so that ``sample``
    draws m thinning uniforms; ``eigenvectors`` holds the min(m, N)
    columns that belong to the nonzero part.

    Raises DiscretizationFailure when the top eigenvalue exceeds
    1 + EIG_TOL, with its excess over 1 in the message; the fix is more
    nodes.  From about sqrt(T) = 2m on the top eigenvalue is 2 or more,
    so N > 2m raises it at once, before B is allocated.  Raises
    PrecisionFailure when T is so close to the float maximum that the
    masses overflow, or so small that a node underflows to 0.  Large
    orders need nothing special: nystrom(100, 1e6, 1024) has the trace
    269.9028, and at (600, 1e4) J_{nu+1} underflows on the whole window
    and the spectrum is exactly 0.
    """
    m = int(_as_index(m, M_MIN, math.inf, "m"))
    T = _check_number(T, _POSITIVE, math.inf, "T")
    nu = specfun._order(nu)
    a = 0.0 - (-2.0 * nu - 1.0) % 1.0  # (2 nu + 1) - ceil(2 nu + 1), in (-1, 0]
    u, mu = weight_quadrature(a, 1.0, m)
    x = T * u**2
    with np.errstate(over="ignore"):
        w = 2.0 * T * u ** (1.0 - a) * mu  # dx = 2 T u du, and mu carries u^a du
    if not (np.all(np.isfinite(w)) and x[0] > 0.0):
        raise PrecisionFailure(f"Nystrom masses overflow or nodes underflow to 0 at T={T!r}")
    q = specfun._terms(nu, x[-1])
    if q > 2 * m:
        raise DiscretizationFailure(
            "T=%g needs %d terms of the kernel's series, more than 2m; increase m (have m=%d)"
            % (T, q, m))
    B = _factor(nu, x, w, q)
    lam, vec = _spectrum(B)
    return DiscretizedKernel(
        nu=nu, T=T, m=m, nodes=x, weights=w, factor=B, eigenvectors=vec,
        eigenvalues=_clip_to_window(lam, m), eig_range=(float(lam[0]), float(lam[-1])))


def _rng(seed):
    # Counter-based generator: derived streams are reproducible and
    # collision-free across parallel samplers.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _sample_block(kern, seeds):
    """The points and sizes k of one configuration for each checked seed,
    the samples drawn in lockstep.

    Each seed makes the calls of a lone sample: random(n) for the
    eigenvalue thinning, then random(k) for the chain rule; the uniforms
    of the chain rule fill a B x k_max array.  The block shares the basis
    W of every eigenvector any of its samples kept (m x d); the 0/1 rows
    of M (B x d) mark each sample's own columns.  Column b of the m x B
    marginals P starts at the row sums of W^2 * M[b]; sample b's earlier
    directions are rows of E[b] in R^d.  A step draws one node i_b per
    sample, orthonormalizes w = W[i_b] * M[b] against E[b], maps every
    sample's direction g to its kernel column with one product c = W g^T,
    written into one m x B array allocated per block, and subtracts c^2
    from P.  A sample that already has its k points has M[b] = 0, so g = 0
    and P[:, b] stays as it is.  W, and so P, are padded with rows of
    zero mass to a multiple of _DRAW_BLOCK, where P is viewed by blocks
    of nodes for the draw.  The points come sample after sample, each
    sample's in increasing order.
    """
    lam = kern.eigenvalues
    n_block = len(seeds)
    rngs = [_rng(seed) for seed in seeds]
    keep = np.empty((n_block, lam.size), dtype=bool)
    for b, rng in enumerate(rngs):
        keep[b] = rng.random(lam.size) < lam
    k = np.count_nonzero(keep, axis=1)
    steps = int(k.max())
    U = np.zeros((n_block, steps))  # U[b, t]: sample b's uniform of draw t
    for b, rng in enumerate(rngs):
        U[b, :k[b]] = rng.random(k[b])
    used = keep.any(axis=0)
    m, r = kern.eigenvectors.shape
    d = int(np.count_nonzero(used))
    nb = -(-m // _DRAW_BLOCK)  # blocks of nodes; rows past m have zero mass
    W = np.zeros((nb * _DRAW_BLOCK, d))  # m x d, and the padding's zero rows
    # eigenvectors belong to the last r eigenvalues; a zero one is never kept
    W[:m] = kern.eigenvectors[:, used[lam.size - r:]]
    M = keep[:, used].astype(float)  # B x d, 1 on a sample's own columns
    P = (W * W) @ M.T  # column b: diag of sample b's projection kernel
    Pb = P.reshape(nb, _DRAW_BLOCK, n_block)  # a view: P by blocks of nodes
    E = np.empty((n_block, steps, d))
    C = np.zeros((nb + 1, n_block))  # C[q]: mass of the blocks before block q
    chosen = np.empty((steps, n_block), dtype=int)
    # every step's kernel columns go into this one buffer: a fresh m x B
    # array per step would land on new pages, one minor fault per page
    c = np.empty_like(P)
    cols = np.arange(n_block)
    for t in range(steps):
        active = t < k
        M[k == t] = 0.0  # finished: g = 0 from here on
        np.add.accumulate(Pb.sum(axis=1), axis=0, out=C[1:])
        total = C[-1]
        vanished = active & ~(total > 0)
        if vanished.any():
            b = int(np.argmax(vanished))
            raise PrecisionFailure(
                "conditional marginals vanished after %d of %d points (seed %d)"
                % (t, k[b], seeds[b]))
        # the draw is the first node whose cumulative mass exceeds u * total.
        # Its block is the count of blocks whose C[q + 1] <= u * total (u < 1
        # keeps it below nb; a finished sample's is only kept in range).
        # Inside the block the cumulative mass is summed node by node from
        # C[block], so it never rises at a node of zero marginal and such a
        # node is never drawn; if rounding leaves the block's sum short of
        # u * total, its last node of positive marginal is taken.
        x = U[:, t] * total
        blk = np.minimum(np.count_nonzero(C[1:] <= x, axis=0), nb - 1)
        cum = Pb[blk, :, cols]  # B x L: the marginals of each sample's block
        cum[:, 0] += C[blk, cols]
        np.add.accumulate(cum, axis=1, out=cum)
        j = np.count_nonzero(cum <= x[:, None], axis=1)
        short = active & (j == _DRAW_BLOCK)
        if short.any():
            last = _DRAW_BLOCK - 1 - np.argmax(Pb[blk, ::-1, cols] > 0, axis=1)
            j = np.where(short, last, j)
        i = blk * _DRAW_BLOCK + np.minimum(j, _DRAW_BLOCK - 1)
        chosen[t] = i
        w = W[i] * M
        Et = E[:, :t]
        h = np.matmul(Et, w[:, :, None])  # B x t x 1: E[b] w_b
        g = w - np.matmul(h.transpose(0, 2, 1), Et)[:, 0]
        g /= np.sqrt(np.where(active, P[i, cols], 1.0))[:, None]
        E[:, t] = g
        np.matmul(W, g.T, out=c)  # m x B: one product for the whole block
        c *= c
        P -= c
        P[i, cols] = 0.0  # taken; zero up to roundoff already
        low = P.min()
        if low < 0.0:
            if low < -MARGINAL_TOL:
                b = int(np.argmin(P.min(axis=0)))
                raise PrecisionFailure(
                    "conditional marginal %.3e below -%g (seed %d)"
                    % (low, MARGINAL_TOL, seeds[b]))
            # what is left below zero is roundoff
            np.maximum(P, 0.0, out=P)
    drawn = np.arange(steps)[:, None] < k  # steps x B: the draws each sample made
    x = np.where(drawn, kern.nodes[chosen], np.inf)
    x.sort(axis=0)
    return x.T[drawn.T], k


def _sample_seeds(kern, seeds):
    # the checked seeds drawn _BLOCK at a time, gathered into one batch
    pts, k = zip(*[_sample_block(kern, seeds[start:start + _BLOCK])
                   for start in range(0, len(seeds), _BLOCK)])
    return Samples(points=np.concatenate(pts), offsets=np.cumsum(np.concatenate([[0], *k])),
                   seeds=np.array(seeds, dtype=np.uint64), T=kern.T, nu=kern.nu, m=kern.m)


def sample(kern, seed):
    """Draw one configuration from the discretized process, returned as a
    ``Samples`` batch of one.

    Bernoulli(lambda_j) selects k eigenvectors (one uniform per
    eigenvalue); the projection kernel K = V V^T is then sampled point by
    point, with the k chain-rule uniforms drawn in one call (the same
    values as k scalar draws).  The sampler works in eigen-coordinates:
    W = V^T holds column w_i for node i, the marginals p start at the
    column sums of W^2 = diag(K), and the earlier directions are rows of
    E.  After node i is drawn, g = (w_i - E^T (E w_i)) / sqrt(p[i]) is
    orthonormal to them, the orthonormalized kernel column is c = g W, and
    p -= c^2.  Node i is found from the masses of blocks of _DRAW_BLOCK
    nodes, then inside its block (see the module docstring); a node of zero
    marginal is never drawn.  Each draw costs O(m k), a sample O(m k^2).
    This is a block of one for ``_sample_block``, which ``sample_many``
    runs on blocks of its derived seeds; see the module docstring on why
    their points agree.

    seed must be an integer >= 0, as every derived seed of
    ``sample_many`` is (they fill [0, 2^64)); anything else raises
    DomainError.  Raises PrecisionFailure, naming the seed, when a
    marginal falls below -MARGINAL_TOL or the marginals run out before k
    points are drawn.
    """
    return _sample_seeds(kern, [_as_seed(seed, "seed")])


# Samples drawn in lockstep by sample_many, chosen by measurement: on 2
# vCPU with OpenBLAS, the median of 15 interleaved in-process runs of 500
# samples at the default (nu, T, m) = (0, 1e4, 512) took 92 ms at 48, 74 ms
# at 100, 73 ms at 128, 71 ms at 200, 69 ms at 250 and 75 ms at 500.  A
# block of 500 also raises the peak RSS of a dpp_stats run by about 8 MB;
# 250 leaves it as it is at 48.
_BLOCK = 250


def sample_many(kern, n_samples, master_seed):
    """n_samples independent configurations from deterministically derived
    seeds, returned as one ``Samples`` batch.

    The derived seeds are drawn _BLOCK at a time in lockstep
    (``_sample_block``): the block shares the d eigenvectors that any of
    its samples kept, and each draw step is one (m x d)(d x B) product for
    the whole block, O(B d m) per step, in place of B length-m products,
    and one pass over the m x B marginals to find the B nodes from their
    block masses.
    Sample j equals ``sample(kern, samples.seeds[j])`` point for point.
    master_seed must be an integer >= 0; anything else raises DomainError.
    """
    n_samples = int(_as_index(n_samples, 1, math.inf, "n_samples"))
    seeds = np.random.SeedSequence(_as_seed(master_seed, "master_seed")).generate_state(
        n_samples, dtype=np.uint64
    ).tolist()
    return _sample_seeds(kern, seeds)


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
    var_slope: float             # fit of var against log T', or NaN
    max_growth_residual: float

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
    # each point's 1-based index n in its sample; points with n < 3 are skipped
    off = samples.offsets
    n = np.arange(1, samples.points.size + 1) - np.repeat(off[:-1], np.diff(off))
    far = n >= 3
    r = _growth_residual(samples.points[far], n[far].astype(float))
    return float(np.max(np.abs(r), initial=0.0))


def _log_slope(thresholds, var):
    # least-squares slope of var against log T', or NaN when undefined:
    # fewer than two distinct thresholds, or a variance that is not > 0
    if np.unique(thresholds).size < 2 or not np.all(var > 0):
        return np.nan
    return float(np.polyfit(np.log(thresholds), var, 1)[0])


def count_stats(samples, thresholds):
    """Mean/variance table of N(T') with standard errors and the variance
    slope against log T', NaN when the thresholds hold fewer than two
    distinct values or a variance is 0.  Also reports the worst growth
    residual (p_n - pi^2 n^2) / (n^{3/2} log^{3/2} n) across all samples
    (eps = GROWTH_EPS = 1/2 of ``PointSequence.growth_residual``)."""
    thr = _check_points(thresholds, _POSITIVE, samples.T, "thresholds")
    ns = samples.offsets.size - 1
    # below[i]: points among the first i of the batch that lie in (0, T']
    below = np.zeros((samples.points.size + 1, thr.size))
    np.cumsum(samples.points[:, None] <= thr, axis=0, out=below[1:])
    counts = np.diff(below[samples.offsets], axis=0)
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


def _window_eigenvalues(kern, t):
    """Eigenvalues of the kernel restricted to the nodes <= t, clipped to
    [0, 1]: ``kern.eigenvalues`` when the window holds every node, else
    the squared singular values of those rows of B, checked against the
    same 1 + EIG_TOL bound as ``nystrom`` before the clip, which by
    Cauchy interlacing only a hand-built factor can fail."""
    inside = kern.nodes <= t
    if inside.all():
        return kern.eigenvalues
    if not inside.any():  # window below the first node: N = 0
        return np.empty(0)
    sigma = np.linalg.svd(kern.factor[inside], compute_uv=False)
    return _clip_to_window(sigma[::-1] ** 2, kern.m)


def exact_count_law(kern, thresholds):
    """Exact (mean, var, var_slope) of N(0, T'] in the discretized process.

    N(0, T'] has the law of a sum of independent Bernoulli(lambda_j), the
    lambda_j being the eigenvalues of ``kern.matrix`` restricted to the
    nodes <= T' (Hough, Krishnapur, Peres, Virag 2006), so mean = sum lambda
    and var = sum lambda (1 - lambda).  Each window's lambda_j are the
    squared singular values of the rows of ``kern.factor`` at those nodes,
    and a window that holds every node reuses ``kern.eigenvalues``; an
    eigenvalue above 1 + EIG_TOL raises DiscretizationFailure.  var_slope
    is fitted against log T' like ``CountStats.var_slope``.
    """
    thr = _check_points(thresholds, _POSITIVE, kern.T, "thresholds")
    mean = np.empty(thr.size)
    var = np.empty(thr.size)
    for j, t in enumerate(thr):
        lam = _window_eigenvalues(kern, t)
        mean[j] = lam.sum()
        var[j] = np.sum(lam * (1.0 - lam))
    return mean, var, _log_slope(thr, var)


def gap_probability(kern, s):
    """Probability that the discretized process has no point in (0, s]:
    det(I - K) on the window, the product of (1 - lambda) over the
    eigenvalues of the kernel restricted to the nodes <= s.  For nu = 0 it
    tends to exp(-s/4) (Bornemann, Math. Comp. 79, 2010).  s must lie in
    (0, T]; an eigenvalue above 1 + EIG_TOL raises DiscretizationFailure,
    as in ``exact_count_law``.
    """
    s = _check_number(s, _POSITIVE, kern.T, "s")
    return float(np.prod(1.0 - _window_eigenvalues(kern, s)))
